"""Independent numpy oracles for the benchmark's output checks.

Nothing here calls into ``chinf``: gradients are the closed forms of the
per-channel sum-of-squares loss, training is plain batched SGD with a
hand-derived gradient, and thresholding sorts once instead of re-scoring
every candidate. The program's outputs are compared against these, so a
fast path that changes results shows up as a failed check, not as a gain.

Parameters are plain ``{name: array}`` dicts and a spec is any object with
the attributes of ``chinf.models.ModelSpec``.
"""
from __future__ import annotations

import numpy as np

NORMALIZATIONS = ("mean_std", "median_iqr")


def sliding_windows(values: np.ndarray, rows: int) -> np.ndarray:
    """(B, rows, N) stack of every stride-1 window of a (T, N) series."""
    return np.lib.stride_tricks.sliding_window_view(values, rows, axis=0).transpose(0, 2, 1)


def _split(spec, windows: np.ndarray):
    if spec.horizon > 0:
        return windows[:, : spec.window], windows[:, spec.window :]
    return windows, windows


def _act(spec, a):
    return np.tanh(a) if spec.activation == "tanh" else np.maximum(a, 0.0)


def _act_grad(spec, a, h):
    return 1.0 - h * h if spec.activation == "tanh" else (a > 0).astype(np.float64)


def forward(spec, params, x):
    """Batched forward pass on (B, window, N) inputs; returns (y, cache)."""
    xm = x @ params["mix"] if spec.architecture == "mlp_mix" else x
    if spec.architecture == "linear_ci":
        return params["weight"] @ xm + params["bias"][:, None], (xm, None, None)
    a = params["w1"] @ xm + params["b1"][:, None]
    h = _act(spec, a)
    return params["w2"] @ h + params["b2"][:, None], (xm, a, h)


def channel_gradient_rows(spec, params, windows: np.ndarray, names) -> np.ndarray:
    """(B, N, P) gradients of each channel's sum-of-squares loss.

    Columns follow ``names`` in order, each parameter flattened row-major,
    which is the layout of ``chinf.autodiff.backward``.
    """
    x, t = _split(spec, windows)
    y, (xm, a, h) = forward(spec, params, x)
    r = 2.0 * (y - t)  # (B, out, N)
    b, _, n = r.shape
    grads = {}
    if spec.architecture == "linear_ci":
        grads["weight"] = np.einsum("bon,bwn->bnow", r, xm)
        grads["bias"] = r.transpose(0, 2, 1)
    else:
        grads["w2"] = np.einsum("bon,bhn->bnoh", r, h)
        grads["b2"] = r.transpose(0, 2, 1)
        if any(name in names for name in ("w1", "b1", "mix")):
            da = np.einsum("oh,bon->bhn", params["w2"], r) * _act_grad(spec, a, h)
            grads["w1"] = np.einsum("bhn,bwn->bnhw", da, xm)
            grads["b1"] = da.transpose(0, 2, 1)
            if spec.architecture == "mlp_mix":
                dxm = np.einsum("hw,bhn->bwn", params["w1"], da)
                # channel j's loss only reaches column j of the mixing matrix
                mix = np.zeros((b, n, n, n))
                cols = np.arange(n)
                mix[:, cols, :, cols] = np.einsum("bwk,bwj->jbk", x, dxm)
                grads["mix"] = mix
    return np.concatenate([grads[name].reshape(b, n, -1) for name in names], axis=2)


def self_influence(spec, params, windows, names, eta) -> np.ndarray:
    """(B, N) diagonal of each window's self-influence matrix."""
    rows = channel_gradient_rows(spec, params, windows, names)
    return eta * np.einsum("bnp,bnp->bn", rows, rows)


def influence_matrix(spec, params, src, dst, names, eta) -> np.ndarray:
    """(N, N) per-channel-pair influence of one (rows, N) window on another."""
    g = channel_gradient_rows(spec, params, np.stack([src, dst]), names)
    return eta * (g[0] @ g[1].T)


def channel_losses(spec, params, windows) -> np.ndarray:
    """(B, N) per-channel sum of squared errors."""
    x, t = _split(spec, windows)
    y, _ = forward(spec, params, x)
    d = y - t
    return np.einsum("bon,bon->bn", d, d)


def mean_mse(spec, params, windows) -> float:
    x, t = _split(spec, windows)
    y, _ = forward(spec, params, x)
    return float(np.mean((y - t) ** 2))


def init_linear(spec, seed: int) -> dict:
    """Weights uniform in +-1/sqrt(window) from ``default_rng(seed)``, bias 0."""
    if spec.architecture != "linear_ci":
        raise ValueError("the reference trainer covers linear_ci only")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(spec.window)
    return {
        "weight": rng.uniform(-bound, bound, size=(spec.out_rows, spec.window)),
        "bias": np.zeros(spec.out_rows),
    }


def train_linear(spec, params, windows, epochs, lr, batch_size, seed) -> dict:
    """Minibatch SGD on per-element mean squared error for linear_ci.

    Batches follow ``default_rng(seed).permutation`` once per epoch.
    """
    x_all, t_all = _split(spec, windows)
    params = {k: np.array(v) for k, v in params.items()}
    rng = np.random.default_rng(seed)
    count = windows.shape[0]
    n = windows.shape[2]
    for _ in range(epochs):
        perm = rng.permutation(count)
        for start in range(0, count, batch_size):
            batch = perm[start : start + batch_size]
            x, t = x_all[batch], t_all[batch]
            r = params["weight"] @ x + params["bias"][:, None] - t
            scale = 2.0 / (len(batch) * spec.out_rows * n)
            params["weight"] -= lr * scale * np.einsum("bon,bwn->ow", r, x)
            params["bias"] -= lr * scale * r.sum(axis=(0, 2))
    return params


def normalize(scores: np.ndarray, mode: str) -> np.ndarray:
    if mode == "mean_std":
        center, scale = scores.mean(), scores.std()
    else:
        center = np.median(scores)
        scale = np.percentile(scores, 75) - np.percentile(scores, 25)
    return (scores - center) / max(float(scale), 1e-12)


def prf1(predicted: np.ndarray, labels: np.ndarray):
    tp = int(np.count_nonzero(predicted & labels))
    pred = int(np.count_nonzero(predicted))
    actual = int(np.count_nonzero(labels))
    precision = tp / pred if pred else 0.0
    recall = tp / actual if actual else 0.0
    f1 = 2 * tp / (pred + actual) if pred + actual else 0.0
    return precision, recall, f1


def best_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """Smallest h maximizing F1 of (scores > h) over midpoints of distinct
    scores and the two infinite sentinels, by one sort and a cumulative sum."""
    labels = labels != 0
    order = np.argsort(scores, kind="stable")
    distinct, first = np.unique(scores[order], return_index=True)
    pos_before = np.concatenate(([0], np.cumsum(labels[order])))
    actual = int(labels.sum())
    # candidate k < len(distinct) predicts every score from distinct[k] up
    predicted = np.append(scores.size - first, 0)
    tp = np.append(actual - pos_before[first], 0)
    f1 = [2 * int(a) / (int(p) + actual) for a, p in zip(tp, predicted)]
    k = int(np.argmax(f1))
    if k == 0:
        return -np.inf
    if k == distinct.size:
        return np.inf
    return float((distinct[k - 1] + distinct[k]) / 2.0)


def detect(val_raw, val_labels, test_raw, test_labels) -> dict:
    """Per-series normalization, val-chosen threshold, best of both modes."""
    best = None
    for mode in NORMALIZATIONS:
        h = best_threshold(normalize(val_raw, mode), val_labels)
        predictions = normalize(test_raw, mode) > h
        precision, recall, f1 = prf1(predictions, test_labels != 0)
        if best is None or f1 > best["f1"]:
            best = {
                "normalization": mode,
                "threshold": h,
                "precision": precision,
                "recall": recall,
                "f1": f1,
                "predictions": predictions.astype(np.int64),
            }
    return best
