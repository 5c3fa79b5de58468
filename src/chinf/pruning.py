"""Channel subset selection by accumulated self-influence, plus evaluation.

Channels are ranked by their self-influence accumulated over a validation
set (computed once, on a model trained with all channels), then a subset is
picked by equidistant sampling over the ascending ranking. The ranking does
not depend on eta, so the scores are accumulated in units of it. A model
retrained from scratch on the subset alone is evaluated against the
full-channel model on the complete test channel set.

Channel-shared models make that evaluation well-defined on channels never
seen in subset training. The channel-mixing variant has no such out-of-the-
box generality, so its mixing layer is refit on all channels after subset
training and the result is flagged.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import ParamSelector
from .core import DatasetSplit, Windows, WindowStack, _integral, _readonly, make_windows
# self_influence_per_channel stays bound here: perfbench/test_perfbench.py
# checks that the tracer wraps this module's binding of it
from .influence import self_influence_per_channel, self_influence_rows  # noqa: F401
from .models import (
    ModelSpec,
    ModelState,
    TrainConfig,
    init_params,
    mean_window_mse,
    train,
)

STRATEGIES = ("influence_equidistant", "random", "continuous", "most_influence")


@dataclass(frozen=True)
class ChannelScoreTable:
    """Accumulated self-influence per channel; its ranking ascends, ties by index."""

    scores: np.ndarray
    ranking: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        scores = _readonly(self.scores)
        if scores.ndim != 1 or scores.size == 0:
            raise ValueError(f"scores must be a nonempty vector, got shape {scores.shape}")
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite")
        object.__setattr__(self, "scores", scores)
        ranking = tuple(int(i) for i in np.argsort(scores, kind="stable"))
        object.__setattr__(self, "ranking", ranking)

    @property
    def n_channels(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class PruningResult:
    strategy: str
    selected: tuple[int, ...]
    mse_selected_model_on_all_channels: float
    mse_full_model: float
    seed: int
    mixing_refit: bool = False

    @property
    def m(self) -> int:
        return len(self.selected)


def accumulate_channel_scores(
    state: ModelState,
    val_windows: Windows,
    eta: float | None = None,
    selector: ParamSelector | None = None,
) -> ChannelScoreTable:
    """Sum each channel's self-influence over the validation windows."""
    per_window = self_influence_rows(state, val_windows, eta, selector)
    # accumulate adds the rows one by one in window order; a pairwise sum
    # would move the last digits of the totals, and with them pruning.csv
    return ChannelScoreTable(np.add.accumulate(per_window, axis=0)[-1])


def equidistant_select(table: ChannelScoreTable, m: int) -> tuple[int, ...]:
    """Channels at ranked positions floor(k*N/m), k = 0..m-1.

    Walking the ascending ranking at a constant stride covers the whole
    influence range, lowest-influence channel included. Returns original
    channel indices, sorted.
    """
    n = table.n_channels
    if not 1 <= m <= n:
        raise ValueError(f"subset size {m} out of range for {n} channels")
    positions = [(k * n) // m for k in range(m)]
    return tuple(sorted(table.ranking[p] for p in positions))


def baseline_select(
    table: ChannelScoreTable, m: int, strategy: str, seed: int = 0
) -> tuple[int, ...]:
    """Comparison strategies: continuous, random, most_influence."""
    n = table.n_channels
    if not 1 <= m <= n:
        raise ValueError(f"subset size {m} out of range for {n} channels")
    if strategy == "continuous":
        return tuple(range(m))
    if strategy == "random":
        rng = np.random.default_rng(seed)
        return tuple(sorted(int(c) for c in rng.choice(n, size=m, replace=False)))
    if strategy == "most_influence":
        return tuple(sorted(table.ranking[n - m :]))
    raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")


def _refit_mixing(
    subset_state: ModelState,
    spec: ModelSpec,
    full_train_windows: WindowStack,
    train_config: TrainConfig,
    refit_epochs: int,
) -> ModelState:
    """Graft a fresh full-size mixing layer onto subset-trained shared maps
    and fit only that layer on all channels."""
    params = dict(subset_state.params, mix=init_params(spec, train_config.seed).params["mix"])
    state = ModelState(spec, params)
    mix_only = ParamSelector(f"{spec.architecture}/mixing", ("mix",))
    config = replace(train_config, epochs=refit_epochs)
    return train(state, full_train_windows, config, trainable=mix_only)


def prune_and_eval(
    split: DatasetSplit,
    spec: ModelSpec,
    train_config: TrainConfig,
    m: int,
    strategy: str,
    *,
    stride: int = 1,
    seed: int | None = None,
    refit_epochs: int = 5,
) -> PruningResult:
    """Train full, select m channels, retrain on them, evaluate both on all.

    The score table always comes from the full-channel model, so selection
    itself never retrains; it is accumulated at eta = 1, since the ranking
    is all that selection reads. ``seed`` (default: train_config.seed) only
    feeds the random strategy. Both MSEs are per-element forecasting error
    on the full-channel test windows. m and refit_epochs are checked before
    anything trains.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    if spec.horizon < 1:
        raise ValueError("pruning evaluation needs a forecasting model (horizon > 0)")
    n = split.train.n_channels
    if spec.architecture == "mlp_mix" and spec.channels != n:
        raise ValueError(f"spec expects {spec.channels} channels, data has {n}")
    if not 1 <= m <= n:
        raise ValueError(f"subset size {m} out of range for {n} channels")
    if _integral(refit_epochs, "refit_epochs") < 1:
        raise ValueError(f"refit_epochs must be at least 1, got {refit_epochs}")
    if seed is None:
        seed = train_config.seed

    rows = spec.total_rows
    train_windows = make_windows(split.train, rows, stride)
    test_windows = make_windows(split.test, rows, stride)
    full_state = train(init_params(spec, train_config.seed), train_windows, train_config)

    if strategy in ("influence_equidistant", "most_influence"):
        val_windows = make_windows(split.val, rows, stride)
        table = accumulate_channel_scores(full_state, val_windows, 1.0)
    else:
        # random and continuous ignore the scores; a zero table carries N
        table = ChannelScoreTable(np.zeros(n))
    if strategy == "influence_equidistant":
        selected = equidistant_select(table, m)
    else:
        selected = baseline_select(table, m, strategy, seed)

    subset_spec = replace(spec, channels=m) if spec.architecture == "mlp_mix" else spec
    subset_windows = WindowStack(train_windows.values[..., list(selected)], train_windows.origins)
    subset_state = train(
        init_params(subset_spec, train_config.seed), subset_windows, train_config
    )

    mixing_refit = spec.architecture == "mlp_mix" and m < n
    if mixing_refit:
        eval_state = _refit_mixing(
            subset_state, spec, train_windows, train_config, refit_epochs
        )
    else:
        eval_state = subset_state

    return PruningResult(
        strategy=strategy,
        selected=selected,
        mse_selected_model_on_all_channels=mean_window_mse(eval_state, test_windows),
        mse_full_model=mean_window_mse(full_state, test_windows),
        seed=seed,
        mixing_refit=mixing_refit,
    )


def save_pruning_csv(results: list[PruningResult], path: str) -> None:
    """One row per result: strategy, m, seed, both MSEs, refit flag."""
    lines = ["strategy,m,seed,mse_selected,mse_full,mixing_refit"]
    for r in results:
        lines.append(
            f"{r.strategy},{r.m},{r.seed},"
            f"{r.mse_selected_model_on_all_channels!r},{r.mse_full_model!r},"
            f"{str(r.mixing_refit).lower()}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
