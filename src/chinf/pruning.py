"""Channel subset selection by accumulated self-influence, plus evaluation.

A pruning pass (prune_cells) trains a model on all channels once, ranks
the channels by their self-influence accumulated over a validation set on
that model, and evaluates any number of (m, strategy) cells against the
one model and ranking. select_channels picks each cell's subset; the
paper's strategy samples the ascending ranking at equal spacing. The
ranking does not depend on eta, so the scores are accumulated in units of
it. A model retrained from scratch on the subset alone is evaluated against
the full-channel model on the complete test channel set.

Channel-shared models make that evaluation well-defined on channels never
seen in subset training. The channel-mixing variant has no such out-of-the-
box generality, so its mixing layer is refit on all channels after subset
training and the result is flagged.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import ParamSelector
from .core import DatasetSplit, Windows, WindowStack, _finite, _finite_number, _integral
from .core import MtsSeries, _readonly, _write_lines, make_windows
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
        object.__setattr__(self, "scores", _finite(scores, "scores must be finite"))
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

    def __post_init__(self):
        for name in ("mse_selected_model_on_all_channels", "mse_full_model"):
            object.__setattr__(self, name, _finite_number(getattr(self, name), name))

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


def select_channels(
    table: ChannelScoreTable, m: int, strategy: str, seed: int = 0
) -> tuple[int, ...]:
    """The m channels a strategy keeps, as sorted original channel indices.

    influence_equidistant takes ranked positions floor(k*N/m), k = 0..m-1:
    walking the ascending ranking at a constant stride covers the whole
    influence range, lowest-influence channel included. most_influence takes
    the top m of the ranking, continuous the first m channels, and random m
    distinct channels drawn with ``seed``.
    """
    n = table.n_channels
    m = _integral(m, "subset size")
    if not 1 <= m <= n:
        raise ValueError(f"subset size {m} out of range for {n} channels")
    if strategy == "influence_equidistant":
        picked = [table.ranking[(k * n) // m] for k in range(m)]
    elif strategy == "most_influence":
        picked = table.ranking[n - m :]
    elif strategy == "random":
        picked = np.random.default_rng(seed).choice(n, size=m, replace=False).tolist()
    elif strategy == "continuous":
        picked = range(m)
    else:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    return tuple(sorted(picked))


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


def prune_cells(
    split: DatasetSplit,
    spec: ModelSpec,
    train_config: TrainConfig,
    cells,
    *,
    stride: int = 1,
    seed: int | None = None,
    refit_epochs: int = 5,
) -> list[PruningResult]:
    """One pruning pass: a PruningResult per (m, strategy) cell, in order.

    The full-channel model, its test MSE and the score table are built once
    and shared by every cell; the table is accumulated at eta = 1, since the
    ranking is all that selection reads, and only when a cell reads it. Each
    cell then trains a model from scratch on its subset alone. ``seed``
    (default: train_config.seed) only feeds the random strategy. Both MSEs
    are per-element forecasting error on the full-channel test windows.
    Every cell and refit_epochs are checked before anything trains.
    """
    if spec.horizon < 1:
        raise ValueError("pruning evaluation needs a forecasting model (horizon > 0)")
    n = split.train.n_channels
    if spec.architecture == "mlp_mix" and spec.channels != n:
        raise ValueError(f"spec expects {spec.channels} channels, data has {n}")
    cells = list(cells)
    if not cells:
        raise ValueError("no (m, strategy) cells to evaluate")
    # random and continuous ignore the scores; a zero table carries N, and
    # selecting on it checks every cell before anything trains
    table = ChannelScoreTable(np.zeros(n))
    for m, strategy in cells:
        select_channels(table, m, strategy)
    _integral(refit_epochs, "refit_epochs", 1)
    if seed is None:
        seed = train_config.seed

    rows = spec.total_rows
    train_windows = make_windows(split.train, rows, stride)
    test_windows = make_windows(split.test, rows, stride)
    full_state = train(init_params(spec, train_config.seed), train_windows, train_config)
    # a test MSE that overflows raises here, before any cell trains
    mse_full = mean_window_mse(full_state, test_windows)
    if any(strategy in ("influence_equidistant", "most_influence") for _, strategy in cells):
        val_windows = make_windows(split.val, rows, stride)
        table = accumulate_channel_scores(full_state, val_windows, 1.0)

    results = []
    for m, strategy in cells:
        selected = select_channels(table, m, strategy, seed)
        m = len(selected)
        names = tuple(split.train.channel_names[c] for c in selected)
        subset = MtsSeries(split.train.values[:, list(selected)], names)
        subset_spec = replace(spec, channels=m) if spec.architecture == "mlp_mix" else spec
        subset_state = init_params(subset_spec, train_config.seed)
        eval_state = train(subset_state, make_windows(subset, rows, stride), train_config)
        mixing_refit = spec.architecture == "mlp_mix" and m < n
        if mixing_refit:
            eval_state = _refit_mixing(eval_state, spec, train_windows, train_config, refit_epochs)
        mse = mean_window_mse(eval_state, test_windows)
        results.append(PruningResult(strategy, selected, mse, mse_full, seed, mixing_refit))
    return results


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
    """One cell of prune_cells: train full, select m channels, retrain on
    them, evaluate both on all."""
    options = dict(stride=stride, seed=seed, refit_epochs=refit_epochs)
    return prune_cells(split, spec, train_config, [(m, strategy)], **options)[0]


def save_pruning_csv(results: list[PruningResult], path: str) -> None:
    """One row per result: strategy, m, seed, both MSEs, refit flag."""
    lines = ["strategy,m,seed,mse_selected,mse_full,mixing_refit"]
    for r in results:
        lines.append(
            f"{r.strategy},{r.m},{r.seed},"
            f"{r.mse_selected_model_on_all_channels!r},{r.mse_full_model!r},"
            f"{str(r.mixing_refit).lower()}"
        )
    _write_lines(path, lines)
