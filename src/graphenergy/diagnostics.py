"""Measurement helpers for layer stacks and flows.

Everything here consumes states or the series measured from them and
produces plot-ready series: smoothness energies per layer, relative
energy increments with a stall verdict, pairwise cosine similarity
between states (one :class:`CosineGram`, which takes each pair as its
later state arrives and keeps unit-row forms only until their last
partner has come), least-squares decay-law fits, and the representation
cost of pruning a single layer.

Energies are always measured on the canonical unit-weight graph
(``canonical_energy_graph``), whatever weights the trajectory itself ran
on, so numbers from different architectures are comparable.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from graphenergy.graph import (
    WeightedGraph,
    canonical_energy_graph,
    derivative_energy,
)
from graphenergy.network import (
    ModelConfig,
    ModelParams,
    NonFiniteLayerError,
    _decode,
    _stream,
)

R_SQUARED_FLOOR = 0.95
AUTO_BURN_IN = 0.10
STALL_THRESHOLD = 0.05
LAW_POWER = "power"
LAW_EXPONENTIAL = "exponential"
LAW_GROWTH = "growth-power"


@dataclass(frozen=True, eq=False)
class EnergySeries:
    """Smoothness energy of each recorded state.

    ``indices`` are layer numbers or time stamps, strictly increasing;
    ``values`` are the nonnegative energies measured at them. Both are
    finite: a NaN or infinity is refused at its position.
    """

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=float)
        val = np.asarray(self.values, dtype=float)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("indices and values must be 1-d and aligned")
        if idx.size == 0:
            raise ValueError("empty series")
        bad = np.flatnonzero(~np.isfinite(idx) | ~np.isfinite(val))
        if bad.size:
            i = bad[0]
            raise ValueError(f"non-finite entry at position {i}: "
                             f"index {float(idx[i])!r}, value {float(val[i])!r}")
        if not (np.diff(idx) > 0).all():
            raise ValueError("indices must be strictly increasing")
        if (val < 0).any():
            raise ValueError("energies cannot be negative")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)
        self.indices.setflags(write=False)
        self.values.setflags(write=False)


@dataclass(frozen=True)
class StallVerdict:
    """Whether the tail of a series holds its energy while per-step
    relative increments die out.

    ``stalled`` is True when all three hold over the tail window: the
    least-squares slope of the energy is nonnegative, the median absolute
    relative increment sits below ``threshold`` (``STALL_THRESHOLD``), and
    the increments trend flat or downward.
    """

    stalled: bool
    energy_slope: float
    median_tail_change: float
    change_trend: float
    tail_start: int
    threshold: float


@dataclass(frozen=True, eq=False)
class RelativeChangeSeries:
    """Per-step relative energy increments plus the stall verdict.

    ``values[k]`` is ``(E[k+1] - E[k]) / E[k]``; entries with a zero
    denominator are NaN.
    """

    values: np.ndarray
    verdict: StallVerdict


@dataclass(frozen=True)
class LineFit:
    """Least-squares line through log-energies, with its R^2."""

    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class FitReport:
    """Decay-law fit of an energy series.

    ``law`` is the winning family; ``exponent`` is its slope (power
    exponent, or exponential rate per index unit); ``window`` is the
    inclusive index range actually used after dropping burn-in and
    nonpositive values. Both raw fits are kept for inspection; either
    may be None when too few points qualified.
    """

    law: str
    exponent: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    classification: str
    power_fit: LineFit | None
    exponential_fit: LineFit | None


@dataclass(frozen=True)
class PruneReport:
    """Output deviation caused by skipping one layer."""

    layer: int
    deviation: float
    mean_cosine: float


def energy_series(states, order: int = 2, *, topology: WeightedGraph) -> EnergySeries:
    """Measure a sequence of states, such as the ones a forward pass hands
    its ``observe`` callback, on the canonical unit-weight graph built over
    ``topology``; indices are positions in the sequence (layer numbers).

    The sweep and the flows measure each state as it is produced and keep
    none to pass here.
    """
    canonical = canonical_energy_graph(topology)
    values = np.array([derivative_energy(canonical, X, order) for X in states])
    return EnergySeries(indices=np.arange(values.size, dtype=float), values=values)


def relative_change_series(
    series: EnergySeries, tail_fraction: float = 0.5
) -> RelativeChangeSeries:
    """Relative increments of an energy series with a stall verdict.

    Zero denominators yield NaN entries instead of raising, so sweeps
    over many seeds never abort on a degenerate series.
    """
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    E = series.values
    if E.size < 2:
        raise ValueError("need at least two energies for increments")
    prev = E[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(prev > 0, (E[1:] - prev) / prev, np.nan)

    tail_start = int(np.floor(E.size * (1 - tail_fraction)))
    tail_start = min(tail_start, E.size - 2)
    idx = series.indices
    energy_slope = _ls_slope(idx[tail_start:], E[tail_start:])
    tail_changes = values[tail_start:]
    finite = tail_changes[np.isfinite(tail_changes)]
    if finite.size == 0:
        median_change, trend = np.nan, np.nan
        stalled = False
    else:
        median_change = float(np.median(np.abs(finite)))
        mask = np.isfinite(tail_changes)
        trend = _ls_slope(idx[tail_start:-1][mask], np.abs(tail_changes[mask]))
        scale = max(abs(E[tail_start:]).max(), 1e-300)
        stalled = (
            energy_slope >= -1e-12 * scale
            and median_change < STALL_THRESHOLD
            and trend <= 1e-12
        )
    verdict = StallVerdict(
        stalled=bool(stalled),
        energy_slope=float(energy_slope),
        median_tail_change=float(median_change),
        change_trend=float(trend),
        tail_start=tail_start,
        threshold=STALL_THRESHOLD,
    )
    return RelativeChangeSeries(values=values, verdict=verdict)


def cosine_similarity_matrix(states: Sequence[np.ndarray]) -> np.ndarray:
    """Mean per-node cosine similarity between every pair of states:
    entry (s, t) averages the cosine of matching feature rows.

    This is a :class:`CosineGram` fed every state as one subsample. Any
    state containing a zero row poisons its matrix row and column with
    NaN rather than raising.
    """
    layers = range(len(states))
    gram = CosineGram([layers])
    for k, X in enumerate(states):
        gram.add(k, X)
    return gram.matrix(layers)


def unit_rows(X: np.ndarray) -> np.ndarray | None:
    """``X`` with each row divided by its Euclidean norm, or None when a
    row is zero, where no cosine is defined."""
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return X / norms if norms.min() > 0 else None


class CosineGram:
    """Cosine matrices over subsamples of a stream of states, taken as the
    states arrive.

    ``subsamples`` lists the increasing state indices of each matrix to be
    read. :meth:`add` keeps state k's :func:`unit_rows` form, pairs it with
    each earlier state that shares a subsample with it, and drops every
    form whose last partner has arrived. ``peak`` is the most forms held
    at once. It never exceeds the subsamples' union, and it stays within
    the largest subsample when the subsamples nest: each one, cut at the
    last state of a shorter one, lies inside that shorter one, as the
    sweep's subsamples of any depths do.
    """

    def __init__(self, subsamples: Iterable[Sequence[int]]):
        self._partners: dict[int, set[int]] = {}  # earlier states to pair with
        self._last: dict[int, int] = {}  # the last state that pairs with it
        for layers in subsamples:
            for t, k in enumerate(layers):
                self._partners.setdefault(k, set()).update(layers[:t])
                self._last[k] = max(self._last.get(k, k), layers[-1])
        self._forms: dict[int, np.ndarray] = {}
        self._entries: dict[tuple[int, int], float] = {}  # (j, k), j <= k
        self.peak = 0

    def add(self, k: int, X: np.ndarray) -> None:
        """Take state k's entries; a state in no subsample is ignored."""
        if k not in self._partners:
            return
        form = unit_rows(X)
        self._entries[k, k] = np.nan if form is None else 1.0
        if form is not None:
            self._forms[k] = form
            self.peak = max(self.peak, len(self._forms))
        for j in self._partners[k]:
            if form is None or j not in self._forms:
                self._entries[j, k] = np.nan
            else:
                value = float(np.einsum("ij,ij->", self._forms[j], form))
                self._entries[j, k] = value / form.shape[0]
        for j in (*self._partners[k], k):
            if self._last[j] == k:
                self._forms.pop(j, None)

    def matrix(self, layers: Sequence[int]) -> np.ndarray:
        """The matrix of one subsample, once all its states have arrived:
        a state with a zero row gets a NaN row and column, and every other
        diagonal entry is exactly 1."""
        m = len(layers)
        rows = [[self._entries[min(j, k), max(j, k)] for k in layers] for j in layers]
        return np.array(rows, dtype=float).reshape(m, m)


def fit_decay(series: EnergySeries, window="auto") -> FitReport:
    """Least-squares decay-law fit over a window of an energy series.

    Fits log-energy against the index (exponential family) and against
    the log-index (power family), then classifies:

    * exponential-decay: exponential fit has R^2 >= 0.95, negative rate,
      and at least the power fit's R^2;
    * algebraic-decay: otherwise, the power fit wins with a negative
      exponent;
    * growth: otherwise, the better fit has a positive slope;
    * inconclusive: anything else.

    Nonpositive values never enter a fit; the power fit also drops
    nonpositive indices. The reported window reflects those drops.
    ``window="auto"`` discards the first 10% of points as burn-in;
    otherwise pass an inclusive ``(lo, hi)`` index range.
    """
    idx, val = series.indices, series.values
    if isinstance(window, str):
        if window != "auto":
            raise ValueError(f"unknown window {window!r}")
        drop = int(np.floor(AUTO_BURN_IN * idx.size))
        selected = np.zeros(idx.size, dtype=bool)
        selected[drop:] = True
    else:
        lo, hi = window
        if lo > hi:
            raise ValueError("window lo exceeds hi")
        selected = (idx >= lo) & (idx <= hi)
        if not selected.any():
            raise ValueError("window lies outside the series range")

    exp_mask = selected & (val > 0)
    if exp_mask.sum() < 5:
        raise ValueError("need at least five positive points to fit")
    pow_mask = exp_mask & (idx > 0)

    exp_fit = _line_fit(idx[exp_mask], np.log(val[exp_mask]))
    pow_fit = (
        _line_fit(np.log(idx[pow_mask]), np.log(val[pow_mask]))
        if pow_mask.sum() >= 5
        else None
    )

    pow_r2 = pow_fit.r_squared if pow_fit is not None else -np.inf
    if exp_fit.r_squared >= R_SQUARED_FLOOR and exp_fit.slope < 0 and (
        exp_fit.r_squared >= pow_r2
    ):
        classification, law, chosen, mask = (
            "exponential-decay",
            LAW_EXPONENTIAL,
            exp_fit,
            exp_mask,
        )
    elif pow_fit is not None and pow_r2 > exp_fit.r_squared and pow_fit.slope < 0:
        classification, law, chosen, mask = (
            "algebraic-decay",
            LAW_POWER,
            pow_fit,
            pow_mask,
        )
    else:
        best_is_power = pow_fit is not None and pow_r2 > exp_fit.r_squared
        best = pow_fit if best_is_power else exp_fit
        if best.slope > 0:
            classification = "growth"
            if pow_fit is not None and pow_fit.slope > 0:
                law, chosen, mask = LAW_GROWTH, pow_fit, pow_mask
            else:
                law, chosen, mask = LAW_EXPONENTIAL, exp_fit, exp_mask
        else:
            classification = "inconclusive"
            if best_is_power:
                law = LAW_GROWTH if best.slope >= 0 else LAW_POWER
                mask = pow_mask
            else:
                law = LAW_EXPONENTIAL
                mask = exp_mask
            chosen = best
    used = idx[mask]
    return FitReport(
        law=law,
        exponent=float(chosen.slope),
        intercept=float(chosen.intercept),
        r_squared=float(chosen.r_squared),
        window=(float(used.min()), float(used.max())),
        classification=classification,
        power_fit=pow_fit,
        exponential_fit=exp_fit,
    )


def prune_scan(
    params: ModelParams,
    config: ModelConfig,
    G: WeightedGraph,
    X_in: np.ndarray,
    layers: Iterable[int],
) -> tuple[PruneReport, ...]:
    """Compare decoder outputs of the intact stack against the stack with
    one layer omitted, for each of ``layers``; this is the package's one
    way to prune.

    ``deviation`` is the relative Frobenius distance between the two
    outputs; ``mean_cosine`` averages per-node cosine similarity. Layer k
    is 1-based and maps X^(k-1) to X^k, and reports keep their order. The
    scan is one pass: each pruned stack starts at its layer from the
    intact stack's input to it, and each layer is drawn once, applied to
    every stack under way, and dropped. A non-finite intact stack raises
    first, then the first of ``layers`` whose stack turned non-finite,
    with the layer where it did. A reference output that is zero, or
    whose norm overflows, leaves no deviation to measure and raises.
    """
    layers = tuple(layers)
    ends = dict.fromkeys(layers)
    for X, _ in _stream(params, config, G, X_in, ends):
        pass
    reference = _decode(params, X)
    scale = np.linalg.norm(reference)
    if scale == 0:
        raise ValueError("reference output is identically zero")
    if scale == np.inf:
        raise ValueError("reference output norm overflows to inf")
    ref_norms = np.linalg.norm(reference, axis=1)
    reports = []
    for layer in layers:
        if isinstance(ends[layer], NonFiniteLayerError):
            raise ends[layer]
        candidate = _decode(params, ends[layer])
        cand_norms = np.linalg.norm(candidate, axis=1)
        ok = (ref_norms > 0) & (cand_norms > 0)
        cosines = np.full(reference.shape[0], np.nan)
        cosines[ok] = (reference[ok] * candidate[ok]).sum(axis=1) / (
            ref_norms[ok] * cand_norms[ok]
        )
        reports.append(PruneReport(
            layer=layer,
            deviation=float(np.linalg.norm(candidate - reference) / scale),
            mean_cosine=float(np.nanmean(cosines)),
        ))
    return tuple(reports)


def prune_layer_deviation(
    params: ModelParams,
    config: ModelConfig,
    G: WeightedGraph,
    X_in: np.ndarray,
    layer: int,
) -> PruneReport:
    """:func:`prune_scan` of a single layer."""
    return prune_scan(params, config, G, X_in, (layer,))[0]


def _ls_slope(x: np.ndarray, y: np.ndarray) -> float:
    if x.size < 2:
        return 0.0
    return float(np.polyfit(x, y, 1)[0])


def _line_fit(x: np.ndarray, y: np.ndarray) -> LineFit:
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    ss_res = float(residual @ residual)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    if ss_tot <= 1e-300:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return LineFit(slope=float(slope), intercept=float(intercept), r_squared=r2)