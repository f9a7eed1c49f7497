"""Group summaries, Welch's t statistic, and one-sided p-values.

The comparison machinery works from per-group summaries

    T = (m1 - m2) / sqrt(S1^2/n1 + S2^2/n2)

with Welch-Satterthwaite degrees of freedom and a one-sided upper-tail
p-value, p = P(T_df > T). The direction is deliberate and is kept even
when it produces p near 1 for a group ordering opposite to the one-sided
alternative; callers that want the other tail can negate T.

Degenerate inputs are pinned rather than propagated as NaN: two
zero-variance groups with equal means give T = 0, with unequal means
give an infinite T, which maps to p = 0 (or p = 1 for -inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, check_array, check_float, check_int
from .information import check_probabilities, marginal_distribution
from .sleep import INDEX_NAMES, EpochIndices, Group, SleepStage, SCORED_STAGES

__all__ = [
    "GroupSummary",
    "ComparisonResult",
    "Histogram",
    "EpochCells",
    "INDEX_NAMES",
    "summarize",
    "welch_t",
    "welch_satterthwaite_df",
    "p_value",
    "compare_groups",
    "group_by_cell",
    "group_summaries",
    "empirical_histogram",
    "histograms_by_cell",
]

# Fewest cells a report histogram can have.
MIN_HIST_BINS = 1


@dataclass(frozen=True)
class GroupSummary:
    """Sample mean, sample standard deviation, and count for one cell."""

    mean: float
    std: float
    n: int
    index_name: str = ""
    group: Group | None = None
    stage: SleepStage | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", check_int("n", self.n, 2))
        check_float("mean", self.mean)
        check_float("std", self.std, at_least=0)


@dataclass(frozen=True)
class ComparisonResult:
    """Welch test outcome for one (stage, index) cell."""

    stage: SleepStage
    index_name: str
    t_value: float
    degrees_of_freedom: float
    p_value: float

    def __post_init__(self):
        check_float("p_value", self.p_value, at_least=0, at_most=1)
        check_float("degrees_of_freedom", self.degrees_of_freedom, above=0)


@dataclass(frozen=True)
class Histogram:
    """Relative-frequency histogram over equal-width cells."""

    bin_edges: np.ndarray
    relative_frequencies: np.ndarray
    index_name: str = ""
    group: Group | None = None
    stage: SleepStage | None = None

    def __post_init__(self):
        edges = check_array("bin_edges", self.bin_edges, ndim=1, min_len=2)
        freq = check_probabilities("relative_frequencies", self.relative_frequencies, 1)
        if edges.size != freq.size + 1:
            raise ConfigError("need len(bin_edges) == len(relative_frequencies) + 1")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "relative_frequencies", freq)


def summarize(values: Sequence[float]) -> tuple[float, float, int]:
    """Sample mean, sample standard deviation (ddof=1), and count."""
    arr = check_array("values", values, ndim=1, min_len=2)
    return float(arr.mean()), float(arr.std(ddof=1)), int(arr.size)


def welch_t(a: GroupSummary, b: GroupSummary) -> float:
    """Welch's T for two summarised groups, first minus second.

    Both groups having zero variance is pinned: equal means give 0,
    unequal means give a signed infinity.
    """
    variance = a.std**2 / a.n + b.std**2 / b.n
    diff = a.mean - b.mean
    if variance == 0.0:
        if diff == 0.0:
            return 0.0
        return math.copysign(math.inf, diff)
    return diff / math.sqrt(variance)


def welch_satterthwaite_df(a: GroupSummary, b: GroupSummary) -> float:
    """Welch-Satterthwaite effective degrees of freedom.

    Two zero-variance groups fall back to the pooled ``n1 + n2 - 2``.
    """
    va = a.std**2 / a.n
    vb = b.std**2 / b.n
    if va + vb == 0.0:
        return float(a.n + b.n - 2)
    return (va + vb) ** 2 / (va**2 / (a.n - 1) + vb**2 / (b.n - 1))


def p_value(t: float, df: float) -> float:
    """One-sided upper-tail p under Student's t with ``df`` degrees.

    Computed as the lower-tail CDF at ``-t``, which is exact for t = 0
    (p = 0.5) and antisymmetric by construction. Infinite t pins to 0
    or 1. ``df`` is finite: Welch-Satterthwaite and its pooled fallback
    never give an infinite one.
    """
    df = check_float("df", df, above=0)
    if t == math.inf or t == -math.inf:
        return 0.0 if t > 0 else 1.0
    # Imported here: scipy.special is a noticeable share of the package's
    # import time and only p-values use it.
    from scipy import special

    return float(special.stdtr(df, -check_float("t", t)))


@dataclass(frozen=True)
class EpochCells:
    """Every index value of a set of epochs, keyed by (index, stage,
    group), in epoch order.

    Built once by :func:`group_by_cell`; the table builders take it in
    place of the epochs, so several tables share one grouping pass.
    """

    values: dict[tuple, list[float]]


def group_by_cell(epochs: Iterable[EpochIndices]) -> EpochCells:
    """Group every index value by (index, stage, group), reading the
    epochs once.

    Each epoch is keyed by (stage, group) once, not once per index:
    hashing an Enum runs in Python.
    """
    by_stage_group: dict[tuple, list[EpochIndices]] = {}
    for e in epochs:
        by_stage_group.setdefault((e.stage, e.group), []).append(e)
    cells: dict[tuple, list[float]] = {}
    for (stage, group), members in by_stage_group.items():
        for index_name in INDEX_NAMES:
            values = [float(v) for e in members if (v := getattr(e, index_name)) is not None]
            if values:
                cells[(index_name, stage, group)] = values
    return EpochCells(cells)


def _cells(epochs: Iterable[EpochIndices] | EpochCells) -> dict[tuple, list[float]]:
    return (epochs if isinstance(epochs, EpochCells) else group_by_cell(epochs)).values


def group_summaries(epochs: Sequence[EpochIndices] | EpochCells) -> list[GroupSummary]:
    """Per (group, stage, index) summaries over all cells with n >= 2."""
    cells = _cells(epochs)
    out = []
    for index_name in INDEX_NAMES:
        for stage in SCORED_STAGES:
            for group in Group:
                values = cells.get((index_name, stage, group), [])
                if len(values) < 2:
                    continue
                mean, std, n = summarize(values)
                out.append(
                    GroupSummary(mean=mean, std=std, n=n, index_name=index_name, group=group, stage=stage)
                )
    return out


def compare_groups(
    epochs: Sequence[EpochIndices] | EpochCells,
    group_a: Group = Group.APNEA,
    group_b: Group = Group.HEALTHY,
) -> list[ComparisonResult]:
    """Welch comparison of the two groups per (stage, index) cell.

    T is ``group_a`` minus ``group_b``; by default that is the patient
    group minus the healthy group, so a positive T means the index runs
    higher under apnea. Cells where either group has fewer than two
    values are left out.
    """
    cells = _cells(epochs)
    results = []
    for stage in SCORED_STAGES:
        for index_name in INDEX_NAMES:
            va = cells.get((index_name, stage, group_a), [])
            vb = cells.get((index_name, stage, group_b), [])
            if len(va) < 2 or len(vb) < 2:
                continue
            sa = GroupSummary(*summarize(va), index_name=index_name, group=group_a, stage=stage)
            sb = GroupSummary(*summarize(vb), index_name=index_name, group=group_b, stage=stage)
            t = welch_t(sa, sb)
            df = welch_satterthwaite_df(sa, sb)
            results.append(
                ComparisonResult(
                    stage=stage,
                    index_name=index_name,
                    t_value=t,
                    degrees_of_freedom=df,
                    p_value=p_value(t, df),
                )
            )
    return results


def empirical_histogram(values: Sequence[float], n_bins: int) -> Histogram:
    """Relative-frequency histogram with equal-width cells over [min, max]."""
    dist = marginal_distribution(values, check_int("n_bins", n_bins, MIN_HIST_BINS))
    return Histogram(bin_edges=dist.bin_edges, relative_frequencies=dist.probabilities)


def histograms_by_cell(epochs: Sequence[EpochIndices] | EpochCells, n_bins: int = 16) -> list[Histogram]:
    """One histogram per (index, stage, group) cell that has any values."""
    n_bins = check_int("n_bins", n_bins, MIN_HIST_BINS)
    cells = _cells(epochs)
    out = []
    for index_name in INDEX_NAMES:
        for stage in SCORED_STAGES:
            for group in Group:
                values = cells.get((index_name, stage, group), [])
                if not values:
                    continue
                dist = marginal_distribution(values, n_bins)
                out.append(
                    Histogram(
                        bin_edges=dist.bin_edges,
                        relative_frequencies=dist.probabilities,
                        index_name=index_name,
                        group=group,
                        stage=stage,
                    )
                )
    return out
