"""Group summaries, Welch's t statistic, one-sided p-values, and the
report tables built from them.

Every report table starts from one mapping, :func:`group_by_cell`'s
``{(index, stage, group): [values]}``. :func:`group_summaries` and
:func:`histograms_by_cell` read its cells of the scored stages and the
two groups, so Unknown-stage and group-less epochs reach no table;
:func:`compare_groups` pairs the summaries, and each histogram is the
:class:`~chaoskit.information.DiscreteDistribution` that every other
histogram of the package is.

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

from .errors import check_array, check_float, check_int
from .information import DiscreteDistribution, marginal_distribution
from .sleep import INDEX_NAMES, EpochIndices, Group, SleepStage, SCORED_STAGES

__all__ = [
    "GroupSummary",
    "ComparisonResult",
    "INDEX_NAMES",
    "summarize",
    "welch_t",
    "welch_satterthwaite_df",
    "p_value",
    "compare_groups",
    "group_by_cell",
    "group_summaries",
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


def group_by_cell(epochs: Iterable[EpochIndices]) -> dict[tuple, list[float]]:
    """Every index value of the epochs, keyed by (index, stage, group),
    in epoch order: the one input of every report table.

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
    return cells


def _reported(cells: dict[tuple, list[float]]):
    """Each (index, stage, group) key of a scored stage and a group, with
    its values, in table order; cells of the Unknown stage or of no group
    are never read."""
    for index_name in INDEX_NAMES:
        for stage in SCORED_STAGES:
            for group in Group:
                values = cells.get((index_name, stage, group))
                if values:
                    yield (index_name, stage, group), values


def group_summaries(cells: dict[tuple, list[float]]) -> list[GroupSummary]:
    """Per (index, stage, group) summaries over all cells with n >= 2."""
    return [
        GroupSummary(*summarize(values), index_name=index_name, group=group, stage=stage)
        for (index_name, stage, group), values in _reported(cells)
        if len(values) >= 2
    ]


def compare_groups(summaries: Iterable[GroupSummary]) -> list[ComparisonResult]:
    """Welch comparison of the two groups per (stage, index) cell, from
    the summaries :func:`group_summaries` made.

    T is Apnea minus Healthy, so a positive T means the index runs
    higher under apnea; the other order is -T. Cells where either group
    has no summary are left out.
    """
    by_cell = {(s.stage, s.index_name, s.group): s for s in summaries}
    results = []
    for stage in SCORED_STAGES:
        for index_name in INDEX_NAMES:
            apnea = by_cell.get((stage, index_name, Group.APNEA))
            healthy = by_cell.get((stage, index_name, Group.HEALTHY))
            if apnea is None or healthy is None:
                continue
            t = welch_t(apnea, healthy)
            df = welch_satterthwaite_df(apnea, healthy)
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


def histograms_by_cell(cells: dict[tuple, list[float]], n_bins: int = 16) -> dict[tuple, DiscreteDistribution]:
    """Relative-frequency histogram, with ``n_bins`` equal-width cells
    over [min, max], of each (index, stage, group) cell that has any
    values."""
    n_bins = check_int("n_bins", n_bins, MIN_HIST_BINS)
    return {key: marginal_distribution(values, n_bins) for key, values in _reported(cells)}
