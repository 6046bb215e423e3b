"""Pair sampling and rank/linear correlation with significance tests."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import stdtr

from .errors import DegenerateInput, NoData

SOURCES = ("global", "home_city", "two_plex")

@dataclass(frozen=True)
class PairSample:
    """User pairs drawn with replacement from a population."""

    pairs: tuple[tuple[str, str], ...]
    source: str
    seed: int


def sample_pairs(
    population: Sequence[str],
    n: int,
    source: str = "global",
    seed: int = 0,
    subgroups: Sequence[Sequence[str]] | None = None,
) -> PairSample:
    """Draw ``n`` user pairs with replacement; members of a pair differ.

    The ``two_plex`` source picks a subgroup uniformly per draw and takes
    both members from it; subgroups of fewer than two users are skipped at
    validation time.
    """
    if source not in SOURCES:
        raise ValueError(f"unknown source {source!r}")
    rng = random.Random(seed)
    pairs: list[tuple[str, str]] = []
    if source == "two_plex":
        groups = [sorted(set(g)) for g in (subgroups or []) if len(set(g)) >= 2]
        if not groups:
            raise NoData("two_plex sampling needs at least one subgroup of size >= 2")
        for _ in range(n):
            g = groups[rng.randrange(len(groups))]
            i = rng.randrange(len(g))
            j = rng.randrange(len(g) - 1)
            if j >= i:
                j += 1
            pairs.append((g[i], g[j]))
    else:
        pop = sorted(set(population))
        if len(pop) < 2:
            raise NoData("population must contain at least two users")
        for _ in range(n):
            i = rng.randrange(len(pop))
            j = rng.randrange(len(pop) - 1)
            if j >= i:
                j += 1
            pairs.append((pop[i], pop[j]))
    return PairSample(pairs=tuple(pairs), source=source, seed=seed)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation coefficient."""
    if len(xs) != len(ys):
        raise ValueError("series lengths differ")
    if len(xs) < 3:
        raise DegenerateInput("need at least 3 points")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("constant series")
    r = float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))
    if not math.isfinite(r):
        raise DegenerateInput("non-finite coefficient")
    return max(-1.0, min(1.0, r))


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """Ranks starting at 1; ties share the average of their positions."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="mergesort")
    ranks = np.empty(len(arr), dtype=float)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _two_sided_p(t: float, df: float) -> float:
    """Two-sided tail of Student's t with ``df`` degrees of freedom.

    ``stdtr`` is the distribution function, and SciPy's ``t.sf(x, df)`` is
    ``stdtr(df, -x)``, so this equals twice that survival function at
    ``abs(t)`` bit for bit, without loading SciPy's statistics module.
    """
    return 2.0 * float(stdtr(df, -abs(t)))


def spearman(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Rank correlation with a t-approximation p-value.

    Ties receive average ranks; significance uses the standard
    t = rho * sqrt((n-2)/(1-rho^2)) approximation with n-2 degrees of
    freedom (two-sided).
    """
    rho = pearson(_average_ranks(xs), _average_ranks(ys))
    n = len(xs)
    if abs(rho) >= 1.0:
        return (rho, 0.0)
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    return (rho, min(_two_sided_p(t, n - 2), 1.0))


def welch_ttest(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided unpaired t-test without the equal-variance assumption."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if len(x) < 2 or len(y) < 2:
        raise DegenerateInput("need at least 2 points per group")
    vx = x.var(ddof=1)
    vy = y.var(ddof=1)
    if vx == 0.0 and vy == 0.0:
        raise DegenerateInput("both groups are constant")
    se2 = vx / len(x) + vy / len(y)
    t = float((x.mean() - y.mean()) / math.sqrt(se2))
    df = se2 * se2 / (
        (vx / len(x)) ** 2 / (len(x) - 1) + (vy / len(y)) ** 2 / (len(y) - 1)
    )
    return (t, min(_two_sided_p(t, df), 1.0))


def correlation_matrix(
    homophily_values: Mapping[str, Sequence[float]],
    cohesion_values: Mapping[str, Sequence[float]],
) -> dict[str, dict[str, dict[str, float]]]:
    """Pearson r per (homophily, cohesion) cell.

    Input mappings give one value per sampled pair, aligned across
    measures.  Cells with a constant or non-finite series are reported
    as None.
    """
    table: dict[str, dict[str, dict[str, float]]] = {}
    for hname, hvals in homophily_values.items():
        row: dict[str, dict[str, float]] = {}
        for cname, cvals in cohesion_values.items():
            try:
                r = pearson(hvals, cvals)
            except DegenerateInput:
                r = None
            row[cname] = {"r": r}
        table[hname] = row
    return table


def matrix_to_csv(table: Mapping[str, Mapping[str, Mapping[str, float]]]) -> str:
    """Render the correlation table as CSV, rows = homophily measures."""
    cohesion_names = sorted({c for row in table.values() for c in row})
    lines = ["measure," + ",".join(cohesion_names)]
    for hname in sorted(table):
        cells = []
        for cname in cohesion_names:
            r = table[hname].get(cname, {}).get("r")
            cells.append("" if r is None else f"{r:.6f}")
        lines.append(f"{hname}," + ",".join(cells))
    return "\n".join(lines) + "\n"
