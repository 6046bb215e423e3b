"""Prequential evaluation, predictability bounds, and improvement
breakdowns.

The protocol is test-then-train over the time-ordered event stream: each
scored check-in is predicted from model state built strictly from earlier
events, then every model is updated with it.  Individual, social and
trend components are all maintained online, so no prediction can see the
future.  Several social-model variants (influence-class subsets, drift
on/off) are scored in a single pass against one shared individual model.
The variants of a target also share one social store and its tie masses:
each situation is recorded once, through the primary model, for the union
of the variants' classes, and each variant reads it through its own class
filter and drift setting.  Variants that would predict alike in an event
are ranked once: all of them by whether they use the trend model when no
situation is active, and by their social reading as well when one is.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from . import correlation
from .core import TemporalContext, WEEKEND, entropy_nats
from .errors import DegenerateInput, ModelEmpty, NoData
from .ingestion import Dataset
from .sost import (
    CLASS_I,
    CLASS_II,
    CLASS_III,
    SITUATION_WINDOW,
    TIE_WINDOW,
    EventMemo,
    SocialTree,
    SostConfig,
    SostModel,
)
from .vomm import ContextKey, ContextTree, MergedContextView, argmax


# --- predictability bounds ---------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    """Entropy- and repetition-based accuracy limits."""

    lower: float
    upper: float | None
    fano: float
    fano_clamped: bool

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "fano": self.fano,
            "fano_clamped": self.fano_clamped,
        }


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def fano_predictability(entropy: float, n_locations: float) -> tuple[float, bool]:
    """Max accuracy consistent with the entropy over ``n_locations`` choices.

    Solves H = H_b(pi) + (1 - pi) ln(N - 1) for pi by bisection; the right
    side decreases from ln N at pi = 1/N to 0 at pi = 1, so a unique root
    exists whenever H <= ln N.  Larger entropies clamp to 1/N with a flag.
    """
    if not (math.isfinite(entropy) and math.isfinite(n_locations)):
        raise ValueError(f"entropy and n_locations must be finite, got {entropy}, {n_locations}")
    if n_locations < 2:
        raise ValueError("need at least two locations")
    if entropy < 0:
        raise ValueError("entropy must be >= 0")
    lo = 1.0 / n_locations
    log_rest = math.log(n_locations - 1.0)

    def g(pi: float) -> float:
        return _binary_entropy(pi) + (1.0 - pi) * log_rest - entropy

    if g(lo) < 0.0:
        return (lo, True)
    hi = 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return ((lo + hi) / 2.0, False)


def predictability_bounds(
    entropy: float,
    n_locations: float,
    new_location_fraction: float | None = None,
    avg_visits: float | None = None,
) -> Bounds:
    """Lower bound 1/e^H, repetition-based upper bound, and the Fano limit.

    The upper bound solves f + x(1 - f) = v for the average visit count x
    of repeated locations; one visit per location is consumed learning it,
    and the achievable share (x - 1)/x is kept at two decimals, matching
    the convention in which such bounds are quoted.  Non-finite inputs
    raise ValueError.
    """
    lower = math.exp(-entropy)
    upper: float | None = None
    f, v = new_location_fraction, avg_visits
    if f is not None and not 0.0 <= f <= 1.0:
        raise ValueError("new_location_fraction must be in [0, 1]")
    if v is not None and not 1.0 < v < math.inf:
        raise ValueError(f"avg_visits must be finite and exceed 1, got {v}")
    if f is not None and v is not None:
        if f >= 1.0:
            upper = 0.0
        else:
            x = (v - f) / (1.0 - f)
            upper = max(round((x - 1.0) / x, 2), 0.0) * (1.0 - f)
    fano, clamped = fano_predictability(entropy, n_locations)
    return Bounds(lower=lower, upper=upper, fano=fano, fano_clamped=clamped)


# --- prequential evaluation --------------------------------------------------


@dataclass
class UserRecord:
    """Per-user evaluation tallies for the primary variant."""

    user: str
    scored: int = 0
    st_hits: int = 0
    sost_hits: int = 0
    situations: int = 0
    degree: int = 0
    entropy: float = 0.0
    n_locations: int = 0
    influencers: int = 0

    @property
    def st_accuracy(self) -> float:
        return self.st_hits / self.scored if self.scored else 0.0

    @property
    def sost_accuracy(self) -> float:
        return self.sost_hits / self.scored if self.scored else 0.0

    @property
    def improvement(self) -> float:
        return self.sost_accuracy - self.st_accuracy


@dataclass
class EvalReport:
    """Accuracies, per-variant numbers, breakdown inputs and bounds."""

    accuracy_st: float
    accuracy_sost: float
    n_scored: int
    variant_accuracies: dict[str, float]
    class_cumulative: dict[str, dict[str, float]]
    drift_comparison: dict[str, float]
    per_user: list[UserRecord]
    per_hour_shares: dict[str, list[float]]
    bounds: Bounds
    bounds_inputs: dict[str, float]
    significance_p: float | None
    predictions: list[dict] = field(default_factory=list)

    @property
    def absolute_improvement(self) -> float:
        return self.accuracy_sost - self.accuracy_st

    @property
    def relative_improvement(self) -> float:
        if self.accuracy_st <= 0.0:
            return 0.0
        return self.absolute_improvement / self.accuracy_st

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "accuracy_st": self.accuracy_st,
            "accuracy_sost": self.accuracy_sost,
            "absolute_improvement": self.absolute_improvement,
            "relative_improvement": self.relative_improvement,
            "n_scored": self.n_scored,
            "variant_accuracies": self.variant_accuracies,
            "class_cumulative": self.class_cumulative,
            "drift_comparison": self.drift_comparison,
            "per_hour_shares": self.per_hour_shares,
            "bounds": self.bounds.to_dict(),
            "bounds_inputs": self.bounds_inputs,
            "significance_p": self.significance_p,
            "per_user": [
                {
                    "user": r.user,
                    "scored": r.scored,
                    "st_accuracy": r.st_accuracy,
                    "sost_accuracy": r.sost_accuracy,
                    "improvement": r.improvement,
                    "situation_rate": (r.situations / r.scored) if r.scored else 0.0,
                    "degree": r.degree,
                    "entropy": r.entropy,
                    "n_locations": r.n_locations,
                    "influencers": r.influencers,
                }
                for r in self.per_user
            ],
        }


def _class_variants(config: SostConfig) -> list[tuple[str, SostConfig]]:
    sync = replace(config, enable_trend=False)
    return [
        ("classes_I", replace(sync, classes=frozenset({CLASS_I}))),
        ("classes_I_II", replace(sync, classes=frozenset({CLASS_I, CLASS_II}))),
        ("classes_I_II_III", replace(sync, classes=frozenset({CLASS_I, CLASS_II, CLASS_III}))),
    ]


@contextmanager
def _gc_paused():
    """Suspend automatic cyclic garbage collection; restore the caller's
    setting on exit, also when the body raises."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# The prequential loop builds hundreds of thousands of long-lived objects
# that form no reference cycles: context-tree nodes, social-store nodes and
# influence records.  Every time they grow the tracked heap by a quarter,
# CPython re-traverses all of it in a full collection.  On the `analytics`
# benchmark corpus (seed 1, 3,867 check-ins; CPython 3.11 on a 2-vCPU
# virtual machine) one call made 668-670 collections, 4-5 of them full,
# costing 0.43-0.52 s of a 1.2-1.4 s call, and they freed no object.
# Reference counting frees what the loop built when evaluate returns.
@_gc_paused()
def evaluate(
    dataset: Dataset,
    config: SostConfig | None = None,
    *,
    class_sweep: bool = False,
    drift_compare: bool = False,
    record_predictions: bool = False,
) -> EvalReport:
    """Run the prequential protocol and assemble the report.

    The targets are the dataset's active users.  With ``class_sweep``
    three synchronous-only variants (cumulative influence classes) are
    scored alongside; ``drift_compare`` adds the primary configuration
    with drift disabled.
    """
    config = config or SostConfig()
    target_list = sorted(dataset.active_users)
    if not target_list:
        raise NoData("no active users to evaluate")
    target_set = set(target_list)
    graph = dataset.graph

    variants: list[tuple[str, SostConfig]] = [("primary", config)]
    if drift_compare:
        variants.append(("no_drift", replace(config, drift="none")))
    if class_sweep:
        variants.extend(_class_variants(config))
    variant_names = [name for name, _ in variants]
    n_variants = len(variants)

    # per-user individual trees; every user gets one because friends feed
    # the trend views
    st_trees: dict[str, ContextTree] = {}

    def tree_of(user: str) -> ContextTree:
        t = st_trees.get(user)
        if t is None:
            t = st_trees[user] = ContextTree(config.tree)
        return t

    # each target's models in variant order, sharing the social store and
    # tie masses across variants; the first is the primary model
    store_classes = frozenset().union(*(vcfg.classes for _, vcfg in variants))
    models: dict[str, list[SostModel]] = {}
    watchers: dict[str, list[str]] = {}
    for tgt in target_list:
        neighbors = graph.neighbors(tgt) if tgt in graph else frozenset()
        trend = (
            MergedContextView([tree_of(j) for j in sorted(neighbors)])
            if neighbors
            else None
        )
        social = SocialTree(store_classes, config)
        primary = SostModel(tgt, neighbors, config=config, trend=trend, social=social)
        models[tgt] = [primary]
        for _, vcfg in variants[1:]:
            clone = SostModel(tgt, neighbors, config=vcfg, trend=trend, social=social)
            clone.tie_mass = primary.tie_mass
            models[tgt].append(clone)
        for u in neighbors | {tgt}:
            watchers.setdefault(u, []).append(tgt)

    # Variants that predict alike, as (representative, members) pairs of
    # indexes into the variant list.  Without an active situation, or for a
    # user without history, only the trend gate sets variants apart; with
    # one, their social reading does too.  Every target's models group
    # alike, as they differ only in the target.
    def grouped(key) -> list[tuple[int, list[int]]]:
        groups: dict = {}
        for i, model in enumerate(models[target_list[0]]):
            groups.setdefault(key(model), []).append(i)
        return [(members[0], members) for members in groups.values()]

    primaries = {tgt: target_models[0] for tgt, target_models in models.items()}
    quiet_groups = grouped(lambda m: m.config.enable_trend)
    social_groups = grouped(lambda m: (m._reads, m.config.enable_trend))

    recent: dict[str, list[tuple[int, str]]] = {}
    prev_venues: dict[str, list[str]] = {}
    last_event: dict[str, tuple[int, str]] = {}
    venue_counts: dict[str, dict[str, int]] = {}

    records = {u: UserRecord(user=u, degree=graph.degree(u) if u in graph else 0) for u in target_list}
    variant_hits = [0] * n_variants
    st_hits_total = 0
    n_scored = 0
    hour_st: dict[str, list[int]] = {"workday": [0] * 24, "weekend": [0] * 24}
    hour_sost: dict[str, list[int]] = {"workday": [0] * 24, "weekend": [0] * 24}
    new_location_events = 0
    predictions: list[dict] = []

    sit_window = SITUATION_WINDOW
    tie_window = TIE_WINDOW
    # a situation stays "active" for about one stay at the venue, even when
    # the co-present check-ins happened within the shorter situation window
    active_window = max(sit_window, int(config.stay_hours * 3600))
    # the report's hour buckets are the calendar slots when slots are hours
    hourly = config.tree.slot_hours == 1

    for ci in dataset.checkins:
        u, v, t = ci.user_id, ci.venue_id, ci.timestamp
        temporal = config.tree.temporal(t)
        # prev_venues keeps at most kappa venues per user
        spatial = tuple(prev_venues.get(u, ()))

        if u in target_set:
            rec = records[u]
            st = st_trees.get(u)
            key = ContextKey(spatial, temporal)

            users_now: frozenset[str] | None = None
            last = last_event.get(u)
            if last is not None and t - last[0] <= active_window:
                t_prev, v_prev = last
                near = {
                    w
                    for ts, w in recent.get(v_prev, ())
                    if abs(ts - t_prev) <= sit_window and w != u
                }
                circle_near = near & graph.neighbors(u) if u in graph else set()
                if circle_near:
                    users_now = frozenset(circle_near | {u})

            if users_now:
                rec.situations += 1

            # the social blend reads every candidate of an active event;
            # otherwise the ranking needs the best venue and the unseen mass
            dist: dict[str, float] = {}
            unseen = 0.0
            best: tuple[str | None, float] = (None, -1.0)
            if st is not None and st.alphabet:
                if users_now:
                    dist, unseen = st.distribution(key)
                    best = argmax(dist)
                else:
                    best, unseen = st.best(key)
            st_pred = best[0]

            # one ranking per group; with an active situation, groups that
            # differ in the trend gate or the reading share what they can
            # through the memo
            if users_now and dist:
                groups, memo = social_groups, EventMemo()
            else:
                groups, memo = quiet_groups, None
            preds: list[str | None] = [None] * n_variants
            target_models = models[u]
            for rep, members in groups:
                try:
                    pred = target_models[rep].rank_with(
                        key, dist, unseen, t, users_now, memo, best
                    ).venue
                except ModelEmpty:
                    pred = None
                for i in members:
                    preds[i] = pred
                    if pred == v:
                        variant_hits[i] += 1

            tc = temporal if hourly else TemporalContext.from_timestamp(
                t, slot_hours=1, utc_offset_hours=config.tree.utc_offset_hours
            )
            bucket = "weekend" if tc.day_class == WEEKEND else "workday"
            if st_pred == v:
                st_hits_total += 1
                rec.st_hits += 1
                hour_st[bucket][tc.slot] += 1
            if preds[0] == v:
                rec.sost_hits += 1
                hour_sost[bucket][tc.slot] += 1
            rec.scored += 1
            n_scored += 1
            if v not in venue_counts.get(u, ()):
                new_location_events += 1
            if record_predictions:
                row = {"user": u, "timestamp": t, "actual": v, "st": st_pred}
                row.update(zip(variant_names, preds))
                predictions.append(row)

        # --- updates (strictly after the prediction) ---
        tree_of(u).observe(v, spatial, temporal)

        interested = watchers.get(u)
        if interested:
            visits = recent.get(v, ())
            counts_week: dict[str, int] = {}
            present_window: set[str] = set()
            for ts, w in visits:
                if ts >= t - tie_window:
                    counts_week[w] = counts_week.get(w, 0) + 1
                    if ts >= t - sit_window:
                        present_window.add(w)
            # each situation below adds u itself
            present_window.discard(u)
            for tgt in interested:
                primary = primaries[tgt]
                if u == tgt:
                    for w, c in counts_week.items():
                        if w in primary.neighbors:
                            primary.add_tie_mass(w, float(c))
                elif u in primary.neighbors:
                    c = counts_week.get(tgt, 0)
                    if c:
                        primary.add_tie_mass(u, float(c))
                primary.record_social_context(u, present_window, v, temporal, t)

        lst = recent.setdefault(v, [])
        lst.append((t, u))
        if len(lst) > 128 and lst[0][0] < t - tie_window:
            recent[v] = [(ts, w) for ts, w in lst if ts >= t - tie_window]

        pv = prev_venues.setdefault(u, [])
        pv.append(v)
        if len(pv) > config.tree.kappa:
            pv.pop(0)
        last_event[u] = (t, v)
        venue_counts.setdefault(u, {})
        venue_counts[u][v] = venue_counts[u].get(v, 0) + 1

    if n_scored == 0:
        raise NoData("no scored events")

    # per-user profile fields
    for u in target_list:
        counts = venue_counts.get(u, {})
        rec = records[u]
        rec.n_locations = len(counts)
        if counts:
            rec.entropy = entropy_nats(counts.values())
        rec.influencers = len(primaries[u].influencers)

    accuracy_st = st_hits_total / n_scored
    variant_accuracies = {
        name: hits / n_scored for name, hits in zip(variant_names, variant_hits)
    }
    accuracy_sost = variant_accuracies["primary"]

    class_cumulative: dict[str, dict[str, float]] = {}
    if class_sweep:
        for name in ("classes_I", "classes_I_II", "classes_I_II_III"):
            acc = variant_accuracies[name]
            class_cumulative[name] = {
                "accuracy": acc,
                "absolute": acc - accuracy_st,
                "relative": (acc - accuracy_st) / accuracy_st if accuracy_st > 0 else 0.0,
            }

    drift_comparison: dict[str, float] = {}
    if drift_compare:
        drift_comparison = {
            "with_drift": accuracy_sost - accuracy_st,
            "without_drift": variant_accuracies["no_drift"] - accuracy_st,
        }

    hour_shares: dict[str, list[float]] = {"workday": [0.0] * 24, "weekend": [0.0] * 24}
    total_delta = sum(
        hour_sost[b][h] - hour_st[b][h] for b in hour_sost for h in range(24)
    )
    if total_delta != 0:
        for b in hour_shares:
            hour_shares[b] = [
                (hour_sost[b][h] - hour_st[b][h]) / total_delta for h in range(24)
            ]

    # bounds from the evaluated users' own statistics
    entropies = [records[u].entropy for u in target_list if records[u].n_locations]
    n_locs = [records[u].n_locations for u in target_list if records[u].n_locations]
    pair_visits = [
        c for u in target_list for c in venue_counts.get(u, {}).values()
    ]
    mean_entropy = sum(entropies) / len(entropies) if entropies else 0.0
    mean_locations = sum(n_locs) / len(n_locs) if n_locs else 2.0
    new_fraction = new_location_events / n_scored
    avg_visits = sum(pair_visits) / len(pair_visits) if pair_visits else 1.0
    bounds = predictability_bounds(
        mean_entropy,
        max(mean_locations, 2.0),
        new_location_fraction=min(new_fraction, 1.0),
        avg_visits=avg_visits if avg_visits > 1.0 else None,
    )

    significance_p: float | None = None
    st_accs = [records[u].st_accuracy for u in target_list if records[u].scored]
    sost_accs = [records[u].sost_accuracy for u in target_list if records[u].scored]
    if len(st_accs) >= 2:
        try:
            _, significance_p = correlation.welch_ttest(sost_accs, st_accs)
        except DegenerateInput:
            significance_p = None

    return EvalReport(
        accuracy_st=accuracy_st,
        accuracy_sost=accuracy_sost,
        n_scored=n_scored,
        variant_accuracies=variant_accuracies,
        class_cumulative=class_cumulative,
        drift_comparison=drift_comparison,
        per_user=[records[u] for u in target_list],
        per_hour_shares=hour_shares,
        bounds=bounds,
        bounds_inputs={
            "entropy": mean_entropy,
            "n_locations": mean_locations,
            "new_location_fraction": new_fraction,
            "avg_visits": avg_visits,
        },
        significance_p=significance_p,
        predictions=predictions,
    )


# --- improvement breakdowns ---------------------------------------------------

BREAKDOWN_DIMENSIONS = (
    "degree",
    "entropy",
    "n_locations",
    "visit_frequency",
    "situation_rate",
    "influencers",
)


def improvement_breakdowns(
    rows: Sequence[Mapping],
) -> dict[str, dict[str, float | None]]:
    """Correlations of per-user improvement against profile dimensions.

    ``rows`` are the ``per_user`` rows of a report (``EvalReport.to_dict``);
    users without a scored event are left out.
    """
    users = [r for r in rows if r["scored"] > 0]
    if len(users) < 3:
        raise NoData("need at least 3 evaluated users")
    improvement = [r["improvement"] for r in users]
    dims: dict[str, list[float]] = {
        "degree": [float(r["degree"]) for r in users],
        "entropy": [r["entropy"] for r in users],
        "n_locations": [float(r["n_locations"]) for r in users],
        "visit_frequency": [
            r["scored"] / r["n_locations"] if r["n_locations"] else 0.0 for r in users
        ],
        "situation_rate": [r["situation_rate"] for r in users],
        "influencers": [float(r["influencers"]) for r in users],
    }
    out: dict[str, dict[str, float | None]] = {}
    for name, xs in dims.items():
        cell: dict[str, float | None] = {"r": None, "rho": None, "p": None}
        try:
            cell["r"] = correlation.pearson(xs, improvement)
            rho, p = correlation.spearman(xs, improvement)
            cell["rho"] = rho
            cell["p"] = p
        except DegenerateInput:
            pass
        out[name] = cell
    return out


def breakdowns_to_csv(breakdowns: Mapping[str, Mapping[str, float | None]]) -> str:
    lines = ["dimension,r,rho,p"]
    for name in BREAKDOWN_DIMENSIONS:
        cell = breakdowns.get(name, {})
        vals = [
            "" if cell.get(k) is None else f"{cell[k]:.6f}" for k in ("r", "rho", "p")
        ]
        lines.append(f"{name}," + ",".join(vals))
    return "\n".join(lines) + "\n"
