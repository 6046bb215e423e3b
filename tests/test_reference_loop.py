"""`evaluate` against a deliberately plain prequential loop.

The reference follows the test-then-train protocol with none of
`evaluate`'s sharing: every variant has its own `SostModel`, its own
eagerly written four-level social store and its own tie masses; the
individual distribution is blended from `escape_chain` and `counts_at`;
each variant asks the trend model on every fallback; nothing is memoized.
Situations, tie masses and influencers are derived from the full event
history rather than from `evaluate`'s windows.  A hypothesis test draws
tiny planted corpora and flags and asserts that the report, every
prediction row and every set of social factors are equal.
"""

from __future__ import annotations

import math
from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings, strategies as st

from socmob import correlation
from socmob.core import TemporalContext, WEEKEND, entropy_nats
from socmob.errors import DegenerateInput, ModelEmpty, NoData
from socmob.evaluation import evaluate, predictability_bounds
from socmob.sost import (
    ALL_CLASSES,
    CLASS_I,
    CLASS_II,
    CLASS_III,
    SITUATION_WINDOW,
    STAY_HOURS,
    TIE_WINDOW,
    InfluenceRecord,
    SostConfig,
    SostModel,
    classify_situation,
)
from socmob.synthgen import GenConfig, generate
from socmob.vomm import (
    ContextKey,
    ContextTree,
    MergedContextView,
    TreeConfig,
    calendar_keys,
)

from conftest import escape_chain, situation_path


class _Node:
    def __init__(self):
        self.children = {}
        self.records = []
        self.users = frozenset()


class EagerSocialTree:
    """A social store that writes every level of a situation's path at once.

    It holds one reader's classes only, so its dict and list orders are
    creation orders and no read needs a class filter.  It offers the reads
    `SostModel` makes of its store.
    """

    def __init__(self, classes):
        self.classes = frozenset(classes)
        self.root = _Node()
        self._cells = {}

    def add(self, venue, temporal, users, timestamp, config, cls):
        path = situation_path(venue, temporal)
        node = self.root
        for key in path:
            child = node.children.get(key)
            if child is None:
                child = node.children[key] = _Node()
            for rec in child.records:
                if rec.users == users:
                    rec.reinforce(timestamp, config)
                    break
            else:
                child.records.append(InfluenceRecord(users, timestamp, 1.0, cls, 1, 0))
            node = child
        node.users = node.users | users
        self._cells.setdefault(path[3], {})[venue] = node

    def path_nodes(self, venue, temporal):
        nodes, node = [], self.root
        for key in situation_path(venue, temporal):
            node = node.children.get(key)
            if node is None:
                break
            nodes.append(node)
        return nodes

    def slots_at(self, temporal):
        return self._cells.get(calendar_keys(temporal)[2], {})

    def venues_at(self, temporal, users=None, classes=None):
        cell = self._cells.get(calendar_keys(temporal)[2], {})
        return sorted(
            venue for venue, node in cell.items()
            if users is None or not node.users.isdisjoint(users)
        )

    def normalizer_nodes(self, path, classes=None):
        out = list(self.root.children.values())
        for parent in path[:-1]:
            out += parent.children.values()
        return out


def _variants(config, class_sweep, drift_compare):
    out = [("primary", config)]
    if drift_compare:
        out.append(("no_drift", replace(config, drift="none")))
    if class_sweep:
        sync = replace(config, enable_trend=False)
        for name, classes in (
            ("classes_I", {CLASS_I}),
            ("classes_I_II", {CLASS_I, CLASS_II}),
            ("classes_I_II_III", {CLASS_I, CLASS_II, CLASS_III}),
        ):
            out.append((name, replace(sync, classes=frozenset(classes))))
    return out


def _individual(tree, spatial, temporal):
    """The escape-blended distribution and new-venue mass, read context by
    context along the fallback chain."""
    alphabet = tree.root.counts
    if not alphabet:
        return {}, 0.0
    out, acc = {}, 1.0
    for context in escape_chain(spatial, temporal)[:-1]:
        counts = tree.counts_at(context)
        if not counts:
            continue
        denom = len(counts) + sum(counts.values())
        for q, c in counts.items():
            if q not in out:
                out[q] = acc * c / denom
        acc *= len(counts) / denom
    unseen = acc / len(alphabet)
    return {q: out.get(q, unseen) for q in alphabet}, unseen


def _best(dist):
    best = None
    for q in sorted(dist):
        if best is None or dist[q] > dist[best]:
            best = q
    return best


def reference_run(dataset, config, class_sweep, drift_compare):
    """The report dict and prediction rows of a plain prequential loop."""
    targets = sorted(dataset.active_users)
    if not targets:
        raise NoData("no active users")
    graph = dataset.graph
    variants = _variants(config, class_sweep, drift_compare)
    trees = {}

    def tree(user):
        return trees.setdefault(user, ContextTree(config.tree))

    def friends(user):
        return graph.neighbors(user) if user in graph else frozenset()

    models = {}  # (variant, target) -> SostModel with a store of its own
    influencers = {tgt: set() for tgt in targets}
    for tgt in targets:
        view = MergedContextView([tree(j) for j in sorted(friends(tgt))]) if friends(tgt) else None
        for name, vcfg in variants:
            models[name, tgt] = SostModel(
                tgt, friends(tgt), config=vcfg, trend=view,
                social=EagerSocialTree(vcfg.classes),
            )

    history = []  # every check-in processed so far, in stream order
    active_window = max(SITUATION_WINDOW, int(STAY_HOURS * 3600))
    rows, situations = [], dict.fromkeys(targets, 0)
    for ci in dataset.checkins:
        u, v, t = ci.user_id, ci.venue_id, ci.timestamp
        temporal = config.tree.temporal(t)
        mine = [c for c in history if c.user_id == u]
        spatial = tuple(c.venue_id for c in mine[max(0, len(mine) - config.tree.kappa):])
        if not config.tree.kappa:
            spatial = ()
        if u in dataset.active_users:
            dist, unseen = _individual(trees.get(u, ContextTree(config.tree)), spatial, temporal)
            users_now = None
            if mine and t - mine[-1].timestamp <= active_window:
                last = mine[-1]
                near = {
                    c.user_id for c in history
                    if c.venue_id == last.venue_id and c.user_id != u
                    and abs(c.timestamp - last.timestamp) <= SITUATION_WINDOW
                    and c.user_id in friends(u)
                }
                if near:
                    users_now = frozenset(near | {u})
                    situations[u] += 1
            row = {"user": u, "timestamp": t, "actual": v, "st": _best(dist)}
            for name, _ in variants:
                try:
                    row[name] = models[name, u].rank_with(
                        ContextKey(spatial, temporal), dist, unseen, t, users_now
                    ).venue
                except ModelEmpty:
                    row[name] = None
            rows.append(row)

        tree(u).observe(v, spatial, temporal)
        week = [c for c in history if c.venue_id == v and c.timestamp >= t - TIE_WINDOW]
        present = {
            c.user_id for c in week if c.timestamp >= t - SITUATION_WINDOW
        } - {u}
        for tgt in targets:
            circle = friends(tgt) | {tgt}
            if u not in circle:
                continue
            if u == tgt:
                masses = {w: sum(c.user_id == w for c in week) for w in friends(tgt)}
            else:
                masses = {u: sum(c.user_id == tgt for c in week)}
            users = frozenset((present & circle) | {u})
            cls = classify_situation(users, tgt)
            for name, vcfg in variants:
                model = models[name, tgt]
                for w, mass in masses.items():
                    if mass:
                        model.add_tie_mass(w, float(mass))
                if cls in vcfg.classes:
                    model.social.add(v, temporal, users, t, vcfg, cls)
            if cls in config.classes:
                influencers[tgt] |= users - {tgt}
        history.append(ci)

    if not rows:
        raise NoData("no scored events")
    return _report(dataset, config, rows, situations, influencers, variants, class_sweep,
                   drift_compare), rows


def _report(dataset, config, rows, situations, influencers, variants, class_sweep, drift_compare):
    targets = sorted(dataset.active_users)
    graph = dataset.graph
    n = len(rows)
    acc = {name: sum(r[name] == r["actual"] for r in rows) / n for name, _ in variants}
    acc_st = sum(r["st"] == r["actual"] for r in rows) / n
    visits = {}
    for ci in dataset.checkins:
        visits.setdefault(ci.user_id, {}).setdefault(ci.venue_id, 0)
        visits[ci.user_id][ci.venue_id] += 1
    per_user = []
    for u in targets:
        mine = [r for r in rows if r["user"] == u]
        counts = visits.get(u, {})
        st_acc = sum(r["st"] == r["actual"] for r in mine) / len(mine) if mine else 0.0
        so_acc = sum(r["primary"] == r["actual"] for r in mine) / len(mine) if mine else 0.0
        per_user.append({
            "user": u,
            "scored": len(mine),
            "st_accuracy": st_acc,
            "sost_accuracy": so_acc,
            "improvement": so_acc - st_acc,
            "situation_rate": situations[u] / len(mine) if mine else 0.0,
            "degree": graph.degree(u) if u in graph else 0,
            "entropy": entropy_nats(counts.values()) if counts else 0.0,
            "n_locations": len(counts),
            "influencers": len(influencers[u]),
        })

    hours = {b: [[0, 0] for _ in range(24)] for b in ("workday", "weekend")}
    for r in rows:
        tc = TemporalContext.from_timestamp(
            r["timestamp"], utc_offset_hours=config.tree.utc_offset_hours
        )
        cell = hours["weekend" if tc.day_class == WEEKEND else "workday"][tc.slot]
        cell[0] += r["st"] == r["actual"]
        cell[1] += r["primary"] == r["actual"]
    delta = sum(c[1] - c[0] for b in hours.values() for c in b)
    shares = {
        b: [(c[1] - c[0]) / delta if delta else 0.0 for c in cells]
        for b, cells in hours.items()
    }

    known = [p for p in per_user if p["n_locations"]]
    entropy = sum(p["entropy"] for p in known) / len(known) if known else 0.0
    n_locations = sum(p["n_locations"] for p in known) / len(known) if known else 2.0
    seen, new = {}, 0
    for ci in dataset.checkins:
        if ci.user_id in dataset.active_users and ci.venue_id not in seen.get(ci.user_id, ()):
            new += 1
        seen.setdefault(ci.user_id, set()).add(ci.venue_id)
    pair_visits = [c for u in targets for c in visits.get(u, {}).values()]
    avg_visits = sum(pair_visits) / len(pair_visits) if pair_visits else 1.0
    bounds = predictability_bounds(
        entropy, max(n_locations, 2.0), new_location_fraction=min(new / n, 1.0),
        avg_visits=avg_visits if avg_visits > 1.0 else None,
    )
    scored = [p for p in per_user if p["scored"]]
    p_value = None
    if len(scored) >= 2:
        try:
            _, p_value = correlation.welch_ttest(
                [p["sost_accuracy"] for p in scored], [p["st_accuracy"] for p in scored]
            )
        except DegenerateInput:
            p_value = None

    def gain(a):
        return {"accuracy": a, "absolute": a - acc_st,
                "relative": (a - acc_st) / acc_st if acc_st > 0 else 0.0}

    sweep = ("classes_I", "classes_I_II", "classes_I_II_III")
    return {
        "schema_version": 1,
        "accuracy_st": acc_st,
        "accuracy_sost": acc["primary"],
        "absolute_improvement": acc["primary"] - acc_st,
        "relative_improvement": (acc["primary"] - acc_st) / acc_st if acc_st > 0 else 0.0,
        "n_scored": n,
        "variant_accuracies": acc,
        "class_cumulative": {name: gain(acc[name]) for name in sweep} if class_sweep else {},
        "drift_comparison": {
            "with_drift": acc["primary"] - acc_st,
            "without_drift": acc["no_drift"] - acc_st,
        } if drift_compare else {},
        "per_hour_shares": shares,
        "bounds": bounds.to_dict(),
        "bounds_inputs": {
            "entropy": entropy,
            "n_locations": n_locations,
            "new_location_fraction": new / n,
            "avg_visits": avg_visits,
        },
        "significance_p": p_value,
        "per_user": per_user,
    }


def _logging_factors(run):
    """``run()`` and the social factors it computed, by the event, target,
    time, drift, estimator and influence classes each reading saw.  Both
    loops train one tree per check-in, after its predictions, so the
    number of trainings so far tells apart two check-ins of one user in
    the same second."""
    log = {}
    trained = [0]
    original = SostModel.social_factors
    observe = ContextTree.observe

    def logged(self, candidates, users_now, temporal, now, *args, **kwargs):
        factors = original(self, candidates, users_now, temporal, now, *args, **kwargs)
        classes = self.social.classes if self.class_filter is None else self.class_filter
        key = (trained[0], self.target, now, self.config.drift, self.config.estimator, classes)
        log.setdefault(key, []).append(factors)
        return factors

    def counted(self, *args, **kwargs):
        trained[0] += 1
        return observe(self, *args, **kwargs)

    SostModel.social_factors = logged
    ContextTree.observe = counted
    try:
        return run(), log
    finally:
        SostModel.social_factors = original
        ContextTree.observe = observe


def _same(a, b):
    """Equality that counts two NaNs in the same place as equal."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b and type(a) is type(b)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_users=st.integers(4, 8),  # synthgen groups hold at least four users
    days=st.integers(2, 5),
    seed=st.integers(0, 2**20),
    estimator=st.sampled_from(["A", "B"]),
    drift=st.sampled_from(["none", "geometric", "exponential"]),
    classes=st.sampled_from(
        [ALL_CLASSES, frozenset({CLASS_I}), frozenset({CLASS_II, CLASS_III}),
         frozenset({CLASS_I, CLASS_III})]
    ),
    class_sweep=st.booleans(),
    drift_compare=st.booleans(),
    # coarse slots put several hours in one social cell, and set the
    # report's hour buckets apart from the calendar slots
    kappa=st.sampled_from([0, 1, 3]),
    slot_hours=st.sampled_from([1, 6, 24]),
)
# u0000 checks in twice in one second, and the store changes in between
@example(
    n_users=4, days=2, seed=504, estimator="A", drift="none", classes=ALL_CLASSES,
    class_sweep=False, drift_compare=False, kappa=3, slot_hours=1,
)
def test_evaluate_matches_reference_loop(
    n_users, days, seed, estimator, drift, classes, class_sweep, drift_compare, kappa,
    slot_hours,
):
    dataset, _ = generate(GenConfig(
        n_users=n_users, days=days, seed=seed, group_size=4,
        p_cositu=0.95, p_meetup=1.0, p_follow=0.5, activity_threshold=3,
    ))
    config = SostConfig(
        estimator=estimator, drift=drift, classes=classes,
        tree=TreeConfig(kappa=kappa, slot_hours=slot_hours),
    )
    try:
        (want, want_rows), want_factors = _logging_factors(
            lambda: reference_run(dataset, config, class_sweep, drift_compare)
        )
    except NoData:
        want = None
    try:
        got, got_factors = _logging_factors(lambda: evaluate(
            dataset, config, class_sweep=class_sweep, drift_compare=drift_compare,
            record_predictions=True,
        ))
    except NoData:
        assert want is None
        return
    assert want is not None
    assert _same(got.to_dict(), want)
    assert got.predictions == want_rows
    # variants that read alike share one computation in evaluate, and each
    # computes its own in the reference
    for key, computed in want_factors.items():
        assert all(factors == computed[0] for factors in computed), key
    assert {key: computed[0] for key, computed in got_factors.items()} == {
        key: computed[0] for key, computed in want_factors.items()
    }
