import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from socmob.errors import ConfigError, ModelEmpty
from socmob.sost import (
    ALL_CLASSES,
    InfluenceRecord,
    SocialTree,
    SostConfig,
    SostModel,
    STAY_HOURS,
    classify_situation,
    drift_factor,
    influence_jaccard,
)
from socmob.vomm import ContextKey, ContextTree, MergedContextView, TreeConfig, calendar_keys

from conftest import prob, situation_path

HOUR = 3600
T0 = 1_000_000


def temporal_at(ts, cfg=None):
    cfg = cfg or TreeConfig()
    return cfg.temporal(ts)


def record(model, users, venue, ts):
    """Store the situation ``users`` at ``venue`` and ``ts`` as `evaluate`
    does: the check-in of one of them with the others present."""
    user = min(users)
    return model.record_social_context(
        user, frozenset(users) - {user}, venue, temporal_at(ts, model.config.tree), ts
    )


def record_of(node, users):
    """The one record of ``users`` at a social tree node."""
    (rec,) = [rec for rec in node.records if rec.users == frozenset(users)]
    return rec


def social_prob(model, venue, users_now, temporal, now):
    """The social factor of ``venue`` as ``rank_with`` reads it."""
    factors = model.social_factors([venue], frozenset(users_now), temporal, now)
    return 0.0 if factors is None else factors[venue]


def slot_node(store, venue, temporal, classes=None):
    """A social store's slot node for ``venue`` in ``temporal``'s cell; None
    when it holds no records of ``classes`` (None admits every class)."""
    node = store.slots_at(temporal).get(venue)
    if node is None or not any(classes is None or rec.cls in classes for rec in node.records):
        return None
    return node


def effective_counter(model, users_now, venue, temporal, now):
    """The Jaccard-weighted counter of the venue's slot node; 0.0 when the
    cell holds no slot node for the venue."""
    node = slot_node(model.social, venue, temporal, model.class_filter)
    if node is None:
        return 0.0
    return SocialTree.effective_counter(
        node, users_now, model.tie_mass, now, model.config, model.class_filter
    )


def reader(model, **changes):
    """A model of another configuration reading ``model``'s store and tie
    masses, as the variants of one target do in ``evaluate``."""
    other = SostModel(
        model.target, model.neighbors, config=replace(model.config, **changes),
        social=model.social,
    )
    other.tie_mass = model.tie_mass
    return other


class TestDrift:
    def test_no_decay_at_zero(self):
        assert drift_factor(0, 0.05, 3.0, "geometric") == 1.0
        assert drift_factor(0, 0.05, 3.0, "exponential") == 1.0

    def test_exponential_closed_form(self):
        stay = 3.0
        elapsed = 20 * stay * HOUR
        psi = drift_factor(elapsed, 0.05, stay, "exponential")
        assert psi == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_geometric_closed_form(self):
        stay = 2.0
        elapsed = 5 * stay * HOUR
        assert drift_factor(elapsed, 0.1, stay, "geometric") == pytest.approx(0.9**5, abs=1e-12)

    def test_monotone_decreasing_random_samples(self):
        rng = np.random.default_rng(42)
        betas = rng.uniform(0.001, 0.999, size=10_000)
        elapsed = rng.uniform(0, 100 * HOUR, size=10_000)
        for kind in ("geometric", "exponential"):
            psi1 = np.array(
                [drift_factor(e, b, 3.0, kind) for e, b in zip(elapsed, betas)]
            )
            psi2 = np.array(
                [drift_factor(e + 1800.0, b, 3.0, kind) for e, b in zip(elapsed, betas)]
            )
            assert np.all(psi2 <= psi1)
            assert np.all((psi1 > 0) & (psi1 <= 1.0))

    def test_decay_horizon_weeks(self):
        # influence falls below 0.1 within three to six weeks for the
        # reported beta range at a three-hour stay unit
        stay = 3.0
        for beta in (0.02, 0.05):
            for kind in ("geometric", "exponential"):
                three_weeks = 21 * 24 * HOUR
                six_weeks = 42 * 24 * HOUR
                assert drift_factor(six_weeks, beta, stay, kind) < 0.1
                if beta == 0.05:
                    assert drift_factor(three_weeks, beta, stay, kind) < 0.1

    def test_bad_beta(self):
        with pytest.raises(ConfigError):
            drift_factor(10, 1.5, 3.0, "exponential")
        with pytest.raises(ConfigError):
            SostConfig(beta=0.0)

    def test_negative_elapsed(self):
        with pytest.raises(ValueError):
            drift_factor(-5, 0.05, 3.0, "exponential")


class TestRecord:
    def test_reinforce_zero_elapsed_doubles(self):
        cfg = SostConfig()
        rec = InfluenceRecord(users=frozenset({"a"}), last_seen=100, counter=1.0)
        rec.reinforce(100, cfg)
        assert rec.counter == pytest.approx(2.0)

    def test_reinforce_decayed(self):
        cfg = SostConfig(beta=0.05, drift="exponential")
        rec = InfluenceRecord(users=frozenset({"a"}), last_seen=0, counter=1.0)
        elapsed = 60 * HOUR
        psi = drift_factor(elapsed, 0.05, 3.0, "exponential")
        rec.reinforce(elapsed, cfg)
        assert rec.counter == pytest.approx(1.0 * (psi + 1.0))
        assert rec.last_seen == elapsed

    def test_lazy_read_decay(self):
        cfg = SostConfig()
        rec = InfluenceRecord(users=frozenset({"a"}), last_seen=0, counter=4.0)
        v1 = rec.value_at(10 * HOUR, cfg)
        v2 = rec.value_at(20 * HOUR, cfg)
        assert v2 < v1 < 4.0

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["geometric", "exponential"]),
        beta=st.floats(0.001, 0.999),
        counter=st.floats(0.5, 1e6),
        last_seen=st.integers(0, 10**9),
        elapsed=st.integers(0, 10**8),
    )
    def test_decay_is_drift_factor_exactly(self, kind, beta, counter, last_seen, elapsed):
        # reads and reinforcements decay exactly as the public drift_factor
        cfg = SostConfig(beta=beta, drift=kind)
        psi = drift_factor(elapsed, beta, STAY_HOURS, kind)
        now = last_seen + elapsed
        rec = InfluenceRecord(users=frozenset({"a"}), last_seen=last_seen, counter=counter)
        assert rec.value_at(now, cfg) == counter * psi
        rec.reinforce(now, cfg)
        assert rec.counter == counter * (psi + 1.0)
        assert (rec.last_seen, rec.hits) == (now, 2)

    @pytest.mark.parametrize("kind", ["geometric", "exponential"])
    def test_negative_elapsed_raises(self, kind):
        cfg = SostConfig(drift=kind)
        rec = InfluenceRecord(users=frozenset({"a"}), last_seen=100, counter=1.0)
        with pytest.raises(ValueError):
            rec.value_at(99, cfg)
        with pytest.raises(ValueError):
            rec.reinforce(99, cfg)
        assert (rec.counter, rec.last_seen) == (1.0, 100)

    def test_counting_without_drift(self):
        cfg = SostConfig(drift="none")
        rec = InfluenceRecord(users=frozenset({"a"}), last_seen=0, counter=1.0)
        rec.reinforce(500, cfg)
        rec.reinforce(900, cfg)
        assert rec.counter == 3.0
        assert rec.value_at(10**9, cfg) == 3.0


class TestInfluenceJaccard:
    def test_identical(self):
        tie = {"b": 0.6, "c": 0.4}
        assert influence_jaccard({"a", "b"}, {"a", "b"}, tie) == 1.0

    def test_disjoint(self):
        tie = {"b": 0.5, "c": 0.5}
        assert influence_jaccard({"b"}, {"c"}, tie) == 0.0

    def test_weighted_overlap(self):
        tie = {"b": 0.5, "c": 0.3, "d": 0.2}
        # intersection {b}, union {b, c, d}
        got = influence_jaccard({"a", "b", "c"}, {"b", "d"}, tie)
        assert got == pytest.approx(0.5 / 1.0)

    def test_zero_union(self):
        assert influence_jaccard({"x"}, {"y"}, {}) == 0.0

    def test_scale_invariance(self):
        tie = {"b": 0.5, "c": 0.3, "d": 0.2}
        scaled = {k: 7.3 * v for k, v in tie.items()}
        a, b = {"a", "b", "c"}, {"b", "d"}
        assert influence_jaccard(a, b, tie) == pytest.approx(
            influence_jaccard(a, b, scaled)
        )


class TestClassify:
    def test_partition(self):
        assert classify_situation(frozenset({"me", "f"}), "me") == "I"
        assert classify_situation(frozenset({"f", "g"}), "me") == "II"
        assert classify_situation(frozenset({"f"}), "me") == "III"
        assert classify_situation(frozenset({"me"}), "me") is None
        assert classify_situation(frozenset(), "me") is None

    def test_exactly_one_class(self, rng):
        users = ["me"] + [f"f{i}" for i in range(5)]
        for _ in range(200):
            k = rng.randrange(1, 5)
            s = frozenset(rng.sample(users, k))
            classes = [
                c
                for c in ("I", "II", "III")
                if classify_situation(s, "me") == c
            ]
            assert len(classes) <= 1


class TestSocialTree:
    def test_first_occurrence_initializes(self):
        model = SostModel("me", ["f"])
        cls = record(model, frozenset({"me", "f"}), "V", T0)
        assert cls == "I"
        node = slot_node(model.social, "V", temporal_at(T0))
        assert node is not None
        rec = record_of(node, {"me", "f"})
        assert rec.counter == 1.0 and rec.last_seen == T0

    def test_repeat_zero_elapsed(self):
        model = SostModel("me", ["f"])
        u = frozenset({"me", "f"})
        record(model, u, "V", T0)
        record(model, u, "V", T0)
        node = slot_node(model.social, "V", temporal_at(T0))
        assert record_of(node, u).counter == pytest.approx(2.0)

    def test_class_ii_creates_path_for_unvisited_venue(self):
        model = SostModel("me", ["f", "g"])
        cls = record(model, frozenset({"f", "g"}), "NEVER", T0)
        assert cls == "II"
        assert slot_node(model.social, "NEVER", temporal_at(T0)) is not None
        assert len(model.social.path_nodes("NEVER", temporal_at(T0))) == 4

    def test_class_gating(self):
        model = SostModel("me", ["f"], config=SostConfig(classes=frozenset({"II"})))
        assert record(model, frozenset({"me", "f"}), "V", T0) is None
        assert slot_node(model.social, "V", temporal_at(T0)) is None

    def test_strangers_filtered(self):
        model = SostModel("me", ["f"])
        cls = record(model, frozenset({"f", "stranger"}), "V", T0)
        assert cls == "III"  # the stranger is outside the circle

    def test_venues_at_filters_by_users(self):
        model = SostModel("me", ["f", "g"])
        record(model, frozenset({"me", "f"}), "V", T0)
        record(model, frozenset({"f", "g"}), "W", T0 + 7200)
        record(model, frozenset({"me", "f"}), "V", T0 + 9999)
        first, second = temporal_at(T0), temporal_at(T0 + 7200)
        tree = model.social
        assert tree.venues_at(first) == ["V"]
        assert tree.venues_at(first, {"f"}) == ["V"]
        assert tree.venues_at(first, {"g"}) == []
        assert tree.venues_at(second, {"me", "g"}) == ["W"]
        assert tree.venues_at(second, {"me"}) == []
        assert tree.venues_at(second, {"g"}, frozenset({"I"})) == []
        assert tree.venues_at(second, {"g"}, frozenset({"II"})) == ["W"]


class TestEffectiveCounter:
    def test_single_matching_record(self):
        model = SostModel("me", ["f"])
        model.tie_mass = {"f": 1.0}
        record(model, frozenset({"me", "f"}), "V", T0)
        got = effective_counter(model, {"me", "f"}, "V", temporal_at(T0), now=T0)
        assert got == pytest.approx(1.0)

    def test_disjoint_records(self):
        model = SostModel("me", ["f", "g"])
        model.tie_mass = {"f": 0.6, "g": 0.4}
        record(model, frozenset({"f"}), "V", T0)
        got = effective_counter(model, {"me", "g"}, "V", temporal_at(T0), now=T0)
        assert got == 0.0

    def test_three_record_fixture(self):
        cfg = SostConfig(drift="none")
        model = SostModel("me", ["f", "g", "h"], config=cfg)
        model.tie_mass = {"f": 0.5, "g": 0.3, "h": 0.2}
        sets = [frozenset({"me", "f"}), frozenset({"f", "g"}), frozenset({"h"})]
        for s in sets:
            record(model, s, "V", T0)
        now = frozenset({"me", "f", "g"})
        expect = sum(
            1.0 * influence_jaccard(now, s, model.tie_mass) for s in sets
        )
        got = effective_counter(model, now, "V", temporal_at(T0), now=T0)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_missing_node(self):
        model = SostModel("me", ["f"])
        assert effective_counter(model, {"me", "f"}, "V", temporal_at(T0), T0) == 0.0


class TestEstimators:
    def _model(self, drift="none"):
        cfg = SostConfig(drift=drift)
        model = SostModel("me", ["f", "g"], config=cfg)
        model.tie_mass = {"f": 0.7, "g": 0.3}
        return model

    def test_estimator_b_single_record_is_one(self):
        model = self._model()
        record(model, frozenset({"me", "f"}), "V", T0)
        got = social_prob(model, "V", {"me", "f"}, temporal_at(T0), now=T0)
        assert got == pytest.approx(1.0)

    def test_no_records_anywhere(self):
        model = self._model()
        assert social_prob(model, "V", {"me", "f"}, temporal_at(T0), T0) == 0.0

    def test_b_at_least_a_on_fixture(self):
        # two venues with evidence; estimator A spreads mass over the node,
        # its ancestors and their siblings, so B gives the evidenced venue
        # more weight
        model = self._model()
        record(model, frozenset({"me", "f"}), "V", T0)
        record(model, frozenset({"me", "g"}), "W", T0 + 60)
        now = {"me", "f"}
        b = social_prob(model, "V", now, temporal_at(T0), now=T0)
        a = social_prob(reader(model, estimator="A"), "V", now, temporal_at(T0), now=T0)
        assert b >= a
        assert a > 0

    def test_direct_evaluation_of_estimators(self):
        model = self._model()
        t1 = T0
        u1 = frozenset({"me", "f"})
        u2 = frozenset({"me", "g"})
        record(model, u1, "V", t1)
        record(model, u1, "V", t1)  # counter 2
        record(model, u2, "V", t1)
        now = {"me", "f"}
        tie = model.tie_mass
        j1 = influence_jaccard(now, u1, tie)
        j2 = influence_jaccard(now, u2, tie)
        eff = 2.0 * j1 + 1.0 * j2
        raw = 3.0
        got_b = social_prob(model, "V", now, temporal_at(t1), now=t1)
        assert got_b == pytest.approx(eff / raw, abs=1e-12)
        # estimator A: nodes on the path all carry the same records, and
        # there are no sibling venues; denominator = 4 nodes + 4 * eff
        got_a = social_prob(reader(model, estimator="A"), "V", now, temporal_at(t1), now=t1)
        assert got_a == pytest.approx(eff / (4 + 4 * eff), abs=1e-12)


class TestCombinedAndPredict:
    def _st_tree(self):
        tree = ContextTree(TreeConfig())
        prev = []
        ts = T0
        for venue in "ABABABAB":
            tree.train_event(venue, ts, prev)
            prev.append(venue)
            prev = prev[-3:]
            ts += HOUR
        return tree, prev, ts

    def test_no_situation_routes_to_individual(self):
        tree, prev, ts = self._st_tree()
        model = SostModel("me", ["f"])
        key = tree.key(prev, ts)
        dist, unseen = tree.distribution(key)
        assert model.social_factors(dist, None, key.temporal, now=ts) is None
        outcome = model.rank_with(key, dist, unseen, ts, None)
        assert not outcome.social_matched
        assert outcome.prob == dist[outcome.venue] == max(dist.values())

    def test_product(self):
        tree, prev, ts = self._st_tree()
        cfg = SostConfig(drift="none")
        model = SostModel("me", ["f"], config=cfg)
        model.tie_mass = {"f": 1.0}
        now = frozenset({"me", "f"})
        key = tree.key(prev, ts)
        # plant a record for symbol "A" at the current temporal context
        record(model, now, "A", ts)
        factor = social_prob(model, "A", now, key.temporal, now=ts)
        individual = prob(tree, "A", key)
        dist, unseen = tree.distribution(key)
        outcome = model.rank_with(key, dist, unseen, ts, now)
        # "B" has no record here, so its factor is 0 and "A" wins
        assert outcome.social_matched
        assert outcome.venue == "A"
        assert outcome.prob == pytest.approx(factor * individual)

    def test_predict_reduces_to_individual_without_social_data(self):
        tree, prev, ts = self._st_tree()
        model = SostModel(
            "me", ["f"], config=SostConfig(classes=frozenset(), enable_trend=False)
        )
        key = tree.key(prev, ts)
        dist, unseen = tree.distribution(key)
        outcome = model.rank_with(key, dist, unseen, ts)
        assert outcome.branch == "main"
        assert outcome.venue == tree.predict(key)[0][0]

    def test_planted_influence_prediction(self):
        # the target has never been to venue N; friends have, at a matching
        # temporal context, and the current situation includes them
        tree, prev, ts = self._st_tree()
        cfg = SostConfig(drift="none")
        friends_trees = [ContextTree(TreeConfig()) for _ in range(2)]
        # friends visit N repeatedly at the same hour-of-week as `ts`
        for k, ftree in enumerate(friends_trees):
            fprev = []
            for w in range(4):
                t = ts + w * 7 * 86_400
                ftree.train_event("N", t, fprev)
                fprev.append("N")

        model = SostModel(
            "me", ["f1", "f2"], config=cfg, trend=MergedContextView(friends_trees)
        )
        model.tie_mass = {"f1": 0.5, "f2": 0.5}
        now = frozenset({"me", "f1", "f2"})
        record(model, now, "N", ts - 7 * 86_400)
        key = tree.key(prev, ts)
        dist, unseen = tree.distribution(key)
        outcome = model.rank_with(key, dist, unseen, ts, now)
        assert outcome.venue == "N"

    # a user without history ranks the empty distribution, with no weight
    # for a never-seen venue, from the empty spatial context
    def test_cold_user_falls_back_to_trend(self):
        friend_tree = ContextTree(TreeConfig())
        fprev = []
        for k in range(5):
            friend_tree.train_event("T", T0 + k * HOUR, fprev)
            fprev.append("T")

        model = SostModel("me", ["f"], trend=MergedContextView([friend_tree]))
        ts = T0 + 6 * HOUR
        outcome = model.rank_with(ContextKey((), temporal_at(ts)), {}, 0.0, ts)
        assert outcome.branch == "trend"
        assert outcome.venue == "T"
        assert not outcome.social_matched

    def test_everything_empty(self):
        key = ContextKey((), temporal_at(T0))
        with pytest.raises(ModelEmpty):
            SostModel("me", ["f"]).rank_with(key, {}, 0.0, T0)
        # a trend view the configuration switches off predicts nothing either
        friend_tree = ContextTree(TreeConfig())
        friend_tree.train_event("T", T0 - HOUR, [])
        model = SostModel(
            "me", ["f"], config=SostConfig(enable_trend=False),
            trend=MergedContextView([friend_tree]),
        )
        with pytest.raises(ModelEmpty):
            model.rank_with(key, {}, 0.0, T0)

    def test_cold_user_gets_no_social_venue(self):
        # the situation is active and the store has a venue for it in this
        # cell, yet a user without history gets no prediction without the
        # trend model
        model = SostModel("me", ["f"], config=SostConfig(enable_trend=False))
        model.tie_mass = {"f": 1.0}
        now = frozenset({"me", "f"})
        record(model, now, "V", T0)
        temporal = temporal_at(T0)
        assert model.social.venues_at(temporal, now) == ["V"]
        assert social_prob(model, "V", now, temporal, now=T0) == 1.0
        with pytest.raises(ModelEmpty):
            model.rank_with(ContextKey((), temporal), {}, 0.0, T0, now)


class TestConfig:
    def test_defaults(self):
        cfg = SostConfig()
        assert cfg.beta == 0.05
        assert cfg.estimator == "B"
        assert cfg.classes == ALL_CLASSES
        assert cfg.tree.kappa == 3
        assert cfg.tree.slot_hours == 1

    def test_validation(self):
        with pytest.raises(ConfigError):
            SostConfig(drift="sideways")
        with pytest.raises(ConfigError):
            SostConfig(estimator="Z")
        with pytest.raises(ConfigError):
            SostConfig(classes=frozenset({"IV"}))


FRIENDS = ("f1", "f2", "f3")
CIRCLE = ("me",) + FRIENDS
CLASS_SETS = [frozenset(c) for c in ({"I"}, {"II"}, {"III"}, {"I", "II"}, {"II", "III"}, ALL_CLASSES)]

situation_users = st.frozensets(st.sampled_from(CIRCLE), min_size=1, max_size=4)
# few venues and calendar cells, so that records collide, and steps of zero
# seconds, so that several situations share a timestamp
situations = st.lists(
    st.tuples(
        situation_users,
        st.sampled_from(["A", "B", "C"]),
        st.sampled_from([0, 0, 600, HOUR, 2 * HOUR, 86_400, 6 * 86_400]),
    ),
    min_size=1,
    max_size=30,
)


class TestSharedStore:
    """Each reader of a shared store sees what a store of its own holds."""

    @staticmethod
    def visible(model, node, now):
        if node is None:
            return None
        return [
            (rec.users, rec.value_at(now, model.config))
            for rec in node.records
            if model.class_filter is None or rec.cls in model.class_filter
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        stream=situations,
        drift=st.sampled_from(["none", "geometric", "exponential"]),
        primary_classes=st.sampled_from(CLASS_SETS),
        reader_classes=st.lists(st.sampled_from(CLASS_SETS), min_size=1, max_size=3),
        ties=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_reads_match_standalone_models(
        self, stream, drift, primary_classes, reader_classes, ties
    ):
        primary_cfg = SostConfig(drift=drift, classes=primary_classes)
        configs = [primary_cfg, SostConfig(drift="none", classes=primary_classes)]
        configs += [SostConfig(drift=drift, classes=c, enable_trend=False) for c in reader_classes]
        store = SocialTree(frozenset().union(*(c.classes for c in configs)), primary_cfg)
        shared = [SostModel("me", FRIENDS, config=c, social=store) for c in configs]
        alone = [SostModel("me", FRIENDS, config=c) for c in configs]
        tie = dict(zip(FRIENDS, ties))
        for model in shared + alone:
            model.tie_mass = tie

        ts = T0
        for users, venue, step in stream:
            ts += step
            record(shared[0], users, venue, ts)
            for model in alone:
                record(model, users, venue, ts)
        assert shared[0].influencers == alone[0].influencers

        now = ts + 5 * HOUR
        cells = {temporal_at(T0 + step) for _, _, step in stream} | {temporal_at(ts)}
        for a, b in zip(shared, alone):
            readers = [(reader(a, estimator=e), reader(b, estimator=e)) for e in ("A", "B")]
            for temporal in cells:
                for users_now in (None, {"f1"}, {"me", "f2"}, {"me", "f1", "f3"}):
                    assert a.social.venues_at(temporal, users_now, a.class_filter) == (
                        b.social.venues_at(temporal, users_now)
                    )
                for venue in ("A", "B", "C"):
                    assert self.visible(
                        a, slot_node(a.social, venue, temporal, a.class_filter), now
                    ) == self.visible(b, slot_node(b.social, venue, temporal), now)
                    for users_now in ({"me", "f1"}, {"f2", "f3"}, set(CIRCLE)):
                        for ra, rb in readers:
                            args = (venue, users_now, temporal, now)
                            assert social_prob(ra, *args) == social_prob(rb, *args)


class _DictNode:
    def __init__(self):
        self.children = {}
        self.records = {}
        self.users = None


class DictSocialTree:
    """The earlier layout of ``SocialTree``: records keyed by their user set
    in a dict at every node, and a dict of children at every node.  Kept as
    the reference the compact layout must agree with."""

    def __init__(self):
        self.root = _DictNode()
        self.n_records = 0
        self.cells = {}

    def record(self, venue, temporal, users, timestamp, config, cls):
        path = situation_path(venue, temporal)
        node = self.root
        for key in path:
            child = node.children.get(key)
            if child is None:
                child = node.children[key] = _DictNode()
            rec = child.records.get(users)
            if rec is None:
                child.records[users] = InfluenceRecord(users, timestamp, 1.0, cls, 1, self.n_records)
                self.n_records += 1
            else:
                rec.reinforce(timestamp, config)
            node = child
        if node.users is None:
            node.users = set(users)
            self.cells.setdefault(path[3], {})[venue] = node
        elif rec is None:
            node.users |= users

    def path_nodes(self, venue, temporal):
        nodes = []
        node = self.root
        for key in situation_path(venue, temporal):
            node = node.children.get(key)
            if node is None:
                break
            nodes.append(node)
        return nodes

    def query_node(self, venue, temporal, classes=None):
        nodes = self.path_nodes(venue, temporal)
        if len(nodes) == 4 and (
            bool(nodes[3].records) if classes is None
            else any(rec.cls in classes for rec in nodes[3].records.values())
        ):
            return nodes[3], nodes
        return None

    def venues_at(self, temporal, users=None, classes=None):
        cell = self.cells.get(calendar_keys(temporal)[2])
        if not cell:
            return []
        user_set = None if users is None else frozenset(users)
        out = []
        for venue, node in cell.items():
            if user_set is not None and node.users.isdisjoint(user_set):
                continue
            if classes is None or any(
                rec.cls in classes and (user_set is None or not rec.users.isdisjoint(user_set))
                for rec in node.records.values()
            ):
                out.append(venue)
        return sorted(out)

    def normalizer_nodes(self, path, classes=None):
        groups = [self.root.children.values()]
        groups.extend(parent.children.values() for parent in path[:-1])
        if classes is None:
            return [node for group in groups for node in group]
        out = []
        for group in groups:
            born = []
            for node in group:
                for rec in node.records.values():
                    if rec.cls in classes:
                        born.append((rec.seq, node))
                        break
            born.sort(key=lambda pair: pair[0])
            out += [node for _, node in born]
        return out


def _records(node):
    records = node.records.values() if isinstance(node.records, dict) else node.records
    return [
        (sorted(r.users), r.cls, r.last_seen, r.counter, r.hits, r.seq) for r in records
    ]


def _walk(node, path=()):
    """Every node under ``node``, depth first in child order: its path of
    keys and its records."""
    out = [(path, _records(node))]
    for key, child in node.children.items():
        out += _walk(child, path + (key,))
    return out


class TestCompactLayout:
    """``SocialTree`` holds and reads exactly what the dict layout did, which
    wrote every level of a situation's path at once, whenever the reads
    come between the writes."""

    @staticmethod
    def assert_reads_match(tree, ref, cells):
        assert tree.n_records == ref.n_records
        assert _walk(tree.root) == _walk(ref.root)
        for classes in [None] + CLASS_SETS:
            for temporal in cells:
                for users_now in (None, {"f1"}, {"me", "f2"}, set(CIRCLE)):
                    assert tree.venues_at(temporal, users_now, classes) == (
                        ref.venues_at(temporal, users_now, classes)
                    )
                for venue in ("A", "B", "C"):
                    assert [_records(n) for n in tree.path_nodes(venue, temporal)] == [
                        _records(n) for n in ref.path_nodes(venue, temporal)
                    ]
                    path = tree.path_nodes(venue, temporal)
                    want = ref.query_node(venue, temporal, classes)
                    assert [_records(n) for n in path] == [
                        _records(n) for n in ref.path_nodes(venue, temporal)
                    ]
                    slot = slot_node(tree, venue, temporal, classes)
                    if want is None:
                        assert slot is None
                        continue
                    assert slot is path[3]
                    assert [_records(n) for n in tree.normalizer_nodes(path, classes)] == [
                        _records(n) for n in ref.normalizer_nodes(want[1], classes)
                    ]

    @settings(max_examples=150, deadline=None)
    @given(
        # user sets as lists, so that each occurrence makes a new frozenset
        stream=st.lists(
            st.tuples(
                st.lists(st.sampled_from(CIRCLE), min_size=1, max_size=4),
                st.sampled_from(sorted(ALL_CLASSES)),
                st.sampled_from(["A", "B", "C"]),
                st.sampled_from([0, 0, 600, HOUR, 2 * HOUR, 86_400, 6 * 86_400]),
            ),
            min_size=1,
            max_size=40,
        ),
        drift=st.sampled_from(["none", "geometric", "exponential"]),
        # positions in the stream after which every read is compared
        read_after=st.sets(st.integers(0, 39), max_size=4),
    )
    def test_matches_dict_layout(self, stream, drift, read_after):
        config = SostConfig(drift=drift)
        tree, ref = SocialTree(ALL_CLASSES, config), DictSocialTree()
        ts = T0
        steps = []
        for users, cls, venue, step in stream:
            ts += step
            steps.append((venue, temporal_at(ts), users, ts, cls))
        cells = {temporal for _, temporal, *_ in steps}
        for i, (venue, temporal, users, ts, cls) in enumerate(steps):
            tree.record(venue, temporal, frozenset(users), ts, cls)
            ref.record(venue, temporal, frozenset(users), ts, config, cls)
            if i in read_after:
                self.assert_reads_match(tree, ref, cells)
        self.assert_reads_match(tree, ref, cells)

    def test_earlier_timestamp_with_drift_is_refused(self):
        def where(venue, ts):
            return venue, temporal_at(ts)

        tree = SocialTree(ALL_CLASSES, SostConfig(drift="geometric"))
        tree.record(*where("A", T0), frozenset({"f1"}), T0, "III")
        before = _walk(tree.root)
        earlier = T0 - HOUR
        with pytest.raises(ValueError):
            tree.record(*where("B", earlier), frozenset({"f2"}), earlier, "III")
        assert _walk(tree.root) == before
        # without drift nothing decays, and any order is accepted
        tree = SocialTree(ALL_CLASSES, SostConfig(drift="none"))
        tree.record(*where("A", T0), frozenset({"f1"}), T0, "III")
        tree.record(*where("B", earlier), frozenset({"f2"}), earlier, "III")
        assert tree.n_records == 8


def _slot_records(node):
    """A slot node's records without their creation numbers, which are
    given when the coarse levels are built."""
    return [rec[:-1] for rec in _records(node)]


def _walked_members(tree, classes):
    users = set()
    for _, records in _walk(tree.root):
        for rec_users, cls, *_ in records:
            if cls in classes:
                users.update(rec_users)
    return users


READS = ("slot", "venues", "factors", "members", "n_records", "path", "normalizer")


class TestLazyCells:
    """A store whose cells are built when first read answers every read as
    the same store read after every write does."""

    @staticmethod
    def assert_read_matches(kind, lazy, eager, temporal, venue, users_now, classes, tie, now):
        if kind == "slot":
            assert list(lazy.slots_at(temporal)) == list(eager.slots_at(temporal))
            got = slot_node(lazy, venue, temporal, classes)
            want = slot_node(eager, venue, temporal, classes)
            assert (got is None) == (want is None)
            if got is not None:
                assert _slot_records(got) == _slot_records(want)
                assert got.users == want.users
        elif kind == "venues":
            for users in (None, users_now):
                for filt in (None, classes):
                    assert lazy.venues_at(temporal, users, filt) == (
                        eager.venues_at(temporal, users, filt)
                    )
        elif kind == "factors":
            for estimator in ("A", "B"):
                for drift in ("none", lazy.config.drift):
                    config = SostConfig(drift=drift, estimator=estimator, classes=classes)
                    a, b = (SostModel("me", FRIENDS, config=config, social=s) for s in (lazy, eager))
                    a.tie_mass = b.tie_mass = tie
                    args = ("ABC", frozenset(users_now), temporal, now)
                    assert a.social_factors(*args) == b.social_factors(*args)
        elif kind == "members":
            assert lazy.members(classes) == eager.members(classes)
            assert lazy.members(classes) == _walked_members(eager, classes)
        elif kind == "n_records":
            assert lazy.n_records == eager.n_records
        elif kind == "path":
            assert [_records(n) for n in lazy.path_nodes(venue, temporal)] == [
                _records(n) for n in eager.path_nodes(venue, temporal)
            ]
        else:
            path = lazy.path_nodes(venue, temporal)
            assert [_records(n) for n in lazy.normalizer_nodes(path, classes)] == [
                _records(n)
                for n in eager.normalizer_nodes(eager.path_nodes(venue, temporal), classes)
            ]

    @settings(max_examples=150, deadline=None)
    @given(
        stream=st.lists(
            st.tuples(
                # "me" alone is no situation, so every set has a class
                situation_users.filter(lambda users: users != {"me"}),
                st.sampled_from(["A", "B", "C"]),
                st.sampled_from([0, 0, 600, HOUR, 2 * HOUR, 86_400, 6 * 86_400]),
                # reads after the write: kind, and indexes of the cell,
                # venue, active situation and class set to read
                st.lists(
                    st.tuples(
                        st.sampled_from(READS),
                        st.integers(0, 30),
                        st.sampled_from(["A", "B", "C"]),
                        st.sampled_from([("me", "f1"), ("f2", "f3"), CIRCLE]),
                        st.sampled_from(CLASS_SETS),
                    ),
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=30,
        ),
        drift=st.sampled_from(["none", "geometric", "exponential"]),
        # where one write goes back in time, and by how much
        earlier=st.tuples(st.integers(0, 29), st.sampled_from([1, HOUR, 86_400])),
        ties=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_matches_store_read_after_every_write(self, stream, drift, earlier, ties):
        config = SostConfig(drift=drift)
        lazy, eager = SocialTree(ALL_CLASSES, config), SocialTree(ALL_CLASSES, config)
        tie = dict(zip(FRIENDS, ties))
        ts = T0
        cells = []
        for i, (users, venue, step, reads) in enumerate(stream):
            if i == earlier[0] and cells:
                when = ts - earlier[1]
            else:
                ts += step
                when = ts
            temporal = temporal_at(when)
            # a new set object per write, as `evaluate` makes
            args = (
                venue, temporal, frozenset(sorted(users)), when, classify_situation(users, "me"),
            )
            if when < ts and drift != "none":
                with pytest.raises(ValueError):
                    lazy.record(*args)
                assert lazy.members(ALL_CLASSES) == eager.members(ALL_CLASSES)
            else:
                lazy.record(*args)
                eager.record(*args)
                eager.n_records  # builds every level at once
                cells.append(temporal)
            for kind, cell, read_venue, users_now, classes in reads:
                if cells:
                    self.assert_read_matches(
                        kind, lazy, eager, cells[cell % len(cells)], read_venue,
                        set(users_now), classes, tie, ts + HOUR,
                    )
        assert lazy.n_records == eager.n_records
        assert _walk(lazy.root) == _walk(eager.root)
        for temporal in cells:
            assert list(lazy.slots_at(temporal)) == list(eager.slots_at(temporal))
        for classes in CLASS_SETS:
            assert lazy.members(classes) == _walked_members(lazy, classes)
