import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socmob.core import TemporalContext
from socmob.errors import ModelEmpty, ParseError
from socmob.vomm import (
    ContextKey,
    ContextTree,
    MergedContextView,
    TreeConfig,
    argmax,
)

from conftest import escape_chain, temporal_labels

HOUR = 3600


def hourly_history(symbols, t0=1_000_000, step=HOUR):
    """(venue, timestamp) pairs spaced one step apart."""
    return [(s, t0 + i * step) for i, s in enumerate(symbols)]


def train_tree(events, config=None):
    tree = ContextTree(config or TreeConfig())
    prev = []
    for venue, ts in events:
        tree.train_event(venue, ts, prev)
        prev.append(venue)
        if len(prev) > tree.config.kappa:
            prev.pop(0)
    return tree


# --- independent oracle -------------------------------------------------------
#
# Recomputes everything from the raw event list: n-gram counts per context
# via its own context construction, then the recursive probability with the
# escape estimator, sharing no code with the library implementation.


class PpmOracle:
    def __init__(self, events, config):
        self.config = config
        self.counts = {}
        self.alphabet = set()
        prev = []
        for venue, ts in events:
            temporal = TemporalContext.from_timestamp(
                ts, config.slot_hours, config.utc_offset_hours
            )
            for ctx in self._contexts(tuple(prev[-config.kappa:]), temporal):
                bucket = self.counts.setdefault(ctx, {})
                bucket[venue] = bucket.get(venue, 0) + 1
            self.alphabet.add(venue)
            prev.append(venue)

    @staticmethod
    def _temporal_tuple(temporal):
        w = 1 if temporal.day_class == "weekend" else 0
        return (("W", w), ("D", temporal.day_of_week), ("S", temporal.slot))

    def _contexts(self, spatial, temporal):
        tl = self._temporal_tuple(temporal)
        out = []
        for start in range(len(spatial) + 1):
            sp = tuple(("L", v) for v in spatial[start:])
            for t in (3, 2, 1, 0):
                out.append(sp + tl[:t])
        return out

    def prob(self, symbol, ctx, temporal):
        if not ctx:
            return 1.0 / len(self.alphabet)
        bucket = self.counts.get(ctx)
        if not bucket:
            return self.prob(symbol, self._suf(ctx, temporal), temporal)
        total = sum(bucket.values())
        sigma = len(bucket)
        if symbol in bucket:
            return bucket[symbol] / (sigma + total)
        escape = sigma / (sigma + total)
        return escape * self.prob(symbol, self._suf(ctx, temporal), temporal)

    def _suf(self, ctx, temporal):
        n_temporal = sum(1 for lab in ctx if lab[0] != "L")
        if n_temporal > 0:
            return ctx[:-1]
        # bare spatial context: shorten and re-attach the full refinement
        spatial = ctx[1:]
        return spatial + self._temporal_tuple(temporal)

    def full_context(self, spatial, temporal):
        sp = tuple(("L", v) for v in spatial[-self.config.kappa:])
        return sp + self._temporal_tuple(temporal)


class TestConfig:
    @pytest.mark.parametrize("offset", [-24, -12.0, 0, 5.75, 14.0, 24.0])
    def test_offsets_within_a_day_are_accepted(self, offset):
        assert TreeConfig(utc_offset_hours=offset).temporal(0) is not None

    @pytest.mark.parametrize(
        "offset", [float("nan"), float("inf"), -float("inf"), 1e308, 24.5, -25, 10**400]
    )
    def test_other_offsets_are_rejected(self, offset):
        with pytest.raises(ValueError, match="utc_offset_hours"):
            TreeConfig(utc_offset_hours=offset)


class TestTraining:
    def test_single_event(self):
        tree = train_tree([("A", 1_000_000)])
        assert tree.root.counts == {"A": 1}
        assert set(tree.alphabet) == {"A"}
        assert tree.n_events == 1

    def test_hand_counted_ngrams(self):
        # "A B A B A" with kappa=1: two A->B and two B->A transitions
        cfg = TreeConfig(kappa=1)
        tree = train_tree(hourly_history("ABABA"), cfg)
        counts_after_a = tree.counts_at((("L", "A"),))
        counts_after_b = tree.counts_at((("L", "B"),))
        assert counts_after_a == {"B": 2}
        assert counts_after_b == {"A": 2}

    def test_depth_one_conservation(self, rng):
        symbols = [rng.choice("ABCD") for _ in range(40)]
        tree = train_tree(hourly_history(symbols))
        assert sum(tree.root.counts.values()) == len(symbols)

    def test_training_order_invariance_of_counters(self, rng):
        # counters are pure event counts: two trees fed the same events in
        # different arrival order (with contexts fixed) have equal dumps
        events = hourly_history([rng.choice("ABC") for _ in range(30)])
        cfg = TreeConfig()
        t1 = ContextTree(cfg)
        t2 = ContextTree(cfg)
        items = []
        prev = []
        for venue, ts in events:
            items.append((venue, ts, tuple(prev[-cfg.kappa:])))
            prev.append(venue)
        for venue, ts, ctx in items:
            t1.train_event(venue, ts, ctx)
        for venue, ts, ctx in reversed(items):
            t2.train_event(venue, ts, ctx)
        assert t1.dumps() == t2.dumps()


class TestProb:
    def test_empty_context_unseen_symbol_uniform(self):
        tree = train_tree(hourly_history("ABCA"))
        key = ContextKey(spatial=(), temporal=TemporalContext.from_timestamp(0))
        # chain of an empty-spatial key still ends at the empty context;
        # a never-seen symbol escapes everywhere
        p = tree.prob("Z", key)
        assert p > 0
        # direct check of the base case: fully escaped mass is uniform
        dist, unseen = tree.distribution(key, candidates=("Z",))
        assert dist["Z"] == unseen

    def test_direct_substitution(self):
        # one context with a single symbol seen three times:
        # estimate 3/4 for the symbol, escape 1/4
        cfg = TreeConfig(kappa=0)
        t0 = 1_000_000
        tree = ContextTree(cfg)
        for k in range(3):
            tree.train_event("B", t0 + k * 7 * 86_400, [])  # same weekly slot
        temporal = cfg.temporal(t0)
        ctx = temporal_labels(temporal)
        counts = tree.counts_at(ctx)
        assert counts == {"B": 3}
        key = ContextKey(spatial=(), temporal=temporal)
        assert tree.prob("B", key) == pytest.approx(3 / 4)

    def test_cromwell(self, rng):
        symbols = [rng.choice("ABCD") for _ in range(50)]
        tree = train_tree(hourly_history(symbols))
        key = tree.key(["A", "B"], 2_000_000)
        for q in "ABCD":
            assert tree.prob(q, key) > 0.0

    def test_model_empty(self):
        tree = ContextTree()
        key = ContextKey(spatial=(), temporal=TemporalContext.from_timestamp(0))
        with pytest.raises(ModelEmpty):
            tree.prob("A", key)


class TestOracleEquivalence:
    def test_small_corpus_all_contexts(self, rng):
        cfg = TreeConfig()
        symbols = [rng.choice("ABCD") for _ in range(30)]
        events = [
            (s, 1_000_000 + i * rng.randrange(1, 30) * 1800) for i, s in enumerate(symbols)
        ]
        ts = 1_000_000
        fixed = []
        for s, _ in events:
            ts += rng.randrange(600, 86_400)
            fixed.append((s, ts))
        tree = train_tree(fixed, cfg)
        oracle = PpmOracle(fixed, cfg)
        prev = []
        for venue, ts in fixed:
            key = tree.key(prev, ts)
            temporal = key.temporal
            for q in "ABCD":
                mine = tree.prob(q, key)
                ref = oracle.prob(q, oracle.full_context(tuple(prev), temporal), temporal)
                assert mine == pytest.approx(ref, abs=1e-12)
            prev.append(venue)

    def test_distribution_consistent_with_prob(self, rng):
        symbols = [rng.choice("ABCDE") for _ in range(40)]
        tree = train_tree(hourly_history(symbols))
        key = tree.key(["A"], 1_500_000)
        dist, unseen = tree.distribution(key)
        for q, p in dist.items():
            assert p == pytest.approx(tree.prob(q, key), abs=1e-15)
        assert unseen == pytest.approx(tree.prob("ZZ-never", key), abs=1e-15)


def routed_outside_mass(tree, chain):
    """Escape-weighted mass routed to symbols outside the alphabet.

    leak(s) = esc(s) * (sum of P(q|suf(s)) over symbols seen after s
                        + leak(suf(s))), with leak(empty) = 0.
    """
    alphabet = tree.alphabet

    def prob_at(symbol, sub):
        acc = 1.0
        for ctx in sub[:-1]:
            counts = tree.counts_at(ctx)
            if not counts:
                continue
            total = sum(counts.values())
            denom = len(counts) + total
            if symbol in counts:
                return acc * counts[symbol] / denom
            acc *= len(counts) / denom
        return acc / len(alphabet)

    def leak(sub):
        if len(sub) == 1:  # only the empty context left
            return 0.0
        counts = tree.counts_at(sub[0])
        if not counts:
            return leak(sub[1:])
        total = sum(counts.values())
        esc = len(counts) / (len(counts) + total)
        inner = sum(prob_at(q, sub[1:]) for q in counts)
        return esc * (inner + leak(sub[1:]))

    return leak(chain)


class TestNormalization:
    def test_masses_sum_to_one_with_outside_mass(self, rng):
        for trial in range(10):
            alphabet = "ABCDEF"[: rng.randrange(2, 7)]
            symbols = [rng.choice(alphabet) for _ in range(rng.randrange(5, 50))]
            ts = 1_000_000
            events = []
            for s in symbols:
                ts += rng.randrange(1800, 100_000)
                events.append((s, ts))
            tree = train_tree(events)
            prev = []
            for venue, ts in events:
                key = tree.key(prev, ts)
                chain = escape_chain(key.spatial, key.temporal)
                dist, _ = tree.distribution(key)
                total = sum(dist.values()) + routed_outside_mass(tree, chain)
                assert total == pytest.approx(1.0, abs=1e-9)
                prev.append(venue)


class TestPredict:
    def test_deterministic_alternation(self):
        tree = train_tree(hourly_history("ABABABABAB"), TreeConfig(kappa=1))
        key = tree.key(["A"], 1_000_000 + 10 * HOUR)
        assert tree.predict(key)[0][0] == "B"

    def test_tie_break_by_venue_id(self):
        # symbols seen equally often in one shared context only
        cfg = TreeConfig(kappa=0)
        tree = ContextTree(cfg)
        t0 = 1_000_000
        for k, sym in enumerate(["Z", "M", "A", "Z", "M", "A"]):
            tree.train_event(sym, t0 + k * 7 * 86_400 * 52, [])  # scattered slots
        key = ContextKey(spatial=(), temporal=cfg.temporal(t0 + 3600 * 30))
        ranked = tree.predict(key)
        probs = {q: p for q, p in ranked}
        if len(set(probs.values())) == 1:
            assert [q for q, _ in ranked] == sorted(probs)

    def test_ranking_matches_oracle(self, rng):
        cfg = TreeConfig()
        symbols = [rng.choice("ABCD") for _ in range(45)]
        ts = 1_000_000
        events = []
        for s in symbols:
            ts += rng.randrange(1000, 50_000)
            events.append((s, ts))
        tree = train_tree(events, cfg)
        oracle = PpmOracle(events, cfg)
        key = tree.key(["B", "A"], ts + 4000)
        expected = sorted(
            (
                (q, oracle.prob(q, oracle.full_context(("B", "A"), key.temporal), key.temporal))
                for q in "ABCD"
            ),
            key=lambda kv: (-kv[1], kv[0]),
        )
        got = tree.predict(key)
        assert [q for q, _ in got] == [q for q, _ in expected]
        for (q1, p1), (q2, p2) in zip(got, expected):
            assert p1 == pytest.approx(p2, abs=1e-12)


def _node(children=None, c=None):
    """A dumped context node, counting one "A" unless ``c`` is given."""
    return {"c": {"A": 1} if c is None else c, "k": children or {}}


def _dump(root, n_events=1, utc="0", slot_hours=1):
    """A context-tree dump with the given root; ``utc`` is the offset as
    JSON text, so that it can be ``NaN`` or ``Infinity``."""
    return (
        '{"format": "socmob-context-tree", "version": 1, "config": {"kappa": 3, '
        f'"slot_hours": {slot_hours}, "utc_offset_hours": {utc}}}, '
        f'"n_events": {n_events}, "root": {json.dumps(root)}}}'
    )


class TestSerialization:
    def test_round_trip_exact(self, rng):
        symbols = [rng.choice("ABCDE") for _ in range(60)]
        tree = train_tree(hourly_history(symbols))
        clone = ContextTree.loads(tree.dumps())
        assert clone.dumps() == tree.dumps()
        key = tree.key(["A", "C"], 2_000_000)
        for q in "ABCDE":
            assert clone.prob(q, key) == tree.prob(q, key)

    def test_version_check(self):
        with pytest.raises(ValueError):
            ContextTree.from_dict({"format": "socmob-context-tree", "version": 99})

    @pytest.mark.parametrize(
        "text",
        [
            '{"format": "socmob-context-tree", "version": 1}',
            '{"format": "socmob-context-tree", "version": 1, "config": [], '
            '"n_events": 0, "root": {"c": {}, "k": {}}}',
            '{"format": "socmob-context-tree", "version": 1, "config": {"kappa": 3, '
            '"slot_hours": 0, "utc_offset_hours": 0}, "n_events": 0, "root": {"c": {}, "k": {}}}',
            '{"format": "socmob-context-tree", "version": 1, "config": {"kappa": 3, '
            '"slot_hours": 1, "utc_offset_hours": 0}, "n_events": 0, "root": {"c": {}}}',
            '{"format": "socmob-context-tree", "version": 1, "config": {"kappa": 3, '
            '"slot_hours": 1, "utc_offset_hours": 0}, "n_events": "0", "root": {"c": {}, "k": {}}}',
            '{"format": "socmob-context-tree", "version": 1, "config": {"kappa": 3, '
            '"slot_hours": 1, "utc_offset_hours": 0}, "n_events": 1, '
            '"root": {"c": {"A": 1}, "k": {"D:x": {"c": {}, "k": {}}}}}',
            '{"format": "socmob-context-tree", "version": 1, "config": {"kappa": 3, '
            '"slot_hours": 1, "utc_offset_hours": 0}, "n_events": 1, '
            '"root": {"c": {"A": "1"}, "k": {}}}',
            "{not json",
            # offsets the calendar cannot use
            _dump({"c": {}, "k": {}}, n_events=0, utc="NaN"),
            _dump({"c": {}, "k": {}}, n_events=0, utc="Infinity"),
            _dump({"c": {}, "k": {}}, n_events=0, utc="-Infinity"),
            _dump({"c": {}, "k": {}}, n_events=0, utc="1e308"),
            _dump({"c": {}, "k": {}}, n_events=0, utc="-24.5"),
            # n_events is not the root's count total
            _dump({"c": {"A": 2}, "k": {}}, n_events=1),
            _dump({"c": {"A": 1}, "k": {}}, n_events=0),
            # a counter over a symbol the root does not count
            _dump(_node({"W:0": _node(c={"B": 1})})),
            # calendar nestings that observe never writes
            _dump(_node({"W:2": _node()})),
            _dump(_node({"W:-1": _node()})),
            _dump(_node({"D:1": _node()})),
            _dump(_node({"S:1": _node()})),
            _dump(_node({"X:1": _node()})),
            _dump(_node({"W:0": _node({"D:0": _node()})})),  # Sunday on a workday
            _dump(_node({"W:1": _node({"D:3": _node()})})),  # Wednesday on a weekend
            _dump(_node({"W:0": _node({"D:7": _node()})})),
            _dump(_node({"W:0": _node({"S:3": _node()})})),
            _dump(_node({"W:0": _node({"W:0": _node()})})),
            _dump(_node({"W:0": _node({"D:1": _node({"S:24": _node()})})})),
            _dump(_node({"W:0": _node({"D:1": _node({"S:-1": _node()})})})),
            _dump(_node({"W:0": _node({"D:1": _node({"S:4": _node()})})}), slot_hours=6),
            _dump(_node({"W:0": _node({"D:1": _node({"D:1": _node()})})})),
            _dump(_node({"W:0": _node({"D:1": _node({"S:3": _node({"S:4": _node()})})})})),
            _dump(_node({"W:0": _node({"D:1": _node({"S:3": _node({"L:A": _node()})})})})),
            _dump(_node({"W:0": _node({"L:A": _node()})})),
            _dump(_node({"L:A": _node({"W:1": _node({"D:2": _node()})})})),
        ],
    )
    def test_malformed_dump_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            ContextTree.loads(text)

    @pytest.mark.parametrize(
        "root",
        [
            # a zero count at the root, a negative one below it
            {"c": {"A": 1, "B": 0}, "k": {"W:0": {"c": {"A": 1, "B": -1}, "k": {}}}},
            # a well-formed root over a zero count
            {"c": {"A": 1}, "k": {"W:0": {"c": {"A": 0}, "k": {}}}},
        ],
    )
    def test_counts_below_one_are_a_parse_error(self, root):
        dump = {
            "format": "socmob-context-tree",
            "version": 1,
            "config": {"kappa": 3, "slot_hours": 1, "utc_offset_hours": 0},
            "n_events": 1,
            "root": root,
        }
        with pytest.raises(ParseError, match="at least 1"):
            ContextTree.loads(json.dumps(dump))


class TestMergedView:
    def test_merged_equals_jointly_trained(self, rng):
        cfg = TreeConfig()
        trees = []
        joint = ContextTree(cfg)
        all_events = []
        for user in range(3):
            symbols = [rng.choice("ABCD") for _ in range(25)]
            events = hourly_history(symbols, t0=1_000_000 + user * 999_983)
            trees.append(train_tree(events, cfg))
            all_events.append(events)
        # joint tree trained on each user's trajectory separately
        for events in all_events:
            prev = []
            for venue, ts in events:
                joint.train_event(venue, ts, prev)
                prev.append(venue)
                if len(prev) > cfg.kappa:
                    prev.pop(0)
        view = MergedContextView(trees)
        key = joint.key(["A", "B"], 3_000_000)
        dist_joint, unseen_joint = joint.distribution(key)
        dist_view, unseen_view = view.distribution(key)
        assert dist_view.keys() == dist_joint.keys()
        for q in dist_joint:
            assert dist_view[q] == pytest.approx(dist_joint[q], abs=1e-15)
        assert unseen_view == pytest.approx(unseen_joint, abs=1e-15)


class TestEscapeChain:
    def test_structure(self):
        temporal = TemporalContext.from_timestamp(0, utc_offset_hours=0.0)
        chain = escape_chain(("X", "Y"), temporal)
        tl = temporal_labels(temporal)
        expect = [
            (("L", "X"), ("L", "Y")) + tl,
            (("L", "X"), ("L", "Y")) + tl[:2],
            (("L", "X"), ("L", "Y")) + tl[:1],
            (("L", "X"), ("L", "Y")),
            (("L", "Y"),) + tl,
            (("L", "Y"),) + tl[:2],
            (("L", "Y"),) + tl[:1],
            (("L", "Y"),),
            tl,
            tl[:2],
            tl[:1],
            (),
        ]
        assert chain == expect


# --- single descent against the chain walk -------------------------------------
#
# The estimator as it was before `distribution` collected its counters with
# one descent per spatial order: a root-to-node walk (`counts_at`) for every
# context of `escape_chain`, and a merged view that sums each context's
# counters over its trees in tree order.


def reference_merged_alphabet(trees):
    merged = {}
    for t in trees:
        for q, c in t.root.counts.items():
            merged[q] = merged.get(q, 0) + c
    return merged


def reference_merged_counts_at(trees, context):
    merged = None
    for t in trees:
        counts = t.counts_at(context)
        if counts:
            if merged is None:
                merged = dict(counts)
            else:
                for q, c in counts.items():
                    merged[q] = merged.get(q, 0) + c
    return merged


def reference_prob(counts_at, alphabet, symbol, chain):
    if not alphabet:
        raise ModelEmpty("model has no training events")
    acc = 1.0
    for context in chain[:-1]:
        counts = counts_at(context)
        if not counts:
            continue
        total = sum(counts.values())
        denom = len(counts) + total
        c = counts.get(symbol)
        if c:
            return acc * c / denom
        acc *= len(counts) / denom
    return acc / len(alphabet)


def reference_distribution(counts_at, alphabet, chain, candidates):
    if not alphabet:
        raise ModelEmpty("model has no training events")
    out = {}
    acc = 1.0
    for context in chain[:-1]:
        counts = counts_at(context)
        if not counts:
            continue
        total = sum(counts.values())
        denom = len(counts) + total
        for q, c in counts.items():
            if q not in out:
                out[q] = acc * c / denom
        acc *= len(counts) / denom
    unseen = acc / len(alphabet)
    wanted = alphabet.keys() if candidates is None else candidates
    dist = {q: out.get(q, unseen) for q in wanted}
    return dist, unseen


TRAINED = "ABCD"  # venues the trees may see
QUERIED = TRAINED + "XY"  # X and Y are never trained
# venue ids at the edges: the empty id, which is falsy, and one that sorts
# before the others
EDGE_TRAINED = ("", "0", *TRAINED)
T0 = 1_000_000


def _timestamps():
    # two weeks of hours, so that calendar contexts recur
    return st.integers(0, 14 * 24 - 1).map(lambda h: T0 + h * HOUR)


@st.composite
def trees_and_key(draw, n_trees):
    cfg = TreeConfig(kappa=draw(st.integers(0, 3)), slot_hours=draw(st.sampled_from([1, 6, 24])))
    trees = []
    for _ in range(n_trees):
        events = draw(st.lists(st.tuples(st.sampled_from(TRAINED), _timestamps()), max_size=40))
        trees.append(train_tree(events, cfg))
    spatial = tuple(draw(st.lists(st.sampled_from(QUERIED), max_size=cfg.kappa)))
    key = ContextKey(spatial, cfg.temporal(draw(_timestamps())))
    candidates = draw(st.none() | st.lists(st.sampled_from(QUERIED + "Z"), max_size=8))
    return trees, key, candidates


def _outcome(fn):
    try:
        return fn()
    except ModelEmpty:
        return ModelEmpty


class TestSingleDescent:
    """`distribution` and `prob` equal the chain walk exactly, including the
    order of the distribution's keys (it breaks ties in `rank_with`)."""

    @settings(max_examples=300, deadline=None)
    @given(trees_and_key(1))
    def test_tree_matches_chain_walk(self, case):
        (tree,), key, candidates = case
        chain = escape_chain(key.spatial, key.temporal)
        got = _outcome(lambda: tree.distribution(key, candidates))
        ref = _outcome(
            lambda: reference_distribution(tree.counts_at, tree.alphabet, chain, candidates)
        )
        assert got == ref
        if ref is not ModelEmpty:
            assert list(got[0]) == list(ref[0])
        for q in QUERIED + "Z":
            got_p = _outcome(lambda: tree.prob(q, key))
            ref_p = _outcome(
                lambda: reference_prob(tree.counts_at, tree.alphabet, q, chain)
            )
            assert got_p == ref_p

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(trees_and_key))
    def test_merged_view_matches_chain_walk(self, case):
        trees, key, candidates = case
        view = MergedContextView(trees)
        chain = escape_chain(key.spatial, key.temporal)
        got = _outcome(lambda: view.distribution(key, candidates))
        ref = _outcome(
            lambda: reference_distribution(
                lambda ctx: reference_merged_counts_at(trees, ctx),
                reference_merged_alphabet(trees),
                chain,
                candidates,
            )
        )
        assert got == ref
        if ref is not ModelEmpty:
            assert list(got[0]) == list(ref[0])


# --- flat calendar layer against the nested trie ---------------------------------
#
# The layout before calendar counters moved into one map per spatial node: a
# trie with one node per context, calendar labels included, dumped as it is.


class NestedNode:
    def __init__(self):
        self.counts = {}
        self.children = {}

    def encode(self):
        return {
            "c": dict(sorted(self.counts.items())),
            "k": {f"{kind}:{value}": child.encode() for (kind, value), child in self.children.items()},
        }


class NestedTrie:
    def __init__(self, config):
        self.config = config
        self.root = NestedNode()
        self.n_events = 0

    def observe(self, symbol, spatial, temporal):
        spatial = spatial[max(0, len(spatial) - self.config.kappa) :] if self.config.kappa else ()
        for start in range(len(spatial) + 1):
            node = self.root
            for v in spatial[start:]:
                node = node.children.setdefault(("L", v), NestedNode())
            node.counts[symbol] = node.counts.get(symbol, 0) + 1
            for lab in temporal_labels(temporal):
                node = node.children.setdefault(lab, NestedNode())
                node.counts[symbol] = node.counts.get(symbol, 0) + 1
        self.n_events += 1

    def counts_at(self, context):
        node = self.root
        for lab in context:
            node = node.children.get(lab)
            if node is None:
                return None
        return node.counts

    def dumps(self):
        return json.dumps(
            {
                "format": "socmob-context-tree",
                "version": 1,
                "config": {
                    "kappa": self.config.kappa,
                    "slot_hours": self.config.slot_hours,
                    "utc_offset_hours": self.config.utc_offset_hours,
                },
                "n_events": self.n_events,
                "root": self.root.encode(),
            },
            sort_keys=True,
        )


def _odd_contexts(key, n_slots):
    """Label contexts near the key's chain that observe never makes."""
    w, d, s = temporal_labels(key.temporal)
    other_w = ("W", 1 - w[1])
    return [
        (d,), (s,), (w, s), (other_w, d), (w, d, ("S", n_slots)), (w, d, ("S", -1)),
        (w, ("D", 7)), (("W", 2),), (w, d, s, s), (w, d, s, ("L", "A")), (w, ("L", "A")),
        (d, s), (("L", "A"), d),
    ]


@st.composite
def nested_and_flat(draw, n_trees):
    cfg = TreeConfig(kappa=draw(st.integers(0, 3)), slot_hours=draw(st.sampled_from([1, 6, 24])))
    pairs = []
    for _ in range(n_trees):
        flat, nested = ContextTree(cfg), NestedTrie(cfg)
        for symbol, spatial, ts in draw(_events()):
            temporal = cfg.temporal(ts)
            flat.observe(symbol, spatial, temporal)
            nested.observe(symbol, spatial, temporal)
        pairs.append((flat, nested))
    return pairs, _key(draw, cfg)


def _events():
    """Events as ``observe`` takes them: a symbol, the venues before it and
    a timestamp."""
    return st.lists(
        st.tuples(
            st.sampled_from(EDGE_TRAINED),
            st.lists(st.sampled_from((*EDGE_TRAINED, "E")), max_size=4).map(tuple),
            _timestamps(),
        ),
        max_size=40,
    )


def _key(draw, cfg):
    queried = (*EDGE_TRAINED, "X", "Y")  # X and Y are never trained
    spatial = tuple(draw(st.lists(st.sampled_from(queried), max_size=cfg.kappa)))
    return ContextKey(spatial, cfg.temporal(draw(_timestamps())))


class TestFlatCalendarLayout:
    """The flat calendar layer counts, dumps, estimates and picks its best
    venue exactly as the nested trie does, and its dumps load back."""

    @settings(max_examples=300, deadline=None)
    @given(nested_and_flat(1))
    def test_matches_nested_trie(self, case):
        ((tree, nested),), key = case
        n_slots = 24 // tree.config.slot_hours
        chain = escape_chain(key.spatial, key.temporal)
        clone = ContextTree.loads(tree.dumps())
        assert tree.dumps() == nested.dumps()
        assert clone.dumps() == tree.dumps()
        for context in chain + _odd_contexts(key, n_slots):
            assert tree.counts_at(context) == nested.counts_at(context)
            assert clone.counts_at(context) == nested.counts_at(context)
        ref = _outcome(
            lambda: reference_distribution(nested.counts_at, nested.root.counts, chain, None)
        )
        for t in (tree, clone):
            assert _outcome(lambda: t.distribution(key)) == ref
            best = _outcome(lambda: t.best(key))
            ranked = _outcome(lambda: t.predict(key, limit=1))
            if ref is ModelEmpty:
                assert best is ModelEmpty and ranked is ModelEmpty
            else:
                assert best == (argmax(ref[0]), ref[1])
                assert ranked == [argmax(ref[0])]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(nested_and_flat))
    def test_merged_argmax_matches_nested_tries(self, case):
        pairs, key = case
        view = MergedContextView([tree for tree, _ in pairs])
        nested = [ref for _, ref in pairs]
        ref = _outcome(
            lambda: reference_distribution(
                lambda ctx: reference_merged_counts_at(nested, ctx),
                reference_merged_alphabet(nested),
                escape_chain(key.spatial, key.temporal),
                None,
            )
        )
        got = _outcome(lambda: view.predict(key, limit=1))
        assert got == (ModelEmpty if ref is ModelEmpty else [argmax(ref[0])])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_merged_trained_and_loaded_trees_match_joint_tree(self, data):
        # a loaded tree keeps dict counters, a trained one one-event symbols;
        # the view over any mix predicts as the tree trained on every event
        cfg = TreeConfig(
            kappa=data.draw(st.integers(0, 3)), slot_hours=data.draw(st.sampled_from([1, 6, 24]))
        )
        joint = ContextTree(cfg)
        trees = []
        for loaded in data.draw(st.lists(st.booleans(), min_size=1, max_size=4)):
            tree = ContextTree(cfg)
            for symbol, spatial, ts in data.draw(_events()):
                temporal = cfg.temporal(ts)
                tree.observe(symbol, spatial, temporal)
                joint.observe(symbol, spatial, temporal)
            trees.append(ContextTree.loads(tree.dumps()) if loaded else tree)
        view = MergedContextView(trees)
        key = _key(data.draw, cfg)
        assert _outcome(lambda: view.distribution(key)) == _outcome(lambda: joint.distribution(key))
        for limit in (None, 1):
            got = _outcome(lambda: view.predict(key, limit))
            assert got == _outcome(lambda: joint.predict(key, limit))

    @settings(max_examples=200, deadline=None)
    @given(nested_and_flat(1))
    def test_one_event_counters_are_symbols(self, case):
        # below the root, a counter of one event is its symbol, a node that
        # no event counted holds None, and every dict counts two or more
        ((tree, _),), _ = case
        counters = []
        stack = list(tree.root.children.values())
        while stack:
            node = stack.pop()
            stack.extend(node.children.values())
            counters.append(node.counts)
            counters.extend(node.cal.values())
        for counts in counters:
            if counts is None or counts.__class__ is str:
                continue
            assert sum(counts.values()) >= 2, counts

    def test_empty_venue_id_is_counted(self):
        # "" is falsy: a reader that skips empty counters first drops it
        events = hourly_history(["", "a", ""])
        tree = train_tree(events)
        assert tree.root.children["a"].counts == ""
        key = tree.key(["a"], events[-1][1])
        oracle = PpmOracle(events, tree.config)
        context = oracle.full_context(("a",), key.temporal)
        dist, unseen = tree.distribution(key)
        assert dist == {q: oracle.prob(q, context, key.temporal) for q in ("", "a")}
        assert dist == {"": 0.5, "a": 0.00625}
        assert tree.best(key) == (("", 0.5), unseen)

    def test_argmax_ties_go_to_the_smaller_id(self):
        cfg = TreeConfig(kappa=0)
        tree = ContextTree(cfg)
        temporal = cfg.temporal(T0)
        for symbol in "DBCA":
            tree.observe(symbol, (), temporal)
        key = ContextKey((), temporal)
        dist, unseen = tree.distribution(key)
        assert len(set(dist.values())) == 1
        assert tree.best(key) == (("A", dist["A"]), unseen)

    def test_argmax_when_every_context_escapes(self):
        # trained on one workday slot only, asked about a weekend after
        # never-seen venues: every symbol gets the never-seen mass
        cfg = TreeConfig(kappa=2)
        tree = ContextTree(cfg)
        workday = cfg.temporal(T0)
        for symbol in "CBD":
            tree.observe(symbol, ("C",), workday)
        weekend = next(
            t for t in (cfg.temporal(T0 + h * HOUR) for h in range(168)) if t.day_class == "weekend"
        )
        key = ContextKey(("X", "Y"), weekend)
        dist, unseen = tree.distribution(key)
        assert dist == {"C": 1 / 3, "B": 1 / 3, "D": 1 / 3}
        assert tree.best(key) == (("B", 1 / 3), 1 / 3)
        assert tree.predict(key, limit=1) == [("B", 1 / 3)]
