import json
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from socmob import cohesion
from socmob.cohesion import (
    Subgroup,
    adamic_adar,
    avg_path_length,
    clustering_coefficient,
    common_neighbors,
    degree_of_cliquishness,
    enumerate_cliques,
    enumerate_two_plexes,
    group_cohesion,
    jaccard_users,
    subgroups_to_jsonl,
    two_plex_member_names,
)
from socmob.core import SocialGraph
from socmob.errors import UnknownNode

from conftest import is_clique, is_two_plex, poisson_random_graph


def complete_graph(n):
    names = [f"n{i}" for i in range(n)]
    return SocialGraph([(a, b) for a, b in combinations(names, 2)])


def cycle_graph(n):
    names = [f"n{i}" for i in range(n)]
    return SocialGraph([(names[i], names[(i + 1) % n]) for i in range(n)])


def path_graph(n):
    names = [f"n{i}" for i in range(n)]
    return SocialGraph([(names[i], names[i + 1]) for i in range(n - 1)])


def random_graph(rng, n, p):
    names = [f"n{i}" for i in range(n)]
    edges = [(a, b) for a, b in combinations(names, 2) if rng.random() < p]
    return SocialGraph(edges, nodes=names)


class TestPairMetrics:
    def test_triangle(self):
        g = cycle_graph(3)
        assert common_neighbors(g, "n0", "n1") == 1

    def test_star_leaves(self):
        g = SocialGraph([("hub", f"leaf{i}") for i in range(4)])
        assert common_neighbors(g, "leaf0", "leaf1") == 1

    def test_unknown(self):
        g = cycle_graph(3)
        with pytest.raises(UnknownNode):
            common_neighbors(g, "n0", "zz")

    def test_no_common(self):
        g = path_graph(4)  # n0-n1-n2-n3
        assert adamic_adar(g, "n0", "n3") == 0.0
        assert jaccard_users(g, "n0", "n3") == 0.0

    def test_identical_neighborhoods(self):
        g = SocialGraph([("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])
        assert jaccard_users(g, "a", "b") == 1.0

    def test_random_vs_set_oracle(self, rng):
        g = random_graph(rng, 20, 0.3)
        nodes = sorted(g.nodes)
        for _ in range(50):
            i, j = rng.sample(nodes, 2)
            assert common_neighbors(g, i, j) == len(g.neighbors(i) & g.neighbors(j))

    def test_eight_node_fixture(self):
        # hand-enumerated: N(a) = {b, c, d}, N(b) = {a, c, e}
        # CN(a,b) = {c}; deg(c) = 4
        edges = [
            ("a", "b"),
            ("a", "c"),
            ("a", "d"),
            ("b", "c"),
            ("b", "e"),
            ("c", "d"),
            ("c", "e"),
            ("d", "f"),
            ("e", "f"),
            ("f", "g"),
            ("g", "h"),
        ]
        g = SocialGraph(edges)
        assert common_neighbors(g, "a", "b") == 1
        assert adamic_adar(g, "a", "b") == pytest.approx(1 / math.log(4), abs=1e-12)
        # N(a) ∪ N(b) = {a, b, c, d, e}; intersection = {c}
        assert jaccard_users(g, "a", "b") == pytest.approx(1 / 5, abs=1e-12)
        # group = {c, d, e}; edges within: c-d, c-e => 2 of 3
        assert degree_of_cliquishness(g, "a", "b") == pytest.approx(2 / 3, abs=1e-12)

    def test_common_neighbor_degree_guard(self):
        # adjacency to both endpoints forces degree >= 2, so AA > 0 whenever
        # a common neighbor exists for distinct endpoints
        g = cycle_graph(5)
        for i in range(5):
            a, b = f"n{i}", f"n{(i + 2) % 5}"
            assert adamic_adar(g, a, b) > 0


class TestGraphBaselines:
    def test_complete_k4(self):
        g = complete_graph(4)
        assert clustering_coefficient(g) == 1.0
        mean, std = avg_path_length(g, sample_size=4)
        assert mean == 1.0 and std == 0.0

    def test_path_p4(self):
        assert clustering_coefficient(path_graph(4)) == 0.0

    def test_poisson_extremes(self):
        g0 = poisson_random_graph(10, 0.0, seed=1)
        assert g0.edge_count == 0
        g1 = poisson_random_graph(6, 5.0, seed=1)
        assert g1.edge_count == 15

    def test_poisson_determinism(self):
        a = poisson_random_graph(50, 5.0, seed=9)
        b = poisson_random_graph(50, 5.0, seed=9)
        assert set(a.edges()) == set(b.edges())

    def test_poisson_degree_concentration(self):
        n, d = 1000, 10.0
        g = poisson_random_graph(n, d, seed=3)
        mean_degree = 2 * g.edge_count / n
        # binomial concentration: sd of the mean degree
        sd = math.sqrt(2 * d * (1 - d / (n - 1)) / n)
        assert abs(mean_degree - d) < 3 * sd

    def test_poisson_clustering_near_p(self):
        g = poisson_random_graph(600, 12.0, seed=4)
        p = 12.0 / 599
        assert clustering_coefficient(g) == pytest.approx(p, rel=0.3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            poisson_random_graph(1, 0.0)
        with pytest.raises(ValueError):
            poisson_random_graph(10, 20.0)


def brute_force_maximal(g, predicate, min_size):
    nodes = sorted(g.nodes)
    n = len(nodes)
    members = []
    for mask in range(1, 1 << n):
        subset = frozenset(nodes[i] for i in range(n) if mask >> i & 1)
        if predicate(g, subset):
            members.append(subset)
    ok = set()
    for s in members:
        if len(s) >= min_size and not any(s < t for t in members):
            ok.add(s)
    return ok


class TestEnumeration:
    def test_k5_single_clique(self):
        g = complete_graph(5)
        groups, truncated = enumerate_cliques(g)
        assert not truncated
        assert [sorted(sg.members) for sg in groups] == [sorted(g.nodes)]
        assert groups[0].cohesion == math.inf

    def test_c5_plexes_but_no_cliques(self):
        g = cycle_graph(5)
        cliques, _ = enumerate_cliques(g, min_size=3)
        assert cliques == []
        plexes, _ = enumerate_two_plexes(g, min_size=3)
        assert plexes  # consecutive triples satisfy the 2-plex condition
        for sg in plexes:
            assert is_two_plex(g, sg.members)

    def test_brute_force_small_graphs(self, rng):
        for trial in range(40):
            n = rng.randrange(4, 11)
            g = random_graph(rng, n, rng.uniform(0.2, 0.7))
            got_c = {sg.members for sg in enumerate_cliques(g, min_size=3)[0]}
            exp_c = brute_force_maximal(g, is_clique, 3)
            assert got_c == exp_c
            got_p = {sg.members for sg in enumerate_two_plexes(g, min_size=3)[0]}
            exp_p = brute_force_maximal(g, is_two_plex, 3)
            assert got_p == exp_p

    def test_invariants_on_random_graph(self, rng):
        g = random_graph(rng, 18, 0.35)
        cliques, _ = enumerate_cliques(g, min_size=3)
        for sg in cliques:
            assert is_clique(g, sg.members)
        plexes, _ = enumerate_two_plexes(g, min_size=3)
        for sg in plexes:
            assert is_two_plex(g, sg.members)
        # maximality: no emitted subgroup strictly inside another of its kind
        for groups in (cliques, plexes):
            sets = [sg.members for sg in groups]
            for s in sets:
                assert not any(s < t for t in sets)

    @pytest.mark.parametrize("enumerate_fn", [enumerate_cliques, enumerate_two_plexes])
    def test_negative_max_count(self, enumerate_fn):
        with pytest.raises(ValueError, match="max_count"):
            enumerate_fn(complete_graph(4), max_count=-1)

    @pytest.mark.parametrize("min_size", [2, 0, -1])
    @pytest.mark.parametrize("enumerate_fn", [enumerate_cliques, enumerate_two_plexes])
    def test_min_size_below_three(self, enumerate_fn, min_size):
        # rejected before the search, also where every maximal group is
        # large enough that the search itself would succeed
        with pytest.raises(ValueError, match="min_size"):
            enumerate_fn(complete_graph(4), min_size=min_size)

    def test_truncation_cap(self, rng):
        g = random_graph(rng, 16, 0.5)
        full, _ = enumerate_two_plexes(g, min_size=3)
        if len(full) > 3:
            part, truncated = enumerate_two_plexes(g, min_size=3, max_count=3)
            assert truncated
            assert len(part) <= 3
            assert (part, truncated) == reference_two_plexes(g, min_size=3, max_count=3)


# --- set-based reference enumerators ----------------------------------------
#
# The enumerators before they moved to vertex bitmasks, kept here so that the
# bitmask search can be checked to build the same search tree: same groups,
# same cut-off under max_count, same exceptions.


def _reference_min_size(min_size):
    # rejected before the search, as subgroups have at least 3 members
    if min_size < 3:
        raise ValueError(f"min_size must be >= 3, as subgroups have 3 members, got {min_size}")


def _reference_cohesion(g, members):
    return math.inf if members == g.nodes else group_cohesion(g, members)


def _reference_bron_kerbosch(adj, r, p, x, out, cap):
    if cap is not None and len(out) >= cap:
        return False
    if not p and not x:
        out.append(frozenset(r))
        return True
    pivot = max(p | x, key=lambda u: (len(adj[u] & p), u))
    for v in sorted(p - adj[pivot]):
        if not _reference_bron_kerbosch(adj, r | {v}, p & adj[v], x & adj[v], out, cap):
            return False
        p.discard(v)
        x.add(v)
    return True


def reference_cliques(g, min_size=3, max_count=None):
    _reference_min_size(min_size)
    adj = {u: g.neighbors(u) for u in g.nodes}
    found = []
    complete = _reference_bron_kerbosch(adj, set(), set(g.nodes), set(), found, max_count)
    members = sorted(
        (m for m in found if len(m) >= min_size), key=lambda m: (len(m), sorted(m))
    )
    groups = [
        Subgroup(members=m, kind="clique", cohesion=_reference_cohesion(g, m))
        for m in members
    ]
    return groups, not complete


def _is_plex_with(adj, members, deg_in, v, k):
    nv = adj[v]
    size = len(members) + 1
    dv = 0
    for u in members:
        if u in nv:
            dv += 1
        elif deg_in[u] < size - k:
            return False
    return dv >= size - k


def _plex_extend(adj, members, deg_in, cand, excl, k, min_size, seen, out, cap):
    if cap is not None and len(out) >= cap:
        return False
    viable_cand = [v for v in cand if _is_plex_with(adj, members, deg_in, v, k)]
    if not viable_cand:
        if len(members) >= min_size and not any(
            _is_plex_with(adj, members, deg_in, v, k) for v in excl
        ):
            fs = frozenset(members)
            if fs not in seen:
                seen.add(fs)
                out.append(fs)
        return True
    new_excl = list(excl)
    for idx, v in enumerate(viable_cand):
        nv = adj[v]
        members.add(v)
        for u in members:
            if u in nv:
                deg_in[u] += 1
        deg_in[v] = sum(1 for u in members if u in nv and u != v)
        ok = _plex_extend(
            adj, members, deg_in, viable_cand[idx + 1 :], new_excl, k, min_size, seen, out, cap
        )
        for u in members:
            if u in nv and u != v:
                deg_in[u] -= 1
        del deg_in[v]
        members.discard(v)
        if not ok:
            return False
        new_excl.append(v)
    return True


def reference_two_plexes(g, min_size=3, max_count=None):
    _reference_min_size(min_size)
    adj = {u: g.neighbors(u) for u in g.nodes}
    nodes = sorted(g.nodes)
    seen = set()
    found = []
    complete = True
    for idx, v in enumerate(nodes):
        if not _plex_extend(
            adj, {v}, {v: 0}, nodes[idx + 1 :], nodes[:idx], 2, min_size, seen, found, max_count
        ):
            complete = False
            break
    members = sorted(set(found), key=lambda m: (len(m), sorted(m)))
    groups = [
        Subgroup(members=m, kind="two_plex", cohesion=_reference_cohesion(g, m))
        for m in members
    ]
    return groups, not complete


def _outcome(enumerate_fn, g, min_size, max_count):
    """(groups, truncated), or the type and message of what was raised."""
    try:
        return enumerate_fn(g, min_size=min_size, max_count=max_count)
    except Exception as exc:  # noqa: BLE001 - the two sides must raise alike
        return type(exc), str(exc)


@st.composite
def named_graphs(draw):
    """Up to 14 vertices, isolated ones included, whose names sort in an
    order other than the one they were drawn in."""
    names = draw(
        st.lists(st.text("abz09", min_size=1, max_size=3), unique=True, max_size=14)
    )
    pairs = list(combinations(names, 2))
    density = draw(st.sampled_from([0.2, 0.5, 0.8]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(a, b) for a, b in pairs if rng.random() < density]
    return SocialGraph(edges, nodes=names)


class TestAgainstSetReference:
    @settings(max_examples=300, deadline=None)
    @given(
        g=named_graphs(),
        min_size=st.integers(1, 5),
        max_count=st.none() | st.integers(0, 10),
    )
    def test_same_groups_and_cut_off(self, g, min_size, max_count):
        for ours, ref in (
            (enumerate_cliques, reference_cliques),
            (enumerate_two_plexes, reference_two_plexes),
        ):
            assert _outcome(ours, g, min_size, max_count) == _outcome(
                ref, g, min_size, max_count
            )

    def test_isolated_vertices_and_empty_graph(self):
        g = SocialGraph([("b", "c"), ("c", "a"), ("a", "b")], nodes=["d", "e"])
        for min_size in (1, 3):
            for max_count in (None, 0, 1):
                assert _outcome(enumerate_two_plexes, g, min_size, max_count) == _outcome(
                    reference_two_plexes, g, min_size, max_count
                )
                assert _outcome(enumerate_cliques, g, min_size, max_count) == _outcome(
                    reference_cliques, g, min_size, max_count
                )
        empty = SocialGraph()
        assert enumerate_two_plexes(empty, max_count=0) == ([], False)
        assert enumerate_cliques(empty) == reference_cliques(empty)


class TestGroupCohesion:
    def test_isolated_clique_is_infinite(self):
        g = SocialGraph(
            [("a", "b"), ("b", "c"), ("a", "c")], nodes=["d", "e"]
        )
        assert group_cohesion(g, {"a", "b", "c"}) == math.inf

    def test_hand_fixture(self):
        # U = {a, b, c} complete, one boundary edge c-d, outside = {d, e}
        g = SocialGraph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")], nodes=["e"])
        num = 6 / (3 * 2)  # ordered in-group pairs over |U|(|U|-1)
        den = 1 / (3 * 1)  # one boundary edge over |U)(|V-U|-1)
        assert group_cohesion(g, {"a", "b", "c"}) == pytest.approx(num / den)

    def test_uniform_random_graph_close_to_one(self):
        g = poisson_random_graph(400, 80.0, seed=11)
        members = {f"n{i}" for i in range(30)}
        assert group_cohesion(g, members) == pytest.approx(1.0, rel=0.3)

    def test_preconditions(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            group_cohesion(g, {"n0"})
        with pytest.raises(ValueError):
            group_cohesion(g, set(g.nodes))


class TestMaskScores:
    """Subgroups are scored from their vertex masks, float for float as
    `group_cohesion` scores their member sets."""

    @staticmethod
    def _scores(g, groups):
        nodes, adj = cohesion._bit_adjacency(g)
        bit = {v: 1 << i for i, v in enumerate(nodes)}
        masks = [sum(bit[v] for v in m) for m in groups]
        return cohesion._subgroups(nodes, adj, masks, 3, "two_plex")

    def test_random_groups_match_group_cohesion(self):
        rng = random.Random(21)
        for trial in range(150):
            n = rng.randrange(3, 16)
            g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.6, 0.9]))
            nodes = sorted(g.nodes)
            groups = list(
                {frozenset(rng.sample(nodes, rng.randrange(3, n + 1))) for _ in range(6)}
            )
            got = self._scores(g, groups)
            # ordered by size, then by sorted names
            assert [sg.members for sg in got] == sorted(
                groups, key=lambda m: (len(m), sorted(m))
            )
            for sg in got:
                want = _reference_cohesion(g, sg.members)
                assert repr(sg.cohesion) == repr(want), (trial, sorted(sg.members))

    def test_special_cases(self):
        # a triangle with one pendant vertex d and an isolated vertex e
        g = SocialGraph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")], nodes=["e"])
        whole, no_boundary, one_outside = (frozenset(m) for m in ("abcde", "abcd", "abce"))
        scored = self._scores(g, [whole, no_boundary, one_outside])
        got = {sg.members: sg.cohesion for sg in scored}
        # the whole graph and a group with no boundary edge score +inf; with
        # one vertex outside, the boundary norm |U|(|V\\U|-1) is zero
        assert got == {whole: math.inf, no_boundary: math.inf, one_outside: 0.0}
        assert group_cohesion(g, one_outside) == 0.0
        triangle = SocialGraph([("a", "b"), ("b", "c"), ("a", "c")], nodes=["d", "e"])
        (sg,) = self._scores(triangle, [frozenset("abc")])
        assert sg.cohesion == group_cohesion(triangle, {"a", "b", "c"}) == math.inf

    def test_member_names_follow_the_subgroups(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(3, 14), rng.uniform(0.2, 0.8))
            for min_size in (3, 4):
                groups, _ = enumerate_two_plexes(g, min_size=min_size)
                assert two_plex_member_names(g, min_size) == [
                    tuple(sorted(sg.members)) for sg in groups
                ]


def _dumps_line(sg):
    return json.dumps(
        {
            "members": sorted(sg.members),
            "kind": sg.kind,
            "cohesion": None if math.isinf(sg.cohesion) else sg.cohesion,
        },
        sort_keys=True,
    )


class TestJsonLines:
    @settings(max_examples=200, deadline=None)
    @given(
        names=st.lists(st.text(min_size=1, max_size=6), min_size=3, max_size=6, unique=True),
        kind=st.sampled_from(["clique", "two_plex"]),
        score=st.floats() | st.integers(-5, 5),
    )
    def test_matches_json_dumps(self, names, kind, score):
        sg = Subgroup(members=frozenset(names), kind=kind, cohesion=score)
        assert list(subgroups_to_jsonl([sg])) == [_dumps_line(sg)]

    def test_escaped_names(self):
        names = ['caf\u00e9', 'say "hi"', "back\\slash", "tab\there", "nul\x00\x1f", "\U0001f600"]
        groups = [
            Subgroup(members=frozenset(names), kind="two_plex", cohesion=1.5),
            Subgroup(members=frozenset(names[:3]), kind="clique", cohesion=math.inf),
            Subgroup(members=frozenset(names[3:]), kind="clique", cohesion=0.1 + 0.2),
        ]
        lines = list(subgroups_to_jsonl(groups))
        assert lines == [_dumps_line(sg) for sg in groups]
        assert all(line.isascii() for line in lines)


def test_subgroup_validation():
    with pytest.raises(ValueError):
        Subgroup(members=frozenset({"a", "b"}), kind="clique", cohesion=1.0)
    with pytest.raises(ValueError):
        Subgroup(members=frozenset({"a", "b", "c"}), kind="blob", cohesion=1.0)
