"""Social-cohesion measurements and cohesive-subgroup enumeration.

Pairwise metrics (common neighbors, Adamic-Adar, Jaccard, degree of
cliquishness), whole-graph baselines (clustering coefficient, sampled
path length), maximal clique and 2-plex enumeration, and the
internal/boundary density ratio used to score subgroups.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence

from .core import SocialGraph
from .errors import UnknownNode


@dataclass(frozen=True, slots=True)
class Subgroup:
    """A maximal cohesive subgroup (clique or 2-plex) with its cohesion score."""

    members: frozenset[str]
    kind: str  # "clique" | "two_plex"
    cohesion: float

    def __post_init__(self):
        if self.kind not in ("clique", "two_plex"):
            raise ValueError(f"bad subgroup kind {self.kind!r}")
        if len(self.members) < 3:
            raise ValueError("subgroups have at least 3 members")


def common_neighbors(g: SocialGraph, i: str, j: str) -> int:
    """|N(i) ∩ N(j)|."""
    return len(g.neighbors(i) & g.neighbors(j))


def adamic_adar(g: SocialGraph, i: str, j: str) -> float:
    """Common neighbors, each damped by the inverse log of its degree.

    Neighbors of degree 1 are skipped (1/ln 1 is undefined); for distinct
    i and j every common neighbor has degree >= 2, so the guard only
    matters defensively.
    """
    score = 0.0
    for k in g.neighbors(i) & g.neighbors(j):
        d = g.degree(k)
        if d > 1:
            score += 1.0 / math.log(d)
    return score


def jaccard_users(g: SocialGraph, i: str, j: str) -> float:
    """|N(i) ∩ N(j)| / |N(i) ∪ N(j)|, 0 when both neighborhoods are empty."""
    ni, nj = g.neighbors(i), g.neighbors(j)
    union = len(ni | nj)
    if union == 0:
        return 0.0
    return len(ni & nj) / union


def degree_of_cliquishness(g: SocialGraph, i: str, j: str) -> float:
    """Edge density among the combined neighborhoods of i and j.

    Operationalizes "how cohesive a group do the friends of the two users
    form": the fraction of realized edges among N(i) ∪ N(j) \\ {i, j}.
    """
    return _density(g, (g.neighbors(i) | g.neighbors(j)) - {i, j})


def _density(g: SocialGraph, group: Iterable[str]) -> float:
    """The fraction of the pairs of ``group`` that are linked; 0.0 for
    fewer than two members."""
    members = sorted(group)
    n = len(members)
    if n < 2:
        return 0.0
    links = 0
    for idx, a in enumerate(members):
        na = g.neighbors(a)
        for b in members[idx + 1 :]:
            if b in na:
                links += 1
    return links / (n * (n - 1) / 2)


def clustering_coefficient(g: SocialGraph) -> float:
    """Average local clustering coefficient (Watts-Strogatz): the link
    density among each node's neighbors.

    The sum runs in sorted node order, so the float result does not depend
    on the iteration order of the node set (string hashing is salted per
    process)."""
    nodes = sorted(g.nodes)
    if not nodes:
        return 0.0
    return sum(_density(g, g.neighbors(v)) for v in nodes) / len(nodes)


def avg_path_length(
    g: SocialGraph, sample_size: int = 50, seed: int = 0
) -> tuple[float, float]:
    """Mean and std of shortest-path lengths, BFS from sampled sources.

    Only reachable pairs contribute.  Sampling without replacement when the
    graph is small enough, deterministic per seed.  Each BFS advances one
    level at a time over vertex bitmasks; the lengths are integers, so the
    sums are exact whatever order the pairs are counted in.
    """
    if g.edge_count == 0:
        raise UnknownNode("path length needs a graph with at least one edge")
    nodes, adj = _bit_adjacency(g)
    rng = random.Random(seed)
    if sample_size >= len(nodes):
        sources = nodes
    else:
        sources = rng.sample(nodes, sample_size)
    index = {v: i for i, v in enumerate(nodes)}
    total = 0.0
    total_sq = 0.0
    count = 0
    for src in sources:
        reached = frontier = 1 << index[src]
        depth = 0
        while True:
            ahead = 0
            for i in _bits(frontier):
                ahead |= adj[i]
            frontier = ahead & ~reached
            if not frontier:
                break
            reached |= frontier
            depth += 1
            k = frontier.bit_count()
            total += depth * k
            total_sq += depth * depth * k
            count += k
    if count == 0:
        return (0.0, 0.0)
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return (mean, math.sqrt(var))


# --- vertex bitmasks ----------------------------------------------------------
#
# Both enumerators index the vertices in sorted name order: vertex i is bit i,
# so ascending bit order is name order, and a set of vertices is one int.


def _bit_adjacency(g: SocialGraph) -> tuple[list[str], list[int]]:
    """Sorted vertex names and, per vertex, the mask of its neighbours."""
    nodes = sorted(g.nodes)
    bit = {v: 1 << i for i, v in enumerate(nodes)}
    adj = []
    for v in nodes:
        mask = 0
        for w in g.neighbors(v):
            mask |= bit[w]
        adj.append(mask)
    return nodes, adj


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _named(
    nodes: list[str], adj: list[int], found: list[int], min_size: int
) -> list[tuple[tuple[str, ...], int, int]]:
    """The vertex sets of ``found`` with at least ``min_size`` members,
    ordered by size and then by names.  Each comes as its names in sorted
    order (ascending bit order is name order), its members' in-group
    degrees summed, and their degrees summed."""
    named = []
    for m in found:
        if m.bit_count() < min_size:
            continue
        names = []
        internal = total = 0
        for i in _bits(m):
            names.append(nodes[i])
            internal += (adj[i] & m).bit_count()
            total += adj[i].bit_count()
        named.append((tuple(names), internal, total))
    named.sort(key=lambda entry: (len(entry[0]), entry[0]))
    return named


def _subgroups(
    nodes: list[str], adj: list[int], found: list[int], min_size: int, kind: str
) -> list[Subgroup]:
    """The subgroups of ``found``, smallest first, each scored from its
    mask: the in-group degrees give the internal count, and the rest of
    the degrees the boundary count."""
    groups = []
    for names, internal, total in _named(nodes, adj, found, min_size):
        n_in = len(names)
        cohesion = _cohesion_ratio(n_in, len(nodes) - n_in, internal, total - internal)
        groups.append(Subgroup(members=frozenset(names), kind=kind, cohesion=cohesion))
    return groups


# --- maximal clique enumeration (Bron–Kerbosch with pivoting) ---------------


def _bron_kerbosch(
    adj: list[int], r: int, p: int, x: int, out: list[int], cap: int | None
) -> bool:
    """Emit maximal cliques; returns False when the cap was hit."""
    if cap is not None and len(out) >= cap:
        return False
    if not p and not x:
        out.append(r)
        return True
    pivot = max(_bits(p | x), key=lambda u: ((adj[u] & p).bit_count(), u))
    for v in _bits(p & ~adj[pivot]):
        if not _bron_kerbosch(adj, r | 1 << v, p & adj[v], x & adj[v], out, cap):
            return False
        p ^= 1 << v
        x |= 1 << v
    return True


def enumerate_cliques(
    g: SocialGraph, min_size: int = 3, max_count: int | None = None
) -> tuple[list[Subgroup], bool]:
    """All maximal cliques with at least ``min_size`` members.

    Returns (subgroups, truncated).  When ``max_count`` is reached the
    enumeration stops and the truncated flag is set.
    """
    _check_limits(min_size, max_count)
    nodes, adj = _bit_adjacency(g)
    found: list[int] = []
    complete = _bron_kerbosch(adj, 0, (1 << len(nodes)) - 1, 0, found, max_count)
    return _subgroups(nodes, adj, found, min_size, "clique"), not complete


def _check_limits(min_size: int, max_count: int | None) -> None:
    """Reject the limits of a search before it runs: subgroups have at
    least 3 members, so a smaller ``min_size`` is an error on any graph."""
    if min_size < 3:
        raise ValueError(f"min_size must be >= 3, as subgroups have 3 members, got {min_size}")
    if max_count is not None and max_count < 0:
        raise ValueError(f"max_count must be >= 0, got {max_count}")


# --- maximal 2-plex enumeration ---------------------------------------------


def _plex_extend(
    adj: list[int],
    members: int,
    common: int,
    one: int,
    unsat: int,
    cand: int,
    excl: int,
    min_size: int,
    out: list[int],
    cap: int | None,
) -> bool:
    """Grow the 2-plex ``members`` by the viable vertices of ``cand``.

    A vertex misses a member when it is not adjacent to it, and a member
    misses itself.  ``common`` holds the vertices that miss no member,
    ``one`` those that miss exactly one, and ``unsat`` the members that
    miss no other member.  A vertex can join when it misses no member, or
    misses one member and that member is in ``unsat``: that is, when it is
    in ``one`` and not adjacent to every member of ``unsat``.
    """
    if cap is not None and len(out) >= cap:
        return False
    both = -1  # the vertices adjacent to every member of unsat
    rest = unsat
    while rest:
        low = rest & -rest
        both &= adj[low.bit_length() - 1]
        rest ^= low
    viable = (common | one & ~both) & ~members
    grow = viable & cand
    # every set this subtree reaches lies within members | grow
    if members.bit_count() + grow.bit_count() < min_size:
        return True
    if not grow:
        # no candidate extends the set; it is maximal unless an excluded
        # vertex (one whose supersets were searched already) still would
        if not viable & excl:
            out.append(members)
        return True
    later = grow
    while later:
        bit = later & -later
        later ^= bit
        nv = adj[bit.bit_length() - 1]
        if not _plex_extend(
            adj,
            members | bit,
            common & nv,
            one & nv | common & ~nv,
            unsat & nv | common & bit,
            later,
            excl,
            min_size,
            out,
            cap,
        ):
            return False
        excl |= bit
    return True


def _two_plex_masks(
    adj: list[int], min_size: int, max_count: int | None
) -> tuple[list[int], bool]:
    """The maximal 2-plexes with at least ``min_size`` members, as vertex
    masks in the order the search finds them.

    Depth-first search over vertex bitmasks that adds members in ascending
    name order, so it reaches each vertex set at most once (from its
    smallest member); 2-plexes are closed under subsets, so any proper
    superset is reachable one vertex at a time and the no-extender test
    at a leaf guarantees maximality.  Returns (masks, truncated).
    """
    everyone = (1 << len(adj)) - 1
    found: list[int] = []
    for v in range(len(adj)):
        # a lone vertex misses only itself, so every other vertex can join it
        bit = 1 << v
        earlier = bit - 1
        later = everyone ^ earlier ^ bit
        if not _plex_extend(
            adj, bit, adj[v], everyone ^ adj[v], bit, later, earlier, min_size, found, max_count
        ):
            return found, True
    return found, False


def enumerate_two_plexes(
    g: SocialGraph, min_size: int = 3, max_count: int | None = None
) -> tuple[list[Subgroup], bool]:
    """All maximal 2-plexes with at least ``min_size`` members, each with
    its cohesion, smallest first.  Returns (subgroups, truncated)."""
    _check_limits(min_size, max_count)
    nodes, adj = _bit_adjacency(g)
    found, truncated = _two_plex_masks(adj, min_size, max_count)
    return _subgroups(nodes, adj, found, min_size, "two_plex"), truncated


def two_plex_member_names(g: SocialGraph, min_size: int = 3) -> list[tuple[str, ...]]:
    """The members of every maximal 2-plex with at least ``min_size``
    members, each in sorted order, ordered as `enumerate_two_plexes` orders
    its subgroups; no cohesion is computed."""
    _check_limits(min_size, None)
    nodes, adj = _bit_adjacency(g)
    found, _ = _two_plex_masks(adj, min_size, None)
    return [names for names, _, _ in _named(nodes, adj, found, min_size)]


def _cohesion_ratio(n_in: int, n_out: int, internal: int, boundary: int) -> float:
    """Internal over boundary edge density, from a group's size, the number
    of vertices outside it, its ordered in-group pair count and its
    group-to-outside edge count; +inf when it has no boundary edges, as
    when it spans the whole graph."""
    # internal already counts ordered pairs (each edge twice)
    num = internal / (n_in * (n_in - 1))
    if boundary == 0:
        return math.inf
    boundary_norm = n_in * (n_out - 1)
    if boundary_norm == 0:
        return 0.0
    return num / (boundary / boundary_norm)


def group_cohesion(g: SocialGraph, members: frozenset[str] | set[str]) -> float:
    """Internal edge density divided by boundary edge density.

    Directed-count convention over a symmetric adjacency: the numerator
    normalizes ordered in-group pairs by |U|(|U|-1), the denominator
    normalizes group-to-outside pairs by |U|(|V\\U|-1).  A subgroup with no
    boundary edges scores +inf (a distinguished sentinel, not an error).
    """
    members = frozenset(members)
    n_in = len(members)
    if n_in < 2:
        raise ValueError("group cohesion needs at least 2 members")
    outside = g.nodes - members
    if not outside:
        raise ValueError("group must be a proper subset of the graph")
    internal = 0
    boundary = 0
    for u in members:
        nu = g.neighbors(u)
        internal += len(nu & members)
        boundary += len(nu - members)
    return _cohesion_ratio(n_in, len(outside), internal, boundary)


def _json_number(x: float) -> str:
    """``x`` as `json.dumps` writes it, with an infinity as null."""
    if math.isinf(x):
        return "null"
    return "NaN" if x != x else repr(x)


def subgroups_to_jsonl(groups: Sequence[Subgroup]) -> Iterator[str]:
    """One JSON object per subgroup, as ``json.dumps(..., sort_keys=True)``
    writes ``{"members": sorted names, "kind": ..., "cohesion": ...}`` with
    an infinite cohesion as null."""
    for sg in groups:
        names = ", ".join(map(encode_basestring_ascii, sorted(sg.members)))
        yield (
            f'{{"cohesion": {_json_number(sg.cohesion)}, '
            f'"kind": {encode_basestring_ascii(sg.kind)}, "members": [{names}]}}'
        )
