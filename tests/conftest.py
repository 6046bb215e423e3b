import random

import pytest

from socmob.core import CheckIn, SocialGraph, TemporalContext
from socmob.synthgen import GenConfig, generate
from socmob.vomm import Context, Label, calendar_keys


def make_checkin(user="u1", venue="v1", ts=0, lat=37.75, lon=-122.45):
    return CheckIn(user_id=user, venue_id=venue, timestamp=ts, lat=lat, lon=lon)


def situation_path(venue, temporal):
    """The keys of a situation's nodes in a social tree: the venue, then
    the day-class, day and cell keys of its calendar context."""
    return (venue, *calendar_keys(temporal))


def temporal_labels(t: TemporalContext) -> tuple[Label, Label, Label]:
    """The day-class, day and slot labels of a calendar context: one shared
    tuple per day of week and slot."""
    return _TEMPORAL_LABELS[t.day_of_week * 24 + t.slot]


_TEMPORAL_LABELS = tuple(
    (("W", 1 if dow in (0, 6) else 0), ("D", dow), ("S", slot))
    for dow in range(7)
    for slot in range(24)
)


def escape_chain(spatial, temporal: TemporalContext) -> list[Context]:
    """All fallback contexts of a context tree, longest first, ending with
    the empty context: the order in which ``distribution`` reads counters,
    which it collects with one trie descent per spatial order."""
    tl = temporal_labels(temporal)
    contexts: list[Context] = []
    n = len(spatial)
    for k in range(n, -1, -1):
        sp = tuple(("L", v) for v in spatial[n - k :])
        for t in (3, 2, 1, 0):
            contexts.append(sp + tl[:t])
    return contexts


def prob(tree, symbol, key) -> float:
    """A context tree's probability of ``symbol`` after ``key``'s context."""
    return tree.distribution(key, (symbol,))[0][symbol]


def poisson_random_graph(n: int, avg_degree: float, seed: int = 0) -> SocialGraph:
    """Erdős–Rényi G(n, p) with p chosen to match the target average degree."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 <= avg_degree <= n - 1:
        raise ValueError(f"avg_degree must be in [0, n-1], got {avg_degree}")
    p = avg_degree / (n - 1)
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(n)]
    edges = []
    if p >= 1.0:
        edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    elif p > 0.0:
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((names[i], names[j]))
    return SocialGraph(edges, nodes=names)


def is_clique(g: SocialGraph, members: frozenset[str] | set[str]) -> bool:
    ms = sorted(members)
    for i, a in enumerate(ms):
        na = g.neighbors(a)
        for b in ms[i + 1 :]:
            if b not in na:
                return False
    return True


def is_two_plex(g: SocialGraph, members: frozenset[str] | set[str]) -> bool:
    size = len(members)
    for u in members:
        if len(g.neighbors(u) & members) < size - 2:
            return False
    return True


def random_history(rng, user, venues, n, t0=1_000_000, spread=None, coords=None):
    """A sorted random history over the given venue pool."""
    spread = spread or 60 * 86_400
    coords = coords or {}
    out = []
    for ts in sorted(rng.randrange(t0, t0 + spread) for _ in range(n)):
        v = venues[rng.randrange(len(venues))]
        lat, lon = coords.get(v, (37.75, -122.45))
        out.append(CheckIn(user_id=user, venue_id=v, timestamp=ts, lat=lat, lon=lon))
    return out


@pytest.fixture(scope="session")
def small_corpus():
    """A small planted-influence corpus shared by slower tests."""
    cfg = GenConfig(
        n_users=32,
        days=21,
        seed=5,
        p_cositu=0.9,
        p_meetup=0.9,
        p_follow=0.5,
        activity_threshold=10,
    )
    return generate(cfg)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
