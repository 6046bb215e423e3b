import random

import pytest

from socmob.core import CheckIn
from socmob.synthgen import GenConfig, generate
from socmob.vomm import calendar_keys


def make_checkin(user="u1", venue="v1", ts=0, lat=37.75, lon=-122.45):
    return CheckIn(user_id=user, venue_id=venue, timestamp=ts, lat=lat, lon=lon)


def situation_path(venue, temporal):
    """The keys of a situation's nodes in a social tree: the venue, then
    the day-class, day and cell keys of its calendar context."""
    return (venue, *calendar_keys(temporal))


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
