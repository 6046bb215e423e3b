import json

import pytest

from socmob.cohesion import enumerate_two_plexes
from socmob.core import DEFAULT_UTC_OFFSET_HOURS
from socmob.errors import ConfigError
from socmob.synthgen import GenConfig, generate, write_corpus

from conftest import is_two_plex


def small_cfg(**overrides):
    base = dict(
        n_users=24,
        days=14,
        seed=11,
        p_cositu=0.9,
        p_meetup=0.9,
        p_follow=0.5,
        activity_threshold=5,
    )
    base.update(overrides)
    return GenConfig(**base)


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        for d in (d1, d2):
            ds, truth = generate(small_cfg())
            write_corpus(ds, truth, d)
        for name in ("checkins.csv", "edges.csv", "ground_truth.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_different_seed_differs(self):
        a, _ = generate(small_cfg(seed=1))
        b, _ = generate(small_cfg(seed=2))
        assert a.checkins != b.checkins


class TestStructure:
    def test_counts(self):
        ds, truth = generate(small_cfg())
        assert len(ds.active_users) == 24
        assert len(truth.groups) == 3
        assert truth.sessions
        assert truth.influence_events

    def test_planted_groups_are_two_plexes(self):
        ds, truth = generate(small_cfg())
        for g in truth.groups:
            members = frozenset(g["members"])
            assert is_two_plex(ds.graph, members)

    def test_planted_groups_recovered_by_enumeration(self):
        ds, truth = generate(small_cfg())
        plexes, truncated = enumerate_two_plexes(ds.graph, min_size=3)
        assert not truncated
        found = {sg.members for sg in plexes}
        planted = [frozenset(g["members"]) for g in truth.groups]
        recovered = sum(1 for p in planted if p in found)
        assert recovered >= 0.9 * len(planted)

    def test_influence_events_follow_real_visits(self):
        # every influence-driven event corresponds to a check-in of the
        # follower at the venue on the stated day, and some influencer
        # visit strictly precedes it or coincides within an hour
        cfg = small_cfg()
        ds, truth = generate(cfg)
        offset = round(DEFAULT_UTC_OFFSET_HOURS * 3600)

        def day_of(ts):
            return (ts + offset) // 86_400 - 18_001

        by_user_venue = {}
        for c in ds.checkins:
            by_user_venue.setdefault((c.user_id, c.venue_id), []).append(c.timestamp)
        for ev in truth.influence_events:
            times = [
                t
                for t in by_user_venue.get((ev["follower"], ev["venue"]), [])
                if day_of(t) == ev["day"]
            ]
            assert times, f"no check-in backing {ev}"
            follower_ts = max(times)
            influencer_times = [
                t
                for i in ev["influencers"]
                for t in by_user_venue.get((i, ev["venue"]), [])
            ]
            assert influencer_times
            assert min(influencer_times) <= follower_ts + 3600

    def test_null_corpus_has_no_planted_influence(self):
        ds, truth = generate(small_cfg(p_cositu=0.0, p_meetup=0.0, p_follow=0.0))
        assert truth.sessions == []
        assert truth.influence_events == []

    def test_sorted_and_active(self):
        ds, _ = generate(small_cfg())
        ts = [c.timestamp for c in ds.checkins]
        assert ts == sorted(ts)
        assert all(u in ds.graph for u in ds.active_users)


class TestConfigValidation:
    def test_bad_probability(self):
        with pytest.raises(ConfigError):
            small_cfg(p_follow=1.5)

    def test_odd_group_size(self):
        with pytest.raises(ConfigError):
            small_cfg(group_size=7)

    def test_too_few_venues(self):
        with pytest.raises(ConfigError):
            small_cfg(n_venues=10)

    @pytest.mark.parametrize("threshold", [0, -3])
    def test_activity_threshold_below_one(self, threshold):
        with pytest.raises(ConfigError, match="^activity_threshold must be at least 1"):
            small_cfg(activity_threshold=threshold)


def test_generated_dataset_builds_no_venue_table():
    ds, _ = generate(small_cfg())
    assert "venues" not in ds.__dict__


def test_write_corpus_formats(tmp_path):
    ds, truth = generate(small_cfg())
    paths = write_corpus(ds, truth, tmp_path / "out")
    header = paths["checkins"].read_text().splitlines()[0]
    assert header == "user_id,venue_id,timestamp,lat,lon"
    payload = json.loads(paths["ground_truth"].read_text())
    assert set(payload) == {"groups", "sessions", "influence_events", "cafes"}
