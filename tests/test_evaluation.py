import gc
import math
import random
import sys
from dataclasses import replace

import pytest

from socmob.core import CheckIn
from socmob.errors import NoData
from socmob.evaluation import (
    evaluate,
    breakdowns_to_csv,
    fano_predictability,
    improvement_breakdowns,
    predictability_bounds,
)
from socmob.ingestion import IngestConfig, build_dataset
from socmob.sost import SostConfig, SostModel
from socmob.synthgen import GenConfig, generate
from socmob.vomm import ContextTree, MergedContextView

HOUR = 3600


def oracle_fano_bisection(entropy, n, tol=1e-12):
    """Independent bisection on the same fixed-point equation."""

    def h_b(p):
        if p <= 0 or p >= 1:
            return 0.0
        return -p * math.log(p) - (1 - p) * math.log(1 - p)

    lo, hi = 1.0 / n, 1.0
    for _ in range(300):
        mid = (lo + hi) / 2
        if h_b(mid) + (1 - mid) * math.log(n - 1) > entropy:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestBounds:
    def test_reported_reference_values(self):
        b = predictability_bounds(3.48, 62.0, new_location_fraction=0.38, avg_visits=2.04)
        assert b.lower == pytest.approx(1.0 / math.exp(3.48), abs=1e-12)
        assert b.lower == pytest.approx(0.0308, abs=1e-4)
        assert b.upper == pytest.approx(0.390, abs=1e-3)
        assert b.fano < 0.31
        assert not b.fano_clamped

    def test_fano_against_independent_bisection(self):
        for entropy, n in [(3.48, 62.35), (1.0, 10.0), (2.5, 30.0), (0.2, 5.0)]:
            got, clamped = fano_predictability(entropy, n)
            assert not clamped
            assert got == pytest.approx(oracle_fano_bisection(entropy, n), abs=1e-6)

    def test_fano_bracket(self):
        # lower bound <= fano <= 1 whenever feasible
        rng = random.Random(12)
        for _ in range(50):
            n = rng.uniform(2.5, 200.0)
            entropy = rng.uniform(0.0, math.log(n) * 0.99)
            fano, clamped = fano_predictability(entropy, n)
            assert not clamped
            assert math.exp(-entropy) - 1e-12 <= fano <= 1.0

    def test_fano_infeasible_clamps(self):
        fano, clamped = fano_predictability(10.0, 5.0)
        assert clamped
        assert fano == pytest.approx(1.0 / 5.0)

    def test_zero_entropy(self):
        fano, clamped = fano_predictability(0.0, 10.0)
        assert not clamped
        assert fano == pytest.approx(1.0, abs=1e-9)

    def test_upper_edge_cases(self):
        assert predictability_bounds(1.0, 5.0, 1.0, 2.0).upper == 0.0
        assert predictability_bounds(1.0, 5.0).upper is None
        with pytest.raises(ValueError):
            predictability_bounds(1.0, 5.0, 0.5, 0.9)
        with pytest.raises(ValueError):
            predictability_bounds(1.0, 1.0)

    @pytest.mark.parametrize(
        "args",
        [
            (math.nan, 5.0),
            (math.inf, 5.0),
            (1.0, math.nan),
            (1.0, math.inf),
            (1.0, 5.0, 0.3, math.nan),
            (1.0, 5.0, 0.3, math.inf),
        ],
        ids=["entropy-nan", "entropy-inf", "locations-nan", "locations-inf",
             "avg-visits-nan", "avg-visits-inf"],
    )
    def test_non_finite_inputs(self, args):
        with pytest.raises(ValueError, match="finite"):
            predictability_bounds(*args)


def periodic_corpus(n_users=3, days=30):
    """Each user cycles deterministically through three personal venues."""
    rows = []
    for u in range(n_users):
        venues = [f"u{u}_v{k}" for k in range(3)]
        for d in range(days):
            for slot, hour in enumerate((8, 12, 19)):
                ts = (18_001 + d) * 86_400 + hour * 3600 + 8 * 3600
                rows.append(
                    CheckIn(
                        user_id=f"u{u}",
                        venue_id=venues[slot],
                        timestamp=ts,
                        lat=37.7 + u * 0.01 + slot * 0.001,
                        lon=-122.4,
                    )
                )
    edges = [(f"u{i}", f"u{j}") for i in range(n_users) for j in range(i + 1, n_users)]
    return build_dataset(rows, edges, IngestConfig(activity_threshold=1))


class TestPrequential:
    def test_periodic_user_reaches_high_accuracy(self):
        ds = periodic_corpus()
        report = evaluate(ds, SostConfig())
        # the sequence is perfectly periodic; after warm-up every event is
        # predictable, so accuracy approaches 1
        assert report.accuracy_st > 0.9
        assert report.accuracy_sost > 0.9

    def test_single_venue_entropy_is_positive_zero(self):
        # a target who visits one venue only has entropy 0.0, not -0.0
        rows = [
            CheckIn("a", "v1", 1_000_000 + k * HOUR, 37.75, -122.45) for k in range(60)
        ]
        ds = build_dataset(rows, [("a", "b")], IngestConfig())
        (row,) = evaluate(ds, SostConfig()).to_dict()["per_user"]
        assert row["user"] == "a"
        assert math.copysign(1.0, row["entropy"]) == 1.0

    def test_no_active_users(self):
        ds = replace(periodic_corpus(), active_users=frozenset())
        with pytest.raises(NoData):
            evaluate(ds, SostConfig())

    def test_per_hour_shares_sum_to_one(self, small_corpus):
        ds, _ = small_corpus
        report = evaluate(ds, SostConfig())
        total = sum(report.per_hour_shares["workday"]) + sum(
            report.per_hour_shares["weekend"]
        )
        if report.accuracy_sost != report.accuracy_st:
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_report_fields(self, small_corpus):
        ds, _ = small_corpus
        report = evaluate(ds, SostConfig(), class_sweep=True, drift_compare=True)
        assert 0.0 <= report.accuracy_st <= 1.0
        assert 0.0 <= report.accuracy_sost <= 1.0
        assert report.n_scored > 0
        assert set(report.class_cumulative) == {
            "classes_I",
            "classes_I_II",
            "classes_I_II_III",
        }
        for rec in report.per_user:
            assert 0 <= rec.st_accuracy <= 1
            assert 0 <= rec.sost_accuracy <= 1
            assert rec.scored > 0
        d = report.to_dict()
        assert d["accuracy_sost"] == report.accuracy_sost
        assert "relative_improvement" in d
        # relative improvement definition
        if report.accuracy_st > 0:
            assert report.relative_improvement == pytest.approx(
                (report.accuracy_sost - report.accuracy_st) / report.accuracy_st
            )

    def test_bounds_inputs_recomputed(self, small_corpus):
        ds, _ = small_corpus
        report = evaluate(ds, SostConfig())
        # new-location fraction: first sight of each (user, venue) pair among
        # scored events; recount independently
        seen = {}
        new = 0
        scored = 0
        targets = set(ds.active_users)
        for c in ds.checkins:
            if c.user_id in targets:
                scored += 1
                if c.venue_id not in seen.setdefault(c.user_id, set()):
                    new += 1
            seen.setdefault(c.user_id, set()).add(c.venue_id)
        assert report.bounds_inputs["new_location_fraction"] == pytest.approx(
            new / scored, abs=1e-12
        )


class TestGcPause:
    """`evaluate` runs without automatic cyclic collections and leaves the
    collector as it found it."""

    @staticmethod
    def _collections(fn, *args, **kwargs) -> int:
        """Collections that start while the body of `evaluate` runs (one may
        follow on its return, when the collector is enabled again)."""
        body = evaluate.__wrapped__.__code__
        starts = []

        def hook(phase, info):
            frame = sys._getframe()
            while phase == "start" and frame is not None:
                if frame.f_code is body:
                    starts.append(info["generation"])
                    break
                frame = frame.f_back

        gc.callbacks.append(hook)
        try:
            fn(*args, **kwargs)
        finally:
            gc.callbacks.remove(hook)
        return len(starts)

    def test_no_automatic_collections(self, small_corpus):
        ds, _ = small_corpus
        assert gc.isenabled()
        assert self._collections(evaluate, ds, SostConfig()) == 0
        # the same loop without the pause does collect, so the hook sees them
        assert self._collections(evaluate.__wrapped__, ds, SostConfig()) > 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, enabled):
        ds = periodic_corpus(n_users=2, days=3)
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            evaluate(ds, SostConfig())
            assert gc.isenabled() is enabled
            with pytest.raises(NoData):
                evaluate(replace(ds, active_users=frozenset()), SostConfig())
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()


class TestBreakdowns:
    def test_null_corpus_improvements_near_zero(self):
        cfg = GenConfig(
            n_users=24, days=21, seed=9, p_cositu=0.0, p_meetup=0.0, p_follow=0.0,
            activity_threshold=10,
        )
        ds, _ = generate(cfg)
        report = evaluate(ds, SostConfig())
        assert abs(report.accuracy_sost - report.accuracy_st) < 0.02

    def test_planted_corpus_positive_correlations(self, small_corpus):
        ds, _ = small_corpus
        report = evaluate(ds, SostConfig())
        table = improvement_breakdowns(report.to_dict()["per_user"])
        assert set(table) == {
            "degree",
            "entropy",
            "n_locations",
            "visit_frequency",
            "situation_rate",
            "influencers",
        }
        csv_text = breakdowns_to_csv(table)
        assert csv_text.startswith("dimension,r,rho,p")

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_dimension_is_an_empty_cell(self):
        rows = [
            {"scored": 4, "improvement": imp, "degree": deg, "entropy": ent,
             "n_locations": 3, "situation_rate": 0.5, "influencers": deg}
            for imp, deg, ent in [(0.1, 1, math.nan), (0.2, 2, 0.5), (0.4, 4, 0.9)]
        ]
        table = improvement_breakdowns(rows)
        assert table["entropy"] == {"r": None, "rho": None, "p": None}
        assert table["degree"]["r"] is not None
        assert "\nentropy,,,\n" in breakdowns_to_csv(table)

    def test_needs_three_users(self):
        ds = periodic_corpus(n_users=2)
        report = evaluate(ds, SostConfig())
        with pytest.raises(NoData):
            improvement_breakdowns(report.to_dict()["per_user"])


class TestCausalitySpot:
    def test_prediction_prefix_stable_under_future_perturbation(self):
        cfg = GenConfig(
            n_users=16, days=10, seed=3, p_cositu=0.9, p_meetup=0.9, p_follow=0.5,
            activity_threshold=5,
        )
        ds, _ = generate(cfg)
        base = evaluate(ds, SostConfig(), record_predictions=True)
        events = list(ds.checkins)
        cut = events[len(events) // 2].timestamp
        rng = random.Random(0)
        perturbed = []
        venues = sorted(ds.venues)
        for c in events:
            if c.timestamp > cut and rng.random() < 0.3:
                alt = venues[rng.randrange(len(venues))]
                v = ds.venues[alt]
                perturbed.append(
                    CheckIn(c.user_id, alt, c.timestamp, v.lat, v.lon)
                )
            else:
                perturbed.append(c)
        ds2 = build_dataset(perturbed, list(ds.graph.edges()), ds.config)
        got = evaluate(ds2, SostConfig(), record_predictions=True)
        before = [r for r in base.predictions if r["timestamp"] <= cut]
        after = [r for r in got.predictions if r["timestamp"] <= cut]
        assert before == after


class TestSharedStoreVariants:
    """Every variant scored in one pass matches a run of its own config."""

    @pytest.fixture(scope="class")
    def corpus(self):
        cfg = GenConfig(
            n_users=16, days=14, seed=4, p_cositu=0.95, p_meetup=1.0, p_follow=0.5,
            activity_threshold=5,
        )
        return generate(cfg)[0]

    @pytest.mark.parametrize(
        "config",
        [
            SostConfig(),
            SostConfig(estimator="A", drift="geometric", classes=frozenset({"I", "II"})),
        ],
        ids=["default", "A-geometric-I-II"],
    )
    def test_variant_accuracies_match_standalone_runs(self, corpus, config):
        swept = evaluate(corpus, config, class_sweep=True, drift_compare=True)
        sync = replace(config, enable_trend=False)
        standalone = {
            "primary": config,
            "no_drift": replace(config, drift="none"),
            "classes_I": replace(sync, classes=frozenset({"I"})),
            "classes_I_II": replace(sync, classes=frozenset({"I", "II"})),
            "classes_I_II_III": replace(sync, classes=frozenset({"I", "II", "III"})),
        }
        assert set(swept.variant_accuracies) == set(standalone)
        for name, cfg in standalone.items():
            alone = evaluate(corpus, cfg)
            assert swept.variant_accuracies[name] == alone.accuracy_sost, name
            assert swept.accuracy_st == alone.accuracy_st
        # the sweep must not be vacuous: influence changes some predictions
        assert swept.variant_accuracies["classes_I"] != swept.accuracy_st


class TestOncePerEvent:
    """Within one scored event, the variants of one target make at most one
    trend prediction, and the variants whose social reads agree compute one
    set of social factors; sharing changes nothing in the report."""

    @pytest.fixture(scope="class")
    def corpus(self):
        cfg = GenConfig(
            n_users=16, days=14, seed=4, p_cositu=0.95, p_meetup=1.0, p_follow=0.5,
            activity_threshold=5,
        )
        return generate(cfg)[0]

    @staticmethod
    def _run(corpus, monkeypatch, owner, method, unshared=None):
        """The report and the most calls of ``owner.method`` made between two
        consecutive training events, that is, within one scored event.
        ``unshared`` is a (name, function) pair that replaces the
        ``SostModel`` method sharing the result."""
        calls = [0]
        most = [0]
        counted_method = getattr(owner, method)
        observe = ContextTree.observe

        def counted(self, *args, **kwargs):
            calls[0] += 1
            return counted_method(self, *args, **kwargs)

        def counted_observe(self, *args, **kwargs):
            most[0] = max(most[0], calls[0])
            calls[0] = 0
            return observe(self, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(owner, method, counted)
            m.setattr(ContextTree, "observe", counted_observe)
            if unshared is not None:
                m.setattr(SostModel, *unshared)
            report = evaluate(
                corpus, SostConfig(), class_sweep=True, drift_compare=True,
                record_predictions=True,
            )
        return report, most[0]

    def test_one_trend_prediction_per_event(self, corpus, monkeypatch):
        trend_prediction = SostModel._trend_prediction

        def unshared(self, spatial, timestamp, memo=None):
            return trend_prediction(self, spatial, timestamp)

        shared, most_shared = self._run(corpus, monkeypatch, MergedContextView, "predict")
        unshared, most_unshared = self._run(
            corpus, monkeypatch, MergedContextView, "predict", ("_trend_prediction", unshared)
        )
        assert most_shared == 1
        # two variants use the trend, so without sharing an event makes two
        assert most_unshared == 2
        assert shared.to_dict() == unshared.to_dict()
        assert shared.predictions == unshared.predictions

    def test_one_social_factors_per_read_setting(self, corpus, monkeypatch):
        rank_with = SostModel.rank_with

        def unshared(self, key, dist, unseen, timestamp, users_now=None, memo=None, best=None):
            return rank_with(self, key, dist, unseen, timestamp, users_now, None, best)
        shared, most_shared = self._run(corpus, monkeypatch, SostModel, "social_factors")
        unshared, most_unshared = self._run(
            corpus, monkeypatch, SostModel, "social_factors", ("rank_with", unshared)
        )
        # primary and classes_I_II_III read the whole store with the same
        # drift and estimator; the other three variants differ from them
        assert most_shared == 4
        assert most_unshared == 5
        assert shared.to_dict() == unshared.to_dict()
        assert shared.predictions == unshared.predictions
