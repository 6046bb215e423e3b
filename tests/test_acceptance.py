"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s``) after its
assertions; tolerances are pinned in the assertions themselves.
"""

import math
import random
import sys
import time

import numpy as np
import pytest

from socmob.cohesion import (
    clustering_coefficient,
    enumerate_cliques,
    enumerate_two_plexes,
)
from socmob.core import CheckIn, WEEK_SECONDS
from socmob.errors import DegenerateInput
from socmob.evaluation import evaluate, fano_predictability, predictability_bounds
from socmob.homophily import colocation_count, social_situation_rate, spatial_cosine
from socmob.ingestion import build_dataset
from socmob.sost import SostConfig, drift_factor
from socmob.synthgen import GenConfig, generate
from socmob.vomm import ContextTree, TreeConfig

from conftest import escape_chain, is_clique, is_two_plex, poisson_random_graph, random_history
from test_cohesion import brute_force_maximal, random_graph
from test_homophily import oracle_colocation, oracle_cosine, oracle_situation_rate
from test_vomm import PpmOracle, routed_outside_mass

HOUR = 3600


def _report(line):
    print(line, file=sys.__stdout__, flush=True)


def _random_corpora(n_corpora, seed=1234):
    rng = random.Random(seed)
    out = []
    for _ in range(n_corpora):
        alphabet = [chr(ord("A") + k) for k in range(rng.randrange(1, 7))]
        length = rng.randrange(1, 51)
        kappa = rng.randrange(0, 4)
        ts = 1_000_000
        events = []
        for _ in range(length):
            ts += rng.randrange(600, 200_000)
            events.append((alphabet[rng.randrange(len(alphabet))], ts))
        out.append((alphabet, events, TreeConfig(kappa=kappa)))
    return out


def _train(events, config):
    tree = ContextTree(config)
    prev = []
    for venue, ts in events:
        tree.train_event(venue, ts, prev)
        prev.append(venue)
        if len(prev) > config.kappa:
            prev.pop(0)
    return tree


def test_criterion_1_ppm_oracle_equivalence():
    start = time.perf_counter()
    corpora = _random_corpora(100)
    checked = 0
    for alphabet, events, config in corpora:
        tree = _train(events, config)
        oracle = PpmOracle(events, config)
        prev = []
        for venue, ts in events:
            key = tree.key(prev, ts)
            ctx = oracle.full_context(tuple(prev), key.temporal)
            for q in alphabet:
                mine = tree.prob(q, key)
                ref = oracle.prob(q, ctx, key.temporal)
                assert mine == pytest.approx(ref, abs=1e-12)
                checked += 1
            prev.append(venue)
            if len(prev) > config.kappa:
                prev.pop(0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        f"[criterion 1] PASS  sequence-model probabilities match the independent "
        f"recursive oracle on 100 corpora ({checked} checks, {elapsed:.1f}s)"
    )


def test_criterion_2_normalization():
    corpora = _random_corpora(100)
    contexts = 0
    for alphabet, events, config in corpora:
        tree = _train(events, config)
        prev = []
        for venue, ts in events:
            key = tree.key(prev, ts)
            chain = escape_chain(key.spatial, key.temporal)
            dist, _ = tree.distribution(key)
            total = sum(dist.values()) + routed_outside_mass(tree, chain)
            assert total == pytest.approx(1.0, abs=1e-9)
            contexts += 1
            prev.append(venue)
            if len(prev) > config.kappa:
                prev.pop(0)
    _report(
        f"[criterion 2] PASS  predictive mass plus escape-routed outside mass "
        f"sums to 1±1e-9 at {contexts} trained contexts"
    )


def test_criterion_3_bounds_arithmetic():
    bounds = predictability_bounds(
        3.48, 62.0, new_location_fraction=0.38, avg_visits=2.04
    )
    assert bounds.lower == pytest.approx(0.0308, abs=1e-4)
    assert bounds.upper == pytest.approx(0.390, abs=1e-3)
    assert bounds.fano < 0.31

    def binary_entropy(p):
        if p <= 0.0 or p >= 1.0:
            return 0.0
        return -p * math.log(p) - (1 - p) * math.log(1 - p)

    lo, hi = 1.0 / 62.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if binary_entropy(mid) + (1 - mid) * math.log(61.0) > 3.48:
            lo = mid
        else:
            hi = mid
    independent = (lo + hi) / 2
    fano, clamped = fano_predictability(3.48, 62.0)
    assert not clamped
    assert fano == pytest.approx(independent, abs=1e-6)
    _report(
        f"[criterion 3] PASS  bounds lower={bounds.lower:.4f} "
        f"upper={bounds.upper:.4f} fano={bounds.fano:.4f} (bisection oracle agrees)"
    )


def test_criterion_4_sost_reduction():
    cfg = GenConfig(
        n_users=32, days=21, seed=5, p_cositu=0.9, p_meetup=0.9, p_follow=0.5,
        activity_threshold=10,
    )
    dataset, _ = generate(cfg)
    disabled = SostConfig(classes=frozenset(), enable_trend=False)
    report = evaluate(dataset, disabled, record_predictions=True)
    mismatches = [
        row for row in report.predictions if row["primary"] != row["st"]
    ]
    assert mismatches == []
    assert report.accuracy_sost == report.accuracy_st
    _report(
        f"[criterion 4] PASS  with influence disabled the social model's "
        f"{len(report.predictions)} predictions equal the individual model's exactly"
    )


def test_criterion_5_planted_influence_gain():
    start = time.perf_counter()
    cfg = GenConfig(
        n_users=200, days=60, seed=1, p_cositu=0.95, p_meetup=1.0, p_follow=0.5
    )
    dataset, _ = generate(cfg)
    report = evaluate(dataset, SostConfig(), class_sweep=True, drift_compare=True)
    elapsed = time.perf_counter() - start

    gain = report.accuracy_sost - report.accuracy_st
    assert gain >= 0.05

    with_drift = report.drift_comparison["with_drift"]
    without_drift = report.drift_comparison["without_drift"]
    assert with_drift >= without_drift - 0.01

    cum = [
        report.class_cumulative["classes_I"]["absolute"],
        report.class_cumulative["classes_I_II"]["absolute"],
        report.class_cumulative["classes_I_II_III"]["absolute"],
    ]
    assert cum[0] <= cum[1] <= cum[2]
    assert elapsed < 120.0
    _report(
        f"[criterion 5] PASS  planted-influence gain {gain * 100:.2f}pp "
        f"(ST {report.accuracy_st:.4f} -> SOST {report.accuracy_sost:.4f}); "
        f"drift {with_drift * 100:.2f}pp vs {without_drift * 100:.2f}pp; "
        f"class gains {[round(c * 100, 2) for c in cum]}pp; {elapsed:.0f}s"
    )


def test_criterion_6_enumeration_exactness():
    rng = random.Random(77)
    for trial in range(200):
        n = rng.randrange(4, 13)
        g = random_graph(rng, n, rng.uniform(0.15, 0.75))
        got_cliques = {sg.members for sg in enumerate_cliques(g, min_size=3)[0]}
        assert got_cliques == brute_force_maximal(g, is_clique, 3)
        got_plexes = {sg.members for sg in enumerate_two_plexes(g, min_size=3)[0]}
        assert got_plexes == brute_force_maximal(g, is_two_plex, 3)
    _report(
        "[criterion 6] PASS  clique and 2-plex enumeration equals exponential "
        "brute force on 200 random graphs (n <= 12)"
    )


def test_criterion_7_random_graph_baseline():
    g = poisson_random_graph(2000, 37.58, seed=13)
    p = 37.58 / 1999
    cc = clustering_coefficient(g)
    assert abs(cc - p) / p < 0.25
    _report(
        f"[criterion 7] PASS  Poisson graph (n=2000, d=37.58) clustering "
        f"{cc:.5f} within 25% of p={p:.5f}"
    )


def test_criterion_8_drift_closed_forms():
    stay = 3.0
    psi2 = drift_factor(20 * stay * HOUR, 0.05, stay, "exponential")
    assert psi2 == pytest.approx(math.exp(-1.0), abs=1e-12)
    rng = np.random.default_rng(99)
    betas = rng.uniform(0.001, 0.999, size=10_000)
    elapsed = rng.uniform(0.0, 200 * HOUR, size=10_000)
    deltas = rng.uniform(1.0, 50 * HOUR, size=10_000)
    for kind in ("geometric", "exponential"):
        a = np.array([drift_factor(e, b, stay, kind) for e, b in zip(elapsed, betas)])
        b = np.array(
            [drift_factor(e + d, bb, stay, kind) for e, d, bb in zip(elapsed, deltas, betas)]
        )
        assert np.all(b < a)
        assert np.all((a > 0.0) & (a <= 1.0))
    _report(
        "[criterion 8] PASS  drift closed form e^-1 exact; both decay kinds "
        "strictly decreasing over 10^4 random samples"
    )


def test_criterion_9_homophily_brute_force_and_null_corpus():
    rng = random.Random(4242)
    venues = [f"v{i}" for i in range(8)]
    for _ in range(500):
        hi = random_history(rng, "a", venues, rng.randrange(3, 30), spread=20 * 86_400)
        hj = random_history(rng, "b", venues, rng.randrange(3, 30), spread=20 * 86_400)
        assert colocation_count(hi, hj) == pytest.approx(
            oracle_colocation(hi, hj, WEEK_SECONDS), abs=1e-10
        )
        assert spatial_cosine(hi, hj) == pytest.approx(oracle_cosine(hi, hj), abs=1e-10)
        assert social_situation_rate(hi, hj) == pytest.approx(
            oracle_situation_rate(hi, hj, HOUR), abs=1e-10
        )

    # independence: a corpus without planted influence shows no correlation
    # between homophily and cohesion over sampled pairs
    from socmob.cohesion import adamic_adar, common_neighbors, jaccard_users
    from socmob.correlation import pearson, sample_pairs

    cfg = GenConfig(
        n_users=60, days=30, seed=21, p_cositu=0.0, p_meetup=0.0, p_follow=0.0,
        activity_threshold=10,
    )
    dataset, _ = generate(cfg)
    histories = dataset.histories()
    sample = sample_pairs(sorted(histories), 10_000, seed=3)
    homo = {"scos": [], "srate": []}
    coh = {"cn": [], "jacc": [], "aa": []}
    for a, b in sample.pairs:
        ha, hb = histories[a], histories[b]
        homo["scos"].append(spatial_cosine(ha, hb))
        homo["srate"].append(social_situation_rate(ha, hb))
        coh["cn"].append(float(common_neighbors(dataset.graph, a, b)))
        coh["jacc"].append(jaccard_users(dataset.graph, a, b))
        coh["aa"].append(adamic_adar(dataset.graph, a, b))
    worst = 0.0
    for hvals in homo.values():
        for cvals in coh.values():
            try:
                worst = max(worst, abs(pearson(hvals, cvals)))
            except DegenerateInput:
                continue
    assert worst < 0.05
    _report(
        f"[criterion 9] PASS  quadratic oracles match on 500 pairs; null-corpus "
        f"|r| max {worst:.4f} < 0.05 over 10^4 sampled pairs"
    )


def test_criterion_10_causality():
    cfg = GenConfig(
        n_users=16, days=12, seed=8, p_cositu=0.9, p_meetup=0.9, p_follow=0.5,
        activity_threshold=5,
    )
    dataset, _ = generate(cfg)
    config = SostConfig()
    base = evaluate(dataset, config, record_predictions=True)
    events = list(dataset.checkins)
    edges = list(dataset.graph.edges())
    venue_ids = sorted(dataset.venues)
    rng = random.Random(31337)

    rounds = 40
    per_round = 25
    total_perturbed = 0
    for _ in range(rounds):
        cut = events[rng.randrange(len(events) // 4, 3 * len(events) // 4)].timestamp
        future = [k for k, c in enumerate(events) if c.timestamp > cut]
        chosen = set(rng.sample(future, min(per_round, len(future))))
        total_perturbed += len(chosen)
        mutated = []
        for k, c in enumerate(events):
            if k not in chosen:
                mutated.append(c)
                continue
            roll = rng.random()
            if roll < 0.4:
                alt = venue_ids[rng.randrange(len(venue_ids))]
                v = dataset.venues[alt]
                mutated.append(CheckIn(c.user_id, alt, c.timestamp, v.lat, v.lon))
            elif roll < 0.7:
                mutated.append(
                    CheckIn(
                        c.user_id,
                        c.venue_id,
                        c.timestamp + rng.randrange(HOUR, 12 * HOUR),
                        c.lat,
                        c.lon,
                    )
                )
            # otherwise: delete the event
        ds2 = build_dataset(mutated, edges, dataset.config)
        got = evaluate(ds2, config, record_predictions=True)
        before_base = [r for r in base.predictions if r["timestamp"] <= cut]
        before_got = [r for r in got.predictions if r["timestamp"] <= cut]
        assert before_got == before_base
    assert total_perturbed >= 1000
    _report(
        f"[criterion 10] PASS  predictions at time t unchanged under "
        f"{total_perturbed} perturbations of strictly later events ({rounds} rounds)"
    )
