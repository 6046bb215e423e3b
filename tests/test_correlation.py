import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from socmob.correlation import (
    _two_sided_p,
    correlation_matrix,
    matrix_to_csv,
    pearson,
    sample_pairs,
    spearman,
    welch_ttest,
)
from socmob.errors import DegenerateInput, NoData


class TestSampling:
    def test_population_of_two(self):
        s = sample_pairs(["a", "b"], 10, seed=1)
        assert all(set(p) == {"a", "b"} for p in s.pairs)

    def test_determinism(self):
        a = sample_pairs([f"u{i}" for i in range(50)], 100, seed=7)
        b = sample_pairs([f"u{i}" for i in range(50)], 100, seed=7)
        assert a.pairs == b.pairs

    def test_members_differ(self):
        s = sample_pairs([f"u{i}" for i in range(5)], 500, seed=2)
        assert all(a != b for a, b in s.pairs)

    def test_two_plex_source(self):
        groups = [["a", "b", "c"], ["d", "e", "f", "g"]]
        s = sample_pairs([], 200, source="two_plex", seed=3, subgroups=groups)
        for a, b in s.pairs:
            assert any(a in g and b in g for g in groups)

    def test_subgroup_choice_uniformity(self):
        groups = [[f"g{k}_{i}" for i in range(3)] for k in range(10)]
        s = sample_pairs([], 100_000, source="two_plex", seed=5, subgroups=groups)
        counts = [0] * 10
        for a, _ in s.pairs:
            counts[int(a.split("_")[0][1:])] += 1
        chi2 = sum((c - 10_000) ** 2 / 10_000 for c in counts)
        # 9 degrees of freedom, alpha = 0.01
        assert chi2 < scipy_stats.chi2.ppf(0.99, df=9)

    def test_empty_population(self):
        with pytest.raises(NoData):
            sample_pairs(["solo"], 5)
        with pytest.raises(NoData):
            sample_pairs([], 5, source="two_plex", subgroups=[["only"]])


class TestPearsonSpearman:
    def test_perfect(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        assert pearson(xs, xs) == pytest.approx(1.0)
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)
        rho, p = spearman(xs, xs)
        assert rho == pytest.approx(1.0)
        assert p == pytest.approx(0.0, abs=1e-9)

    def test_formula_oracle(self):
        rng = random.Random(11)
        xs = [rng.random() for _ in range(10)]
        ys = [rng.random() for _ in range(10)]
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        den = math.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys))
        assert pearson(xs, ys) == pytest.approx(num / den, abs=1e-10)

    def test_matches_scipy(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=40)
        ys = 0.5 * xs + rng.normal(size=40)
        # ties included
        xs[3] = xs[7]
        assert pearson(xs, ys) == pytest.approx(scipy_stats.pearsonr(xs, ys).statistic, abs=1e-12)
        rho, p = spearman(xs, ys)
        ref = scipy_stats.spearmanr(xs, ys)
        assert rho == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-6)

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInput):
            pearson([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_degenerate(self, bad):
        # min/max clamping would turn a NaN coefficient into 1.0
        with pytest.raises(DegenerateInput):
            pearson([bad, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInput):
            pearson([1.0, 2.0, 3.0], [1.0, bad, 3.0])

    def test_affine_invariance(self):
        rng = random.Random(2)
        xs = [rng.random() for _ in range(20)]
        ys = [rng.random() for _ in range(20)]
        r = pearson(xs, ys)
        assert pearson([3 * x + 7 for x in xs], ys) == pytest.approx(r, abs=1e-10)

    def test_spearman_monotone_invariance(self):
        rng = random.Random(3)
        xs = [rng.random() for _ in range(20)]
        ys = [rng.random() for _ in range(20)]
        rho, _ = spearman(xs, ys)
        rho2, _ = spearman([math.exp(4 * x) for x in xs], ys)
        assert rho2 == pytest.approx(rho, abs=1e-12)

    def test_rank_beats_linear_on_monotone_curve(self):
        # a convex monotone relationship: rank correlation exceeds linear
        xs = [0.1 * i for i in range(1, 40)]
        ys = [math.exp(2.5 * x) for x in xs]
        r = pearson(xs, ys)
        rho, _ = spearman(xs, ys)
        assert rho > r
        assert rho == pytest.approx(1.0)


class TestTwoSidedP:
    @given(
        t=st.floats(0.0, 1e3),
        df=st.one_of(st.integers(1, 10**5), st.floats(0.5, 1e3)),
    )
    def test_equals_scipy_stats_exactly(self, t, df):
        want = 2.0 * float(scipy_stats.t.sf(t, df=df))
        assert _two_sided_p(t, df) == want
        assert _two_sided_p(-t, df) == want

    def test_edges(self):
        assert _two_sided_p(0.0, 5) == 1.0
        assert _two_sided_p(math.inf, 5) == 0.0

    @pytest.mark.parametrize(
        "t, df",
        [(math.nan, 5), (1.0, math.nan), (1.0, 0), (1.0, -1), (math.nan, math.nan)],
    )
    def test_nan_inputs(self, t, df):
        assert math.isnan(_two_sided_p(t, df))
        assert math.isnan(2.0 * float(scipy_stats.t.sf(t, df=df)))


class TestWelch:
    def test_matches_scipy(self):
        rng = np.random.default_rng(8)
        a = rng.normal(0.0, 1.0, size=30)
        b = rng.normal(0.4, 2.0, size=25)
        t, p = welch_ttest(a, b)
        ref = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            welch_ttest([1.0, 1.0], [1.0, 1.0])


class TestMatrix:
    def test_null_hypothesis(self):
        rng = random.Random(4)
        n = 10_000
        h = {"m": [rng.random() for _ in range(n)]}
        c = {"c": [rng.random() for _ in range(n)]}
        table = correlation_matrix(h, c)
        assert abs(table["m"]["c"]["r"]) < 0.05

    def test_planted_dependence(self):
        rng = random.Random(9)
        xs = [rng.random() for _ in range(500)]
        h = {"m": xs}
        c = {"c": [x + rng.gauss(0, 0.1) for x in xs]}
        table = correlation_matrix(h, c)
        assert table["m"]["c"]["r"] > 0.9
        rho, _ = spearman(h["m"], c["c"])
        assert rho > 0.9

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_series_is_an_empty_cell(self):
        h = {"m": [math.nan, 1.0, 2.0, 3.0]}
        c = {"c": [1.0, 2.0, 3.0, 4.0]}
        table = correlation_matrix(h, c)
        assert table == {"m": {"c": {"r": None}}}
        assert matrix_to_csv(table) == "measure,c\nm,\n"

    def test_csv_layout(self):
        table = {
            "scos": {"cn": {"r": 0.5}, "jacc": {"r": None}},
            "srate": {"cn": {"r": -0.25}, "jacc": {"r": 1.0}},
        }
        text = matrix_to_csv(table)
        lines = text.strip().split("\n")
        assert lines[0] == "measure,cn,jacc"
        assert lines[1].startswith("scos,0.5")
        assert lines[1].endswith(",")  # None cell renders empty

