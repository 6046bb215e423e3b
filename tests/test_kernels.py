import random

import numpy as np
import pytest

from socmob import kernels


def brute_count(a, b, window):
    return sum(1 for x in a for y in b if abs(x - y) <= window)


def brute_weighted(a, b, window, wa, wb):
    return sum(
        wa[i] * wb[j]
        for i in range(len(a))
        for j in range(len(b))
        if abs(a[i] - b[j]) <= window
    )


def per_element(a, b, window):
    return kernels.count_pairs_within(kernels.window_queries(a, window), b).tolist()


def count(a, b, window):
    return sum(per_element(a, b, window))


def weighted(a, b, window, wa, wb):
    queries = kernels.window_queries(a, window)
    return kernels.count_pairs_within_weighted(queries, b, np.array(wa), kernels.prefix_sum(wb))


class TestKernels:
    def test_empty(self):
        assert count([], [1, 2], 10) == 0
        assert count([1], [], 10) == 0
        assert per_element([], [], 0) == []
        assert weighted([], [1, 2], 10, [], [1.0, 1.0]) == 0.0
        assert weighted([1], [], 10, [1.0], []) == 0.0

    def test_simple(self):
        assert count([0, 10], [5, 100], 5) == 2
        assert count([0], [6], 5) == 0

    def test_window_zero_counts_equal_timestamps_only(self):
        assert per_element([5, 6, 5], [4, 5, 5, 6], 0) == [2, 1, 2]
        assert weighted([5], [4, 5, 5], 0, [2.0], [1.0, 0.5, 0.25]) == 1.5

    def test_equal_timestamps_at_window_edge(self):
        # both edges are inclusive, and every copy of an edge timestamp counts
        assert per_element([10], [7, 7, 10, 13, 13, 14], 3) == [5]
        assert count([10, 10], [7, 13], 3) == 4
        assert count([10], [6, 14], 3) == 0

    def test_queries_in_any_order(self):
        b = [1, 4, 4, 9, 20]
        a = [20, 0, 9, 4]
        assert per_element(a, b, 3) == [brute_count([x], b, 3) for x in a]

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            kernels.window_queries([1], -1)

    def test_random_vs_brute_force(self):
        rng = random.Random(99)
        for _ in range(60):
            a = sorted(rng.randrange(0, 500) for _ in range(rng.randrange(0, 40)))
            b = sorted(rng.randrange(0, 500) for _ in range(rng.randrange(0, 40)))
            w = rng.randrange(0, 80)
            assert per_element(a, b, w) == [brute_count([x], b, w) for x in a]
            assert count(a, b, w) == brute_count(a, b, w)

    def test_weighted_vs_brute_force(self):
        rng = random.Random(7)
        for _ in range(40):
            n, m = rng.randrange(0, 25), rng.randrange(0, 25)
            a = sorted(rng.randrange(0, 300) for _ in range(n))
            b = sorted(rng.randrange(0, 300) for _ in range(m))
            wa = [rng.random() for _ in range(n)]
            wb = [rng.random() for _ in range(m)]
            w = rng.randrange(0, 60)
            assert weighted(a, b, w, wa, wb) == pytest.approx(
                brute_weighted(a, b, w, wa, wb), abs=1e-9
            )


def test_prefix_sum_adds_in_sequence():
    w = [0.1, 0.2, 0.3, 1e-17, 0.4]
    expect = [0.0]
    for x in w:
        expect.append(expect[-1] + x)
    assert kernels.prefix_sum(np.array(w)).tolist() == expect
