"""Golden regression test: `evaluate`'s report JSON and prediction rows, and
`socmob train`'s context-tree dumps and `socmob cohesion`'s subgroup lines,
stay byte-identical on a small fixed corpus.

The corpus is ``synth``'s planted-influence generator at a fixed seed,
committed as CSV; ``test_generator_reproduces_corpus`` checks that the
generator still writes those bytes, so that a change to its order of
random draws shows.  Each case runs every variant (``class_sweep`` and
``drift_compare``).
``test_evaluate_traced_peak`` bounds the memory that run allocates under
each estimator.

To regenerate the expected files after a change that is meant to alter the
output, run from the root of the checkout:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from socmob.cli import main
from socmob.evaluation import evaluate
from socmob.ingestion import IngestConfig, load_dataset, save_dataset
from socmob.sost import SostConfig
from socmob.synthgen import GenConfig, generate

DATA = Path(__file__).resolve().parent / "data" / "golden"
CORPUS = GenConfig(
    n_users=16, days=14, seed=4, p_cositu=0.95, p_meetup=1.0, p_follow=0.5,
    activity_threshold=5,
)
CASES = {
    "B_exponential": SostConfig(),
    "A_geometric": SostConfig(estimator="A", drift="geometric"),
}
# Peak bytes traced while the five variants evaluate on this corpus, by
# estimator, plus a tenth.  B: 2.29 MB with a context-trie counter that has
# counted one event held as its symbol (3.6 MB with the calendar counters
# of the context tries in one flat map per spatial node and argmax-only
# reads without an active situation, 4.8 MB with a trie node per calendar
# context and social cells built when first read, 5.7 MB with shared
# calendar contexts and situation paths and one ranking per group of
# variants that predict alike, 5.9-6.1 MB without them, 9.9 MB writing
# every level of the social store, 14.0 MB with the dict-per-node layout).
# A: 7.07 MB (8.34 MB with one-event counters as one-entry dicts).
TRACED_PEAK_BOUND = {"B": 2_520_000, "A": 7_780_000}
# `socmob train` dumps, by file name: one user at the defaults, one at
# six-hour slots
TREES = {
    "tree_u0002.json": ["--user", "u0002"],
    "tree_u0015_slot6.json": ["--user", "u0015", "--slot-hours", "6"],
}
# `socmob cohesion` over the corpus's friendship graph, by file name: every
# maximal clique, every maximal 2-plex, and the 2-plex search cut off after
# five groups
SUBGROUPS = {
    "cliques.jsonl": ["--cliques"],
    "plexes.jsonl": ["--plexes"],
    "plexes_max5.jsonl": ["--plexes", "--max-count", "5"],
}


def _dataset():
    return load_dataset(
        DATA / "checkins.csv",
        DATA / "edges.csv",
        IngestConfig(activity_threshold=CORPUS.activity_threshold),
    )


def _train(args: list[str], out: Path) -> int:
    return main([
        "train",
        "--checkins", str(DATA / "checkins.csv"),
        "--edges", str(DATA / "edges.csv"),
        "--activity-threshold", str(CORPUS.activity_threshold),
        *args,
        "--out", str(out),
    ])


def _cohesion(args: list[str], out: Path) -> int:
    return main(["cohesion", "--graph", str(DATA / "edges.csv"), *args, "--out", str(out)])


def _outputs(dataset, config: SostConfig) -> tuple[str, str]:
    """Report JSON as `socmob evaluate` writes it, and one JSON line per
    prediction row."""
    report = evaluate(
        dataset, config, class_sweep=True, drift_compare=True, record_predictions=True
    )
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    rows = "".join(json.dumps(row, sort_keys=True) + "\n" for row in report.predictions)
    return text, rows


@pytest.fixture(scope="module")
def dataset():
    return _dataset()


def test_generator_reproduces_corpus(tmp_path):
    save_dataset(generate(CORPUS)[0], tmp_path / "checkins.csv", tmp_path / "edges.csv")
    for name in ("checkins.csv", "edges.csv"):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_and_predictions_unchanged(dataset, case):
    text, rows = _outputs(dataset, CASES[case])
    assert text == (DATA / f"report_{case}.json").read_text(encoding="utf-8")
    assert rows == (DATA / f"predictions_{case}.jsonl").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(TREES))
def test_train_dump_unchanged(tmp_path, name):
    out = tmp_path / name
    assert _train(TREES[name], out) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", sorted(SUBGROUPS))
def test_cohesion_unchanged(tmp_path, name):
    out = tmp_path / name
    assert _cohesion(SUBGROUPS[name], out) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("estimator", sorted(TRACED_PEAK_BOUND))
def test_evaluate_traced_peak(dataset, estimator):
    # evaluate imports the p-value's modules on first use; load them first,
    # so that the peak counts the run alone
    import scipy.special  # noqa: F401

    config = SostConfig(estimator=estimator)
    tracemalloc.start()
    try:
        evaluate(dataset, config, class_sweep=True, drift_compare=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= TRACED_PEAK_BOUND[estimator], peak


def _write() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    save_dataset(generate(CORPUS)[0], DATA / "checkins.csv", DATA / "edges.csv")
    dataset = _dataset()
    for case, config in CASES.items():
        text, rows = _outputs(dataset, config)
        (DATA / f"report_{case}.json").write_text(text, encoding="utf-8")
        (DATA / f"predictions_{case}.jsonl").write_text(rows, encoding="utf-8")
    for name, args in TREES.items():
        _train(args, DATA / name)
    for name, args in SUBGROUPS.items():
        _cohesion(args, DATA / name)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    _write()
