"""Self-test of the benchmark: each checker rejects a corrupted output, and
every workload runs end to end on a tiny corpus.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import pytest

import checks
import run

TINY = {
    name: dataclasses.replace(w, users=16, days=24, pairs=30, sample=40)
    for name, w in run.WORKLOADS.items()
}
SOCIAL = TINY["prequential-social"]


@pytest.fixture(scope="module")
def cli():
    cli = run.load_cli()
    assert cli is not None
    return cli


@pytest.fixture(scope="module")
def round0(cli, tmp_path_factory):
    """One round of commands on a tiny planted corpus, with its checker inputs."""
    work = tmp_path_factory.mktemp("bench")
    bench = run.Bench(cli, SOCIAL, seed=1, work=work, tracer=None)
    corpus_dir = bench.setup_rep()
    pairs_path = corpus_dir / "pairs.csv"
    ops = run.round_ops(SOCIAL, corpus_dir, pairs_path, 1)
    _, failed = bench.run_round(ops, work / "out")
    assert not failed
    corpus = checks.Corpus(corpus_dir / "checkins.csv", corpus_dir / "edges.csv")
    return bench, corpus_dir, pairs_path, work / "out", corpus, ops


def read(out, name):
    return (out / name).read_text(encoding="utf-8")


def test_checks_accept_the_program_outputs(round0):
    bench, corpus_dir, pairs_path, out, *_ = round0
    bench.check(corpus_dir, pairs_path, out, set())
    assert bench.problems == []


def test_a_repeated_run_with_other_output_is_caught(round0, tmp_path):
    bench, *_, out, _, ops = round0
    assert bench.differing(ops, out, out, set()) == []
    again = tmp_path / "again"
    shutil.copytree(out, again)
    op = next(op for op in ops if op.family == "homophily" and op.rep == 1)
    (again / op.out).write_text(read(out, op.name).replace("0.", "1.", 1), encoding="utf-8")
    assert bench.differing(ops, again, out, set()) == [op.out]
    assert bench.differing(ops, again, out, {op.name}) == []


def test_evaluate_check_rejects_one_flipped_st_hit(round0):
    _, _, _, out, corpus, _ = round0
    report = json.loads(read(out, "evaluate.json"))
    hits = checks.ppm_hits(corpus)
    checks.check_evaluate(report, corpus, hits, planted_sweep=True)
    row = next(r for r in report["per_user"] if r["st_accuracy"] > 0)
    row["st_accuracy"] -= 1 / row["scored"]
    report["accuracy_st"] -= 1 / report["n_scored"]
    with pytest.raises(checks.CheckFailed, match="ST hits"):
        checks.check_evaluate(report, corpus, hits, planted_sweep=True)


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (lambda r: r.update(n_scored=r["n_scored"] + 1), "n_scored"),
        (lambda r: r["bounds"].update(lower=r["bounds"]["lower"] * 1.001), "bounds.lower"),
        (lambda r: r["bounds"].update(fano=1.5), "fano"),
        (lambda r: r.update(accuracy_sost=r["accuracy_st"]), "SOST gain"),
        (lambda r: r["class_cumulative"]["classes_I"].update(accuracy=1.0), "class gains"),
        (lambda r: r["drift_comparison"].update(without_drift=1.0), "drift"),
    ],
)
def test_evaluate_check_rejects_corrupted_reports(round0, corrupt, reason):
    _, _, _, out, corpus, _ = round0
    report = json.loads(read(out, "evaluate.json"))
    corrupt(report)
    with pytest.raises(checks.CheckFailed, match=reason):
        checks.check_evaluate(report, corpus, checks.ppm_hits(corpus), planted_sweep=True)


@pytest.mark.parametrize("measure", run.MEASURES)
def test_homophily_check_rejects_one_perturbed_value(round0, measure):
    _, _, pairs_path, out, corpus, _ = round0
    pairs = checks.read_pairs(pairs_path)
    oracle = checks.PairOracle(corpus)
    lines = read(out, f"homophily_{measure}.csv").splitlines()
    checks.check_homophily("\n".join(lines), measure, pairs, oracle)
    idx = max(range(1, len(lines)), key=lambda i: float(lines[i].rsplit(",", 1)[1]))
    a, b, value = lines[idx].split(",")
    lines[idx] = f"{a},{b},{float(value) * (1 + 1e-6)!r}"
    with pytest.raises(checks.CheckFailed, match="brute force"):
        checks.check_homophily("\n".join(lines), measure, pairs, oracle)


def test_clique_check_rejects_one_dropped_clique(round0):
    _, _, _, out, corpus, _ = round0
    lines = read(out, "cliques.jsonl").splitlines()
    checks.check_cliques("\n".join(lines), corpus)
    with pytest.raises(checks.CheckFailed, match="differ from networkx"):
        checks.check_cliques("\n".join(lines[1:]), corpus)


def test_plex_check_rejects_shrunk_duplicated_or_missing_plexes(round0):
    _, _, _, out, corpus, _ = round0
    cliques = read(out, "cliques.jsonl")
    lines = read(out, "plexes.jsonl").splitlines()
    checks.check_plexes("\n".join(lines), corpus, cliques)
    rec = json.loads(lines[-1])
    rec["members"] = rec["members"][1:]
    with pytest.raises(checks.CheckFailed, match="not maximal|size"):
        checks.check_plexes("\n".join(lines[:-1] + [json.dumps(rec)]), corpus, cliques)
    with pytest.raises(checks.CheckFailed, match="duplicate"):
        checks.check_plexes("\n".join(lines + lines[-1:]), corpus, cliques)
    with pytest.raises(checks.CheckFailed, match="lies in no 2-plex"):
        checks.check_plexes("\n".join(lines[:-1]), corpus, cliques)


def test_stats_check_rejects_wrong_counts_and_clustering(round0):
    _, _, _, out, corpus, _ = round0
    stats = json.loads(read(out, "stats.json"))
    checks.check_stats(stats, corpus)
    for key, value in (("n_checkins", stats["n_checkins"] + 1), ("clustering_coefficient", 0.5)):
        with pytest.raises(checks.CheckFailed, match=key):
            checks.check_stats({**stats, key: value}, corpus)


def test_correlate_check_rejects_a_perturbed_or_out_of_range_cell(round0):
    _, _, _, out, corpus, _ = round0
    plexes = read(out, "plexes.jsonl")

    def check(text):
        checks.check_correlate(text, corpus, "global", SOCIAL.sample, 1, plexes)

    text = read(out, "correlate_global.csv")
    check(text)
    header, scos, srate = text.splitlines()
    name, first, *rest = scos.split(",")
    for cell, reason in ((f"{float(first) - 1e-5:.6f}", "recomputed"), ("1.500000", "outside")):
        with pytest.raises(checks.CheckFailed, match=reason):
            check("\n".join([header, ",".join([name, cell, *rest]), srate]))


def declared(section):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("traced", [False, True])
def test_workload_smoke_run_reports_every_declared_metric(cli, tmp_path, name, traced):
    out = run.run_workload(cli, TINY[name], 2, 0.0, traced, tmp_path / "work")
    result = out["result"]
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == run.SETUP_REPS + (2 if traced else 1) * len(
        run.round_ops(TINY[name], tmp_path, tmp_path, 2)
    )
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    assert units == declared("per_layer" if traced else "end_to_end")
    assert not (tmp_path / "work").exists()
