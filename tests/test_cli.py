import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import socmob
from socmob import cli, errors
from socmob.cli import main
from socmob.evaluation import breakdowns_to_csv, improvement_breakdowns
from socmob.ingestion import save_edges
from socmob.synthgen import GenConfig, generate, write_corpus


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    cfg = GenConfig(
        n_users=24,
        days=14,
        seed=11,
        p_cositu=0.9,
        p_meetup=0.9,
        p_follow=0.5,
        activity_threshold=5,
    )
    ds, truth = generate(cfg)
    write_corpus(ds, truth, out)
    return out


def run(argv):
    return main([str(a) for a in argv])


class TestSynthAndEvaluate:
    def test_synth_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            code = run(
                ["synth", "--seed", 1, "--users", 16, "--days", 7,
                 "--activity-threshold", 3, "--out", d]
            )
            assert code == 0
        assert (d1 / "checkins.csv").read_bytes() == (d2 / "checkins.csv").read_bytes()

    def test_evaluate_report(self, corpus_dir, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            [
                "evaluate",
                "--checkins", corpus_dir / "checkins.csv",
                "--edges", corpus_dir / "edges.csv",
                "--activity-threshold", 5,
                "--out", out,
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert 0.0 <= report["accuracy_sost"] <= 1.0

    def test_evaluate_deterministic(self, corpus_dir, tmp_path):
        reports = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert run(
                [
                    "evaluate",
                    "--checkins", corpus_dir / "checkins.csv",
                    "--edges", corpus_dir / "edges.csv",
                    "--activity-threshold", 5,
                    "--out", out,
                ]
            ) == 0
            reports.append(out.read_text())
        assert reports[0] == reports[1]

    def test_report_expansion(self, corpus_dir, tmp_path):
        rep = tmp_path / "report.json"
        assert run(
            [
                "evaluate",
                "--checkins", corpus_dir / "checkins.csv",
                "--edges", corpus_dir / "edges.csv",
                "--activity-threshold", 5,
                "--out", rep,
            ]
        ) == 0
        outdir = tmp_path / "expanded"
        assert run(["report", "--eval", rep, "--out", outdir]) == 0
        assert (outdir / "per_user.csv").exists()
        assert (outdir / "per_hour.csv").exists()
        assert json.loads((outdir / "summary.json").read_text())["n_scored"] > 0
        rows = json.loads(rep.read_text())["per_user"]
        assert sum(row["scored"] > 0 for row in rows) >= 3
        assert (outdir / "breakdowns.csv").read_text() == (
            breakdowns_to_csv(improvement_breakdowns(rows))
        )

    def test_report_without_three_scored_users_writes_no_breakdowns(self, tmp_path, capsys):
        row = {
            "user": "u0", "scored": 4, "st_accuracy": 0.5, "sost_accuracy": 0.75,
            "improvement": 0.25, "situation_rate": 0.25, "degree": 2, "entropy": 0.6,
            "n_locations": 2, "influencers": 1,
        }
        unscored = dict(row, user="u2", scored=0, st_accuracy=0.0, sost_accuracy=0.0,
                        improvement=0.0, situation_rate=0.0)
        rep = tmp_path / "report.json"
        rep.write_text(json.dumps({"per_user": [row, dict(row, user="u1"), unscored]}))
        outdir = tmp_path / "expanded"
        assert run(["report", "--eval", rep, "--out", outdir]) == 0
        assert json.loads(capsys.readouterr().out) == {"out": str(outdir)}
        assert sorted(p.name for p in outdir.iterdir()) == [
            "per_hour.csv", "per_user.csv", "summary.json"
        ]


class TestBounds:
    def test_reference_numbers(self, capsys):
        assert run(["bounds", "--entropy", 3.48, "--locations", 62]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower"] == pytest.approx(0.0308, abs=1e-3)
        assert payload["fano"] < 0.31
        assert payload["upper"] is None

    def test_infeasible_inputs(self, capsys):
        assert run(["bounds", "--entropy", 1.0, "--locations", 1]) == 5
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--entropy", "nan", "--locations", 5],
            ["--entropy", "inf", "--locations", 5],
            ["--entropy", 1.0, "--locations", "nan"],
            ["--entropy", 1.0, "--locations", "inf"],
            ["--entropy", 1.0, "--locations", 5, "--new-fraction", 0.3, "--avg-visits", "nan"],
            ["--entropy", 1.0, "--locations", 5, "--new-fraction", 0.3, "--avg-visits", "inf"],
        ],
        ids=["entropy-nan", "entropy-inf", "locations-nan", "locations-inf",
             "avg-visits-nan", "avg-visits-inf"],
    )
    def test_non_finite_inputs_exit_5(self, capsys, flags):
        assert run(["bounds", *flags]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert json.loads(line)["error"] == "ValueError"


class TestCohesion:
    def test_k5_clique(self, tmp_path, capsys):
        edges = [(f"n{i}", f"n{j}") for i in range(5) for j in range(i + 1, 5)]
        path = tmp_path / "k5.csv"
        save_edges(edges, path)
        assert run(["cohesion", "--graph", path, "--cliques"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["members"] == [f"n{i}" for i in range(5)]
        assert record["cohesion"] is None  # +inf sentinel

    def test_plexes(self, tmp_path, capsys):
        edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]
        path = tmp_path / "c5.csv"
        save_edges(edges, path)
        assert run(["cohesion", "--graph", path, "--plexes", "--min-size", 3]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert all(len(json.loads(line)["members"]) >= 3 for line in lines)

    @pytest.mark.parametrize("kind", ["--cliques", "--plexes"])
    def test_negative_max_count_exits_5(self, tmp_path, capsys, kind):
        path = tmp_path / "c5.csv"
        save_edges([("a", "b"), ("b", "c"), ("c", "a")], path)
        assert run(["cohesion", "--graph", path, kind, "--max-count", -1]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ValueError"


    @pytest.mark.parametrize("kind", ["--cliques", "--plexes"])
    def test_min_size_below_three_exits_5(self, tmp_path, capsys, kind):
        path = tmp_path / "k4.csv"
        save_edges([(f"n{i}", f"n{j}") for i in range(4) for j in range(i + 1, 4)], path)
        assert run(["cohesion", "--graph", path, kind, "--min-size", 2]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ValueError" and "min_size" in record["message"]


class TestPairsFile:
    """`homophily --pairs` reads `user_a,user_b` rows: no header, blank
    lines skipped, ids stripped; any other row exits 3 naming its line."""

    def _homophily(self, corpus_dir, pairs, measure="col"):
        return run(
            ["homophily", "--checkins", corpus_dir / "checkins.csv",
             "--edges", corpus_dir / "edges.csv", "--activity-threshold", 5,
             "--pairs", pairs, "--measure", measure]
        )

    @pytest.mark.parametrize("measure", ["col", "scol", "scos", "srate"])
    def test_blank_lines_and_spaces(self, corpus_dir, tmp_path, capsys, measure):
        plain, loose = tmp_path / "plain.csv", tmp_path / "loose.csv"
        plain.write_text("u0000,u0001\nu0002,u0003\n")
        loose.write_bytes(b"\n u0000 ,u0001\r\n   \n\nu0002,\tu0003")
        outputs = []
        for pairs in (plain, loose):
            assert self._homophily(corpus_dir, pairs, measure) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[1].startswith("u0000,u0001,")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("u0001\n", 1),
            ("u0000,u0001\nu0002,u0003,u0004\n", 2),
            ("u0000,u0001\n\nu0002,\n", 3),
            (" , \n", 1),
            (",u0001\n", 1),
            ('u0000,u0001\n"u0002\n', 2),
        ],
        ids=["one-field", "three-fields", "empty-second", "both-blank", "empty-first",
             "open-quote"],
    )
    def test_malformed_row_exits_3(self, corpus_dir, tmp_path, capsys, text, line):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(text)
        assert self._homophily(corpus_dir, pairs) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ParseError"
        assert record["message"].startswith(f"line {line}: ")

    def test_not_utf8_exits_3(self, corpus_dir, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_bytes(b"u0000,u0001\nu0002,u\xff3\n")
        assert self._homophily(corpus_dir, pairs) == 3
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "ParseError", "message": "line 2: not UTF-8"}

    @pytest.mark.parametrize("measure", ["col", "scol", "scos", "srate"])
    def test_user_without_check_ins_exits_5(self, corpus_dir, tmp_path, capsys, measure):
        # the second row names a user that only the check-ins could vouch
        # for; nothing is measured or written
        pairs, out = tmp_path / "pairs.csv", tmp_path / "out.csv"
        pairs.write_text("u0000,u0001\n\nu0002,u9999\nu9998,u0003\n")
        code = run(
            ["homophily", "--checkins", corpus_dir / "checkins.csv",
             "--edges", corpus_dir / "edges.csv", "--activity-threshold", 5,
             "--pairs", pairs, "--measure", measure, "--out", out]
        )
        assert code == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "NoData", "message": "line 3: user 'u9999' has no check-ins"
        }
        assert not out.exists()


# user ids that a CSV row must quote: a delimiter, a quote, line breaks
ODD_IDS = {"u0000": "x,y", "u0001": 'say "hi"', "u0002": "two\nlines", "u0003": "cr\rid"}


@pytest.fixture(scope="module")
def odd_corpus_dir(corpus_dir, tmp_path_factory):
    """The CLI corpus with four users renamed to ``ODD_IDS``."""
    out = tmp_path_factory.mktemp("odd_corpus")
    for name in ("checkins.csv", "edges.csv"):
        with open(corpus_dir / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(
                [rows[0]] + [[ODD_IDS.get(f, f) for f in row] for row in rows[1:]]
            )
    return out


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestCsvOutputsRoundTrip:
    """Each CSV a command writes reads back with `csv.reader` as the fields
    it holds, whatever the user ids contain."""

    def test_ingest(self, odd_corpus_dir, tmp_path):
        assert run(
            ["ingest", "--checkins", odd_corpus_dir / "checkins.csv",
             "--edges", odd_corpus_dir / "edges.csv", "--out", tmp_path]
        ) == 0
        checkins, edges = read_csv(tmp_path / "checkins.csv"), read_csv(tmp_path / "edges.csv")
        assert all(len(row) == 5 for row in checkins) and all(len(row) == 2 for row in edges)
        assert set(ODD_IDS.values()) <= {row[0] for row in checkins[1:]}
        assert set(ODD_IDS.values()) <= {user for row in edges[1:] for user in row}

    @pytest.mark.parametrize("measure", ["col", "scol", "scos", "srate"])
    def test_homophily(self, odd_corpus_dir, tmp_path, measure):
        pairs, out = tmp_path / "pairs.csv", tmp_path / "out.csv"
        wanted = [("x,y", 'say "hi"'), ("two\nlines", "cr\rid"), ("u0004", "x,y")]
        with open(pairs, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(wanted)
        assert run(
            ["homophily", "--checkins", odd_corpus_dir / "checkins.csv",
             "--edges", odd_corpus_dir / "edges.csv", "--activity-threshold", 5,
             "--pairs", pairs, "--measure", measure, "--out", out]
        ) == 0
        rows = read_csv(out)
        assert rows[0] == ["user_a", "user_b", "value"]
        assert [tuple(row[:2]) for row in rows[1:]] == wanted
        assert all(len(row) == 3 and float(row[2]) >= 0.0 for row in rows[1:])

    def test_evaluate_then_report(self, odd_corpus_dir, tmp_path):
        rep, outdir = tmp_path / "report.json", tmp_path / "expanded"
        assert run(
            ["evaluate", "--checkins", odd_corpus_dir / "checkins.csv",
             "--edges", odd_corpus_dir / "edges.csv", "--activity-threshold", 5,
             "--out", rep]
        ) == 0
        assert run(["report", "--eval", rep, "--out", outdir]) == 0
        data = json.loads(rep.read_text(encoding="utf-8"))
        rows = read_csv(outdir / "per_user.csv")
        assert rows[0] == list(cli._PER_USER_FIELDS)
        assert [row[0] for row in rows[1:]] == [r["user"] for r in data["per_user"]]
        assert set(ODD_IDS.values()) <= {row[0] for row in rows[1:]}
        assert all(len(row) == len(cli._PER_USER_FIELDS) for row in rows)
        hours = read_csv(outdir / "per_hour.csv")
        assert hours[0] == ["day_class", "hour", "share"]
        assert len(hours) == 1 + 48 and all(len(row) == 3 for row in hours)

    def test_plain_ids_are_not_quoted(self, corpus_dir, tmp_path):
        pairs, out = tmp_path / "pairs.csv", tmp_path / "out.csv"
        pairs.write_text("u0000,u0001\n")
        assert run(
            ["homophily", "--checkins", corpus_dir / "checkins.csv",
             "--edges", corpus_dir / "edges.csv", "--activity-threshold", 5,
             "--pairs", pairs, "--measure", "col", "--out", out]
        ) == 0
        header, row = out.read_text(encoding="utf-8").splitlines()
        assert header == "user_a,user_b,value"
        assert row.startswith("u0000,u0001,") and '"' not in row


class TestStatsHomophilyCorrelate:
    def test_stats(self, corpus_dir, capsys):
        assert run(
            ["stats", "--checkins", corpus_dir / "checkins.csv",
             "--edges", corpus_dir / "edges.csv", "--activity-threshold", 5]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_users"] == 24
        assert "avg_user_entropy" in stats

    def test_stats_independent_of_hash_seed(self, corpus_dir):
        argv = [sys.executable, "-m", "socmob.cli", "stats",
                "--checkins", corpus_dir / "checkins.csv",
                "--edges", corpus_dir / "edges.csv", "--activity-threshold", "5"]
        src = str(Path(socmob.__file__).resolve().parents[1])
        outputs = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(argv, env=env, capture_output=True, check=True)
            outputs.add(done.stdout)
        assert len(outputs) == 1

    def test_commands_do_not_load_scipy_stats(self, corpus_dir, tmp_path):
        # the t tails come from scipy.special; scipy.stats costs every process
        # tens of MB and most of a second to import
        data = ["--checkins", corpus_dir / "checkins.csv",
                "--edges", corpus_dir / "edges.csv", "--activity-threshold", "5"]
        rep = tmp_path / "report.json"
        commands = [
            ["evaluate", *data, "--out", rep],
            ["report", "--eval", rep, "--out", tmp_path / "expanded"],
            ["correlate", *data, "--sample-size", "200", "--spearman"],
            ["stats", *data],
        ]
        script = (
            "import json, sys\n"
            "from socmob import cli\n"
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'scipy.stats' in sys.modules]))\n"
        )
        argv = json.dumps([[str(a) for a in cmd] for cmd in commands])
        src = str(Path(socmob.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script, argv], env=env,
                              capture_output=True, text=True, check=True)
        codes, loaded = json.loads(done.stdout.strip().splitlines()[-1])
        assert codes == [0, 0, 0, 0]
        assert (tmp_path / "expanded" / "breakdowns.csv").exists()
        assert not loaded

    def test_each_command_loads_only_the_numeric_modules_it_uses(self, corpus_dir, tmp_path):
        # numpy and scipy.special are tens of MB per process; only the
        # measuring commands need numpy, and only the p-values of evaluate
        # and report need scipy.special
        data = ["--checkins", corpus_dir / "checkins.csv",
                "--edges", corpus_dir / "edges.csv", "--activity-threshold", "5"]
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("u0000,u0001\nu0002,u0003\n")
        rep = tmp_path / "report.json"
        cases = [
            (["synth", "--seed", "1", "--users", "8", "--days", "3",
              "--activity-threshold", "1", "--out", tmp_path / "synth"], []),
            (["train", *data, "--user", "u0000", "--out", tmp_path / "tree.json"], []),
            (["ingest", *data, "--out", tmp_path / "norm"], []),
            (["stats", *data, "--out", tmp_path / "stats.json"], []),
            (["cohesion", "--graph", corpus_dir / "edges.csv", "--cliques",
              "--out", tmp_path / "cliques.jsonl"], []),
            (["bounds", "--entropy", "3.48", "--locations", "62"], []),
            (["homophily", *data, "--pairs", pairs, "--measure", "scos",
              "--out", tmp_path / "h.csv"], ["numpy"]),
            (["correlate", *data, "--sample-size", "50", "--out", tmp_path / "c.csv"],
             ["numpy"]),
            (["evaluate", *data, "--out", rep], ["numpy", "scipy.special"]),
            (["report", "--eval", rep, "--out", tmp_path / "expanded"],
             ["numpy", "scipy.special"]),
        ]
        script = (
            "import json, sys\n"
            "from socmob import cli\n"
            "code = cli.main(json.loads(sys.argv[1]))\n"
            "print(json.dumps([code, [m for m in ('numpy', 'scipy.special') if m in sys.modules]]))\n"
        )
        src = str(Path(socmob.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for argv, want in cases:
            done = subprocess.run(
                [sys.executable, "-c", script, json.dumps([str(a) for a in argv])],
                env=env, capture_output=True, text=True, check=True,
            )
            code, loaded = json.loads(done.stdout.strip().splitlines()[-1])
            assert (argv[0], code, loaded) == (argv[0], 0, want)
        assert (tmp_path / "expanded" / "breakdowns.csv").exists()

    def test_package_import_loads_neither_homophily_nor_numpy(self):
        # the prediction model needs neither; numpy alone is tens of MB and
        # a sizeable part of a second per process
        script = (
            "import json, sys\n"
            "import socmob\n"
            "print(json.dumps([m for m in ('socmob.homophily', 'numpy') if m in sys.modules]))\n"
        )
        src = str(Path(socmob.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert json.loads(done.stdout.strip().splitlines()[-1]) == []

    def test_homophily_pairs(self, corpus_dir, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("u0000,u0001\nu0002,u0003\n")
        assert run(
            [
                "homophily",
                "--checkins", corpus_dir / "checkins.csv",
                "--edges", corpus_dir / "edges.csv",
                "--activity-threshold", 5,
                "--pairs", pairs,
                "--measure", "scos",
            ]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "user_a,user_b,value"
        assert len(lines) == 3

    @pytest.mark.parametrize("source", ["global", "home_city", "two_plex"])
    def test_correlate(self, corpus_dir, capsys, source):
        assert run(
            [
                "correlate",
                "--checkins", corpus_dir / "checkins.csv",
                "--edges", corpus_dir / "edges.csv",
                "--activity-threshold", 5,
                "--sample-size", 500,
                "--seed", 7,
                "--source", source,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("measure,")

    def test_correlate_negative_sample_size_exits_5(self, corpus_dir, capsys):
        assert run(
            [
                "correlate",
                "--checkins", corpus_dir / "checkins.csv",
                "--edges", corpus_dir / "edges.csv",
                "--activity-threshold", 5,
                "--sample-size", -3,
            ]
        ) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ValueError"

    @staticmethod
    def _two_plex_corpus(tmp_path, edges, users):
        """Check-in and edge files: ``users`` check in at two venues over
        three days, and the edge file may name others."""
        rows = ["user_id,venue_id,timestamp,lat,lon"]
        for day in range(3):
            for n, user in enumerate(users):
                t = 1_000_000 + day * 86_400 + n * 600
                rows.append(f"{user},v{(day + n) % 2},{t},37.75,-122.45")
        checkins = tmp_path / "c.csv"
        checkins.write_text("\n".join(rows) + "\n")
        edge_file = tmp_path / "e.csv"
        edge_file.write_text("user_a,user_b\n" + "".join(f"{a},{b}\n" for a, b in edges))
        return ["--checkins", checkins, "--edges", edge_file, "--activity-threshold", 1]

    def test_two_plex_draws_only_users_with_check_ins(self, tmp_path, monkeypatch, capsys):
        # z closes the triangle a-b-z but has no check-ins
        edges = [("a", "b"), ("a", "z"), ("b", "z"), ("c", "d"), ("c", "e"), ("d", "e")]
        ds = self._two_plex_corpus(tmp_path, edges, ["a", "b", "c", "d", "e"])
        sampled = []
        sample_pairs = cli.correlation_mod.sample_pairs

        def spy(*args, **kwargs):
            sample = sample_pairs(*args, **kwargs)
            sampled.extend(sample.pairs)
            return sample

        monkeypatch.setattr(cli.correlation_mod, "sample_pairs", spy)
        argv = ["correlate", *ds, "--source", "two_plex", "--sample-size", 200]
        assert run(argv) == 0
        assert capsys.readouterr().out.startswith("measure,")
        assert len(sampled) == 200
        assert {u for pair in sampled for u in pair} == {"a", "b", "c", "d", "e"}

    def test_two_plex_without_two_measurable_members_exits_5(self, tmp_path, capsys):
        # the one triangle keeps one member with check-ins
        edges = [("a", "y"), ("a", "z"), ("y", "z")]
        ds = self._two_plex_corpus(tmp_path, edges, ["a", "b"])
        assert run(["correlate", *ds, "--source", "two_plex", "--sample-size", 10]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "NoData"

    def test_train_dump(self, corpus_dir, capsys):
        assert run(
            [
                "train",
                "--checkins", corpus_dir / "checkins.csv",
                "--edges", corpus_dir / "edges.csv",
                "--activity-threshold", 5,
                "--user", "u0000",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "socmob-context-tree"

    def test_ingest_normalizes(self, corpus_dir, tmp_path, capsys):
        outdir = tmp_path / "norm"
        assert run(
            [
                "ingest",
                "--checkins", corpus_dir / "checkins.csv",
                "--edges", corpus_dir / "edges.csv",
                "--activity-threshold", 5,
                "--out", outdir,
            ]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_active_users"] == 24
        assert (outdir / "checkins.csv").read_bytes() == (
            corpus_dir / "checkins.csv"
        ).read_bytes()


class TestVenueTableReads:
    """Only the commands that report or weight by venue statistics build
    the venue table (`Dataset.venues`)."""

    @pytest.fixture
    def loaded(self, monkeypatch):
        datasets = []
        load = cli.ingestion.load_dataset

        def spy(*args):
            datasets.append(load(*args))
            return datasets[-1]

        monkeypatch.setattr(cli.ingestion, "load_dataset", spy)
        return datasets

    @pytest.mark.parametrize(
        "argv, builds",
        [
            (["stats"], True),
            (["homophily", "--measure", "col", "--weight", "entropy"], True),
            (["homophily", "--measure", "scos", "--weight", "density"], True),
            (["homophily", "--measure", "srate", "--weight", "distance_from_home"], False),
            (["homophily", "--measure", "scol"], False),
            (["correlate", "--sample-size", 200, "--source", "global"], False),
            (["correlate", "--sample-size", 200, "--source", "two_plex"], False),
            (["correlate", "--sample-size", 200, "--source", "home_city"], False),
            (["evaluate"], False),
            (["train", "--user", "u0000"], False),
        ],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, list) else str(v),
    )
    def test_venue_table_built_only_when_read(
        self, corpus_dir, tmp_path, capsys, loaded, argv, builds
    ):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("u0000,u0001\nu0002,u0003\n")
        extra = ["--pairs", pairs] if argv[0] == "homophily" else []
        assert run(
            [*argv, "--checkins", corpus_dir / "checkins.csv",
             "--edges", corpus_dir / "edges.csv", "--activity-threshold", 5, *extra]
        ) == 0
        capsys.readouterr()
        [ds] = loaded
        assert ("venues" in ds.__dict__) is builds


class TestActivityThreshold:
    @pytest.mark.parametrize(
        "command", ["stats", "homophily", "correlate", "train", "evaluate", "ingest", "synth"]
    )
    @pytest.mark.parametrize("threshold", ["0", "-5"])
    def test_below_one_exits_5_before_any_work(
        self, corpus_dir, tmp_path, capsys, monkeypatch, command, threshold
    ):
        def no_load(*args):
            raise AssertionError("the corpus was loaded")

        monkeypatch.setattr(cli.ingestion, "load_dataset", no_load)
        out = tmp_path / "out"
        data = ["--checkins", corpus_dir / "checkins.csv", "--edges", corpus_dir / "edges.csv"]
        extra = {
            "homophily": ["--pairs", corpus_dir / "edges.csv", "--measure", "col"],
            "train": ["--user", "u0000"],
            "synth": ["--users", 24, "--days", 14],
        }.get(command, [])
        argv = [command, *([] if command == "synth" else data), *extra,
                "--activity-threshold", threshold, "--out", out]
        assert run(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err)
        assert record["error"] == "ConfigError"
        assert record["message"] == f"activity_threshold must be at least 1, got {threshold}"
        assert not out.exists()


class TestErrorsAndConfig:
    def test_missing_file_exit_code(self, capsys):
        code = run(
            ["stats", "--checkins", "/nonexistent.csv", "--edges", "/nonexistent2.csv"]
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] in ("FileNotFoundError", "OSError")

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,venue_id,timestamp,lat,lon\nu,v,NOPE,0,0\n")
        edges = tmp_path / "e.csv"
        edges.write_text("user_a,user_b\n")
        code = run(["stats", "--checkins", bad, "--edges", edges])
        assert code == 3

    @pytest.mark.parametrize("tail", ["long-quote", "not-utf8"])
    @pytest.mark.parametrize("kind", ["checkins", "edges", "graph"])
    def test_malformed_csv_exits_3_with_line_number(self, tmp_path, capsys, kind, tail):
        if tail == "long-quote":
            # an unterminated quote that runs past the csv module's field limit
            bad_tail = b'"' + b"x" * (csv.field_size_limit() + 10) + b"\n"
        else:
            # a byte that no UTF-8 text holds
            bad_tail = b"u,\xff\n"
        checkins = tmp_path / "c.csv"
        checkins.write_text("user_id,venue_id,timestamp,lat,lon\nu,v,1,0,0\n")
        edges = tmp_path / "e.csv"
        edges.write_text("user_a,user_b\nu,w\n")
        bad = checkins if kind == "checkins" else edges
        bad.write_bytes(bad.read_bytes() + bad_tail)
        if kind == "graph":
            argv = ["cohesion", "--graph", edges, "--cliques"]
        else:
            argv = ["stats", "--checkins", checkins, "--edges", edges]
        assert run(argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["error"] == "ParseError" and record["message"].startswith("line 3: ")

    def test_unknown_flag_exit_code(self, capsys):
        assert run(["bounds", "--entropy", 1.0, "--locations", 5, "--bogus"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--bogus" in json.loads(err[0])["message"]

    @pytest.mark.parametrize(
        "argv",
        [["bounds", "--bogus"], ["bounds", "--entropy", "x", "--locations", 5],
         ["evaluate", "--checkins", "c", "--edges", "e", "--drift", "bogus"], []],
        ids=["unknown-flag", "bad-type", "bad-choice", "no-command"],
    )
    def test_usage_errors_are_one_json_line(self, capsys, argv):
        assert run(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1
        assert json.loads(err[0])["error"] == "UsageError"

    def test_help_exits_zero(self, capsys):
        assert run(["bounds", "--help"]) == 0
        assert "--entropy" in capsys.readouterr().out

    def test_no_data_exit_code(self, tmp_path, capsys):
        c = tmp_path / "c.csv"
        c.write_text("user_id,venue_id,timestamp,lat,lon\n")
        e = tmp_path / "e.csv"
        e.write_text("user_a,user_b\n")
        code = run(["evaluate", "--checkins", c, "--edges", e])
        assert code == 5

    def test_zero_slot_hours_exit_code(self, corpus_dir, capsys):
        ds = ["--checkins", corpus_dir / "checkins.csv", "--edges", corpus_dir / "edges.csv"]
        assert run(["evaluate", *ds, "--slot-hours", 0]) == 5
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "slot_hours" in json.loads(err[0])["message"]

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_empty_classes_exits_5(self, corpus_dir, tmp_path, capsys, spelling):
        ds = ["--checkins", corpus_dir / "checkins.csv", "--edges", corpus_dir / "edges.csv"]
        if spelling == "flag":
            argv = ["evaluate", *ds, "--classes", ""]
        else:
            conf = tmp_path / "run.conf"
            conf.write_text("classes =\n")
            argv = ["--config", conf, "evaluate", *ds]
        assert run(argv) == 5
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1
        record = json.loads(err[0])
        assert record["error"] == "ConfigError" and "classes" in record["message"]

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("entropy = 3.48\nlocations = 62\n")
        assert run(["--config", conf, "bounds", "--locations", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # flag wins over the file value
        assert payload["fano"] == pytest.approx(
            __import__("socmob.evaluation", fromlist=["fano_predictability"])
            .fano_predictability(3.48, 10.0)[0],
            abs=1e-9,
        )

    def test_config_file_with_equals_sign(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("entropy = 3.48\nlocations = 62\n")
        assert run([f"--config={conf}", "bounds"]) == 0
        by_equals = json.loads(capsys.readouterr().out)
        assert run(["--config", conf, "bounds"]) == 0
        assert by_equals == json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize(
        "text", [b"not a valid line\n", b"# \xe9t\xe9\n"], ids=["no-equals", "not-utf8"]
    )
    def test_config_file_parse_error(self, tmp_path, capsys, text):
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"entropy = 1\n" + text)
        assert run(["--config", conf, "bounds", "--entropy", 1, "--locations", 5]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["error"] == "ParseError" and record["message"].startswith("line 2: ")

    @pytest.mark.parametrize("form", ["separate", "equals"])
    def test_abbreviated_config_is_a_usage_error(self, tmp_path, capsys, form):
        conf = str(tmp_path / "no-such-file.conf")
        flag = ["--conf", conf] if form == "separate" else [f"--conf={conf}"]
        assert run([*flag, "bounds", "--entropy", 1, "--locations", 5]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert captured.out == "" and len(err) == 1
        assert json.loads(err[0])["error"] == "UsageError"

    def test_subcommand_flags_keep_abbreviations(self, capsys):
        assert run(["bounds", "--entr", 3.48, "--loc", 62]) == 0
        assert run(["bounds", "--entropy", 3.48, "--locations", 62]) == 0
        by_prefix, in_full = capsys.readouterr().out.split("}\n{")
        assert json.loads(by_prefix + "}") == json.loads("{" + in_full)

    def test_config_without_a_path_is_a_usage_error(self, corpus_dir, capsys):
        ds = ["--checkins", corpus_dir / "checkins.csv", "--edges", corpus_dir / "edges.csv"]
        assert run(["stats", *ds, "--config"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--config" in json.loads(err[0])["message"]


COMMAND_NAMES = [
    "ingest", "stats", "homophily", "cohesion", "correlate",
    "train", "evaluate", "synth", "bounds", "report",
]


class TestOneSubparserPerCommand:
    """A command line that names its subcommand first builds only that
    subparser, and must behave exactly as under the full parser."""

    @pytest.mark.parametrize(
        "argv",
        [
            *([name, "-h"] for name in COMMAND_NAMES),
            [],
            ["-h"],
            ["bogus"],
            ["-1", "stats"],
            ["--bogus", "stats", "--checkins", "c.csv", "--edges", "e.csv"],
            ["bounds", "--entropy", "1.5"],
            ["homophily", "--checkins", "c", "--edges", "e", "--pairs", "p", "--measure", "x"],
            ["--config", "CONF", "bounds"],
            ["bounds", "--config", "CONF"],
            ["bounds", "--config=CONF", "--locations", "10"],
            ["--conf", "CONF", "bounds"],
        ],
        ids=[
            *(f"{name}-help" for name in COMMAND_NAMES),
            "no-arguments", "top-level-help", "unknown-command", "number-first",
            "flag-first", "missing-required", "bad-choice", "config-before",
            "config-after", "config-equals", "abbreviated-config",
        ],
    )
    def test_same_outcome_as_the_full_parser(self, tmp_path, monkeypatch, capsys, argv):
        conf = tmp_path / "run.conf"
        conf.write_text("entropy = 3.48\nlocations = 62\n")
        argv = [str(conf) if a == "CONF" else a for a in argv]
        outcomes = []
        for _ in range(2):
            outcomes.append((run(argv), *capsys.readouterr()))
            full = cli.build_parser
            monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("name", COMMAND_NAMES)
    def test_a_named_command_builds_two_parsers(self, monkeypatch, capsys, name):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs["prog"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        assert run([name, "-h"]) == 0
        assert built == ["socmob", f"socmob {name}"]


class TestReportErrors:
    @pytest.mark.parametrize(
        "text",
        [
            '{"per_user": [{"user": "x"}]}',
            '{"per_user": ["x"]}',
            '{"per_user": {}}',
            '{"per_hour_shares": {"workday": 3}}',
            "[1, 2]",
            "this is not JSON",
            json.dumps({"per_user": [{
                "user": "x", "scored": "4", "st_accuracy": 0.5, "sost_accuracy": 0.5,
                "improvement": 0.0, "situation_rate": 0.0, "degree": True, "entropy": 0.0,
                "n_locations": 1, "influencers": 0,
            }]}),
            json.dumps({"per_user": [{
                "user": "x", "scored": 4, "st_accuracy": 0.5, "sost_accuracy": 0.5,
                "improvement": 0.0, "situation_rate": 0.0, "degree": 1, "entropy": float("nan"),
                "n_locations": 1, "influencers": 0,
            }]}),
            '{"per_hour_shares": {"workday": [0.5, "x"]}}',
            '{"per_hour_shares": {"workday": [null]}}',
            '{"per_hour_shares": {"weekend": [{"a": 1}]}}',
            '{"per_hour_shares": {"weekend": [0.25, NaN]}}',
            '{"per_hour_shares": {"workday": [Infinity]}}',
            '{"per_hour_shares": {"workday": [true]}}',
            '{"per_hour_shares": {"holiday": [0.5]}}',
            '{"per_hour_shares": {"work\\nday": [0.5]}}',
        ],
        ids=["missing-key", "row-not-object", "rows-not-list", "hours-not-lists",
             "not-object", "not-json", "field-not-a-number", "field-not-finite",
             "share-string", "share-null", "share-object", "share-nan", "share-infinite",
             "share-bool", "day-class-unknown", "day-class-newline"],
    )
    def test_bad_report_is_a_parse_error(self, tmp_path, capsys, text):
        bad = tmp_path / "report.json"
        bad.write_text(text)
        assert run(["report", "--eval", bad, "--out", tmp_path / "out"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "ParseError"


def _replace_bounds_handler(monkeypatch, handler):
    help_line, add_args, _ = cli._COMMANDS["bounds"]
    monkeypatch.setitem(cli._COMMANDS, "bounds", (help_line, add_args, handler))


@pytest.mark.parametrize(
    "exc, code",
    [
        (errors.ParseError("bad row", 7), 3),
        (errors.IntegrityError("dangling venue"), 4),
        (errors.UnknownNode("nobody"), 4),
        (errors.NoData("empty"), 5),
        (errors.InsufficientSpan("short"), 5),
        (errors.DegenerateInput("constant"), 5),
        (errors.ModelEmpty("untrained"), 5),
        (errors.ConfigError("out of range"), 5),
        (ValueError("bad value"), 5),
        (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), 5),
        (FileNotFoundError(2, "No such file", "x.csv"), 2),
        (OSError("disk"), 2),
        (errors.SocmobError("other"), 5),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exit_code_of_each_error_class(monkeypatch, capsys, exc, code):
    def raise_it(args):
        raise exc

    _replace_bounds_handler(monkeypatch, raise_it)
    assert run(["bounds", "--entropy", 1, "--locations", 5]) == code
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    assert json.loads(err[0]) == {"error": type(exc).__name__, "message": str(exc)}


def test_unmapped_errors_keep_their_traceback(monkeypatch):
    def raise_it(args):
        raise KeyError("bug")

    _replace_bounds_handler(monkeypatch, raise_it)
    with pytest.raises(KeyError):
        run(["bounds", "--entropy", 1, "--locations", 5])
