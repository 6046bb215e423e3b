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

    def test_config_file_parse_error(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("not a valid line\n")
        assert run(["--config", conf, "bounds", "--entropy", 1, "--locations", 5]) == 3

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
        ],
        ids=["missing-key", "row-not-object", "rows-not-list", "hours-not-lists",
             "not-object", "not-json", "field-not-a-number", "field-not-finite"],
    )
    def test_bad_report_is_a_parse_error(self, tmp_path, capsys, text):
        bad = tmp_path / "report.json"
        bad.write_text(text)
        assert run(["report", "--eval", bad, "--out", tmp_path / "out"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "ParseError"


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
        (errors.UnsupportedScheme("later"), 5),
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

    monkeypatch.setattr(cli, "_cmd_bounds", raise_it)
    assert run(["bounds", "--entropy", 1, "--locations", 5]) == code
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    assert json.loads(err[0]) == {"error": type(exc).__name__, "message": str(exc)}


def test_unmapped_errors_keep_their_traceback(monkeypatch):
    def raise_it(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "_cmd_bounds", raise_it)
    with pytest.raises(KeyError):
        run(["bounds", "--entropy", 1, "--locations", 5])
