import json
import os

import numpy as np
import pytest

import dimsched.cli as cli
from dimsched.errors import ConfigError, ParseError, RunAborted
from dimsched.harness import (
    CampaignSummary,
    SummaryEntry,
    emit_convergence_plot,
    emit_timing_report,
    load_campaign_config,
    read_trace,
    run_campaign,
    write_trace,
)
from dimsched.direct import Bounds, DirectConfig
from dimsched.optimize import RunConfig, run_bo


FAST_CONFIG = """
[campaign]
objective = sphere-2
algorithms = bo, dsa
runs = 2
base_seed = 7

[run]
n_init = 4
max_iter = 3
subset_size = 2
train_max_iter = 40
retrain_max_iter = 20

[direct]
max_evals = 60
max_iters = 20
"""


def write_config(tmp_path, text=FAST_CONFIG, name="campaign.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigLoading:
    def test_happy_path(self, tmp_path):
        config = load_campaign_config(write_config(tmp_path))
        assert config.objective_name == "sphere-2"
        assert config.algorithms == ("bo", "dsa")
        assert config.runs == 2
        assert config.base_seed == 7
        assert config.run_config.n_init == 4
        assert config.run_config.direct_config.max_evals == 60

    def test_unknown_key_rejected(self, tmp_path):
        text = FAST_CONFIG.replace("n_init = 4", "n_init = 4\nbudget = 5")
        with pytest.raises(ConfigError, match="budget"):
            load_campaign_config(write_config(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        text = FAST_CONFIG + "\n[tuning]\nalpha = 1\n"
        with pytest.raises(ConfigError, match="tuning"):
            load_campaign_config(write_config(tmp_path, text))

    def test_unknown_objective_rejected(self, tmp_path):
        text = FAST_CONFIG.replace("sphere-2", "paraboloid-3")
        with pytest.raises(ConfigError, match="paraboloid-3"):
            load_campaign_config(write_config(tmp_path, text))

    def test_unknown_algorithm_rejected(self, tmp_path):
        text = FAST_CONFIG.replace("bo, dsa", "bo, annealing")
        with pytest.raises(ConfigError, match="annealing"):
            load_campaign_config(write_config(tmp_path, text))

    def test_bad_type_rejected(self, tmp_path):
        text = FAST_CONFIG.replace("runs = 2", "runs = two")
        with pytest.raises(ConfigError, match="expected int"):
            load_campaign_config(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("base_seed = 7", "base_seed = 7\nworkers = 0", "workers must be >= 1"),
            ("n_init = 4", "n_init = 4\npca_period = 0", "pca_period must be >= 1"),
            ("n_init = 4", "n_init = 4\nretrain_period = 0", "retrain_period must be >= 1"),
            ("n_init = 4", "n_init = 4\ntrain_restarts = 0", "train_restarts must be >= 1"),
            ("n_init = 4", "n_init = 1", "n_init must be >= 2"),
        ],
        ids=["workers", "pca_period", "retrain_period", "train_restarts", "n_init"],
    )
    def test_out_of_range_rejected(self, tmp_path, old, new, message):
        text = FAST_CONFIG.replace(old, new)
        with pytest.raises(ConfigError, match=message):
            load_campaign_config(write_config(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_campaign_config(str(tmp_path / "nope.ini"))


def nontiming_fields(row):
    return (row.iter, row.subset, tuple(row.x), row.y, row.y_best, row.gp_size)


class TestTracePersistence:
    def make_result(self):
        config = RunConfig(
            n_init=4, max_iter=3, seed=0,
            direct_config=DirectConfig(max_evals=60, max_iters=20),
        )
        return run_bo(
            lambda x: float(np.sum(np.asarray(x) ** 2)),
            Bounds([-1.0, -1.0], [1.0, 1.0]),
            config,
        )

    def test_round_trip(self, tmp_path):
        result = self.make_result()
        path = str(tmp_path / "trace.csv")
        write_trace(path, result)
        rows = read_trace(path)
        assert len(rows) == 4 + 3
        # design rows come first, full-space marker, running best
        for i in range(4):
            assert rows[i].iter == i
            assert rows[i].subset is None
            assert rows[i].gp_size == i + 1
        assert rows[3].y_best == float(result.design.Y.min())
        for rec, row in zip(result.records, rows[4:]):
            assert row.iter == rec.iter
            assert np.array_equal(row.x, rec.x)
            assert row.y == rec.y
            assert row.y_best == rec.y_best

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,subset,x0,y,y_best,wall_ms,eval_ms,gp_size\n")
        with pytest.raises(ParseError, match="header"):
            read_trace(str(path))

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "iter,subset,x0,y,y_best,wall_ms,eval_ms,gp_size\n"
            "0,-,0.5,oops,1.0,0.0,0.0,1\n"
        )
        with pytest.raises(ParseError, match="malformed"):
            read_trace(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            read_trace(str(path))


class TestCampaign:
    def test_outputs_and_determinism(self, tmp_path):
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        config = load_campaign_config(write_config(tmp_path))
        from dataclasses import replace

        summary1 = run_campaign(replace(config, output_dir=str(out1)))
        summary2 = run_campaign(replace(config, output_dir=str(out2)))

        names = sorted(os.listdir(out1))
        assert names == [
            "sphere-2_bo_run0.csv",
            "sphere-2_bo_run1.csv",
            "sphere-2_dsa_run0.csv",
            "sphere-2_dsa_run1.csv",
            "summary.json",
        ]
        # reruns reproduce every trace up to timing columns
        for name in names[:-1]:
            rows1 = read_trace(str(out1 / name))
            rows2 = read_trace(str(out2 / name))
            assert [nontiming_fields(r) for r in rows1] == [
                nontiming_fields(r) for r in rows2
            ]
        assert [e.best_objective for e in summary1.entries] == [
            e.best_objective for e in summary2.entries
        ]

    def test_shared_initial_design(self, tmp_path):
        out = tmp_path / "out"
        config = load_campaign_config(write_config(tmp_path))
        from dataclasses import replace

        run_campaign(replace(config, output_dir=str(out)))
        bo_rows = read_trace(str(out / "sphere-2_bo_run0.csv"))
        dsa_rows = read_trace(str(out / "sphere-2_dsa_run0.csv"))
        for a, b in zip(bo_rows[:4], dsa_rows[:4]):
            assert np.array_equal(a.x, b.x)
            assert a.y == b.y

    def test_summary_json_round_trip(self, tmp_path):
        out = tmp_path / "out"
        config = load_campaign_config(write_config(tmp_path))
        from dataclasses import replace

        summary = run_campaign(replace(config, output_dir=str(out)))
        with open(out / "summary.json") as fh:
            loaded = CampaignSummary.from_json(fh.read())
        assert loaded == summary
        assert set(loaded.aggregates) == {"bo", "dsa"}

    def test_bad_summary_json(self):
        with pytest.raises(ParseError):
            CampaignSummary.from_json(json.dumps({"objective": "x"}))


class TestPlotAndReport:
    def make_traces(self, tmp_path, n):
        config = RunConfig(
            n_init=4, max_iter=3, seed=0,
            direct_config=DirectConfig(max_evals=60, max_iters=20),
        )
        paths = []
        for i in range(n):
            result = run_bo(
                lambda x: float(np.sum(np.asarray(x) ** 2)) + i,
                Bounds([-1.0, -1.0], [1.0, 1.0]),
                config,
            )
            path = str(tmp_path / f"trace{i}.csv")
            write_trace(path, result)
            paths.append(path)
        return paths

    def test_polyline_per_trace(self, tmp_path):
        paths = self.make_traces(tmp_path, 3)
        out = str(tmp_path / "plot.svg")
        emit_convergence_plot(paths, out)
        svg = open(out).read()
        assert svg.count("<polyline") == 3
        assert svg.startswith("<svg")
        assert svg.count("trace0.csv") == 1

    def test_log_scale(self, tmp_path):
        paths = self.make_traces(tmp_path, 1)
        out = str(tmp_path / "plot.svg")
        emit_convergence_plot(paths, out, log_scale=True)
        assert "<polyline" in open(out).read()

    def test_empty_trace_list(self, tmp_path):
        with pytest.raises(ParseError):
            emit_convergence_plot([], str(tmp_path / "plot.svg"))

    def test_timing_report_ratio(self):
        entries = tuple(
            SummaryEntry(algorithm=a, run=r, best_objective=1.0,
                         total_wall_ms=100.0, computation_ms=c, gp_count=1)
            for a, c in (("bo", 80.0), ("dsa", 20.0))
            for r in (0, 1)
        )
        summary = CampaignSummary(
            objective="sphere-2", runs=2, entries=entries, aggregates={}
        )
        text, csv_text = emit_timing_report([summary])
        assert "computation-time ratio dsa/bo: 0.2500" in text
        assert "ratio_dsa_over_bo,0.25,," in csv_text

    def test_report_requires_summaries(self):
        with pytest.raises(ParseError):
            emit_timing_report([])


class TestCli:
    def test_list_objectives(self, capsys):
        assert cli.main(["list-objectives"]) == 0
        out = capsys.readouterr().out
        assert "sphere-2 d=2" in out
        assert "lotka_volterra d=4" in out

    def test_run_roundtrip(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        out_dir = str(tmp_path / "cli_out")
        assert cli.main(["run", "--config", config_path, "--out", out_dir]) == 0
        assert capsys.readouterr().out.strip() == os.path.join(out_dir, "summary.json")
        assert os.path.exists(os.path.join(out_dir, "summary.json"))

    def test_config_error_exit(self, tmp_path, capsys):
        bad = write_config(tmp_path, FAST_CONFIG.replace("sphere-2", "nope"))
        assert cli.main(["run", "--config", bad]) == 2
        assert "config error" in capsys.readouterr().err

    def test_out_of_range_config_exit(self, tmp_path, capsys):
        bad = write_config(
            tmp_path, FAST_CONFIG.replace("n_init = 4", "n_init = 4\nretrain_period = 0")
        )
        assert cli.main(["run", "--config", bad, "--out", str(tmp_path / "out")]) == 2
        assert "retrain_period must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_io_error_exit(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        out = str(tmp_path / "plot.svg")
        assert cli.main(["plot", "--traces", missing, "--out", out]) == 4

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "summary.json"
        bad.write_text("{}")
        assert cli.main(["report", "--summaries", str(bad)]) == 4

    def test_runtime_abort_exit(self, tmp_path, capsys, monkeypatch):
        def boom(config):
            raise RunAborted("non-finite objective")

        monkeypatch.setattr(cli, "run_campaign", boom)
        config_path = write_config(tmp_path)
        assert cli.main(["run", "--config", config_path]) == 3
        assert "runtime error" in capsys.readouterr().err

    def test_report_csv_on_stdout(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        config = load_campaign_config(write_config(tmp_path))
        from dataclasses import replace

        run_campaign(replace(config, output_dir=str(out_dir)))
        code = cli.main(["report", "--summaries", str(out_dir / "summary.json")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("algorithm,mean_computation_ms")
        assert "computation-time ratio dsa/bo" in captured.err
