import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from xml.etree import ElementTree

import numpy as np
import pytest

import dimsched.cli as cli
import dimsched.harness as harness
from dimsched.errors import ConfigError, ParseError, RunAborted
from dimsched.harness import (
    CampaignConfig,
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
from dimsched.gp import Dataset
from dimsched.objectives import ObjectiveSpec, benchmark_catalog
from dimsched.optimize import (
    Incumbent,
    IterationRecord,
    RunConfig,
    RunResult,
    initial_design,
    run_bo,
    run_dsa,
    run_dsa_parallel,
)


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


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

    def test_values_read_literally(self, tmp_path):
        text = FAST_CONFIG.replace("base_seed = 7", "base_seed = 7\noutput_dir = out%d_100%")
        assert load_campaign_config(write_config(tmp_path, text)).output_dir == "out%d_100%"

    @pytest.mark.parametrize(
        "default", ["[DEFAULT]\nruns = 2\n", "[DEFAULT]\n"], ids=["keys", "empty"]
    )
    def test_default_section_rejected(self, tmp_path, default):
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            load_campaign_config(write_config(tmp_path, default + FAST_CONFIG))

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
            ("n_init = 4", "n_init = 1", "n_init must be >= 2"),
            ("n_init = 4", "n_init = 4\nfloor_eps = nan", r"floor_eps must be in \[0, 1\]"),
            ("n_init = 4", "n_init = 4\nfloor_eps = 2.0", r"floor_eps must be in \[0, 1\]"),
            ("max_iter = 3", "max_iter = -1", r"\[run\] max_iter must be >= 0"),
        ],
        ids=[
            "workers", "pca_period", "retrain_period", "n_init",
            "floor_eps_nan", "floor_eps_above_one", "max_iter",
        ],
    )
    def test_out_of_range_rejected(self, tmp_path, old, new, message):
        text = FAST_CONFIG.replace(old, new)
        with pytest.raises(ConfigError, match=message):
            load_campaign_config(write_config(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_campaign_config(str(tmp_path / "nope.ini"))

    def test_every_config_field_is_a_key(self, tmp_path):
        # Each [run] and [direct] key is a config field, parsed to the type
        # of its default; the values set differ from the defaults.  The
        # objective has 4 coordinates, so subset_size = 3 is a valid subset.
        sections = {
            "run": [f for f in fields(RunConfig) if f.name not in ("seed", "direct_config")],
            "direct": list(fields(DirectConfig)),
        }

        def value(f):
            return f.default + 1 if type(f.default) is int else f.default / 2

        text = "[campaign]\nobjective = sphere-4\n" + "".join(
            f"[{section}]\n" + "".join(f"{f.name} = {value(f)!r}\n" for f in section_fields)
            for section, section_fields in sections.items()
        )
        config = load_campaign_config(write_config(tmp_path, text))
        parsed = {"run": config.run_config, "direct": config.run_config.direct_config}
        for section, section_fields in sections.items():
            for f in section_fields:
                got = getattr(parsed[section], f.name)
                assert type(got) is type(f.default), (section, f.name)
                assert got == value(f), (section, f.name)

    def test_every_campaign_field_is_a_key(self, tmp_path):
        # Each [campaign] key but objective and algorithms is a
        # CampaignConfig field, parsed to the type of its default; the
        # values set differ from the defaults.
        values = {"runs": 3, "output_dir": "results", "workers": 2, "base_seed": 5}
        skip = ("objective_name", "algorithms", "run_config")
        assert sorted(values) == sorted(f.name for f in fields(CampaignConfig) if f.name not in skip)
        text = "[campaign]\nobjective = sphere-2\n" + "".join(
            f"{key} = {value}\n" for key, value in values.items()
        )
        config = load_campaign_config(write_config(tmp_path, text))
        default = CampaignConfig("sphere-2", ("bo",))
        for key, value in values.items():
            got = getattr(config, key)
            assert type(got) is type(value), key
            assert got == value != getattr(default, key), key

    @pytest.mark.parametrize(
        "section, line",
        [
            ("run", "seed = 1"), ("run", "direct_config = 1"), ("direct", "budget = 5"),
            ("run", "train_restarts = 3"), ("direct", "epsilon = 0.0001"),
        ],
    )
    def test_non_field_keys_rejected(self, tmp_path, section, line):
        text = FAST_CONFIG.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        key = line.split(" ")[0]
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[{section}\]"):
            load_campaign_config(write_config(tmp_path, text))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("runs = 2", "runs = 0", r"\[campaign\] runs must be >= 1"),
            ("algorithms = bo, dsa", "algorithms = ,",
             r"\[campaign\] algorithms must list at least one algorithm"),
            ("algorithms = bo, dsa", "algorithms = bo, dsa, bo",
             r"\[campaign\] algorithms lists 'bo' more than once"),
            ("objective = sphere-2\n", "", r"\[campaign\] objective is required"),
            (FAST_CONFIG[: FAST_CONFIG.index("[run]")], "", r"missing \[campaign\] section"),
        ],
        ids=["runs", "no_algorithms", "repeated_algorithm", "no_objective", "no_campaign_section"],
    )
    def test_campaign_checks_from_file(self, tmp_path, old, new, message):
        text = FAST_CONFIG.replace(old, new)
        with pytest.raises(ConfigError, match=message):
            load_campaign_config(write_config(tmp_path, text))


class TestCampaignConfig:
    # A config built in code is checked as one read from a file, before
    # run_campaign creates output_dir or evaluates the initial design.
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"runs": 0}, r"\[campaign\] runs must be >= 1"),
            ({"algorithms": ()}, r"\[campaign\] algorithms must list at least one algorithm"),
            ({"algorithms": ("bo", "nope")}, "unknown algorithm 'nope'"),
            ({"algorithms": ("dsa-parallel",), "workers": 0}, r"\[campaign\] workers must be >= 1"),
            ({"objective_name": "paraboloid-3"}, "unknown objective 'paraboloid-3'"),
            ({"base_seed": -1}, r"\[campaign\] base_seed must be >= 0"),
            ({"algorithms": ("dsa", "bo", "dsa")},
             r"\[campaign\] algorithms lists 'dsa' more than once"),
            ({"algorithms": ("bo", "dsa"), "run_config": RunConfig(subset_size=3)},
             r"\[run\] subset_size must be in \[1, 2\], the dimension of sphere-2, got 3"),
            ({"algorithms": ("dsa-parallel",), "run_config": RunConfig(subset_size=0)},
             r"\[run\] subset_size must be in \[1, 2\], the dimension of sphere-2, got 0"),
            ({"runs": 1.5}, r"\[campaign\] runs must be an integer, got 1.5"),
            ({"algorithms": ("dsa-parallel",), "workers": 2.0},
             r"\[campaign\] workers must be an integer, got 2.0"),
            ({"base_seed": 0.5}, r"\[campaign\] base_seed must be an integer, got 0.5"),
        ],
        ids=[
            "runs", "no_algorithms", "unknown_algorithm", "workers", "unknown_objective",
            "negative_base_seed", "repeated_algorithm", "subset_size_above_d",
            "subset_size_zero", "runs_not_integer", "workers_not_integer",
            "base_seed_not_integer",
        ],
    )
    def test_rejected_when_built(self, tmp_path, kwargs, message):
        out = tmp_path / "out"
        valid = {"objective_name": "sphere-2", "algorithms": ("bo",), "output_dir": str(out)}
        with pytest.raises(ConfigError, match=message):
            CampaignConfig(**{**valid, **kwargs})
        assert not out.exists()

    def test_every_loop_runs(self, tmp_path):
        run_config = RunConfig(
            n_init=4, max_iter=3, subset_size=1,
            direct_config=DirectConfig(max_evals=60, max_iters=20),
        )
        run_campaign(CampaignConfig(
            "sphere-2", ("bo", "dsa", "dsa-parallel"), runs=1, run_config=run_config,
            output_dir=str(tmp_path), workers=2,
        ))
        assert sorted(os.listdir(tmp_path)) == [
            "sphere-2_bo_run0.csv", "sphere-2_dsa-parallel_run0.csv", "sphere-2_dsa_run0.csv",
            "summary.json",
        ]
        # workers reaches run_dsa_parallel: one worker gives another trace here.
        spec = benchmark_catalog()["sphere-2"]
        initial = initial_design(spec.evaluator, spec.bounds, 4, np.random.default_rng(0))
        expected = run_dsa_parallel(
            spec.evaluator, spec.bounds, run_config, workers=2, initial=initial
        )
        rows = read_trace(str(tmp_path / "sphere-2_dsa-parallel_run0.csv"))
        assert [nontiming_fields(r) for r in rows[4:]] == [
            nontiming_fields(r) for r in expected.records
        ]


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

    @pytest.mark.parametrize("loop", [run_bo, run_dsa])
    def test_round_trip_every_field(self, tmp_path, loop):
        # repr(float) round-trips exactly, so every field of every row,
        # timings included, reads back equal.
        config = RunConfig(
            n_init=4, max_iter=3, seed=0,
            direct_config=DirectConfig(max_evals=60, max_iters=20),
        )
        result = loop(sphere, Bounds([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]), config)
        path = str(tmp_path / "trace.csv")
        write_trace(path, result)
        rows = read_trace(path)
        design = result.design
        expected = [
            IterationRecord(
                iter=i, subset=None, x=design.X[i], y=float(design.Y[i]),
                y_best=float(design.Y[: i + 1].min()), wall_time_ms=0.0,
                eval_time_ms=result.design_eval_ms[i], gp_size=i + 1,
            )
            for i in range(design.n)
        ] + result.records
        assert len(rows) == len(expected) == 4 + 3
        for row, rec in zip(rows, expected):
            assert isinstance(row, IterationRecord)
            for f in fields(IterationRecord):
                if f.name == "x":
                    assert np.array_equal(row.x, rec.x)
                else:
                    assert getattr(row, f.name) == getattr(rec, f.name), f.name

    def test_fixed_schema(self, tmp_path):
        design = Dataset(np.array([[0.5, -1.0, 0.25], [1.5, 2.0, -0.125]]), np.array([3.0, 1.0]))
        records = [
            IterationRecord(
                iter=2, subset=(0, 2), x=np.array([0.1, 2.0, -0.125]), y=np.float64(0.75),
                y_best=0.75, wall_time_ms=1.5, eval_time_ms=0.001, gp_size=3,
            ),
            IterationRecord(
                iter=3, subset=None, x=np.array([1e-300, -2.5, 3.0]), y=2.0,
                y_best=0.75, wall_time_ms=2.0, eval_time_ms=np.float64(0.25), gp_size=4,
            ),
        ]
        result = RunResult(
            records=records,
            incumbent=Incumbent(point=records[0].x, value=0.75),
            total_time_ms=10.0,
            gp_count=1,
            design=design,
            design_eval_ms=[0.5, np.float64(0.25)],
        )
        path = tmp_path / "trace.csv"
        write_trace(str(path), result)
        assert path.read_text() == (
            "iter,subset,x0,x1,x2,y,y_best,wall_ms,eval_ms,gp_size\n"
            "0,-,0.5,-1.0,0.25,3.0,3.0,0.0,0.5,1\n"
            "1,-,1.5,2.0,-0.125,1.0,1.0,0.0,0.25,2\n"
            "2,0|2,0.1,2.0,-0.125,0.75,0.75,1.5,0.001,3\n"
            "3,-,1e-300,-2.5,3.0,2.0,0.75,2.0,0.25,4\n"
        )

    def test_design_smaller_than_n_init_leaves_no_gap(self, tmp_path):
        bounds = Bounds([-1.0, -1.0], [1.0, 1.0])
        initial = initial_design(sphere, bounds, 7, np.random.default_rng(0))
        config = RunConfig(
            n_init=20, max_iter=3, seed=0,
            direct_config=DirectConfig(max_evals=60, max_iters=20),
        )
        path = str(tmp_path / "trace.csv")
        write_trace(path, run_bo(sphere, bounds, config, initial=initial))
        assert [row.iter for row in read_trace(path)] == list(range(7 + 3))

    def test_round_trip_numpy_eval_times(self, tmp_path):
        # Eval times as numpy floats must be written as plain floats, not
        # as their repr "np.float64(0.25)", which read_trace rejects.
        bounds = Bounds([-1.0, -1.0], [1.0, 1.0])
        design, _ = initial_design(sphere, bounds, 4, np.random.default_rng(0))
        config = RunConfig(
            n_init=4, max_iter=2, seed=0,
            direct_config=DirectConfig(max_evals=60, max_iters=20),
        )
        result = run_bo(sphere, bounds, config, initial=(design, np.full(4, 0.25)))
        path = str(tmp_path / "trace.csv")
        write_trace(path, result)
        rows = read_trace(path)
        assert [row.eval_time_ms for row in rows[:4]] == [0.25] * 4
        assert [row.eval_time_ms for row in rows[4:]] == [r.eval_time_ms for r in result.records]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,subset,x0,y,y_best,wall_ms,eval_ms,gp_size\n")
        with pytest.raises(ParseError, match="header"):
            read_trace(str(path))

    def test_malformed_row(self, tmp_path):
        # write_trace never writes a non-finite number, so a row with one is malformed.
        path = tmp_path / "bad.csv"
        for row in (
            "0,-,0.5,oops,1.0,0.0,0.0,1",
            "0,-,0.5,nan,nan,0.0,0.0,1",
            "0,-,0.5,1.0,inf,0.0,0.0,1",
            "0,-,-inf,1.0,1.0,0.0,0.0,1",
        ):
            path.write_text("iter,subset,x0,y,y_best,wall_ms,eval_ms,gp_size\n" + row + "\n")
            with pytest.raises(ParseError, match="malformed"):
                read_trace(str(path))

    def test_row_of_wrong_length(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "iter,subset,x0,y,y_best,wall_ms,eval_ms,gp_size\n"
            "0,-,0.5,1.0,1.0,0.0,0.0\n"
        )
        with pytest.raises(ParseError, match="malformed row"):
            read_trace(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            read_trace(str(path))

    def test_header_without_rows(self, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("iter,subset,x0,y,y_best,wall_ms,eval_ms,gp_size\n")
        with pytest.raises(ParseError, match="no rows"):
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

    def test_abort_raised_after_outputs_written(self, tmp_path, monkeypatch):
        # The objective turns nan at its sixth call: after the 4-point
        # design and one iteration of BO.  DSA, on the same design, aborts
        # at its first iteration.
        calls = []

        def turns_nan(x):
            calls.append(x)
            return sphere(x) if len(calls) <= 5 else float("nan")

        catalog = {"broken-2": ObjectiveSpec("broken-2", Bounds([-1.0] * 2, [1.0] * 2), turns_nan)}
        monkeypatch.setattr(harness, "benchmark_catalog", lambda: catalog)
        run_config = RunConfig(
            n_init=4, max_iter=3, direct_config=DirectConfig(max_evals=60, max_iters=20)
        )
        out = tmp_path / "out"
        config = CampaignConfig("broken-2", ("bo", "dsa"), runs=1, run_config=run_config,
                                output_dir=str(out))
        with pytest.raises(RunAborted, match=re.escape(
            "runs aborted on a non-finite objective: bo run 0 at iteration 5, "
            "dsa run 0 at iteration 4"
        )):
            run_campaign(config)
        assert len(read_trace(str(out / "broken-2_bo_run0.csv"))) == 4 + 1
        assert len(read_trace(str(out / "broken-2_dsa_run0.csv"))) == 4
        with open(out / "summary.json") as fh:
            bo, dsa = CampaignSummary.from_json(fh.read()).entries
        assert bo.best_objective == min(sphere(x) for x in calls[:5])
        assert dsa.best_objective == min(sphere(x) for x in calls[:4])

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
        with open(out) as fh:
            svg = fh.read()
        assert svg.count("<polyline") == 3
        assert svg.startswith("<svg")
        assert svg.count("trace0.csv") == 1

    def test_labels_escaped(self, tmp_path):
        # A trace file name with XML's special characters still gives a
        # well-formed SVG, whose legend reads the name as it is.
        (path,) = self.make_traces(tmp_path, 1)
        named = str(tmp_path / "a&b<c>.csv")
        os.rename(path, named)
        out = str(tmp_path / "plot.svg")
        emit_convergence_plot([named], out)
        texts = [el.text for el in ElementTree.parse(out).iter("{http://www.w3.org/2000/svg}text")]
        assert "a&b<c>.csv" in texts

    def test_log_scale(self, tmp_path):
        paths = self.make_traces(tmp_path, 1)
        out = str(tmp_path / "plot.svg")
        emit_convergence_plot(paths, out, log_scale=True)
        with open(out) as fh:
            assert "<polyline" in fh.read()

    def test_log_scale_of_values_at_or_below_zero(self, tmp_path):
        # Negative running bests, as on styblinski_tang, used to be floored
        # at one value, so every point of every polyline had one height.
        paths = []
        for i, offset in enumerate((-20.0, -30.0)):
            result = run_bo(
                lambda x: sphere(x) + offset,
                Bounds([-1.0, -1.0], [1.0, 1.0]),
                RunConfig(n_init=4, max_iter=3, direct_config=DirectConfig(max_evals=60)),
            )
            paths.append(str(tmp_path / f"trace{i}.csv"))
            write_trace(paths[-1], result)
        out = str(tmp_path / "plot.svg")
        emit_convergence_plot(paths, out, log_scale=True)
        svg = ElementTree.parse(out)
        heights = {
            float(point.split(",")[1])
            for line in svg.iter("{http://www.w3.org/2000/svg}polyline")
            for point in line.get("points").split()
        }
        assert len(heights) > 2
        texts = [el.text for el in svg.iter("{http://www.w3.org/2000/svg}text")]
        assert any(t.startswith("running best minus its lowest") for t in texts)

    @pytest.mark.parametrize(
        "rows",
        [
            ["0,-,0.5,-1.0,-1.0,0.0,0.1,1"],
            ["0,-,0.5,2.0,2.0,0.0,0.1,1", "1,-,0.1,3.0,2.0,0.0,0.1,2"],
        ],
        ids=["one_row", "constant"],
    )
    @pytest.mark.parametrize("log_scale", [False, True], ids=["linear", "log"])
    def test_degenerate_traces(self, tmp_path, rows, log_scale):
        # A single point or a flat line is drawn inside the plot area.
        path = tmp_path / "trace.csv"
        path.write_text("\n".join(["iter,subset,x0,y,y_best,wall_ms,eval_ms,gp_size", *rows]))
        out = str(tmp_path / "plot.svg")
        emit_convergence_plot([str(path)], out, log_scale=log_scale)
        (line,) = ElementTree.parse(out).iter("{http://www.w3.org/2000/svg}polyline")
        for point in line.get("points").split():
            x, y = map(float, point.split(","))
            assert 60.0 <= x <= 660.0 and 60.0 <= y <= 420.0

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

    def test_default_section_exit(self, tmp_path, capsys):
        bad = write_config(tmp_path, "[DEFAULT]\nruns = 2\n" + FAST_CONFIG)
        assert cli.main(["run", "--config", bad]) == 2
        assert "unknown section [DEFAULT]" in capsys.readouterr().err

    def test_config_error_printed_once(self, tmp_path):
        # In a process of its own: pytest's log capture would hide a
        # second copy of the message sent through logging.
        bad = write_config(tmp_path, FAST_CONFIG.replace("sphere-2", "nope"))
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        env.pop("DIMSCHED_LOG", None)
        proc = subprocess.run(
            [sys.executable, "-m", "dimsched.cli", "run", "--config", bad],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["config error: unknown objective 'nope'"]

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_reader_that_quits_early(self, unbuffered):
        # A pipe whose read end is closed, as after `dimsched list-objectives | true`.
        # Buffered, the write fails at the last flush; unbuffered, in print.
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        env["PYTHONUNBUFFERED"] = unbuffered
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dimsched.cli", "list-objectives"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_negative_seed_exit(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--config", write_config(tmp_path), "--out", str(out), "--seed", "-1"]
        assert cli.main(argv) == 2
        assert "[campaign] base_seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_config_exit(self, tmp_path, capsys):
        bad = write_config(
            tmp_path, FAST_CONFIG.replace("n_init = 4", "n_init = 4\nretrain_period = 0")
        )
        assert cli.main(["run", "--config", bad, "--out", str(tmp_path / "out")]) == 2
        assert "retrain_period must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_subset_size_above_dimension_exit(self, tmp_path, capsys):
        # Caught before BO runs and writes its trace, not by the DSA loop after it.
        bad = write_config(tmp_path, FAST_CONFIG.replace("subset_size = 2", "subset_size = 3"))
        assert cli.main(["run", "--config", bad, "--out", str(tmp_path / "out")]) == 2
        assert "[run] subset_size must be in [1, 2]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_of_range_direct_config_exit(self, tmp_path, capsys):
        bad = write_config(tmp_path, FAST_CONFIG.replace("max_evals = 60", "max_evals = 0"))
        assert cli.main(["run", "--config", bad, "--out", str(tmp_path / "out")]) == 2
        assert "[direct] max_evals must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_plot_exit(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        run_campaign(replace(load_campaign_config(write_config(tmp_path)), output_dir=str(out_dir)))
        out = str(tmp_path / "plot.svg")
        traces = sorted(str(p) for p in out_dir.glob("*.csv"))
        assert cli.main(["plot", "--traces", *traces, "--out", out, "--log-scale"]) == 0
        assert capsys.readouterr().out == out + "\n"
        assert ElementTree.parse(out).getroot().tag == "{http://www.w3.org/2000/svg}svg"

    @pytest.mark.parametrize("log_scale", [[], ["--log-scale"]], ids=["linear", "log"])
    def test_plot_non_finite_trace_exit(self, tmp_path, capsys, log_scale):
        trace = tmp_path / "t.csv"
        trace.write_text(
            "iter,subset,x0,y,y_best,wall_ms,eval_ms,gp_size\n"
            "0,-,0.5,1.0,1.0,0.0,0.0,1\n"
            "1,-,0.2,nan,nan,0.0,0.0,2\n"
        )
        out = tmp_path / "plot.svg"
        assert cli.main(["plot", "--traces", str(trace), "--out", str(out), *log_scale]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "malformed row '1,-,0.2,nan" in err[0]
        assert not out.exists()

    def test_outputs_written_in_utf8(self, tmp_path):
        # Under -X warn_default_encoding an open() that falls back on the
        # locale's encoding warns, and -W error makes the command fail.
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}

        def dimsched(*argv):
            proc = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                 "-m", "dimsched.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, (argv[0], proc.stderr)

        out_dir = tmp_path / "out"
        dimsched("run", "--config", write_config(tmp_path), "--out", str(out_dir))
        dimsched("report", "--summaries", str(out_dir / "summary.json"))
        traces = sorted(str(p) for p in out_dir.glob("*.csv"))
        dimsched("plot", "--traces", *traces, "--out", str(tmp_path / "plot.svg"), "--log-scale")

    def test_io_error_exit(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        out = str(tmp_path / "plot.svg")
        assert cli.main(["plot", "--traces", missing, "--out", out]) == 4

    def test_plot_trace_without_rows_exit(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("iter,subset,x0,y,y_best,wall_ms,eval_ms,gp_size\n")
        out = tmp_path / "plot.svg"
        assert cli.main(["plot", "--traces", str(trace), "--out", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["report", "--summaries", "{path}"], 4),
            (["plot", "--traces", "{path}", "--out", "{out}"], 4),
            (["run", "--config", "{path}"], 2),
        ],
        ids=["report", "plot", "run"],
    )
    def test_non_utf8_input_exit(self, tmp_path, capsys, argv, code):
        binary = tmp_path / "binary"
        binary.write_bytes(b"\x80\xff\x00\x01\xfe\x9c\xc3\x28\x0a")
        out = tmp_path / "plot.svg"
        argv = [arg.format(path=binary, out=out) for arg in argv]
        assert cli.main(argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(binary) in err[0]
        assert not out.exists()

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "summary.json"
        bad.write_text("{}")
        assert cli.main(["report", "--summaries", str(bad)]) == 4
        assert str(bad) in capsys.readouterr().err

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
