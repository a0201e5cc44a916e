"""CLI surface: subcommands, file formats, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitopt import DatasetSpec, gen_gaussian_blobs, load_linear_system, make_problem
from splitopt.cli import main, parse_experiment_config
from splitopt.plotting import Series, render_line_chart
from splitopt.errors import EmptyTrace


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def without_wall(path):
    rows = read_csv(path)
    for row in rows:
        row.pop("wall_seconds")
    return rows


def assert_same_outputs(a, b):
    """Two run outputs hold the same files, every CSV equal apart from
    the wall_seconds column."""
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert without_wall(a / name) == without_wall(b / name), name


def base_config(**overrides):
    cfg = {
        "dataset": {"kind": "random-lls", "n": 60, "p": 6, "noise_sigma": 0.1, "seed": 3},
        "methods": ["sgd", "splitting"],
        "alphas": [0.05],
        "batch_size": 6,
        "max_epochs": 2,
        "repeat": 1,
        "seed": 1,
    }
    cfg.update(overrides)
    return cfg


class TestDatagen:
    def test_random_lls_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["datagen", "--kind", "random-lls", "--n", "20", "--p", "4",
                "--noise-sigma", "0.1"]
        assert main(["--seed", "7", "--out", str(out1)] + args) == 0
        assert main(["--seed", "7", "--out", str(out2)] + args) == 0
        assert out1.read_bytes() == out2.read_bytes()
        pb = load_linear_system(out1)
        assert pb.n == 20 and pb.p == 4

    def test_tomo_like_writes_loadable_system(self, tmp_path):
        out = tmp_path / "tomo.txt"
        code = main(["--seed", "2", "--out", str(out), "datagen", "--kind",
                     "tomo-like", "--image-side", "4", "--rays", "30"])
        assert code == 0
        pb = load_linear_system(out)
        assert pb.p == 16
        assert np.all(pb.x >= 0)

    def test_blob_manifest(self, tmp_path):
        out = tmp_path / "blobs.json"
        code = main(["--seed", "5", "--out", str(out), "datagen", "--kind",
                     "gaussian-blobs", "--n", "100", "--p", "3", "--k", "4"])
        assert code == 0
        manifest = json.loads(out.read_text())
        assert manifest["kind"] == "gaussian-blobs"
        assert manifest["seed"] == 5

    def test_bad_path_fails(self, tmp_path):
        code = main(["--out", str(tmp_path / "no" / "such" / "dir" / "x.txt"),
                     "datagen", "--kind", "random-lls"])
        assert code != 0

    def test_idx_manifest_without_paths_rejected(self, tmp_path, capsys):
        out = tmp_path / "idx.json"
        assert main(["--out", str(out), "datagen", "--kind", "idx-images"]) == 2
        assert "idx-images needs images_path and labels_path" in capsys.readouterr().err
        assert not out.exists()

    def test_unset_flags_take_the_spec_defaults(self, tmp_path):
        out = tmp_path / "blobs.json"
        assert main(["--out", str(out), "datagen", "--kind", "gaussian-blobs"]) == 0
        manifest = json.loads(out.read_text())
        defaults = {f.name: f.default for f in fields(DatasetSpec)}
        for key in ("n", "p", "k", "separation"):
            assert manifest[key] == defaults[key], key

    def test_manifest_is_a_run_config_dataset(self, tmp_path):
        out = tmp_path / "blobs.json"
        assert main(["--seed", "4", "--out", str(out), "datagen", "--kind", "gaussian-blobs",
                     "--n", "90", "--p", "3", "--k", "3", "--separation", "2.5"]) == 0
        manifest = json.loads(out.read_text())
        cfg = parse_experiment_config(base_config(dataset=manifest))
        pb = make_problem(cfg.dataset)
        ref = gen_gaussian_blobs(manifest["n"], manifest["p"], manifest["k"],
                                 manifest["separation"], manifest["seed"])
        np.testing.assert_array_equal(pb.x, ref.x)
        np.testing.assert_array_equal(pb.targets, ref.targets)

    def test_rejection_is_prefixed_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "lls.txt"
        assert main(["--out", str(out), "datagen", "--kind", "random-lls", "--n", "0"]) == 2
        assert "datagen: n and p must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values, written", [([], None), (["3", "5"], [3, 5])])
    def test_class_filter_is_a_list_or_null(self, tmp_path, values, written):
        out = tmp_path / "idx.json"
        assert main(["--out", str(out), "datagen", "--kind", "idx-images", "--images-path",
                     "a", "--labels-path", "b", "--class-filter", *values]) == 0
        assert json.loads(out.read_text())["class_filter"] == written

    def test_generated_file_runs_like_its_generator(self, tmp_path):
        """A run on the file datagen writes matches the run on the
        generator spec it came from, file for file."""
        data = tmp_path / "lls.txt"
        assert main(["--seed", "3", "--out", str(data), "datagen", "--kind", "random-lls",
                     "--n", "60", "--p", "6", "--noise-sigma", "0.1"]) == 0
        outs = []
        for sub, dataset in (
            ("gen", {"kind": "random-lls", "n": 60, "p": 6, "noise_sigma": 0.1, "seed": 3}),
            ("file", {"kind": "linear-system-file", "path": str(data)}),
        ):
            cfg_path = tmp_path / f"{sub}.json"
            cfg_path.write_text(json.dumps(base_config(
                dataset=dataset, alphas=[0.05, 0.5], repeat=2,
                stop={"kind": "relative-residual", "threshold": 0.2})))
            outs.append(tmp_path / sub)
            assert main(["--out", str(outs[-1]), "run", "--config", str(cfg_path)]) == 0
        assert len(list(outs[0].iterdir())) == 9
        assert_same_outputs(*outs)


class TestRun:
    def test_smoke_run_emits_traces_and_summary(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config()))
        out = tmp_path / "runs"
        assert main(["--out", str(out), "run", "--config", str(cfg_path)]) == 0
        traces = sorted(out.glob("trace_*.csv"))
        assert len(traces) == 2  # two methods x one alpha x one repeat
        rows = read_csv(traces[0])
        assert len(rows) >= 1
        assert read_csv(out / "summary.csv")

    def test_rerun_reproduces_everything_but_wall_seconds(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config()))
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["--out", str(out), "run", "--config", str(cfg_path)]) == 0
            outs.append(out)
        for name in [p.name for p in outs[0].glob("trace_*.csv")]:
            a, b = read_csv(outs[0] / name), read_csv(outs[1] / name)
            for ra, rb in zip(a, b):
                for key in ra:
                    if key != "wall_seconds":
                        assert ra[key] == rb[key], (name, key)

    def test_summary_counts_rhs_evals(self, tmp_path):
        """The trailing rhs_evals column is the run's RK evaluations: 0 for
        SGD and for closed-form least-squares splitting."""
        from splitopt import RunConfig, gen_gaussian_blobs, run as run_opt

        blobs = {"kind": "gaussian-blobs", "n": 40, "p": 4, "k": 3, "seed": 2}
        for dataset, split_evals in ((blobs, None), (base_config()["dataset"], 0)):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(base_config(dataset=dataset, alphas=[1.0])))
            out = tmp_path / dataset["kind"]
            assert main(["--out", str(out), "run", "--config", str(cfg_path)]) == 0
            with open(out / "summary.csv", newline="") as f:
                assert next(csv.reader(f))[-1] == "rhs_evals"
            evals = {r["method"]: int(r["rhs_evals"]) for r in read_csv(out / "summary.csv")}
            if split_evals is None:
                pb = gen_gaussian_blobs(40, 4, 3, 4.0, 2)
                split_evals = run_opt(pb, None, RunConfig(
                    method="splitting", alpha=1.0, batch_size=6, seed=1, max_epochs=2,
                    init_seed=1)).rhs_evals
                assert split_evals > 0
            assert evals == {"sgd": 0, "splitting": split_evals}

    def test_divergent_run_still_exits_zero(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(alphas=[1000.0], methods=["sgd"])))
        out = tmp_path / "runs"
        assert main(["--out", str(out), "run", "--config", str(cfg_path)]) == 0
        summary = read_csv(out / "summary.csv")
        assert summary[0]["diverged"] == "1"

    def test_reproduces_in_process_run(self, tmp_path):
        """Trace CSV losses match the same run executed in-process."""
        from splitopt import RunConfig, run as run_opt

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                base_config(
                    dataset={"kind": "random-lls", "n": 30, "p": 3, "seed": 2},
                    methods=["splitting"],
                    alphas=[0.1],
                    batch_size=1,
                    max_epochs=1,
                    seed=9,
                )
            )
        )
        out = tmp_path / "runs"
        assert main(["--out", str(out), "run", "--config", str(cfg_path)]) == 0
        rows = read_csv(out / "trace_splitting_a0.1_s9.csv")
        # reproduce in-process: same dataset, same seeds
        from splitopt import gen_random_lls

        pb = gen_random_lls(30, 3, 0.0, 2)
        trace = run_opt(
            pb, None,
            RunConfig(method="splitting", alpha=0.1, batch_size=1, seed=9,
                      max_epochs=1, init_seed=9),
        )
        assert float(rows[-1]["loss"]) == pytest.approx(trace.records[-1].loss, rel=1e-12)

    def test_classification_config_with_holdout_split(self, tmp_path):
        cfg = base_config(
            dataset={"kind": "gaussian-blobs", "n": 300, "p": 5, "k": 10,
                     "separation": 4.0, "seed": 4},
            methods=["splitting"],
            alphas=[1.0],
            batch_size=64,
            max_epochs=2,
            holdout_size=100,
            stop={"kind": "test-error", "threshold": 0.25},
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "runs"
        assert main(["--out", str(out), "run", "--config", str(cfg_path)]) == 0
        rows = read_csv(out / "trace_splitting_a1_s1.csv")
        assert all(r["metric"] for r in rows)

    def test_config_error_reports_field(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(alphas=[])))
        assert main(["run", "--config", str(cfg_path)]) != 0
        assert "alphas" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key",
        [("config", "bogus"), ("config.dataset", "bogus"), ("config.stop", "bogus"),
         ("config.integrator", "bogus"), ("config.holdout", "bogus"),
         ("config", "shuffle_each_epoch"), ("config.integrator", "h_max"),
         ("config", "seed_stride"), ("config.stop", "eval_every")],
        ids=["config", "config.dataset", "config.stop", "config.integrator",
             "config.holdout", "config-shuffle_each_epoch", "config.integrator-h_max",
             "config-seed_stride", "config.stop-eval_every"],
    )
    def test_unknown_dataset_field_reports_path(self, tmp_path, capsys, section, key):
        cfg = base_config(
            stop={"kind": "loss-threshold", "threshold": 1e-9},
            integrator={},
            holdout={"kind": "random-lls", "n": 20, "p": 6, "seed": 4},
        )
        target = cfg if section == "config" else cfg[section.split(".")[1]]
        target[key] = 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--out", str(tmp_path / "runs"), "run", "--config", str(cfg_path)]) == 2
        assert f"{section}.{key}: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, drop, message",
        [
            ({"batch_size": True}, None, "config.batch_size: expected int, got bool"),
            ({"init_scale": "0.01"}, None, "config.init_scale: expected float, got str"),
            ({}, "batch_size", "config.batch_size: required field missing"),
            ({"alphas": [0.05, -0.1]}, None, "config: alphas must be positive, got -0.1"),
            ({"alphas": []}, None, "config: alphas must be nonempty"),
            # A NaN passes a `< 0` check; a NaN init_scale used to exit 0
            # with every cell diverged at epoch 0.
            ({"dataset": {"kind": "random-lls", "n": 60, "p": 6,
                          "noise_sigma": float("nan")}}, None,
             "config.dataset: noise_sigma must be nonnegative, got nan"),
            ({"dataset": {"kind": "gaussian-blobs", "n": 60, "p": 6,
                          "separation": float("nan")}}, None,
             "config.dataset: separation must be nonnegative, got nan"),
            ({"init_scale": float("nan")}, None,
             "config: init_scale must be nonnegative, got nan"),
            ({"init_scale": -0.01}, None, "config: init_scale must be nonnegative, got -0.01"),
            ({"batch_size": 0}, None, "config: batch_size must be at least 1, got 0"),
            ({"batch_size": 500}, None,
             "config.batch_size: 500 exceeds the 60 training samples"),
            ({"max_epochs": 0}, None, "config: max_epochs must be at least 1, got 0"),
            ({"alphas": [0.001, 0.0010000001]}, None,
             "config: alphas 0.001 and 0.0010000001 would write the same trace files"),
            ({"methods": ["sgd", "sgd"], "alphas": [0.01, 0.01]}, None,
             "config: methods 'sgd' and 'sgd' would write the same trace files"),
            ({"alphas": [0.01, 0.01]}, None,
             "config: alphas 0.01 and 0.01 would write the same trace files"),
            ({"holdout_size": -1}, None, "config.holdout_size: must be in [0, 60), got -1"),
            ({"holdout_size": 60}, None, "config.holdout_size: must be in [0, 60), got 60"),
            ({"holdout_size": 10, "holdout": {"kind": "random-lls", "n": 20, "p": 6}}, None,
             "config.holdout_size: give holdout or holdout_size, not both"),
            # Python's JSON reader takes Infinity.  An infinite tolerance
            # accepted every RK step; an infinite threshold stopped every
            # cell at epoch 0, untrained.
            ({"integrator": {"rtol": float("inf")}}, None,
             "config.integrator: rtol must be finite and positive, got inf"),
            ({"stop": {"kind": "relative-residual", "threshold": float("inf")}}, None,
             "config.stop: threshold must be finite and positive, got inf"),
        ],
        ids=["bool-batch-size", "str-init-scale", "missing-batch-size", "negative-alpha",
             "empty-alphas", "nan-noise-sigma", "nan-separation", "nan-init-scale",
             "negative-init-scale",
             "zero-batch-size", "batch-size-over-n", "zero-max-epochs",
             "alphas-same-trace-name", "methods-repeated", "alphas-repeated",
             "negative-holdout-size", "holdout-size-over-n", "holdout-and-holdout-size",
             "infinite-rtol", "infinite-threshold"],
    )
    def test_bad_field_reports_path(self, tmp_path, capsys, overrides, drop, message):
        cfg = base_config(**overrides)
        cfg.pop(drop, None)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--out", str(tmp_path / "runs"), "run", "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err

    def test_rank_deficient_batch_is_a_config_error(self, tmp_path, capsys):
        """Splitting factors every batch before any cell runs; SGD never
        factors, so the same data serve an SGD-only grid."""
        data = tmp_path / "dup.txt"
        data.write_text("4 2\n1 1 1\n1 1 1\n2 2 2\n2 2 2\n")  # repeated rows
        cfg = base_config(dataset={"kind": "linear-system-file", "path": str(data)},
                          batch_size=2)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "runs"
        assert main(["--out", str(out), "run", "--config", str(cfg_path)]) == 2
        assert "error: config: " in capsys.readouterr().err
        assert not out.exists()
        cfg_path.write_text(json.dumps({**cfg, "methods": ["sgd"]}))
        assert main(["--out", str(out), "run", "--config", str(cfg_path)]) == 0

    def test_nan_alpha_is_a_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(alphas=[0.05, float("nan")])))
        out = tmp_path / "runs"
        assert main(["--out", str(out), "run", "--config", str(cfg_path)]) == 2
        assert "config: alphas must be positive, got nan" in capsys.readouterr().err
        assert not out.exists()

    BLOBS = {"kind": "gaussian-blobs", "n": 60, "p": 6, "k": 2, "seed": 4}

    @pytest.mark.parametrize(
        "overrides",
        [{"holdout_size": 60}, {"dataset": BLOBS, "methods": ["kaczmarz"]},
         {"stop": {"kind": "test-error", "threshold": 0.1}}],
        ids=["holdout-size-over-n", "kaczmarz-on-blobs", "test-error-without-holdout"],
    )
    def test_rejected_config_leaves_no_out_dir(self, tmp_path, overrides):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(**overrides)))
        out = tmp_path / "runs"
        assert main(["--out", str(out), "run", "--config", str(cfg_path)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"dataset": BLOBS, "methods": ["sgd", "kaczmarz"]},
            {"dataset": BLOBS, "stop": {"kind": "relative-residual", "threshold": 0.1}},
            {"dataset": BLOBS, "stop": {"kind": "solution-distance", "threshold": 0.1}},
            {"dataset": BLOBS, "stop": {"kind": "test-error", "threshold": 0.1}},
            {"dataset": BLOBS, "stop": {"kind": "test-error", "threshold": 0.1},
             "holdout": {**BLOBS, "k": 3}},
            {"stop": {"kind": "test-error", "threshold": 0.1}, "holdout_size": 10},
        ],
        ids=["kaczmarz-after-sgd", "residual-on-blobs", "distance-without-reference",
             "test-error-without-holdout", "holdout-of-another-k", "test-error-on-lls"],
    )
    def test_config_the_data_cannot_serve_runs_no_cell(
        self, tmp_path, capsys, monkeypatch, overrides
    ):
        import splitopt.cli

        calls = []
        real_run = splitopt.cli.run
        monkeypatch.setattr(splitopt.cli, "run", lambda *a: calls.append(a) or real_run(*a))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(**overrides)))
        out = tmp_path / "runs"
        assert main(["--out", str(out), "run", "--config", str(cfg_path)]) == 2
        assert calls == []
        assert capsys.readouterr().err.startswith("error: config")
        assert not out.exists()

    @pytest.mark.parametrize(
        "dataset, message",
        [({"kind": "linear-system-file"}, "linear-system-file needs a path"),
         ({"kind": "idx-images", "images_path": "x.idx"},
          "idx-images needs images_path and labels_path")],
        ids=["linear-system-file", "idx-images"],
    )
    def test_file_dataset_without_path_reports_field(self, tmp_path, capsys, dataset,
                                                     message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(dataset=dataset)))
        assert main(["--out", str(tmp_path / "runs"), "run", "--config", str(cfg_path)]) == 2
        assert f"config.dataset: {message}" in capsys.readouterr().err

    def test_failing_cell_is_named_on_stderr(self, tmp_path, capsys):
        cfg = base_config(
            dataset={"kind": "gaussian-blobs", "n": 200, "p": 5, "k": 2,
                     "separation": 4.0, "seed": 4},
            methods=["splitting"],
            alphas=[2.0],
            batch_size=20,
            seed=7,
            integrator={"max_steps": 5},
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--out", str(tmp_path / "runs"), "run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "method=splitting" in err
        assert "alpha=2" in err
        assert "init_seed=7" in err
        assert "needed more than 5 steps" in err

    def test_infinite_alpha_fails_its_rk_cell(self, tmp_path, capsys):
        """Python's json reads Infinity; h = inf has no RK flow to integrate."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            dataset={"kind": "gaussian-blobs", "n": 200, "p": 5, "seed": 1},
            holdout_size=40, methods=["splitting"], alphas=[float("inf")],
            batch_size=20)))
        assert "Infinity" in cfg_path.read_text()
        out = tmp_path / "runs"
        assert main(["--out", str(out), "run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "method=splitting alpha=inf" in err
        assert "h must be finite and nonnegative, got inf" in err
        assert not out.exists()

    def test_threads_match_serial_output(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(alphas=[0.02, 0.05])))
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert main(["--out", str(serial), "run", "--config", str(cfg_path)]) == 0
        assert main(["--out", str(parallel), "--threads", "4", "run",
                     "--config", str(cfg_path)]) == 0
        assert_same_outputs(serial, parallel)

    def test_kaczmarz_runs_once_per_repeat(self, tmp_path, monkeypatch):
        """Kaczmarz (h = inf) never reads alpha: one run per repeat, whose
        trace is written under every alpha."""
        import splitopt.cli

        methods = []
        real_run = splitopt.cli.run
        monkeypatch.setattr(splitopt.cli, "run",
                            lambda *a: methods.append(a[2].method) or real_run(*a))
        alphas = [0.02, 0.05, 0.5]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            methods=["sgd", "kaczmarz"], alphas=alphas, repeat=2)))
        out = tmp_path / "runs"
        assert main(["--out", str(out), "run", "--config", str(cfg_path)]) == 0
        assert sorted(methods) == ["kaczmarz"] * 2 + ["sgd"] * 6
        summary = read_csv(out / "summary.csv")
        assert [(r["method"], float(r["alpha"]), int(r["seed"])) for r in summary] == [
            (m, a, s) for m in ("sgd", "kaczmarz") for a in alphas for s in (1, 2)]
        for seed in (1, 2):
            traces = [read_csv(out / f"trace_kaczmarz_a{a:g}_s{seed}.csv") for a in alphas]
            for a, rows in zip(alphas, traces):
                assert {float(r.pop("alpha")) for r in rows} == {a}
            assert traces[0] == traces[1] == traces[2]

    def test_threaded_grid_builds_each_plan_once(self, tmp_path, monkeypatch):
        """The least-squares plans are built on the main thread before the
        pool starts, so two threads racing to a fresh batch never build its
        plan twice."""
        import threading

        svd, calls = np.linalg.svd, []

        def counting_svd(*args, **kwargs):
            calls.append(threading.current_thread() is threading.main_thread())
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config(
            methods=["splitting"], alphas=[0.02, 0.05, 0.1, 1.0], repeat=2)))
        assert main(["--out", str(tmp_path / "p"), "--threads", "2", "run",
                     "--config", str(cfg_path)]) == 0
        assert calls == [True] * (60 // 6)

    @settings(max_examples=12, deadline=None)
    @given(
        data=st.sampled_from([
            {"dataset": {"kind": "random-lls", "n": 30, "p": 4, "noise_sigma": 0.01,
                         "seed": 5},
             "stop": {"kind": "relative-residual", "threshold": 0.05}},
            # Splitting here runs the RK local step and its warm starts.
            {"dataset": {"kind": "gaussian-blobs", "n": 40, "p": 4, "k": 2, "seed": 5},
             "holdout_size": 10, "stop": {"kind": "test-error", "threshold": 0.01}},
        ]),
        methods=st.lists(st.sampled_from(["sgd", "splitting"]), min_size=1, unique=True),
        alphas=st.lists(st.sampled_from([0.01, 0.1, 1.0, 10.0]), min_size=1, max_size=3,
                        unique=True),
        batch_size=st.sampled_from([1, 4, 7, 30]),  # 7 leaves a short last batch
        max_epochs=st.integers(1, 3),
        repeat=st.integers(1, 2),
        seed=st.integers(0, 50),
    )
    def test_outputs_do_not_depend_on_threads(self, data, **grid):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg_path = tmp / "cfg.json"
            cfg_path.write_text(json.dumps(base_config(**data, **grid)))
            for threads in ("1", "2"):
                assert main(["--out", str(tmp / threads), "--threads", threads, "run",
                             "--config", str(cfg_path)]) == 0
            assert_same_outputs(tmp / "1", tmp / "2")


class TestBounds:
    def test_two_block_sweep_plateaus_at_limit(self, tmp_path):
        out = tmp_path / "b"
        assert main(["--seed", "0", "--out", str(out), "bounds", "--n", "40",
                     "--blocks", "2", "--t-max", "40", "--points", "9"]) == 0
        rows = read_csv(out / "sweep_n40_k2.csv")
        final = float(rows[-1]["error"])
        lim = float(rows[-1]["limit"])
        assert final == pytest.approx(lim, abs=1e-6)
        assert (out / "sweep_n40_k2.svg").exists()

    def test_single_block_flat_zero(self, tmp_path):
        out = tmp_path / "b1"
        assert main(["--seed", "1", "--out", str(out), "bounds", "--n", "16",
                     "--blocks", "1", "--t-max", "10", "--points", "5"]) == 0
        rows = read_csv(out / "sweep_n16_k1.csv")
        assert all(float(r["error"]) <= 1e-10 for r in rows)

    @pytest.mark.parametrize(
        "bad",
        [["--blocks", "0"], ["--points", "0"], ["--t-max", "-5"], ["--t-max", "nan"],
         ["--t-max", "inf"], ["--n", "0"], ["--n", "-3"], ["--points", "-2"]],
        ids=["zero-blocks", "zero-points", "negative-t-max", "nan-t-max", "inf-t-max",
             "zero-n", "negative-n", "negative-points"],
    )
    def test_rejected_input_leaves_no_out_dir(self, tmp_path, capsys, bad):
        out = tmp_path / "b0"
        assert main(["--out", str(out), "bounds", "--n", "10", *bad]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert bad[0].lstrip("-") in err
        if bad[0] != "--blocks":  # cmd_bounds's own checks name the flag and value
            assert bad[0] in err and bad[1] in err


NUMPY_ONLY_SCRIPT = """
import sys
sys.modules["scipy"] = None
from splitopt.cli import main
out, cfg = sys.argv[1:]
assert main(["--out", out + "/b", "bounds", "--n", "20", "--blocks", "4", "--points", "11"]) == 0
assert main(["--out", out + "/r", "run", "--config", cfg]) == 0
print(sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod))
"""


def test_cli_runs_with_scipy_blocked(tmp_path):
    """numpy is the one runtime dependency: with scipy made unimportable,
    ``bounds`` and a ``run`` grid whose splitting cells solve for each
    square batch's stationary point succeed in a fresh interpreter, and no
    scipy module is loaded."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config()))
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SCRIPT, str(tmp_path), str(cfg_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "b" / "sweep_n20_k4.csv").exists()
    assert (tmp_path / "r" / "summary.csv").exists()


class TestPlot:
    def _write_trace(self, path, method="sgd", alpha="0.1", rows=((0, 1.0), (1, 0.5))):
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["method", "alpha", "batch", "seed", "epoch", "iteration",
                 "wall_seconds", "loss", "metric", "diverged"]
            )
            for it, lo in rows:
                writer.writerow([method, alpha, 4, 0, it, it, 0.1 * it, lo, "nan", 0])

    def test_single_trace_single_polyline(self, tmp_path):
        trace = tmp_path / "t.csv"
        self._write_trace(trace)
        out = tmp_path / "chart.svg"
        assert main(["--out", str(out), "plot", str(trace)]) == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 1
        assert "iteration" in svg

    def test_two_methods_two_legend_entries(self, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_trace(t1, method="sgd")
        self._write_trace(t2, method="splitting")
        out = tmp_path / "chart.svg"
        assert main(["--out", str(out), "plot", str(t1), str(t2)]) == 0
        svg = out.read_text()
        assert "sgd alpha=0.1" in svg
        assert "splitting alpha=0.1" in svg

    def test_deterministic_bytes(self, tmp_path):
        trace = tmp_path / "t.csv"
        self._write_trace(trace)
        o1, o2 = tmp_path / "c1.svg", tmp_path / "c2.svg"
        assert main(["--out", str(o1), "plot", str(trace)]) == 0
        assert main(["--out", str(o2), "plot", str(trace)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_divergent_rows_truncated(self, tmp_path):
        trace = tmp_path / "t.csv"
        with open(trace, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["method", "alpha", "batch", "seed", "epoch", "iteration",
                 "wall_seconds", "loss", "metric", "diverged"]
            )
            writer.writerow(["sgd", "1.0", 4, 0, 0, 0, 0.0, 1.0, "nan", 0])
            writer.writerow(["sgd", "1.0", 4, 0, 1, 1, 0.1, 2.0, "nan", 0])
            writer.writerow(["sgd", "1.0", 4, 0, 2, 2, 0.2, "inf", "nan", 1])
        out = tmp_path / "chart.svg"
        assert main(["--out", str(out), "plot", str(trace)]) == 0
        svg = out.read_text()
        # two finite points survive; the diverged row is dropped
        assert svg.count(",") >= 1
        assert "inf" not in svg

    def test_empty_trace_errors(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        self._write_trace(trace, rows=())
        assert main(["--out", str(tmp_path / "c.svg"), "plot", str(trace)]) != 0

    def test_missing_file_errors(self, tmp_path):
        assert main(["--out", str(tmp_path / "c.svg"), "plot",
                     str(tmp_path / "nope.csv")]) != 0

    def test_round_trip_with_run_output(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config()))
        out = tmp_path / "runs"
        assert main(["--out", str(out), "run", "--config", str(cfg_path)]) == 0
        traces = [str(p) for p in sorted(out.glob("trace_*.csv"))]
        chart = tmp_path / "conv.svg"
        assert main(["--out", str(chart), "plot", *traces,
                     "--x-axis", "wall_seconds"]) == 0
        assert chart.read_text().startswith("<svg")


class TestRenderChart:
    def test_empty_series_list_raises(self):
        with pytest.raises(EmptyTrace):
            render_line_chart([], "x", "y")

    def test_all_nonpositive_values_still_render(self):
        svg = render_line_chart([Series("z", [0, 1], [0.0, -1.0])], "x", "y")
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 0


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_experiment_config(base_config())
        assert cfg.repeat == 1
        assert cfg.stop is None
        assert cfg.integrator.rtol == 1e-4
        assert cfg.integrator.atol == 1e-7
        bare = base_config()
        del bare["methods"]
        assert parse_experiment_config(bare).methods == ["sgd", "splitting"]

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).parents[1] / "demos").glob("config_*.json")),
        ids=lambda p: p.stem,
    )
    def test_demo_configs_parse(self, path):
        """The configs CI runs through the installed script stay valid; the
        least-squares one also runs Kaczmarz."""
        cfg = parse_experiment_config(json.loads(path.read_text()))
        extra = ["kaczmarz"] if path.stem == "config_random_lls" else []
        assert cfg.methods == ["sgd", "splitting", *extra]

    def test_stop_threshold_validation(self):
        bad = base_config(stop={"kind": "relative-residual", "threshold": -1})
        with pytest.raises(ValueError, match="config.stop"):
            parse_experiment_config(bad)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="methods"):
            parse_experiment_config(base_config(methods=["adam"]))
