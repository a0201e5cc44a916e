"""Tests of the benchmark itself, at toy sizes.

The smoke test runs every workload through ``run.py`` with tracing off and
on and checks that each declared metric is emitted with its unit.  The
other tests hand the output checks deliberately wrong outputs and expect
them to be caught.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(workload, trace, tmp_path):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--tiny", "--out", str(tmp_path)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_source(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", WORKLOADS[0], "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _failures(outcome):
    return [(label, reason) for label, reason in outcome.ops if reason is not None]


def test_lls_check_catches_perturbed_theta(tmp_path):
    wl = workloads.LlsGrid(1, True, tmp_path)
    traces = wl.measure()
    assert _failures(wl.check(traces)) == []
    split = next(i for i, c in enumerate(wl.cells) if c.method == "splitting")
    traces[split].theta = traces[split].theta * (1 + 1e-6)
    assert [label for label, _ in _failures(wl.check(traces))] == ["splitting@0.001"]


def test_classify_check_catches_wrong_theta(tmp_path):
    wl = workloads.Classify(1, True, tmp_path)
    traces = wl.measure()
    assert _failures(wl.check(traces)) == []
    traces[0].theta = -traces[0].theta
    bad = _failures(wl.check(traces))
    assert [label for label, _ in bad] == ["logistic/splitting@0.1"]


def test_bounds_check_catches_perturbed_row(tmp_path):
    wl = workloads.BoundsSweep(1, True, tmp_path)
    sweeps = wl.measure()
    assert _failures(wl.check(sweeps)) == []
    sweeps[1][5, 1] += 1e-6
    bad = _failures(wl.check(sweeps))
    assert [label for label, _ in bad] == ["blocks=4"]
    assert "reference" in bad[0][1]


def test_cli_check_catches_nondeterminism(tmp_path):
    import hostspeed
    import splitopt

    wl = workloads.CliGrid(1, True, tmp_path)
    pace = hostspeed.Paced()
    passes = [wl.cli_pass(1, "a", pace), wl.cli_pass(2, "b")]
    assert splitopt.cli.run is splitopt.optimizers.run
    assert len(pace.ops) == len(wl.cell_files()) - 1
    assert _failures(wl.check(passes)) == []
    path = passes[1]["dir"] / "summary.csv"
    path.write_text(path.read_text().replace("splitting", "splitting ", 1))
    assert [label for label, _ in _failures(wl.check(passes))] == ["determinism"]
    (passes[0]["dir"] / "summary.csv").unlink()
    assert [label for label, _ in _failures(wl.check(passes))] == ["a", "determinism"]


def test_paced_scales_each_operation_by_its_slices():
    import hostspeed

    pace = hostspeed.Paced()
    ref = hostspeed.REF_SLICE_S
    pace.ops, pace.slices, pace.slices_s = [1.0, 2.0], [ref, 2 * ref, ref], 3 * ref
    assert np.isclose(pace.reference_seconds(), 1.0 / 1.5 + 2.0 / 1.5)
    # A 4 s phase: the operations, the two slices before them, and the rest.
    assert np.isclose(pace.outside(4.0), 4.0 - 3.0 - 3 * ref)
    assert np.isclose(pace.reference_seconds(4.0),
                      2.0 + pace.outside(4.0) / (4 / 3))


def test_tracer_restores_every_attribute(tmp_path):
    import splitopt
    import tracer

    before = {name: fn for name, fn in tracer.traced_functions()}
    tr = tracer.Tracer()
    tr.install()
    try:
        assert splitopt.optimizers.lls_local_exact is not before["solvers.lls_local_exact"]
        wl = workloads.LlsGrid(1, True, tmp_path)
        wl.measure(tr.cell)
    finally:
        tr.restore()
    assert tracer.leftover_wrappers() == []
    assert splitopt.optimizers.lls_local_exact is before["solvers.lls_local_exact"]
    assert splitopt.run is before["optimizers.run"]
    counts, times, _ = tracer.layer_metrics(tr.spans(), list(before))
    assert counts["optimizers.run.calls"] == len(wl.cells)
    assert counts["solvers.lls_local_exact.calls"] > 0
    assert np.isclose(times["solvers.lls_local_exact.s"],
                      times["solvers.lls_local_exact.self_s"] + times["linalg.expm_sym.s"])


def test_tracer_loses_no_span_across_threads():
    import threading

    import splitopt
    import tracer

    threads, calls = 8, 300
    m = np.eye(2)
    tr = tracer.Tracer()
    tr.install()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(calls):
                splitopt.linalg.log_norm(m)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(interval)
        tr.restore()
    spans = tr.spans()
    assert len(spans) == threads * calls
    assert len({(s[3], s[4]) for s in spans}) == threads * calls
    counts, _, _ = tracer.layer_metrics(spans, ["linalg.log_norm"])
    assert counts["linalg.log_norm.calls"] == threads * calls
