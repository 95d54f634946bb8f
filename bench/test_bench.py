"""Tests of the benchmark itself: smoke runs at n = 2, the gate, and the tracer.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from noisyqfi import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == \
        {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
        env = json.loads(next(line[4:] for line in proc.stdout.splitlines()
                              if line.startswith("env ")))
        assert env["scale"] == pytest.approx(
            reference.REF_S / statistics.fmean(env["reference_s"]))
        assert result["metrics"]["wall_s"]["value"] == pytest.approx(
            statistics.fmean(env["pass_s"]) * env["scale"])
        ratios = [s / i for s, i in zip(env["setup_samples_s"], env["numpy_import_s"])]
        assert result["metrics"]["setup_s"]["value"] == pytest.approx(
            statistics.median(ratios) * reference.IMPORT_REF_S)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "qfi_dense", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("seed", range(12))
def test_gate_holds_for_any_seed(seed):
    for cls in workloads.WORKLOADS.values():
        work = cls(seed, tiny=True)
        attempted, failures = work.check(work.produce())
        assert attempted == work.cells() and failures == []


def _edit(result, column: str, fn, row: int = 0):
    """Apply fn to one value of a CLI result's CSV output."""
    code, text, err = result
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    fields = lines[1 + row].split(",")
    fields[col] = repr(fn(float(fields[col])))
    lines[1 + row] = ",".join(fields)
    return code, "\n".join(lines) + "\n", err


@pytest.mark.parametrize("name, perturb", [
    ("qfi_dense", lambda raw: [_edit(raw[0], "exact", lambda v: v * (1 + 1e-6)), raw[1]]),
    ("qfi_dense", lambda raw: [raw[0], _edit(raw[1], "h0", lambda v: v * (1 + 1e-6))]),
    ("fit_sweep", lambda raw: _edit(raw, "fitted", lambda v: v * (1 + 1e-4))),
    ("fit_sweep", lambda raw: _edit(raw, "fitted", lambda v: v + 1e-2, row=1)),
    ("measure_grid", lambda raw: _edit(raw, "cfi", lambda v: v * (1 + 1e-5))),
])
def test_gate_catches_a_perturbed_result(name, perturb):
    work = workloads.WORKLOADS[name](5, tiny=True)
    raw = work.produce()
    assert work.check(raw)[1] == []
    attempted, failures = work.check(perturb(raw))
    assert attempted == work.cells() and len(failures) == 1


def test_failed_call_fails_its_cells():
    work = workloads.MeasureGrid(5, tiny=True)
    attempted, failures = work.check((3, "", "numeric failure: boom\n"))
    assert attempted == len(failures) == work.cells()
    assert "boom" in failures[0]


def test_tracer_counts_spans_and_restores_the_program():
    original = (cli.main, cli._RUNNERS["qfi"], cli.protocol_qfi)
    work = workloads.QfiDense(2, tiny=True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main is not original[0]
        raw = work.produce()
    finally:
        tracer.uninstall()
    assert (cli.main, cli._RUNNERS["qfi"], cli.protocol_qfi) == original
    assert work.check(raw)[1] == []
    summary = tracer.summary(work.cells())
    assert summary["protocols.protocol_qfi.calls"] == 2
    assert summary["series.sld_orders.calls_per_cell"] == 1.0
    assert summary["cli.run_qfi.self_s"] > 0.0
    # the layer totals add up to the time spent inside top-level spans
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    layers = sum(summary[f"{layer}.self_s"] for layer in spans.TARGETS)
    assert layers == pytest.approx(roots, rel=1e-9)
