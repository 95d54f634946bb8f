"""noisyqfi benchmark: one workload per run, or every workload with ``--workload all``.

    python3 bench/run.py --workload qfi_dense --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seconds 40

A run with ``--trace 0`` prints the end-to-end metrics (set-up time, pass
time, peak memory); ``--trace 1`` prints the per-layer metrics of traced
passes.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names, units
and the workload rationale are in ``bench/README.md``.

BLAS is pinned to one thread before numpy is imported, here and in every
child process, because one thread gives the steadiest times on a small box.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Every process of a run shares one CPU, so the reference kernel feels the
# same slow phases of the host as the passes it scales (a phase can hit one
# virtual CPU and not the other).  Children inherit the pin.
NPROC = len(os.sched_getaffinity(0))
PINNED_CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PINNED_CPU})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("qfi_dense", "fit_sweep", "measure_grid")
DEFAULT_SEED = 1
SETUP_SAMPLES = 11      # at most, one before each pass
MIN_SETUP_SAMPLES = 5   # topped up after the last pass when passes are few
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
COUNT_UNITS = {
    "mstate.prep_conjugate.calls": "count",
    "mstate.prep_conjugate.bytes_in": "B_computed",
    "fisher.qfi_exact.calls": "count",
    "protocols.protocol_qfi.calls": "count",
    "protocols.local_measurement_sim.calls": "count",
    "series.sld_orders.calls_per_cell": "calls/cell",
    "cli.cells_failed": "count",
}
SELF_TIME_SPANS = (
    "mstate", "series", "fisher", "protocols", "cli", "bloch",
    "mstate.initial_state", "mstate.initial_state_orders",
    "mstate.prep_conjugate.orders", "mstate.prep_conjugate.fixed",
    "mstate.apply_channel", "mstate.apply_channel_derivative", "mstate.to_dense",
    "series.channel_output_orders", "series.sld_orders", "series.qfi_orders",
    "series.fit_qfi_orders", "series.canonical_directions",
    "fisher.qfi_exact", "fisher.cfi",
    "protocols.build_state", "protocols.protocol_qfi",
    "protocols.local_measurement_sim",
    "cli.main", "cli.run_qfi", "cli.run_measure", "cli.run_fit_orders",
    "cli.format_csv",
    "bloch.ChannelFamily.eval", "bloch.svd3",
)
PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIME_SPANS},
    **COUNT_UNITS,
    "trace.overhead_s": "s",
}


class Tally:
    """Cells attempted and failed across every checked pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, result: tuple[int, list[str]]) -> int:
        attempted, failures = result
        self.attempted += attempted
        self.failures += failures
        return len(failures)


def _require_program() -> None:
    """Exit with an error unless the program's sources sit beside the benchmark."""
    if not (SRC / "noisyqfi" / "__init__.py").is_file():
        sys.exit(f"bench: no noisyqfi sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import noisyqfi
    if Path(noisyqfi.__file__).resolve().parent != SRC / "noisyqfi":
        sys.exit(f"bench: imported noisyqfi from {noisyqfi.__file__}, not {SRC}")


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, samples: dict) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds, **samples,
        "nproc": NPROC, "pinned_cpu": PINNED_CPU, "cpu": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS, "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter imports the program, builds the workload's
# channel families and makes one warm-up call at n = 2
# ---------------------------------------------------------------------------

def setup_sample(name: str, seed: int, start: float) -> dict:
    import workloads
    warm = workloads.WORKLOADS[name](seed, tiny=True)
    raw = warm.produce()
    elapsed = time.perf_counter() - start
    attempted, failures = warm.check(raw)
    return {"setup_s": elapsed, "attempted": attempted, "failures": failures}


class Gauge:
    """The reference kernel (``bench/reference.py``) in a long-lived child process."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "reference.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        return self

    def seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference kernel exited {self.proc.wait()}")
        return float(line)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _child(argv: list[str]) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _timed(workload):
    start = time.perf_counter()
    raw = workload.produce()
    return raw, time.perf_counter() - start


def run_untraced(args, tally: Tally, deadline: float) -> tuple[dict, dict]:
    """Alternate set-up samples, reference calls and timed passes until the deadline.

    The host's speed drifts in phases that last from seconds to minutes, so
    every kind of sample is spread over the whole run, each beside its own
    reference (``bench/reference.py``) to cancel the phase it fell in.
    ``wall_s`` is the mean pass time scaled by
    ``REF_S / mean(reference times)``: a median would report whichever phase
    held most of the run, a mean weighs each phase by its share of it.
    ``setup_s`` is the median ratio of a set-up sample to the fresh
    ``import numpy`` timed right after it, times ``IMPORT_REF_S``.
    """
    import reference
    import workloads

    def setup():
        sample = _child(["--setup-sample", "--workload", args.workload,
                         "--seed", str(args.seed)])
        tally.add((sample["attempted"], sample["failures"]))
        setups.append(sample["setup_s"])
        imports.append(reference.numpy_import_seconds(ROOT))

    cls = workloads.WORKLOADS[args.workload]
    warm = cls(args.seed, tiny=True)
    tally.add(warm.check(warm.produce()))
    work = cls(args.seed, tiny=args.size == "tiny")
    setups, imports, refs, durations = [], [], [], []
    with Gauge() as gauge:
        while True:
            if len(setups) < SETUP_SAMPLES:
                setup()
            raw, seconds = _timed(work)
            durations.append(seconds)
            refs.append(gauge.seconds())
            tally.add(work.check(raw))
            next_setup = statistics.median(setups) if len(setups) < SETUP_SAMPLES else 0.0
            if time.perf_counter() + next_setup + refs[-1] + statistics.median(durations) \
                    > deadline:
                break
    while len(setups) < MIN_SETUP_SAMPLES:
        setup()
    scale = reference.REF_S / statistics.fmean(refs)
    setup_ratio = statistics.median(s / i for s, i in zip(setups, imports))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": setup_ratio * reference.IMPORT_REF_S,
        "wall_s": statistics.fmean(durations) * scale,
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return metrics, {"setup_samples_s": setups, "numpy_import_s": imports,
                     "reference_s": refs, "scale": scale, "pass_s": durations}


def run_traced(args, tally: Tally, deadline: float) -> tuple[dict, dict]:
    """Alternate traced and untraced passes; report medians of the traced ones.

    Each traced pass starts with the n = 2 probe of every workload, so a layer
    that this workload never calls reads the probe's few milliseconds instead
    of an exact zero.  Counts (calls, bytes, calls per cell) cover the
    workload's own pass only.
    """
    import spans
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    warm = cls(args.seed, tiny=True)
    tally.add(warm.check(warm.produce()))
    work = cls(args.seed, tiny=args.size == "tiny")
    probes = [workloads.WORKLOADS[name](args.seed, tiny=True) for name in WORKLOAD_NAMES]

    summaries, traced, untraced = [], [], []
    cells_failed = 0
    while not traced or time.perf_counter() + statistics.median(traced) \
            + statistics.median(untraced) <= deadline:
        tracer = spans.Tracer()
        tracer.install()
        try:
            probe_raw = [probe.produce() for probe in probes]
            tracer.start_counting()
            raw, seconds = _timed(work)
        finally:
            tracer.uninstall()
        for probe, out in zip(probes, probe_raw):
            tally.add(probe.check(out))
        cells_failed += tally.add(work.check(raw))
        summaries.append(tracer.summary(work.cells()))
        traced.append(seconds)

        raw, seconds = _timed(work)
        cells_failed += tally.add(work.check(raw))
        untraced.append(seconds)

    metrics = {}
    for name in PER_LAYER_UNITS:
        values = [s[name] for s in summaries if name in s]
        if values:
            metrics[name] = statistics.median(values)
    metrics["cli.cells_failed"] = cells_failed
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics, {"traced_pass_s": traced, "pass_s": untraced}


def run_one(args) -> int:
    deadline = time.perf_counter() + args.seconds
    tally = Tally()
    runner = run_traced if args.trace else run_untraced
    metrics, samples = runner(args, tally, deadline)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")

    print("env " + json.dumps(environment(args, samples), sort_keys=True))
    for failure in tally.failures:
        print(f"FAILED {failure}")
    failed = len(tally.failures)
    print(f"cells attempted {tally.attempted}, failed {failed}, "
          f"failed_frac {failed / tally.attempted:.6g}")
    for name in units:
        print(f"{name} {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload, untraced and traced, each in a fresh process."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = _child(["--workload", name, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(trace),
                             "--size", args.size])
            ok = ok and result["correct"]
            frac = result["failed"] / result["attempted"]
            print(f"{name} trace={trace} cells={result['attempted']} "
                  f"failed={result['failed']} failed_frac={frac:.6g}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:44s} {entry['value']:.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="time budget of one run; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at n = 2 (smoke test)")
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    _require_program()
    if args.setup_sample:
        print(json.dumps(setup_sample(args.workload, args.seed, start)))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
