"""Benchmark workloads: inputs drawn from a seed, one timed pass, and the gate.

Each workload object is built from ``(seed, tiny)``.  ``produce()`` is the
timed part: it drives the program's CLI in this process exactly as a user
would and returns the raw outputs.  ``check(raw)`` is the correctness gate;
it returns the number of cells attempted and one message per failed cell.  The gate's tolerances are
fixed constants that hold for every seed, because the seed only moves the
channel parameters inside intervals where the checked identities hold.

``tiny=True`` shrinks every qubit count to 2.  It is the warm-up call of the
set-up, the probe of the traced run and the smoke mode of the tests.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

from noisyqfi import builtin, cli
from noisyqfi.protocols import measurement_cfi_lowest_order_general
from noisyqfi.series import canonical_directions, corr_h2, sqsc_nonunital_h0

PURITY = 1e-3
MAX_ORDER = 4
TINY_N = 2

# Parameter intervals inside every channel's domain.  They stay away from the
# points where a channel degenerates (phase_flip at 1/2 erases the xy plane,
# depolarizing at 0 erases everything, gad's dM diverges as lambda -> 1), so
# the cost of a cell and the gate's margins do not depend on the seed.
LAMBDA_RANGES = {
    "phase_flip": (0.1, 0.4),
    "gad": (0.1, 0.6),
    "depolarizing": (0.2, 0.8),
}

# Gate tolerances, each with the largest deviation seen on the seed commit.
TOL_SERIES = 1e-9        # |exact - series| / exact; seen 2e-11
TOL_CLOSED = 1e-9        # series orders vs closed forms; seen exact equality
TOL_FIT_H2 = 1e-6        # fitted vs series order 2; seen 1.3e-8
TOL_FIT_H3 = 1e-3        # |fitted order 3| / series h2 (order 3 is 0); seen 1.2e-5
TOL_FIT_H4 = 2e-2        # fitted vs series order 4, on max(|h4|, h2); seen 2.5e-3
# CFI / QFI may exceed 1 because dp comes from a finite difference; the excess
# seen is below 1e-8 and is a known defect of the measure command, not of
# this benchmark, so the gate allows it.
TOL_RATIO = 1e-6         # |CFI/QFI - 1|; seen 7.5e-9
TOL_LOWEST = 1e-4        # CFI vs lowest-order CFI r^2, relative; seen 6e-6


def draw_lambda(rng: random.Random, channel: str) -> float:
    lo, hi = LAMBDA_RANGES[channel]
    return lo + (hi - lo) * rng.random()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI invocation in this process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash fails the invocation's cells, like exit 3
            return 1, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def parse_csv(text: str) -> list[dict[str, float]]:
    lines = text.splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def _grid(values) -> str:
    return ",".join(repr(v) for v in values)


def _rel_err(got: float, want: float, scale: float) -> float:
    return abs(got - want) / scale if scale > 0 else math.inf


class Workload:
    """Base class: cells() counts the cells one pass attempts."""

    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")

    def cells(self) -> int:
        raise NotImplementedError

    def produce(self):
        raise NotImplementedError

    def check(self, raw) -> tuple[int, list[str]]:
        raise NotImplementedError


def _check_cli_rows(label: str, result: tuple[int, str, str], keys: list[tuple],
                    key_of, check_row) -> list[str]:
    """Match CSV rows to the expected cell keys and gate each cell.

    A failed invocation fails every cell it was asked for.
    """
    code, text, err = result
    if code != 0:
        msg = err.strip().splitlines()[-1] if err.strip() else "no message"
        return [f"{label} {key}: exit code {code}: {msg}" for key in keys]
    by_key: dict[tuple, list[dict]] = {}
    for row in parse_csv(text):
        by_key.setdefault(key_of(row), []).append(row)
    failures = []
    for key in keys:
        rows = by_key.pop(key, None)
        if rows is None:
            failures.append(f"{label} {key}: no output row")
            continue
        problem = check_row(key, rows)
        if problem:
            failures.append(f"{label} {key}: {problem}")
    failures.extend(f"{label} {key}: unexpected output row" for key in by_key)
    return failures


class QfiDense(Workload):
    """CLI ``qfi`` at the dense size for one unital and one non-unital channel."""

    name = "qfi_dense"
    CHANNELS = (("phase_flip", {}), ("gad", {"p": 0.8}))

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        self.ns = (TINY_N,) if tiny else (9,)
        self.lams = {ch: draw_lambda(self.rng, ch) for ch, _ in self.CHANNELS}
        self.families = {ch: builtin(ch, **params) for ch, params in self.CHANNELS}

    def cells(self) -> int:
        return len(self.CHANNELS) * len(self.ns)

    def produce(self):
        outputs = []
        for ch, params in self.CHANNELS:
            argv = ["qfi", "--channel", ch, "--lambda", repr(self.lams[ch]),
                    "--purity", repr(PURITY), "--n", _grid(self.ns),
                    "--max-order", str(MAX_ORDER), "--jobs", "1"]
            for key, value in params.items():
                argv += ["--param", f"{key}={value!r}"]
            outputs.append(run_cli(argv))
        return outputs

    def check(self, raw) -> tuple[int, list[str]]:
        failures = []
        for (ch, _), result in zip(self.CHANNELS, raw):
            lam = self.lams[ch]
            bloch_ch = self.families[ch].eval(lam)

            def check_row(key, rows, ch=ch, bloch_ch=bloch_ch):
                if len(rows) != 1:
                    return f"{len(rows)} rows"
                row = rows[0]
                n = key[2]
                exact, h = row["exact"], [row[f"h{j}"] for j in range(MAX_ORDER + 1)]
                if not exact > 0.0 or not math.isfinite(exact):
                    return f"exact QFI {exact}"
                if _rel_err(row["series"], exact, exact) > TOL_SERIES:
                    return f"series {row['series']!r} vs exact {exact!r}"
                if ch == "phase_flip":
                    c, r0 = canonical_directions(bloch_ch)
                    h2 = corr_h2(bloch_ch, n, c, r0)
                    if _rel_err(h[2], h2, h2) > TOL_CLOSED:
                        return f"h2 {h[2]!r} vs corr_h2 {h2!r}"
                    if max(abs(h[0]), abs(h[1]), abs(h[3])) > TOL_CLOSED * h2:
                        return f"odd or zeroth orders nonzero: {h[:4]}"
                else:
                    h0 = sqsc_nonunital_h0(bloch_ch)
                    if _rel_err(h[0], h0, h0) > TOL_CLOSED:
                        return f"h0 {h[0]!r} vs sqsc_nonunital_h0 {h0!r}"
                    if abs(h[1]) > TOL_CLOSED * h0:
                        return f"h1 {h[1]!r} nonzero"
                return None

            keys = [(lam, PURITY, n) for n in self.ns]
            failures += _check_cli_rows(
                f"qfi {ch}", result, keys,
                lambda row: (row["lambda"], row["r"], int(row["n"])), check_row)
        return self.cells(), failures


class FitSweep(Workload):
    """CLI ``fit-orders`` on depolarizing: 9 purities per (lambda, n) cell."""

    name = "fit_sweep"
    CHANNEL = "depolarizing"

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        self.ns = (TINY_N,) if tiny else (4, 6, 7)
        self.lams = tuple(draw_lambda(self.rng, self.CHANNEL) for _ in range(3))
        self.family = builtin(self.CHANNEL)

    def cells(self) -> int:
        return len(self.lams) * len(self.ns)

    def produce(self):
        return run_cli(["fit-orders", "--channel", self.CHANNEL,
                        "--lambda", _grid(self.lams), "--n", _grid(self.ns),
                        "--max-order", str(MAX_ORDER), "--jobs", "1"])

    def check(self, raw) -> tuple[int, list[str]]:
        def check_row(key, rows):
            lam, n = key
            by_order = {int(row["order"]): row for row in rows}
            if sorted(by_order) != list(range(2, MAX_ORDER + 1)) or len(rows) != len(by_order):
                return f"orders {sorted(int(row['order']) for row in rows)}"
            ch = self.family.eval(lam)
            c, r0 = canonical_directions(ch)
            h2 = corr_h2(ch, n, c, r0)
            o2, o3, o4 = by_order[2], by_order[3], by_order[4]
            if _rel_err(o2["closed_form"], h2, h2) > TOL_CLOSED:
                return f"series h2 {o2['closed_form']!r} vs corr_h2 {h2!r}"
            if _rel_err(o2["fitted"], o2["closed_form"], h2) > TOL_FIT_H2:
                return f"fitted h2 {o2['fitted']!r} vs {o2['closed_form']!r}"
            if abs(o3["closed_form"]) > TOL_CLOSED * h2:
                return f"series h3 {o3['closed_form']!r} nonzero"
            if abs(o3["fitted"]) > TOL_FIT_H3 * h2:
                return f"fitted h3 {o3['fitted']!r} against scale {h2!r}"
            scale4 = max(abs(o4["closed_form"]), h2)
            if _rel_err(o4["fitted"], o4["closed_form"], scale4) > TOL_FIT_H4:
                return f"fitted h4 {o4['fitted']!r} vs {o4['closed_form']!r}"
            return None

        keys = [(lam, n) for lam in self.lams for n in self.ns]
        failures = _check_cli_rows(
            f"fit-orders {self.CHANNEL}", raw, keys,
            lambda row: (row["lambda"], int(row["n"])), check_row)
        return self.cells(), failures


class MeasureGrid(Workload):
    """CLI ``measure`` on phase_flip: measured CFI against the exact QFI."""

    name = "measure_grid"
    CHANNEL = "phase_flip"

    def __init__(self, seed: int, tiny: bool):
        super().__init__(seed)
        self.ns = (TINY_N,) if tiny else (6, 8, 9)
        self.lams = (draw_lambda(self.rng, self.CHANNEL),)
        self.family = builtin(self.CHANNEL)

    def cells(self) -> int:
        return len(self.lams) * len(self.ns)

    def produce(self):
        return run_cli(["measure", "--channel", self.CHANNEL,
                        "--lambda", _grid(self.lams), "--purity", repr(PURITY),
                        "--n", _grid(self.ns), "--max-order", str(MAX_ORDER),
                        "--jobs", "1"])

    def check(self, raw) -> tuple[int, list[str]]:
        def check_row(key, rows):
            lam, n = key
            if len(rows) != 1:
                return f"{len(rows)} rows"
            row = rows[0]
            if row["r"] != PURITY:
                return f"purity {row['r']!r}"
            if not row["qfi"] > 0.0:
                return f"QFI {row['qfi']!r}"
            ratio = row["cfi"] / row["qfi"]
            if abs(ratio - 1.0) > TOL_RATIO or abs(row["ratio"] - ratio) > 1e-12 * ratio:
                return f"CFI/QFI {ratio!r}, reported {row['ratio']!r}"
            return _check_lowest_order(self.family, lam, n, row["cfi"])

        keys = [(lam, n) for lam in self.lams for n in self.ns]
        failures = _check_cli_rows(
            f"measure {self.CHANNEL}", raw, keys,
            lambda row: (row["lambda"], int(row["n"])), check_row)
        return self.cells(), failures


def _check_lowest_order(family, lam: float, n: int, cfi: float) -> str | None:
    ch = family.eval(lam)
    c, r0 = canonical_directions(ch)
    want = measurement_cfi_lowest_order_general(ch, n, c, r0) * PURITY ** 2
    if _rel_err(cfi, want, want) > TOL_LOWEST:
        return f"CFI {cfi!r} vs lowest order {want!r}"
    return None


WORKLOADS = {cls.name: cls for cls in (QfiDense, FitSweep, MeasureGrid)}
