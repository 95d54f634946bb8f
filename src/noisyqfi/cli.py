"""Batch command-line interface.

Subcommands:

* ``qfi``              exact and series QFI over (lambda, purity, n) grids
* ``bounds``           correlated lowest-order bounds vs canonical/grid values
* ``measure``          local measurement CFI vs QFI for correlated protocols
* ``escher``           phase-flip bound demonstration table
* ``fit-orders``       purity-order coefficients fitted from the exact QFI
* ``validate-channel`` physicality checks over a parameter grid

Grids are ``lo:hi:steps``, a single number, or a comma list.  Output is CSV
(header line, ``%.17g`` floats, LF line endings) or JSON; identical configs
produce bit-identical files.  Exit codes: 0 ok, 2 config error, 3 numeric
failure (the message names the failing cell).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .blocks import exact_qfi
from .bloch import ChannelFamily, DomainError, Unitality, validate
from .config import ConfigError, family_from_config, parse_config_text
from .expr import ExprError
from .protocols import (
    VANISHING_QFI,
    correlated,
    escher_phase_flip_demo,
    local_measurement_sim,
    protocol_qfi,
    purity_orders,
    qfi_series,
    sqsc,
)
from .series import (
    BranchError,
    canonical_directions,
    corr_bounds,
    corr_h2,
    corr_h2_grid_max,
    default_fit_purities,
    fit_qfi_orders,
    verify_family_flag,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_COMMANDS = ("qfi", "bounds", "measure", "escher", "fit-orders", "validate-channel")
_CORRELATED_ONLY = ("bounds", "measure")  # n < 2 is a configuration error
_MAX_FIT_COND = 1e12


class NumericError(RuntimeError):
    """A grid cell failed to evaluate; the message names the cell."""


# ---------------------------------------------------------------------------
# option parsing
# ---------------------------------------------------------------------------

def parse_grid(text: str) -> list[float]:
    """Parse 'lo:hi:steps', a single number, or a comma list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid must be lo:hi:steps, got {text!r}")
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
        if steps < 1:
            raise ConfigError(f"grid needs at least one step, got {text!r}")
        return [float(x) for x in np.linspace(lo, hi, steps)]
    return [float(p) for p in text.split(",") if p.strip()]


def parse_int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def parse_vec3(text: str) -> np.ndarray:
    parts = [float(p) for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise ConfigError(f"direction must have three components, got {text!r}")
    v = np.array(parts)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ConfigError("direction must be nonzero")
    return v / norm


@dataclass
class RunConfig:
    command: str
    channel: dict                      # {"name": ..., "params": {...}, "lambda_domain": ...}
    lams: list[float] | None = None
    purities: list[float] | None = None
    ns: list[int] | None = None        # None: the command's default
    c: tuple[float, float, float] | None = None
    r0: tuple[float, float, float] | None = None
    out: str | None = None
    fmt: str = "csv"
    jobs: int = 1
    eps: float | None = None
    max_order: int = 4
    dir_grid: int = 20

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        for name, grid in (("lambda", self.lams), ("purity", self.purities)):
            if grid is not None and len(grid) == 0:
                raise ConfigError(f"{name} grid is empty")
        for name, val in (("jobs", self.jobs), ("max-order", self.max_order),
                          ("dir-grid", self.dir_grid)):
            if val is not None and val <= 0:
                raise ConfigError(f"{name} must be positive, got {val}")
        if self.eps is not None and self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.ns is not None and not self.ns:
            raise ConfigError("n list is empty")
        least = min(self.qubit_counts())
        if least < 1:
            raise ConfigError(f"qubit counts must be >= 1, got {self.ns}")
        if self.command in _CORRELATED_ONLY and least < 2:
            raise ConfigError(
                f"{self.command} needs correlated protocols (n >= 2), got n={least}")

    def qubit_counts(self) -> list[int]:
        """The n list, or the command's default when none was given."""
        if self.ns is not None:
            return self.ns
        return [2] if self.command in _CORRELATED_ONLY else [1]


def _build_family(channel_cfg: dict) -> ChannelFamily:
    section = {"name": channel_cfg["name"]}
    if channel_cfg.get("lambda_domain"):
        section["lambda_domain"] = channel_cfg["lambda_domain"]
    return family_from_config(section, channel_cfg.get("params", {}))


# ---------------------------------------------------------------------------
# cell workers (top level so they survive pickling under --jobs)
# ---------------------------------------------------------------------------

def _cell_name(lam: float, r: float | None, n: int) -> str:
    bits = [f"lambda={lam:g}"]
    if r is not None:
        bits.append(f"r={r:g}")
    bits.append(f"n={n}")
    return ", ".join(bits)


def _spec_for(family: ChannelFamily, lam: float, r: float, n: int,
              c: tuple | None, r0: tuple | None):
    c_vec, r0_vec = canonical_directions(family.eval(lam))
    if r0 is not None:
        r0_vec = np.asarray(r0)
    if c is not None:
        c_vec = np.asarray(c)
    if n == 1:
        return sqsc(family, lam, r, r0_vec)
    return correlated(family, lam, n, r, c_vec, r0_vec)


def _qfi_cell(payload: dict) -> list:
    family = _build_family(payload["channel"])
    lam, r, n = payload["lam"], payload["r"], payload["n"]
    try:
        spec = _spec_for(family, lam, r, n, payload["c"], payload["r0"])
        K = payload["max_order"]
        res = protocol_qfi(spec, K=K, eps=payload["eps"])
        return [lam, r, n, res.exact, res.series_estimate, *res.series.orders]
    except Exception as exc:
        raise NumericError(f"cell {_cell_name(lam, r, n)}: {exc}") from exc


def _measure_cell(payload: dict) -> list:
    family = _build_family(payload["channel"])
    lam, r, n = payload["lam"], payload["r"], payload["n"]
    try:
        spec = _spec_for(family, lam, r, n, payload["c"], payload["r0"])
        qfi = exact_qfi(spec, payload["eps"])
        if qfi <= VANISHING_QFI:
            raise NumericError(
                f"cell {_cell_name(lam, r, n)}: QFI {qfi:.3g} vanishes "
                f"(<= {VANISHING_QFI:g}), so CFI/QFI is undefined")
        rec = local_measurement_sim(spec)
        return [n, lam, r, rec.cfi, qfi, rec.cfi / qfi]
    except NumericError:
        raise
    except Exception as exc:
        raise NumericError(f"cell {_cell_name(lam, r, n)}: {exc}") from exc


def _fit_cell(payload: dict) -> list[list]:
    family = _build_family(payload["channel"])
    lam, n = payload["lam"], payload["n"]
    rs = np.asarray(payload["rs"], dtype=float)
    K = payload["max_order"]
    try:
        ch = family.eval(lam)
        verify_family_flag(family, ch)
        if family.unitality is not Unitality.UNITAL:
            raise BranchError("order fitting is defined for unital channels")
        spec = _spec_for(family, lam, float(rs[-1]), n, payload["c"], payload["r0"])
        # one series per cell: the purity orders do not depend on r
        series = qfi_series(purity_orders(spec, K), K)
        qfis = [exact_qfi(replace(spec, r=float(r)), payload["eps"]) for r in rs]
        fit = fit_qfi_orders(rs, np.asarray(qfis), orders=tuple(range(2, K + 2)))
        if fit.cond > _MAX_FIT_COND:
            raise NumericError(
                f"cell {_cell_name(lam, None, n)}: ill-conditioned fit, "
                f"condition number {fit.cond:.3e}")
        rows = []
        scale = max(max(abs(float(h)) for h in series.orders), 1e-12)
        for j in range(2, K + 1):
            fitted = fit.coeffs[j]
            closed = float(series.orders[j])
            # near-zero closed forms get errors relative to the series scale
            denom = max(abs(closed), 1e-6 * scale)
            rows.append([n, lam, j, fitted, closed, abs(fitted - closed) / denom])
        return rows
    except NumericError:
        raise
    except Exception as exc:
        raise NumericError(f"cell {_cell_name(lam, None, n)}: {exc}") from exc


def _map_cells(fn, payloads: list[dict], jobs: int) -> list:
    if jobs <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, payloads))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _warn_validity(purities, ns) -> None:
    # the truncated series is only trustworthy while n r^2 stays small
    worst = max((n * r * r, n, r) for n in ns for r in purities)
    if worst[0] > 0.1:
        print(f"warning: n*r^2 = {worst[0]:.3g} at n={worst[1]}, r={worst[2]:g} "
              "exceeds 0.1; series columns are outside their validity regime",
              file=sys.stderr)


def run_qfi(cfg: RunConfig) -> tuple[list[str], list[list]]:
    lams = cfg.lams if cfg.lams is not None else [0.5]
    purities = cfg.purities if cfg.purities is not None else [1e-3]
    ns = cfg.qubit_counts()
    _warn_validity(purities, ns)
    header = ["lambda", "r", "n", "exact", "series",
              *[f"h{j}" for j in range(cfg.max_order + 1)]]
    payloads = [
        {"channel": cfg.channel, "lam": lam, "r": r, "n": n, "c": cfg.c,
         "r0": cfg.r0, "eps": cfg.eps, "max_order": cfg.max_order}
        for lam in lams for r in purities for n in ns
    ]
    return header, _map_cells(_qfi_cell, payloads, cfg.jobs)


def run_bounds(cfg: RunConfig) -> tuple[list[str], list[list]]:
    family = _build_family(cfg.channel)
    if family.unitality is not Unitality.UNITAL:
        raise ConfigError(
            f"bounds need a unital channel; {family.name!r} is "
            f"{family.unitality.value} (use the single-qubit closed forms instead)")
    lams = cfg.lams if cfg.lams is not None else [0.5]
    header = ["n", "lambda", "lower", "canonical", "grid_max", "upper", "status"]
    rows = []
    for lam in lams:
        ch = family.eval(lam)
        verify_family_flag(family, ch)
        c_star, r0_star = canonical_directions(ch)
        for n in cfg.qubit_counts():
            lower, upper = corr_bounds(ch, n)
            canon = corr_h2(ch, n, c_star, r0_star)
            gmax = corr_h2_grid_max(ch, n, grid=cfg.dir_grid).value
            ok = lower - 1e-9 <= canon <= gmax <= upper + 1e-9
            rows.append([n, lam, lower, canon, gmax, upper, "pass" if ok else "fail"])
    return header, rows


def run_measure(cfg: RunConfig) -> tuple[list[str], list[list]]:
    lams = cfg.lams if cfg.lams is not None else [0.5]
    purities = cfg.purities if cfg.purities is not None else [1e-3]
    header = ["n", "lambda", "r", "cfi", "qfi", "ratio"]
    payloads = [
        {"channel": cfg.channel, "lam": lam, "r": r, "n": n, "c": cfg.c,
         "r0": cfg.r0, "eps": cfg.eps}
        for lam in lams for r in purities for n in cfg.qubit_counts()
    ]
    return header, _map_cells(_measure_cell, payloads, cfg.jobs)


def run_escher(cfg: RunConfig) -> tuple[list[str], list[list]]:
    lams = cfg.lams if cfg.lams is not None else [float(x) for x in np.linspace(0.05, 0.95, 19)]
    rs = cfg.purities if cfg.purities is not None else [float(x) for x in np.linspace(0.1, 0.9, 9)]
    header = ["lambda", "r", "escher_bound", "exact_qfi", "slack"]
    rows = [[row.lam, row.r, row.bound, row.exact, row.slack]
            for row in escher_phase_flip_demo(lams, rs)]
    return header, rows


def run_fit_orders(cfg: RunConfig) -> tuple[list[str], list[list]]:
    lams = cfg.lams if cfg.lams is not None else [0.5]
    rs = (cfg.purities if cfg.purities is not None
          else [float(x) for x in default_fit_purities()])
    if len(rs) < cfg.max_order:
        raise ConfigError(
            f"order fitting needs at least {cfg.max_order} purity samples, got {len(rs)}")
    header = ["n", "lambda", "order", "fitted", "closed_form", "rel_error"]
    payloads = [
        {"channel": cfg.channel, "lam": lam, "n": n, "rs": rs, "c": cfg.c,
         "r0": cfg.r0, "eps": cfg.eps, "max_order": cfg.max_order}
        for lam in lams for n in cfg.qubit_counts()
    ]
    rows: list[list] = []
    for chunk in _map_cells(_fit_cell, payloads, cfg.jobs):
        rows.extend(chunk)
    return header, rows


def run_validate_channel(cfg: RunConfig) -> tuple[list[str], list[list]]:
    family = _build_family(cfg.channel)
    if cfg.lams is not None:
        lams = cfg.lams
    else:
        lo, hi = family.domain
        pad = max(2.0 * family.fd_step, (hi - lo) * 1e-9)
        lams = [float(x) for x in np.linspace(lo + pad, hi - pad, 101)]
    header = ["lambda", "status", "violations"]
    rows = []
    failures = []
    for lam in lams:
        try:
            report = validate(family.eval(lam))
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        detail = "; ".join(f"{name} (|{mag:.3e}|)" for name, mag in report.failures)
        rows.append([lam, "pass" if report.passed else "fail", detail])
        if not report.passed:
            failures.append(lam)
    if failures:
        raise NumericError(
            f"channel {family.name!r} failed validation at lambda={failures[0]:g} "
            f"({len(failures)} of {len(lams)} grid points)")
    return header, rows


_RUNNERS = {
    "qfi": run_qfi,
    "bounds": run_bounds,
    "measure": run_measure,
    "escher": run_escher,
    "fit-orders": run_fit_orders,
    "validate-channel": run_validate_channel,
}


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def format_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def format_json(command: str, header: list[str], rows: list[list]) -> str:
    def clean(v):
        if isinstance(v, (np.integer,)):
            return int(v)
        if isinstance(v, (np.floating,)):
            return float(v)
        return v

    doc = {
        "command": command,
        "columns": header,
        "rows": [{k: clean(v) for k, v in zip(header, row)} for row in rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def _emit(cfg: RunConfig, header: list[str], rows: list[list]) -> None:
    text = (format_csv(header, rows) if cfg.fmt == "csv"
            else format_json(cfg.command, header, rows))
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="configuration file (flags override it)")
    p.add_argument("--channel", help="builtin channel name")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="channel parameter (repeatable)")
    p.add_argument("--lambda", dest="lam_grid", help="parameter grid lo:hi:steps")
    p.add_argument("--purity", help="purity grid lo:hi:steps")
    p.add_argument("--n", help="comma list of qubit counts")
    p.add_argument("--c", help="control direction x,y,z (normalized)")
    p.add_argument("--r0", help="initial direction x,y,z (normalized)")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), help="output format")
    p.add_argument("--jobs", type=int, help="parallel workers over grid cells")
    p.add_argument("--eps", type=float, help="eigenvalue-pair cutoff for the SLD sum")
    p.add_argument("--max-order", type=int, help="highest purity order K")
    p.add_argument("--dir-grid", type=int, help="direction-grid size for bounds")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisyqfi",
        description="QFI calculations for single-parameter qubit channels "
                    "with low-purity initial states.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        _add_common(p)
    return parser


_RUN_KEYS = {
    "lambda": "lam_grid", "purity": "purity", "n": "n", "c": "c", "r0": "r0",
    "out": "out", "format": "format", "jobs": "jobs", "eps": "eps",
    "max_order": "max_order", "max-order": "max_order", "dir_grid": "dir_grid",
    "dir-grid": "dir_grid", "channel": "channel",
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_channel: dict = {}
    file_params: dict = {}
    file_run: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                sections = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        file_channel = sections.get("channel", {})
        file_params = sections.get("params", {})
        for key, value in sections.get("run", {}).items():
            if key == "command":
                if value != args.command:
                    raise ConfigError(
                        f"config file is for command {value!r}, invoked {args.command!r}")
                continue
            if key not in _RUN_KEYS:
                raise ConfigError(f"unknown [run] option {key!r}")
            file_run[_RUN_KEYS[key]] = value

    def pick(flag_val, file_key):
        return flag_val if flag_val is not None else file_run.get(file_key)

    name = args.channel or file_channel.get("name")
    if name is None and args.command not in ("escher",):
        raise ConfigError("no channel given (use --channel or a config file)")
    params = dict(file_params)
    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    channel = {"name": name or "phase_flip", "params": params}
    if "lambda_domain" in file_channel:
        channel["lambda_domain"] = file_channel["lambda_domain"]

    lam_grid = pick(args.lam_grid, "lam_grid")
    purity = pick(args.purity, "purity")
    n_text = pick(args.n, "n")
    c_text = pick(args.c, "c")
    r0_text = pick(args.r0, "r0")

    def num(flag_val, file_key, cast, default):
        if flag_val is not None:
            return cast(flag_val)
        if file_key in file_run:
            return cast(file_run[file_key])
        return default

    cfg = RunConfig(
        command=args.command,
        channel=channel,
        lams=parse_grid(lam_grid) if lam_grid else None,
        purities=parse_grid(purity) if purity else None,
        ns=parse_int_list(n_text) if n_text else None,
        c=tuple(parse_vec3(c_text)) if c_text else None,
        r0=tuple(parse_vec3(r0_text)) if r0_text else None,
        out=pick(args.out, "out"),
        fmt=pick(args.format, "format") or "csv",
        jobs=num(args.jobs, "jobs", int, 1),
        eps=num(args.eps, "eps", float, None),
        max_order=num(args.max_order, "max_order", int, 4),
        dir_grid=num(args.dir_grid, "dir_grid", int, 20),
    )
    cfg.validate()
    if args.command != "escher":
        family = _build_family(cfg.channel)  # fail fast on bad channel configs
        if cfg.lams is not None:
            for lam in cfg.lams:
                if not family.contains(lam):
                    raise ConfigError(
                        f"lambda={lam:g} outside domain {list(family.domain)} "
                        f"of channel {family.name!r}")
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ConfigError, ExprError, DomainError, BranchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        header, rows = _RUNNERS[cfg.command](cfg)
    except (ConfigError, BranchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, DomainError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    _emit(cfg, header, rows)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
