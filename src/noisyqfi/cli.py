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
produce bit-identical files.  Exit codes, which ``main`` alone decides from the
error's class: 0 ok, 2 ``_CONFIG_ERRORS``, 3 ``NumericError``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .blocks import exact_qfi, exact_qfis
from .bloch import (BlochChannel, ChannelFamily, DomainError, Unitality, _nonfinite_parts,
                    classify_unitality, validate)
from .config import ConfigError, family_from_config, parse_config_text
from .protocols import (
    VANISHING_QFI,
    correlated,
    escher_phase_flip_demo,
    local_measurement_sim,
    protocol_qfi,
    purity_orders,
    sqsc,
)
from .series import (
    DEFAULT_MAX_ORDER,
    BranchError,
    canonical_directions,
    corr_bounds,
    corr_h2,
    corr_h2_grid_max,
    default_fit_purities,
    fit_qfi_orders,
    qfi_orders,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_CORRELATED_ONLY = ("bounds", "measure")  # n < 2 is a configuration error
_MAX_FIT_COND = 1e12
# an input the program cannot take: exit 2, and a cell's error keeps its class
_CONFIG_ERRORS = (ConfigError, BranchError, DomainError)


class NumericError(RuntimeError):
    """A grid cell failed to evaluate; the message names the cell.

    table, when given, is the (header, rows) that the command still prints.
    """

    def __init__(self, message: str, table: tuple[list[str], list[list]] | None = None):
        super().__init__(message)
        self.table = table


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


def parse_vec3(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise ConfigError(f"direction must have three components, got {text!r}")
    v = np.array(parts)
    if not np.isfinite(v).all():
        raise ConfigError(f"direction components must be finite, got {text!r}")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ConfigError("direction must be nonzero")
    return tuple(v / norm)


# long option name -> (RunConfig field, text parser, help).  Every flag and
# every [run] key (the same names, with dashes or underscores) goes through
# this table; the defaults are RunConfig's.
_OPTIONS = {
    "lambda": ("lams", parse_grid, "parameter grid lo:hi:steps"),
    "purity": ("purities", parse_grid, "purity grid lo:hi:steps"),
    "n": ("ns", parse_int_list, "comma list of qubit counts"),
    "c": ("c", parse_vec3, "control direction x,y,z (normalized)"),
    "r0": ("r0", parse_vec3, "initial direction x,y,z (normalized)"),
    "out": ("out", str, "output path (default stdout)"),
    "format": ("fmt", str, "output format: csv or json"),
    "jobs": ("jobs", int, "parallel workers over grid cells"),
    "eps": ("eps", float, "eigenvalue-pair cutoff for the SLD sum"),
    "max-order": ("max_order", int, "highest purity order K"),
    "dir-grid": ("dir_grid", int, "direction-grid size for bounds"),
}


class RunConfig(NamedTuple):
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
    max_order: int = DEFAULT_MAX_ORDER
    dir_grid: int = 20

    def validate(self) -> None:
        if self.command not in _RUNNERS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"--format must be csv or json, got {self.fmt!r}")
        for name, values in (("lambda", self.lams), ("purity", self.purities), ("n", self.ns)):
            if values is not None and len(values) == 0:
                raise ConfigError(f"--{name} list is empty")
        if not all(0.0 <= r <= 1.0 for r in self.purities or ()):
            raise ConfigError(f"--purity values must lie in [0, 1], got {self.purities}")
        for name, val in (("jobs", self.jobs), ("max-order", self.max_order),
                          ("dir-grid", self.dir_grid)):
            if val <= 0:
                raise ConfigError(f"--{name} must be positive, got {val}")
        if self.eps is not None and not 0.0 < self.eps < np.inf:
            raise ConfigError(f"--eps must be positive and finite, got {self.eps}")
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
    return family_from_config(channel_cfg, channel_cfg.get("params"))


# ---------------------------------------------------------------------------
# cell workers (top level so they survive pickling under --jobs); each takes
# the family that ``_run_cell`` builds for it
# ---------------------------------------------------------------------------

def _eval_at(family: ChannelFamily, lam: float) -> BlochChannel:
    """family.eval(lam); a channel that fails to evaluate there is a numeric failure.

    Past ``family.check``, value and arithmetic errors (a ``custom_diag``
    expression such as sqrt(-l)) name the family and lambda.
    """
    family.check(lam)
    try:
        return family.eval(lam)
    except (ValueError, ArithmeticError) as exc:
        raise NumericError(
            f"channel {family.name!r} failed to evaluate at lambda={lam:g}: {exc}") from exc


def _require_unital(command: str, family: ChannelFamily, ch: BlochChannel,
                    lam: float) -> None:
    if (kind := classify_unitality(ch)) is not Unitality.UNITAL:
        raise BranchError(
            f"{command} need a unital channel; {family.name!r} is {kind.value} "
            f"at lambda={lam:g} (use the single-qubit closed forms instead)")


def _spec_for(family: ChannelFamily, lam: float, r: float, n: int,
              c: tuple | None, r0: tuple | None, ch: BlochChannel | None = None):
    # one channel evaluation per cell (ch, when the caller has one): the
    # canonical pair and every view of the spec read it
    ch = family.eval(lam) if ch is None else ch
    if r0 is None or (c is None and n > 1):
        c_star, r0_star = canonical_directions(ch)
    r0_vec = r0_star if r0 is None else np.asarray(r0)
    if n == 1:
        return sqsc(family, lam, r, r0_vec, ch)
    return correlated(family, lam, n, r, c_star if c is None else np.asarray(c), r0_vec, ch)


def _qfi_cell(family: ChannelFamily, cfg: RunConfig, lam: float, r: float, n: int) -> list:
    spec = _spec_for(family, lam, r, n, cfg.c, cfg.r0)
    res = protocol_qfi(spec, K=cfg.max_order, eps=cfg.eps)
    return [lam, r, n, res.exact, res.series_estimate, *res.series.orders]


def _measure_cell(family: ChannelFamily, cfg: RunConfig, lam: float, r: float,
                  n: int) -> list:
    spec = _spec_for(family, lam, r, n, cfg.c, cfg.r0)
    qfi = exact_qfi(spec, cfg.eps)
    if qfi <= VANISHING_QFI:
        raise NumericError(
            f"QFI {qfi:.3g} vanishes (<= {VANISHING_QFI:g}), so CFI/QFI is undefined")
    rec = local_measurement_sim(spec)
    return [n, lam, r, rec.cfi, qfi, rec.cfi / qfi]


def _fit_cell(family: ChannelFamily, cfg: RunConfig, lam: float, r: None,
              n: int) -> list[list]:
    """The order rows of one (lambda, n) cell; its purities are cfg.purities."""
    rs = np.asarray(cfg.purities, dtype=float)
    K = cfg.max_order
    ch = family.eval(lam)
    _require_unital("fit-orders", family, ch, lam)
    spec = _spec_for(family, lam, float(rs[-1]), n, cfg.c, cfg.r0, ch)
    # one series per cell: the purity orders do not depend on r
    series = qfi_orders(purity_orders(spec, K), K)
    qfis = exact_qfis(spec, rs, cfg.eps)  # one block solve for all purities
    fit = fit_qfi_orders(rs, qfis, orders=tuple(range(2, K + 2)))
    if fit.cond > _MAX_FIT_COND:
        raise NumericError(f"ill-conditioned fit, condition number {fit.cond:.3e}")
    rows = []
    scale = max(max(abs(float(h)) for h in series.orders), 1e-12)
    for j in range(2, K + 1):
        fitted = fit.coeffs[j]
        closed = float(series.orders[j])
        # near-zero closed forms get errors relative to the series scale
        denom = abs(closed) if abs(closed) > 1e-6 * scale else scale
        rows.append([n, lam, j, fitted, closed, abs(fitted - closed) / denom])
    return rows


def _run_cell(fn, cfg: RunConfig, lam: float, r: float | None, n: int):
    """fn(family, cfg, lam, r, n) for one grid cell; a failure names the cell, and
    is a NumericError unless it is one of ``_CONFIG_ERRORS``."""
    family = _build_family(cfg.channel)
    try:
        return fn(family, cfg, lam, r, n)
    except Exception as exc:
        kind = type(exc) if isinstance(exc, _CONFIG_ERRORS) else NumericError
        purity = "" if r is None else f"r={r:g}, "
        raise kind(f"cell lambda={lam:g}, {purity}n={n}: {exc}") from exc


def _map_cells(fn, cells: list[tuple], jobs: int) -> list:
    """``_run_cell(fn, cfg, lam, r, n)`` over the cells, in order."""
    if jobs <= 1:
        return [_run_cell(fn, *cell) for cell in cells]
    # imported here: the pool pulls in multiprocessing, which only --jobs > 1 needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(partial(_run_cell, fn), *zip(*cells)))


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
    cells = [(cfg, lam, r, n) for lam in lams for r in purities for n in ns]
    return header, _map_cells(_qfi_cell, cells, cfg.jobs)


def run_bounds(cfg: RunConfig) -> tuple[list[str], list[list]]:
    family = _build_family(cfg.channel)
    lams = cfg.lams if cfg.lams is not None else [0.5]
    header = ["n", "lambda", "lower", "canonical", "grid_max", "upper", "status"]
    rows = []
    failures = []
    for lam in lams:
        ch = _eval_at(family, lam)
        if bad := _nonfinite_parts(ch):
            raise NumericError(
                f"channel {family.name!r} has non-finite {', '.join(bad)} "
                f"at lambda={lam:g}", table=(header, rows))
        _require_unital("bounds", family, ch, lam)
        c_star, r0_star = canonical_directions(ch)
        for n in cfg.qubit_counts():
            lower, upper = corr_bounds(ch, n)
            canon = corr_h2(ch, n, c_star, r0_star)
            gmax = corr_h2_grid_max(ch, n, grid=cfg.dir_grid).value
            ok = lower - 1e-9 <= canon <= gmax <= upper + 1e-9
            rows.append([n, lam, lower, canon, gmax, upper, "pass" if ok else "fail"])
            if not ok:
                failures.append((lam, n))
    if failures:
        lam, n = failures[0]
        raise NumericError(
            f"bounds fail at lambda={lam:g}, n={n} ({len(failures)} of {len(rows)} rows): "
            "they need lower <= canonical <= grid_max <= upper", table=(header, rows))
    return header, rows


def run_measure(cfg: RunConfig) -> tuple[list[str], list[list]]:
    lams = cfg.lams if cfg.lams is not None else [0.5]
    purities = cfg.purities if cfg.purities is not None else [1e-3]
    header = ["n", "lambda", "r", "cfi", "qfi", "ratio"]
    cells = [(cfg, lam, r, n) for lam in lams for r in purities for n in cfg.qubit_counts()]
    return header, _map_cells(_measure_cell, cells, cfg.jobs)


def run_escher(cfg: RunConfig) -> tuple[list[str], list[list]]:
    lams = cfg.lams if cfg.lams is not None else [float(x) for x in np.linspace(0.05, 0.95, 19)]
    rs = cfg.purities if cfg.purities is not None else [float(x) for x in np.linspace(0.1, 0.9, 9)]
    header = ["lambda", "r", "escher_bound", "exact_qfi", "slack"]
    table = escher_phase_flip_demo(lams, rs)
    return header, [[row.lam, row.r, row.bound, row.exact, row.slack] for row in table]


def run_fit_orders(cfg: RunConfig) -> tuple[list[str], list[list]]:
    lams = cfg.lams if cfg.lams is not None else [0.5]
    rs = (cfg.purities if cfg.purities is not None
          else [float(x) for x in default_fit_purities()])
    if cfg.max_order < 2:
        raise ConfigError(
            f"--max-order must be at least 2 for fit-orders (it fits orders 2..K), "
            f"got {cfg.max_order}")
    if len(rs) < cfg.max_order:
        raise ConfigError(
            f"order fitting needs at least {cfg.max_order} purity samples, got {len(rs)}")
    header = ["n", "lambda", "order", "fitted", "closed_form", "rel_error"]
    cfg = cfg._replace(purities=rs)
    cells = [(cfg, lam, None, n) for lam in lams for n in cfg.qubit_counts()]
    return header, [row for rows in _map_cells(_fit_cell, cells, cfg.jobs) for row in rows]


def run_validate_channel(cfg: RunConfig) -> tuple[list[str], list[list]]:
    family = _build_family(cfg.channel)
    if cfg.lams is not None:
        lams = cfg.lams
    else:
        lo, hi = family.domain
        pad = max(2.0 * family.fd_step, (hi - lo) * 1e-9)
        if not lo + pad < hi - pad:
            raise ConfigError(
                f"default lambda grid: padding 2*fd_step={2.0 * family.fd_step:g} at "
                f"each end leaves no grid in domain {list(family.domain)} of channel "
                f"{family.name!r}; give a --lambda grid or a smaller fd_step")
        lams = [float(x) for x in np.linspace(lo + pad, hi - pad, 101)]
    header = ["lambda", "status", "violations"]
    rows = []
    failures = []
    for lam in lams:
        report = validate(_eval_at(family, lam))
        detail = "; ".join(f"{name} (|{mag:.3e}|)" for name, mag in report.failures)
        rows.append([lam, "pass" if report.passed else "fail", detail])
        if not report.passed:
            failures.append(lam)
    if failures:
        raise NumericError(
            f"channel {family.name!r} failed validation at lambda={failures[0]:g} "
            f"({len(failures)} of {len(lams)} grid points)", table=(header, rows))
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
    for name, (field, _, text) in _OPTIONS.items():
        p.add_argument(f"--{name}", dest=field, help=text)


@cache  # parsing leaves the parser as it was, so one serves every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisyqfi",
        description="QFI calculations for single-parameter qubit channels "
                    "with low-purity initial states.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        _add_common(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    sections: dict[str, dict[str, str]] = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                sections = parse_config_text(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    texts = {}
    for key, value in sections.get("run", {}).items():
        if key == "command":
            if value != args.command:
                raise ConfigError(
                    f"config file is for command {value!r}, invoked {args.command!r}")
            continue
        name = key.replace("_", "-")
        if name not in _OPTIONS:
            raise ConfigError(f"unknown [run] option {key!r}")
        texts[name] = value
    texts.update({name: getattr(args, field) for name, (field, _, _) in _OPTIONS.items()
                  if getattr(args, field) is not None})
    fields = {}
    for name, text in texts.items():
        field, parse, _ = _OPTIONS[name]
        try:
            fields[field] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"--{name}: {exc}") from exc

    file_channel = sections.get("channel", {})
    name = args.channel or file_channel.get("name")
    if name is None and args.command not in ("escher",):
        raise ConfigError("no channel given (use --channel or a config file)")
    params = dict(sections.get("params", {}))
    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    channel = {**file_channel, "name": name or "phase_flip", "params": params}
    cfg = RunConfig(command=args.command, channel=channel, **fields)
    cfg.validate()
    if args.command != "escher":
        family = _build_family(cfg.channel)  # fail fast on bad channel configs
        for lam in cfg.lams or ():
            family.check(lam)  # and on a given lambda the family cannot take
    return cfg


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Let glibc keep freed blocks of up to 32 MiB in the heap for reuse.

    By default glibc maps every block above its mmap threshold (128 KiB,
    raised as such blocks are freed) afresh and unmaps it when it is
    freed, and returns a heap top of more than 128 KiB to the system.  A
    cell at n >= 8 frees line-sized arrays and asks for them again, within
    its own series and from one cell to the next, and each time faults the
    memory in anew.  Setting the thresholds keeps that memory for reuse;
    it holds for the whole process.  On any other C library this does
    nothing.
    """
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None or not hasattr(libc, "gnu_get_libc_version"):
        return  # the parameter numbers above are glibc's
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        header, rows = _RUNNERS[cfg.command](cfg)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        if exc.table is not None:
            _emit(cfg, *exc.table)
        return EXIT_NUMERIC
    _emit(cfg, header, rows)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
