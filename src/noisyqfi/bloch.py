"""Bloch-sphere representation of single-qubit channels.

A qubit state is (I + r * u.sigma)/2 with purity r and unit direction u;
a channel acts affinely on the Bloch vector, u -> r*M@u + d, where M is a
real 3x3 matrix and d a real shift vector.  A channel family maps a scalar
parameter to (M, d) together with the parameter derivatives (dM, dd).

Physicality constraints enforced here: |d| <= 1, and |d| = 1 forces M = 0.
Complete positivity of user-supplied families is NOT checked; that guarantee
is the caller's.  Builtin families are completely positive by construction.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, NamedTuple

import numpy as np

from .expr import compile_expr

__all__ = [
    "Unitality",
    "BlochChannel",
    "ValidationReport",
    "SvdDecomp",
    "ChannelFamily",
    "DomainError",
    "validate",
    "apply_bloch",
    "svd3",
    "fd_derivative",
    "builtin",
    "classify_unitality",
    "BUILTIN_NAMES",
]

DEFAULT_TOL = 1e-9
_ZERO_TOL = 1e-12  # d or dd of a smaller norm counts as identically zero


class DomainError(ValueError):
    """A value outside what the program can evaluate: a parameter or a qubit count."""


class _ReadOnly:
    """A holder whose attributes ``__init__`` sets once, through ``vars(self)``.

    Assigning or deleting one afterwards raises AttributeError, as on a
    record; instances compare by identity.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {type(self).__name__}.{name}: it is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}: it is read-only")

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={v!r}" for k, v in vars(self).items()
                          if k not in type(self).__dict__)  # skip cached properties
        return f"{type(self).__name__}({shown})"


class Unitality(enum.Enum):
    UNITAL = "unital"
    NONUNITAL_PARAM_SHIFT = "nonunital_param_shift"
    NONUNITAL_CONST_SHIFT = "nonunital_const_shift"


def _real(x, name: str) -> np.ndarray:
    """x as a new float array; a complex entry is an error, not its real part.

    A negative number to a fractional power (the expression (-l)^0.5) is
    complex in Python.
    """
    a = np.array(x)
    if a.dtype.kind == "c":
        if np.count_nonzero(a.imag):
            raise ValueError(f"{name} has a complex entry: {a[a.imag != 0].flat[0]}")
        a = a.real.copy()
    return a.astype(float, copy=False)


def _as_matrix(x, name: str) -> np.ndarray:
    a = _real(x, name)
    if a.shape != (3, 3):
        raise ValueError(f"{name} must be 3x3, got shape {a.shape}")
    a.flags.writeable = False
    return a


def _as_vector(x, name: str) -> np.ndarray:
    a = _real(x, name)
    if a.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {a.shape}")
    a.flags.writeable = False
    return a


class BlochChannel(_ReadOnly):
    """A single-qubit channel at one parameter value, plus derivatives:
    read-only float copies of M, d, dM and dd."""

    def __init__(self, M, d, dM, dd):
        vars(self).update(M=_as_matrix(M, "M"), d=_as_vector(d, "d"),
                          dM=_as_matrix(dM, "dM"), dd=_as_vector(dd, "dd"))


def _nonfinite_parts(ch: BlochChannel) -> list[str]:
    """The names of the channel's arrays (M, d, dM, dd) with a non-finite entry."""
    return [name for name in ("M", "d", "dM", "dd")
            if not np.all(np.isfinite(getattr(ch, name)))]


class ValidationReport(NamedTuple):
    passed: bool
    failures: tuple[tuple[str, float], ...]

    def __bool__(self) -> bool:
        return self.passed


def validate(channel: BlochChannel) -> ValidationReport:
    """Check the physicality constraints on a Bloch channel.

    Reports (never raises): the largest singular value of M <= 1 + tol,
    |d| <= 1 + tol, the implication |d| = 1 => M = 0, and finiteness of all
    entries, with tol = DEFAULT_TOL.  Each violated constraint is listed
    with the magnitude of the violation.  The singular value bound is
    necessary for any channel: the images M a + d and -M a + d of opposite
    unit vectors lie 2 |M a| apart, and both must lie in the Bloch ball.
    """
    failures: list[tuple[str, float]] = []
    for name, arr in (("M", channel.M), ("d", channel.d),
                      ("dM", channel.dM), ("dd", channel.dd)):
        if not np.all(np.isfinite(arr)):
            failures.append((f"{name} finite", float(np.sum(~np.isfinite(arr)))))
    if not failures:
        smax = float(np.linalg.norm(channel.M, 2))
        if smax > 1.0 + DEFAULT_TOL:
            failures.append(("largest singular value of M <= 1", smax - 1.0))
        dnorm = float(np.linalg.norm(channel.d))
        if dnorm > 1.0 + DEFAULT_TOL:
            failures.append(("|d| <= 1", dnorm - 1.0))
        elif dnorm > 1.0 - DEFAULT_TOL:
            mmax = float(np.max(np.abs(channel.M)))
            if mmax > DEFAULT_TOL:
                failures.append(("|d| = 1 requires M = 0", mmax))
    return ValidationReport(passed=not failures, failures=tuple(failures))


def _unit_vector(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > DEFAULT_TOL:
        raise ValueError(f"{name} must be a unit 3-vector, got {v!r}")
    return v


def apply_bloch(channel: BlochChannel, r: float, r_i: np.ndarray) -> np.ndarray:
    """Map a Bloch vector of purity r and unit direction r_i through the channel."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"purity must lie in [0, 1], got {r}")
    return r * (channel.M @ _unit_vector(r_i, "r_i")) + channel.d


class SvdDecomp(NamedTuple):
    """Deterministic SVD of a real 3x3 matrix, input = A @ diag(S) @ B.

    S is sorted descending; the sign ambiguity is resolved by forcing the
    largest-magnitude entry of each right-singular vector (row of B) to be
    positive.  With e1, e2, e3 the axes carrying s1, s2, s3 in the diagonal
    frame, the principal input direction for s1 is B.T @ e1 and the
    corresponding output direction is A @ e1.
    """

    A: np.ndarray
    S: np.ndarray
    B: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.A @ np.diag(self.S) @ self.B


def svd3(M: np.ndarray) -> SvdDecomp:
    """SVD of a real 3x3 matrix with a fixed sign/ordering convention."""
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3) or not np.all(np.isfinite(M)):
        raise ValueError("svd3 requires a finite 3x3 real matrix")
    U, s, Vh = np.linalg.svd(M)
    for i in range(3):
        j = int(np.argmax(np.abs(Vh[i])))
        if Vh[i, j] < 0.0:
            Vh[i] = -Vh[i]
            U[:, i] = -U[:, i]
    for a in (U, s, Vh):
        a.flags.writeable = False
    return SvdDecomp(A=U, S=s, B=Vh)


def fd_derivative(
    value: Callable[[float], tuple[np.ndarray, np.ndarray]],
    lam0: float,
    h: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference derivative of a (M, d) family at lam0."""
    if not 0.0 < h < math.inf:
        raise ValueError("fd step must be finite and positive")
    Mp, dp = value(lam0 + h)
    Mm, dm = value(lam0 - h)
    dM = (_real(Mp, "M") - _real(Mm, "M")) / (2.0 * h)
    dd = (_real(dp, "d") - _real(dm, "d")) / (2.0 * h)
    return dM, dd


def classify_unitality(channel: BlochChannel) -> Unitality:
    """Classify one channel evaluation by the magnitudes of d and dd.

    A vector of norm below 1e-12 counts as zero; this is the one test of
    unitality that every branch check goes through.
    """
    d_zero, dd_zero = (np.linalg.norm(v) < _ZERO_TOL for v in (channel.d, channel.dd))
    if not dd_zero:
        return Unitality.NONUNITAL_PARAM_SHIFT
    return Unitality.UNITAL if d_zero else Unitality.NONUNITAL_CONST_SHIFT


class ChannelFamily(_ReadOnly):
    """A parameterized channel: lam -> BlochChannel over a closed domain.

    value(lam) gives (M, d) and deriv(lam) (dM, dd); without deriv the
    derivative is a central difference of step fd_step.  The domain must be
    finite with lo < hi and fd_step finite and positive, and without deriv
    the stencil, 2 fd_step wide, must fit in the domain.  A family carries
    no unitality class: that is ``classify_unitality(family.eval(lam))``.
    """

    def __init__(self, name: str, domain: tuple[float, float],
                 value: Callable[[float], tuple[np.ndarray, np.ndarray]],
                 deriv: Callable[[float], tuple[np.ndarray, np.ndarray]] | None = None,
                 fd_step: float = 1e-6, params: dict | None = None):
        lo, hi = domain = tuple(domain)
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"domain must be finite with lo < hi, got {list(domain)}")
        if not 0.0 < fd_step < math.inf:
            raise ValueError(f"fd_step must be positive and finite, got {fd_step}")
        if deriv is None and 2.0 * fd_step > hi - lo:
            raise ValueError(f"central difference with fd_step={fd_step} fits nowhere "
                             f"in domain {list(domain)}")
        vars(self).update(name=name, domain=domain, value=value, deriv=deriv,
                          fd_step=fd_step, params={} if params is None else params)

    def check(self, lam: float) -> None:
        """Raise DomainError unless the family can be evaluated at lam: lam, and
        lam -+ fd_step without deriv, must lie in the domain widened by 1e-12."""
        lo, hi = self.domain
        if not lo - 1e-12 <= lam <= hi + 1e-12:
            raise DomainError(
                f"lambda={lam:g} outside domain {list(self.domain)} of channel {self.name!r}")
        h = self.fd_step
        if self.deriv is None and not lo - 1e-12 <= lam - h <= lam + h <= hi + 1e-12:
            raise DomainError(
                f"central difference at {lam} with h={h} leaves domain [{lo}, {hi}]")

    def contains(self, lam: float) -> bool:
        try:
            self.check(lam)
        except DomainError:
            return False
        return True

    def eval(self, lam: float) -> BlochChannel:
        self.check(lam)
        M, d = self.value(lam)
        if self.deriv is not None:
            dM, dd = self.deriv(lam)
        else:
            dM, dd = fd_derivative(self.value, lam, self.fd_step)
        return BlochChannel(M, d, dM, dd)


def _phase_shift_family() -> ChannelFamily:
    def value(lam):
        c, s = math.cos(lam), math.sin(lam)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]), np.zeros(3)

    def deriv(lam):
        c, s = math.cos(lam), math.sin(lam)
        return np.array([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]]), np.zeros(3)

    return ChannelFamily("phase_shift", (-2.0 * math.pi, 2.0 * math.pi), value, deriv)


def _phase_flip_family() -> ChannelFamily:
    def value(lam):
        return np.diag([1.0 - 2.0 * lam, 1.0 - 2.0 * lam, 1.0]), np.zeros(3)

    def deriv(lam):
        return np.diag([-2.0, -2.0, 0.0]), np.zeros(3)

    return ChannelFamily("phase_flip", (0.0, 1.0), value, deriv)


def _depolarizing_family() -> ChannelFamily:
    def value(lam):
        return lam * np.eye(3), np.zeros(3)

    def deriv(lam):
        return np.eye(3), np.zeros(3)

    return ChannelFamily("depolarizing", (0.0, 1.0), value, deriv)


# Keep the gad parameter strictly below 1 so dM stays finite on the domain.
_GAD_LAM_MAX = 1.0 - 1e-6


def _gad_family(p: float) -> ChannelFamily:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"gad excitation probability p must lie in [0, 1], got {p}")
    shift = 2.0 * p - 1.0

    def value(lam):
        root = math.sqrt(1.0 - lam)
        return (np.diag([root, root, 1.0 - lam]),
                np.array([0.0, 0.0, lam * shift]))

    def deriv(lam):
        droot = -0.5 / math.sqrt(1.0 - lam)
        return (np.diag([droot, droot, -1.0]),
                np.array([0.0, 0.0, shift]))

    return ChannelFamily("gad", (0.0, _GAD_LAM_MAX), value, deriv, params={"p": p})


def _pauli_family(lam_on: str, **fixed: float) -> ChannelFamily:
    """Pauli channel with one error probability designated as the parameter.

    The two remaining non-identity probabilities are fixed; the identity
    probability absorbs the rest.  Example: lam_on="z", px=0, py=0 is the
    phase-flip channel.
    """
    lam_on = lam_on.lower()
    if lam_on not in ("x", "y", "z"):
        raise ValueError(f"pauli lam_on must be one of x, y, z, got {lam_on!r}")
    others = [a for a in ("x", "y", "z") if a != lam_on]
    probs = {a: float(fixed.pop(f"p{a}", 0.0)) for a in others}
    if fixed:
        raise ValueError(f"unknown pauli parameters: {sorted(fixed)}")
    if any(v < 0.0 for v in probs.values()) or sum(probs.values()) > 1.0:
        raise ValueError(f"fixed pauli probabilities invalid: {probs}")

    def value(lam):
        p = dict(probs)
        p[lam_on] = lam
        m = np.diag([1.0 - 2.0 * (p["y"] + p["z"]),
                     1.0 - 2.0 * (p["x"] + p["z"]),
                     1.0 - 2.0 * (p["x"] + p["y"])])
        return m, np.zeros(3)

    def deriv(lam):
        dm = np.diag([0.0 if lam_on == "x" else -2.0,
                      0.0 if lam_on == "y" else -2.0,
                      0.0 if lam_on == "z" else -2.0])
        return dm, np.zeros(3)

    hi = 1.0 - sum(probs.values())
    return ChannelFamily("pauli", (0.0, hi), value, deriv,
                         params={"lam_on": lam_on, **{f"p{a}": probs[a] for a in others}})


def _custom_diag_family(mx: str, my: str, mz: str,
                        domain: tuple[float, float] = (0.0, 1.0),
                        fd_step: float = 1e-6) -> ChannelFamily:
    """Unital diagonal family from three expressions in the parameter.

    Only the Bloch constraints are checked at evaluation time; complete
    positivity is the caller's responsibility.
    """
    fns = [compile_expr(src) for src in (mx, my, mz)]

    def value(lam):
        return np.diag([fn(lam) for fn in fns]), np.zeros(3)

    return ChannelFamily("custom_diag", domain, value, fd_step=fd_step,
                         params={"mx": mx, "my": my, "mz": mz})


BUILTIN_NAMES = ("phase_shift", "phase_flip", "depolarizing", "gad", "pauli",
                 "custom_diag")


def builtin(name: str, **params) -> ChannelFamily:
    """Construct a builtin channel family by name.

    phase_shift     rotation about z through the parameter angle
    phase_flip      M = diag(1-2*lam, 1-2*lam, 1)
    depolarizing    M = lam * I
    gad             generalized amplitude damping; takes p (excitation prob.)
    pauli           takes lam_on plus fixed probabilities for the other two
    custom_diag     takes mx, my, mz expressions and optional domain, fd_step
    """
    if name == "pauli":
        return _pauli_family(params.pop("lam_on", "z"), **params)
    if name == "custom_diag":
        return _custom_diag_family(**params)
    if name == "phase_shift":
        fam = _phase_shift_family()
    elif name == "phase_flip":
        fam = _phase_flip_family()
    elif name == "depolarizing":
        fam = _depolarizing_family()
    elif name == "gad":
        fam = _gad_family(float(params.pop("p", 1.0)))
    else:
        raise ValueError(f"unknown channel name {name!r}; choose from {BUILTIN_NAMES}")
    if params:
        raise ValueError(f"unexpected parameters for {name}: {sorted(params)}")
    return fam
