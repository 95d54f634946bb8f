"""End-to-end estimation protocols and their comparison.

Two protocol shapes are supported, told apart by the qubit count n:

* n = 1: single qubit, single channel invocation (the baseline), with no
  control direction c, and
* n >= 2: the symmetric pairwise correlated protocol, with a control
  direction c: n qubits in the same product state, the pairwise preparation
  gate applied to every qubit pair, then one channel invocation on qubit 0.

No view changes under one rotation of every qubit, so each protocol is
built in the frame of c (``ProtocolSpec.in_frame``), where the preparation
is the complete-graph CZ circuit and r0 has no v component.  The state
comes from two builders, both on nonzero Pauli strings: ``build_state`` at
fixed purity (at most 3^n strings, for the measurement) and
``purity_orders`` (for the series coefficients, which do not depend on the
purity; each order is kept as strings until it is transformed to its XOR
lines).  The exact QFI comes from the state's 4x4 pieces
when c is perpendicular to r0, and from its Schur-Weyl blocks otherwise
(``blocks.exact_qfi``, or ``blocks.exact_qfis`` for a purity sweep): small
eigensystems in place of the 2^n one.  The local measurement scheme
re-applies the preparation after the channel and measures every
qubit along the initial direction; outcomes are grouped by the sign of
qubit 0 and the number of + results among the rest, which is lossless
because the state is symmetric under any permutation of qubits 1..n-1.
Each string's share of the grouped outcomes follows from its letter counts
(``_outcomes``), so no array of all 2^n outcomes or 4^n strings is formed.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .blocks import PERPENDICULAR_TOL, exact_qfi
from .bloch import (BlochChannel, ChannelFamily, DomainError, Unitality, _as_vector,
                    _nonfinite_parts, _ReadOnly, _unit_vector, classify_unitality, svd3)
from .fisher import ProbModel, cfi
from .mstate import (
    OrderedState,
    PauliStrings,
    _bits_of_digits,
    _check_dense_cap,
    _frame,
    apply_channel,
    apply_channel_derivative,
    initial_state,
    initial_state_orders,
    prep_conjugate,
)
from .series import (
    BranchError,
    DEFAULT_MAX_ORDER,
    QfiSeries,
    StateOrders,
    channel_output_orders,
    corr_gain_ratio,
    qfi_orders,
    require_unital,
    sqsc_nonunital_h0,
)

# a QFI at or below this is rounding noise: no ratio over it is defined
VANISHING_QFI = 1e-30
_GAIN_MARGIN = 0.02     # relative slack of ``compare``'s gain-bound check
# relative agreement of ``nonunital_corr_equals_sqsc_check``: the two exact
# QFIs, and the zeroth-order closed form against them
_NO_GAIN_TOL = 1e-8
_NO_GAIN_H0_TOL = 1e-7

__all__ = [
    "ProtocolSpec",
    "sqsc",
    "correlated",
    "PreparedState",
    "build_state",
    "purity_orders",
    "ProtocolQfi",
    "protocol_qfi",
    "MeasurementRecord",
    "local_measurement_sim",
    "measurement_cfi_lowest_order",
    "measurement_cfi_lowest_order_general",
    "GainReport",
    "compare",
    "EscherRow",
    "escher_phase_flip_demo",
    "NoGainReport",
    "nonunital_corr_equals_sqsc_check",
]


class ProtocolSpec(_ReadOnly):
    """Everything needed to build one pre-measurement state; n names the protocol.

    ch, when given, is family.eval(lam) as the caller already holds it;
    ``in_frame`` then evaluates nothing.  A spec with another lam needs its
    own ch.  r0 and c are kept as read-only copies.
    """

    def __init__(self, family: ChannelFamily, lam: float, n: int, r: float, r0,
                 c=None, ch: BlochChannel | None = None):
        if n < 1:
            raise ValueError(f"a protocol needs at least one qubit, got n={n}")
        if n == 1 and c is not None:
            raise ValueError("single-qubit protocol (n = 1) takes no control direction")
        if n >= 2 and c is None:
            raise ValueError("correlated protocol (n >= 2) requires a control direction c")
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"purity must lie in [0, 1], got {r}")
        r0 = _as_vector(_unit_vector(r0, "r0"), "r0")
        c = None if c is None else _as_vector(_unit_vector(c, "c"), "c")
        vars(self).update(family=family, lam=lam, n=n, r=r, r0=r0, c=c, ch=ch)

    @cached_property
    def in_frame(self) -> tuple[np.ndarray, BlochChannel]:
        """r0 and the channel at lam in the frame of c, where the preparation is CZ.

        With R = ``mstate._frame(c, r0)`` (R z = c, r0 in the plane of R x
        and c): r0 -> R^T r0 = (|r0 - (c.r0) c|, 0, c.r0), M -> R^T M R,
        d -> R^T d, and so for the derivative.  For |c.r0| below
        ``blocks.PERPENDICULAR_TOL``, where the exact QFI takes the 4x4
        pieces, r0' is (1, 0, 0) exactly, so the series and the measured
        state hold the strings of perpendicular directions too.  The single-qubit protocol has
        no c; its r0 and channel come unrotated.  Without ch the family is
        evaluated on first use only, and every view of the spec reads the
        same read-only result.
        """
        ch = self.family.eval(self.lam) if self.ch is None else self.ch
        if bad := _nonfinite_parts(ch):
            raise ValueError(f"channel {self.family.name!r} has non-finite "
                             f"{', '.join(bad)} at lambda={self.lam:g}")
        if self.c is None:
            return self.r0, ch
        R = _frame(self.c, self.r0)
        if abs(float(self.c @ self.r0)) < PERPENDICULAR_TOL:
            r0 = np.array([1.0, 0.0, 0.0])  # perpendicular, as for the pieces
        else:
            r0 = R.T @ self.r0
            r0[1] = 0.0  # rounding: r0 lies in the frame's u-z plane
        r0.flags.writeable = False
        return r0, BlochChannel(R.T @ ch.M @ R, R.T @ ch.d, R.T @ ch.dM @ R, R.T @ ch.dd)


def sqsc(family: ChannelFamily, lam: float, r: float, r0,
         ch: BlochChannel | None = None) -> ProtocolSpec:
    return ProtocolSpec(family, lam, 1, r, r0, ch=ch)


def correlated(family: ChannelFamily, lam: float, n: int, r: float, c, r0,
               ch: BlochChannel | None = None) -> ProtocolSpec:
    return ProtocolSpec(family, lam, n, r, r0, c, ch)


class PreparedState(NamedTuple):
    """The channel output at the spec's fixed purity, its lam derivative and
    the initial direction r0, all in the frame of c (``ProtocolSpec.in_frame``)."""

    r0: np.ndarray
    pauli: PauliStrings
    dpauli: PauliStrings


def build_state(spec: ProtocolSpec) -> PreparedState:
    """Initial product state -> preparation (correlated only) -> channel on qubit 0.

    The input does not depend on lam and the channel acts affinely, so the
    derivative is the derivative channel pass on the same prepared input.
    """
    r0, ch = spec.in_frame
    state = initial_state(spec.n, spec.r, r0)
    if spec.c is not None:
        state = prep_conjugate(state)
    return PreparedState(r0, apply_channel(state, ch),
                         apply_channel_derivative(state, ch))


def _strings_the_series_reads(ordered: OrderedState, K: int) -> OrderedState:
    """The strings of order a with at most K - a spectator flips (X or Y
    letters on qubits 1..n-1).

    The preparation (diagonal in the frame of c) and the channel (on qubit 0)
    keep a string's spectator flips, so order j of rho and d(rho)/dlam, and
    by induction L^(j), has lines of at most j of them.  Every term of H^(k),
    k <= K, reads rho^(a) and d(rho^(a))/dlam on lines of at most K - a
    (Tr[d(rho^(a)) L^(b)] and Tr[rho^(a) L^(b) L^(c)] with b + c <= K - a), so
    the rest are never read.  Orders through K // 2 keep every string.
    """
    n, strings, ends = ordered.n, ordered.strings, ordered.ends
    flips = _bits_of_digits(strings ^ (strings >> 1)) & ((1 << (n - 1)) - 1)
    order = np.repeat(np.arange(len(ends) - 1), np.diff(ends))
    kept = order + np.bitwise_count(flips) <= K
    counts = np.bincount(order[kept], minlength=len(ends) - 1)
    return OrderedState._adopt(n, strings[kept], ordered.coeffs[kept],
                               (0, *np.cumsum(counts).tolist()))


def purity_orders(spec: ProtocolSpec, max_order: int) -> StateOrders:
    """Purity orders of the channel output in the frame of c, as XOR lines,
    up to min(n, max_order).  They do not depend on the spec's purity.

    Orders through max_order // 2 are whole; a higher order a keeps the
    strings with at most max_order - a spectator flips
    (``_strings_the_series_reads``), so the orders serve ``qfi_orders`` at
    any K <= max_order.  The input orders, the preparation and the channel
    work on the nonzero Pauli strings of all orders at once; the output
    orders are then transformed to their lines in one pass, and their
    derivatives in another.
    """
    _check_dense_cap(spec.n)  # fail before any large allocation
    r0, ch = spec.in_frame
    ordered = initial_state_orders(spec.n, r0, max_order=min(spec.n, max_order))
    ordered = _strings_the_series_reads(ordered, max_order)
    if spec.c is not None:
        ordered = prep_conjugate(ordered)
    return channel_output_orders(ordered, ch)


class ProtocolQfi(NamedTuple):
    exact: float
    series_estimate: float
    series: QfiSeries


def protocol_qfi(spec: ProtocolSpec, K: int = DEFAULT_MAX_ORDER,
                 eps: float | None = None) -> ProtocolQfi:
    """Exact QFI (``blocks.exact_qfi``) and its purity-series estimate.

    Both numbers are per channel invocation; every protocol here invokes the
    channel exactly once.  The series keeps the dense qubit cap.
    """
    series = qfi_orders(purity_orders(spec, K), K)
    return ProtocolQfi(exact=exact_qfi(spec, eps),
                       series_estimate=series.evaluate(spec.r), series=series)


# ---------------------------------------------------------------------------
# local measurement scheme for the correlated protocol
# ---------------------------------------------------------------------------

def _sign_counts(n: int) -> np.ndarray:
    """S[m, k] = [t^k] (1 + t)^(n-1-m) (t - 1)^m, exact integers: over the
    outcomes of qubits 1..n-1 with k + results, the sum of the product of
    the signs at m fixed qubits.  Grown one factor per step, row m taking
    t - 1 at its first m steps."""
    S = np.zeros((n, n))
    S[:, 0] = 1.0
    for step in range(n - 1):
        root = np.where(np.arange(n) > step, -1.0, 1.0)
        S[:, 1:] = S[:, :-1] + root[:, None] * S[:, 1:]
        S[:, 0] *= root
    return S


def _outcomes(st: PauliStrings, axis: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """p(sign, k) of measuring every qubit along axis, grouped by qubit 0's
    sign (rows +, -) and the number k of + results among the rest.

    A string P contributes c_P prod_i W[o_i, P_i] to the outcome o, with
    W[o] = (1, o a_x, o a_y, o a_z).  Summed over the outcomes of qubits
    1..n-1 with k + results, that is c_P W[o_0, P_0] a_x^#X a_y^#Y a_z^#Z
    S[m, k] (``_sign_counts``), where the letter counts and m = #X + #Y + #Z
    are those of P's tail.  So the strings are summed by (P_0, m) first,
    pairwise within each group, since S amplifies the rounding of those sums.
    """
    n = st.n
    shift = 2 * (n - 1)
    ones = (4 ** (n - 1) - 1) // 3          # the low bit of each digit of the tail
    low, high = st.strings & ones, (st.strings >> 1) & ones
    nz = np.bitwise_count(low & high)       # Z is 3: both bits set
    nx, ny = np.bitwise_count(low) - nz, np.bitwise_count(high) - nz
    del low, high
    powers = axis[:, None] ** np.arange(n)
    weight = st.coeffs * powers[0, nx] * powers[1, ny] * powers[2, nz]
    key = ((st.strings >> shift) * n + (nx + ny + nz)).astype(np.uint8)
    order = np.argsort(key, kind="stable")  # a radix sort on bytes
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    by_letter = np.zeros(4 * n)
    by_letter[key[first]] = np.add.reduceat(weight[order], first)
    W = np.array([[1.0, *axis], [1.0, *-axis]])
    return W @ by_letter.reshape(4, n) @ counts


class MeasurementRecord(NamedTuple):
    """Grouped outcome statistics p(sign, k) and the classical Fisher information.

    k counts + results among qubits 1..n-1; the sign is qubit 0's outcome.
    """

    p_plus: np.ndarray
    p_minus: np.ndarray
    dp_plus: np.ndarray
    dp_minus: np.ndarray
    cfi: float


def local_measurement_sim(spec: ProtocolSpec) -> MeasurementRecord:
    """Simulate the correlated protocol's local measurement scheme.

    After the channel the preparation is applied again and every qubit is
    measured along r0, all in the frame of c.  Outcome derivatives are
    exact: they are the grouped outcomes of the measured state's lam
    derivative.
    """
    if spec.c is None:
        raise ValueError("the local measurement scheme is defined for correlated specs")
    prep = build_state(spec)
    # the preparation does not depend on lam: the derivative passes through it
    state, dstate = prep_conjugate(prep.pauli), prep_conjugate(prep.dpauli)
    counts = _sign_counts(spec.n)
    p_plus, p_minus = _outcomes(state, prep.r0, counts)
    dp_plus, dp_minus = _outcomes(dstate, prep.r0, counts)
    model = ProbModel(np.concatenate([p_plus, p_minus]),
                      np.concatenate([dp_plus, dp_minus]))
    return MeasurementRecord(p_plus=p_plus, p_minus=p_minus,
                             dp_plus=dp_plus, dp_minus=dp_minus,
                             cfi=cfi(model))


def measurement_cfi_lowest_order(ch: BlochChannel, n: int, c, r0) -> float:
    """Lowest-order CFI coefficient (n-1)s1^2 + s2^2 for the canonical directions.

    Requires c = B^T e1 and r0 = B^T e2 (up to sign) from the SVD dM = A S B,
    and that dM maps each onto +- itself (|A[:, i].B[i]| = 1, as for a
    symmetric dM); other directions and channels should use the general form.
    """
    require_unital(ch)
    if n < 2:
        raise ValueError("correlated protocol needs n >= 2")
    c = _unit_vector(c, "c")
    r0 = _unit_vector(r0, "r0")
    dec = svd3(ch.dM)
    if abs(abs(float(c @ dec.B[0])) - 1.0) > 1e-9 or \
            abs(abs(float(r0 @ dec.B[1])) - 1.0) > 1e-9:
        raise ValueError("directions are not the canonical pair (B^T e1, B^T e2)")
    if any(abs(abs(float(dec.A[:, i] @ dec.B[i])) - 1.0) > 1e-9 for i in (0, 1)):
        raise ValueError("dM does not map the canonical pair onto itself; "
                         "use measurement_cfi_lowest_order_general")
    return float((n - 1) * dec.S[0] ** 2 + dec.S[1] ** 2)


def measurement_cfi_lowest_order_general(ch: BlochChannel, n: int, c, r0) -> float:
    """Lowest-order CFI coefficient (r0^T Mdot r0)^2 + (n-1)(c^T Mdot c)^2."""
    require_unital(ch)
    if n < 2:
        raise ValueError("correlated protocol needs n >= 2")
    c = _unit_vector(c, "c")
    r0 = _unit_vector(r0, "r0")
    return float((r0 @ ch.dM @ r0) ** 2 + (n - 1) * (c @ ch.dM @ c) ** 2)


# ---------------------------------------------------------------------------
# protocol comparison
# ---------------------------------------------------------------------------

class GainReport(NamedTuple):
    """Per-invocation QFI ratio of two protocols.

    ratio_exact comes from the exact QFI at the specs' finite purity;
    ratio_series is the truncated-series counterpart and is only meaningful
    while n r^2 stays well below one.
    """

    status: str                      # "ok" or "undefined"
    ratio_exact: float | None
    ratio_series: float | None
    gain_lo: float | None
    gain_hi: float | None
    violations: tuple[str, ...]
    qfi_a: ProtocolQfi
    qfi_b: ProtocolQfi


def _same_family(a: ProtocolSpec, b: ProtocolSpec) -> bool:
    fa, fb = a.family, b.family
    return fa is fb or (fa.name == fb.name and fa.params == fb.params)


def compare(spec_a: ProtocolSpec, spec_b: ProtocolSpec,
            K: int = DEFAULT_MAX_ORDER) -> GainReport:
    """Per-invocation QFI ratio of protocol A over protocol B.

    When A is correlated, B is the single-qubit baseline and the channel is
    unital, the ratio is checked against the lowest-order gain bounds
    [n - (1 - s2^2/s1^2), n]; excursions beyond the relative margin
    ``_GAIN_MARGIN`` are flagged.  A zero-information baseline yields an
    "undefined" status instead of a division by zero.
    """
    if not _same_family(spec_a, spec_b) or abs(spec_a.lam - spec_b.lam) > 1e-15:
        raise ValueError("compared specs must share the channel family and parameter")
    qa = protocol_qfi(spec_a, K)
    qb = protocol_qfi(spec_b, K)

    gain_lo = gain_hi = None
    if spec_a.c is not None and spec_b.c is None:
        try:  # B's channel comes unrotated: the channel at lam itself
            gain_lo, gain_hi = corr_gain_ratio(spec_b.in_frame[1], spec_a.n)
        except BranchError:  # not unital at lam, or s1 = 0: no gain bounds
            pass

    if qb.exact <= VANISHING_QFI:
        return GainReport("undefined", None, None, gain_lo, gain_hi, (),
                          qa, qb)

    ratio_exact = qa.exact / qb.exact
    ratio_series = (qa.series_estimate / qb.series_estimate
                    if abs(qb.series_estimate) > VANISHING_QFI else None)
    violations = []
    if gain_lo is not None:
        if ratio_exact > gain_hi * (1.0 + _GAIN_MARGIN):
            violations.append(
                f"exact ratio {ratio_exact:.6g} exceeds upper gain bound {gain_hi:.6g}")
        if ratio_exact < gain_lo * (1.0 - _GAIN_MARGIN):
            violations.append(
                f"exact ratio {ratio_exact:.6g} below lower gain bound {gain_lo:.6g}")
    return GainReport("ok", ratio_exact, ratio_series, gain_lo, gain_hi,
                      tuple(violations), qa, qb)


# ---------------------------------------------------------------------------
# phase-flip bound demonstration
# ---------------------------------------------------------------------------

class EscherRow(NamedTuple):
    lam: float
    r: float
    bound: float
    exact: float
    slack: float


def escher_phase_flip_demo(lams, rs) -> tuple[EscherRow, ...]:
    """Kraus-representation upper bound vs exact phase-flip QFI.

    The natural Kraus choice for a phase flip acting on a depolarized pure
    state bounds the QFI by 1/[lam(1-lam)], independent of the purity, while
    the exact single-qubit value is 4r^2/[1-(1-2lam)^2 r^2]; the bound is
    strictly loose for every r < 1.
    """
    rows = []
    for lam in np.asarray(lams, dtype=float):
        if not 0.0 < lam < 1.0:
            raise DomainError(f"the bound needs lam strictly inside (0, 1), got {lam}")
        bound = 1.0 / (lam * (1.0 - lam))
        for r in np.asarray(rs, dtype=float):
            if not 0.0 <= r < 1.0:
                raise DomainError(f"purity must lie in [0, 1), got {r}")
            exact = 4.0 * r ** 2 / (1.0 - (1.0 - 2.0 * lam) ** 2 * r ** 2)
            slack = bound - exact
            if slack <= 0.0:
                raise RuntimeError(
                    f"bound is not loose at lam={lam}, r={r}: slack {slack}")
            rows.append(EscherRow(float(lam), float(r), bound, exact, slack))
    return tuple(rows)


# ---------------------------------------------------------------------------
# non-unital channels: nothing to gain at lowest order
# ---------------------------------------------------------------------------

class NoGainReport(NamedTuple):
    qfi_sqsc: float
    qfi_corr: float
    equal: bool
    h0_closed_form: float
    h0_matches: bool


def nonunital_corr_equals_sqsc_check(family: ChannelFamily, lam: float,
                                     n: int) -> NoGainReport:
    """Check that correlating qubits buys nothing at zero purity.

    For a parameter-dependent shift vector the lowest QFI order is the
    zeroth one, blind to the preparation: the exact QFIs at r = 0 (no series,
    so no n <= 10 cap) of the correlated protocol and the single-qubit
    baseline must agree, and match the closed form.
    """
    ch = family.eval(lam)
    if classify_unitality(ch) is not Unitality.NONUNITAL_PARAM_SHIFT:
        raise BranchError(
            f"channel {family.name!r} does not have a parameter-dependent shift")
    r0 = np.array([1.0, 0.0, 0.0])
    c = np.array([0.0, 0.0, 1.0])
    q_sqsc = exact_qfi(sqsc(family, lam, 0.0, r0, ch=ch))
    q_corr = exact_qfi(correlated(family, lam, n, 0.0, c, r0, ch=ch))
    h0 = sqsc_nonunital_h0(ch)
    scale = max(1.0, abs(q_sqsc))
    return NoGainReport(
        qfi_sqsc=q_sqsc,
        qfi_corr=q_corr,
        equal=abs(q_sqsc - q_corr) <= _NO_GAIN_TOL * scale,
        h0_closed_form=h0,
        h0_matches=abs(h0 - q_sqsc) <= _NO_GAIN_H0_TOL * scale,
    )
