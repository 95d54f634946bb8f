"""Shared helpers for the test suite: random geometry, Kraus oracles, fits,
and the slower reference paths that the library's fast paths are checked against."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from noisyqfi import bloch, builtin
from noisyqfi.bloch import PAULI_MATS, BlochChannel, ChannelFamily, _unit_vector
from noisyqfi.mstate import (
    OrderedState,
    PauliStrings,
    XorLines,
    _check_dense_cap,
    _check_pauli_cap,
    prep_conjugate,
)
from noisyqfi.protocols import correlated, sqsc
from noisyqfi.fisher import ProbModel, _pairs, cfi, in_eigenbasis, qfi_exact
from noisyqfi.series import StateOrders, fit_qfi_orders

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def sigma(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v[0] * PAULI["X"] + v[1] * PAULI["Y"] + v[2] * PAULI["Z"]


def apply_bloch(channel: BlochChannel, r: float, r_i: np.ndarray) -> np.ndarray:
    """Map a Bloch vector of purity r and unit direction r_i through the channel."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"purity must lie in [0, 1], got {r}")
    return r * (channel.M @ _unit_vector(r_i, "r_i")) + channel.d


def random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def perpendicular_pair(rng) -> tuple[np.ndarray, np.ndarray]:
    c = random_unit(rng)
    t = rng.normal(size=3)
    t -= (t @ c) * c
    return c, t / np.linalg.norm(t)


def random_rotation(rng) -> np.ndarray:
    A = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0.0:
        Q[:, 0] = -Q[:, 0]
    return Q


def random_unital_family(rng, name: str = "rotated") -> ChannelFamily:
    """Random unital family: fixed rotations around a builtin unital channel."""
    base = builtin(["phase_flip", "depolarizing", "phase_shift"][int(rng.integers(3))])
    A0 = random_rotation(rng)
    B0 = random_rotation(rng)

    def value(lam, A0=A0, B0=B0, base=base):
        M, _ = base.value(lam)
        return A0 @ M @ B0, np.zeros(3)

    def deriv(lam, A0=A0, B0=B0, base=base):
        dM, _ = base.deriv(lam)
        return A0 @ dM @ B0, np.zeros(3)

    return ChannelFamily(name, base.domain, value, deriv)


def random_state(rng, n: int) -> np.ndarray:
    """Random full-rank density matrix."""
    dim = 2 ** n
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T + 0.05 * np.eye(dim)
    return rho / np.trace(rho).real


# Kraus sets for the channels with textbook representations.

def kraus_phase_flip(lam: float) -> list[np.ndarray]:
    return [np.sqrt(1.0 - lam) * PAULI["I"], np.sqrt(lam) * PAULI["Z"]]


def kraus_depolarizing(lam: float) -> list[np.ndarray]:
    return [np.sqrt((1.0 + 3.0 * lam) / 4.0) * PAULI["I"],
            np.sqrt((1.0 - lam) / 4.0) * PAULI["X"],
            np.sqrt((1.0 - lam) / 4.0) * PAULI["Y"],
            np.sqrt((1.0 - lam) / 4.0) * PAULI["Z"]]


def kraus_gad(lam: float, p: float) -> list[np.ndarray]:
    return [
        np.sqrt(p) * np.array([[1, 0], [0, np.sqrt(1 - lam)]], dtype=complex),
        np.sqrt(p) * np.array([[0, np.sqrt(lam)], [0, 0]], dtype=complex),
        np.sqrt(1 - p) * np.array([[np.sqrt(1 - lam), 0], [0, 1]], dtype=complex),
        np.sqrt(1 - p) * np.array([[0, 0], [np.sqrt(lam), 0]], dtype=complex),
    ]


def kraus_apply(rho: np.ndarray, ks: list[np.ndarray], n: int) -> np.ndarray:
    """The channel of Kraus operators ks on qubit 0 of a dense n-qubit rho."""
    out = np.zeros_like(rho)
    for K in ks:
        full = np.kron(K, np.eye(2 ** (n - 1)))
        out += full @ rho @ full.conj().T
    return out


# The QFI and the SLD of dense matrices from one eigendecomposition: the
# oracle for the Schur-Weyl blocks and the purity series.

def dense_qfi(rho: np.ndarray, drho: np.ndarray, eps=None):
    """QFI of dense matrices (or stacks of them), checked by ``in_eigenbasis``."""
    return qfi_exact(*in_eigenbasis(rho, drho), eps)


@dataclass(frozen=True)
class SldResult:
    """SLD operator with the eigensystem it was built from."""

    L: np.ndarray
    qfi: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    dropped_pairs: int


def sld_exact(rho: np.ndarray, drho: np.ndarray, eps: float | None = None) -> SldResult:
    """SLD L = V (2 G_jk / (p_j + p_k) on the kept pairs) V+ and the QFI of one state.

    The checks, the spectrum p and G = V+ drho V are those of
    ``in_eigenbasis``, and the QFI is ``qfi_exact``'s with the same cutoff.
    """
    p, G = in_eigenbasis(rho, drho)
    V = np.linalg.eigh(np.asarray(rho, dtype=complex))[1]
    denom, keep = _pairs(p, eps)
    ratio = np.divide(G, denom, out=np.zeros_like(G), where=keep)
    return SldResult(L=V @ (2.0 * ratio) @ V.conj().T, qfi=qfi_exact(p, G, eps),
                     eigenvalues=p, eigenvectors=V,
                     dropped_pairs=int(np.count_nonzero(~keep)))


# The dense 2^n output pair and its eigendecomposition QFI: the oracle for
# noisyqfi.blocks.exact_qfi.

def dense_pair(prep) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrices of a prepared state's channel output and its lam derivative."""
    return oracle_to_dense(prep.pauli), oracle_to_dense(prep.dpauli)


def lab_output(spec) -> tuple[PauliState, PauliState]:
    """A spec's channel output and its lam derivative in the lab frame.

    The dense product input along r0, the dense preparation unitary
    u_prep(n, c) and the dense channel pass of the unrotated channel: none
    of the frame or string code of the library.
    """
    ch = spec.family.eval(spec.lam)
    state = oracle_initial_state(spec.n, spec.r, spec.r0)
    if spec.c is not None:
        state = conjugate(state, u_prep(spec.n, spec.c))
    return oracle_channel(state, ch), oracle_channel_derivative(state, ch)


def dense_exact_qfi(spec, eps: float | None = None) -> float:
    """Exact QFI of a spec from one eigendecomposition of the 2^n lab-frame output."""
    return dense_qfi(*(oracle_to_dense(st) for st in lab_output(spec)), eps)


def fit_exact_orders(family, lam, n, c, r0, rs, orders=(2, 3, 4)):
    """Fit the exact QFI of a correlated (or single-qubit) run in powers of r."""
    qs = []
    for r in rs:
        spec = sqsc(family, lam, r, r0) if n == 1 else correlated(family, lam, n, r, c, r0)
        qs.append(dense_exact_qfi(spec))
    return fit_qfi_orders(np.asarray(rs), np.asarray(qs), orders=orders)


# The dense form of an operator: all 4^n Pauli coefficients, in the string
# indexing of noisyqfi.mstate (letters I, X, Y, Z = 0..3, qubit 0 the
# leading base-4 digit).  It is the oracle form of noisyqfi.mstate.PauliStrings,
# which holds only the nonzero strings, and DenseOrders is the oracle form
# of noisyqfi.mstate.OrderedState.

_LETTERS = "IXYZ"


def pauli_index(label: str) -> int:
    idx = 0
    for ch in label:
        idx = 4 * idx + _LETTERS.index(ch)
    return idx


def pauli_label(idx: int, n: int) -> str:
    out = []
    for _ in range(n):
        out.append(_LETTERS[idx % 4])
        idx //= 4
    return "".join(reversed(out))


@dataclass(frozen=True)
class PauliState:
    """Real coefficients of all 4^n Pauli strings of an n-qubit operator:
    a read-only copy of the array it is given."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_pauli_cap(self.n)
        c = np.array(self.coeffs, dtype=float)
        if c.shape != (4 ** self.n,):
            raise ValueError(
                f"coefficient array must have length 4^{self.n}, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def coeff(self, label: str) -> float:
        return float(self.coeffs[pauli_index(label)])


@dataclass(frozen=True)
class DenseOrders:
    n: int
    orders: tuple[PauliState, ...]


def dense_state(st: PauliStrings) -> PauliState:
    """The 4^n coefficient array of an operator given by its strings."""
    coeffs = np.zeros(4 ** st.n)
    coeffs[st.strings] = st.coeffs
    return PauliState(st.n, coeffs)


def as_strings(state):
    """The nonzero strings of a dense operator; DenseOrders as an OrderedState."""
    if isinstance(state, DenseOrders):
        return OrderedState(state.n, tuple(as_strings(st) for st in state.orders))
    strings = np.flatnonzero(state.coeffs)
    return PauliStrings(state.n, strings, state.coeffs[strings])


def full_strings(rng, n: int) -> PauliStrings:
    """Random coefficients on all 4^n strings."""
    return PauliStrings(n, np.arange(4 ** n), rng.normal(size=4 ** n))


def as_dense(state):
    """An OrderedState as DenseOrders, PauliStrings as a PauliState; any
    other state as it is."""
    if isinstance(state, OrderedState):
        return DenseOrders(state.n, tuple(dense_state(st) for st in state.orders))
    if isinstance(state, PauliStrings):
        return dense_state(state)
    return state


def _map_orders(state, fn):
    """fn on a dense state, or on each order of a DenseOrders (the string
    forms are made dense first)."""
    state = as_dense(state)
    if isinstance(state, DenseOrders):
        return DenseOrders(state.n, tuple(fn(st) for st in state.orders))
    return fn(state)


def at_purity(ordered: OrderedState, r: float) -> PauliState:
    """The state sum_j r^j orders[j] of an OrderedState, dense."""
    total = np.zeros(4 ** ordered.n)
    for j, st in enumerate(ordered.orders):
        total[st.strings] += (r ** j) * st.coeffs
    return PauliState(ordered.n, total)


def same_coeffs(got, want: PauliState) -> bool:
    """Bit-equal coefficients, but for the sign of a zero: the dense passes
    keep the -0.0 that a sign or a product gives, the strings drop zeros."""
    return (as_dense(got).coeffs + 0.0).tobytes() == (want.coeffs + 0.0).tobytes()


# The dense pipeline: the product state as an outer product, the signed
# gather of all 4^n coefficients and the channel pass on all of them.  The
# oracle for noisyqfi.mstate.initial_state, prep_conjugate and
# apply_channel(_derivative), which touch only the nonzero strings; both
# multiply in the same order, so they agree bit for bit.

def oracle_initial_state(n: int, r: float, r0) -> PauliState:
    """Product state ((I + r * r0.sigma)/2)^(x)n at fixed purity, dense."""
    r0 = _unit_vector(r0, "r0")
    slot = 0.5 * np.array([1.0, r * r0[0], r * r0[1], r * r0[2]])
    coeffs = np.array([1.0])
    for _ in range(n):
        coeffs = np.multiply.outer(coeffs, slot).ravel()
    return PauliState(n, coeffs)


@lru_cache(maxsize=None)
def cz_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather table of the complete-graph CZ conjugation on n slots.

    out[P] = sign[P] * in[index[P]].  Letters I, X, Y, Z are the codes
    0..3, so X <-> Y and I <-> Z are both the XOR of a letter with 3: an
    even-w string flips its X/Y slots, an odd-w string flips its I/Z
    slots.  The map is an involution, so index[P] is also the image of P
    and sign[P] is its sign: (-1)^(number of Y) for even w, (-1)^((w-1)/2)
    for odd w.  Built one slot at a time over all 4^n strings, the oracle
    of the per-string decode of noisyqfi.mstate.prep_conjugate.
    """
    xy = np.array([0, 1, 1, 0], dtype=np.int8)
    is_y = np.array([0, 0, 1, 0], dtype=np.int8)
    flip = np.zeros(1, dtype=np.int32)    # 3 on every X/Y slot
    w = np.zeros(1, dtype=np.int8)        # number of X/Y letters
    ny = np.zeros(1, dtype=np.int8)       # number of Y letters
    for _ in range(n):
        flip = (4 * flip[:, None] + 3 * xy).ravel()
        w = (w[:, None] + xy).ravel()
        ny = (ny[:, None] + is_y).ravel()
    odd = (w & 1).astype(bool)
    index = np.arange(4 ** n, dtype=np.int32) ^ flip
    index[odd] ^= 4 ** n - 1
    negative = np.where(odd, (w & 3) == 3, (ny & 1) == 1)
    sign = np.where(negative, -1, 1).astype(np.int8)
    index.flags.writeable = False
    sign.flags.writeable = False
    return index, sign


def oracle_gather(state):
    """The complete-graph CZ conjugation as one signed gather of the 4^n
    array (each order separately)."""

    def one(st: PauliState) -> PauliState:
        index, sign = cz_table(st.n)
        return PauliState(st.n, st.coeffs[index] * sign)

    return _map_orders(state, one)


def oracle_outcomes(st: PauliStrings, axis) -> np.ndarray:
    """p(sign, k) of measuring every qubit along axis, rows +, -: the joint
    outcomes contracted from the 4^n coefficient array in long double
    (``outcome_tensor``), then summed by qubit 0's sign and the number k of
    + results among the rest.  The oracle of noisyqfi.protocols._outcomes."""
    n = st.n
    coeffs = np.zeros(4 ** n, dtype=np.longdouble)
    coeffs[st.strings] = st.coeffs
    joint = outcome_tensor(coeffs, np.asarray(axis, dtype=np.longdouble)).reshape(2, -1)
    k_plus = (n - 1) - np.bitwise_count(np.arange(2 ** (n - 1)))
    out = np.zeros((2, n), dtype=np.longdouble)
    for grouped, outcomes in zip(out, joint):
        np.add.at(grouped, k_plus, outcomes)
    return out.astype(float)


def _oracle_pass(state, F: np.ndarray):
    return _map_orders(state, lambda st: PauliState(
        st.n, (F @ st.coeffs.reshape(4, -1)).reshape(4 ** st.n)))


def oracle_channel(state, ch):
    """The channel on qubit 0: I -> I + d.sigma, a.sigma -> (M a).sigma."""
    F = np.zeros((4, 4))
    F[0, 0] = 1.0
    F[1:, 0], F[1:, 1:] = ch.d, ch.M
    return _oracle_pass(state, F)


def oracle_channel_derivative(state, ch):
    """The derivative channel on qubit 0: I -> dd.sigma, a.sigma -> (dM a).sigma."""
    F = np.zeros((4, 4))
    F[1:, 0], F[1:, 1:] = ch.dd, ch.dM
    return _oracle_pass(state, F)


# The purity orders grown one slot at a time, each as its own dense array:
# the oracle for noisyqfi.mstate.initial_state_orders, which grows the
# strings of weight <= max_order and splits them by weight instead.

def oracle_initial_state_orders(n: int, r0, max_order: int | None = None) -> DenseOrders:
    _check_pauli_cap(n)
    r0 = _unit_vector(r0, "r0")
    if max_order is None:
        max_order = n
    slot_i = 0.5 * np.array([1.0, 0.0, 0.0, 0.0])
    slot_r = 0.5 * np.array([0.0, r0[0], r0[1], r0[2]])
    polys = [np.array([1.0])]
    for _ in range(n):
        grown = []
        for j in range(min(len(polys), max_order) + 1):
            term = np.zeros(len(polys[0]) * 4)
            if j < len(polys):
                term += np.multiply.outer(polys[j], slot_i).ravel()
            if 0 <= j - 1 < len(polys):
                term += np.multiply.outer(polys[j - 1], slot_r).ravel()
            grown.append(term)
        polys = grown
    while len(polys) < max_order + 1:
        polys.append(np.zeros(4 ** n))
    return DenseOrders(n, tuple(PauliState(n, p) for p in polys[: max_order + 1]))


def oracle_output_orders(spec, max_order: int):
    """The dense path of the purity orders, one channel output order at a time.

    Yields the dense coefficients (rho^(j), drho^(j)) for j = 0..min(n,
    max_order): the slot-by-slot input orders in the frame of c, their
    signed gather and the channel pass on them.  The oracle for the strings
    that protocols.purity_orders makes dense, bit for bit up to the sign of
    a zero (``same_coeffs``).
    """
    r0, ch = spec.in_frame
    for st in oracle_initial_state_orders(spec.n, r0, min(spec.n, max_order)).orders:
        if spec.c is not None:
            st = oracle_gather(st)
        yield oracle_channel(st, ch), oracle_channel_derivative(st, ch)


def oracle_measured_state(spec):
    """The dense path of the fixed-purity state that the local measurement
    reads: the product input in the frame of c, the signed gather, the
    channel pass (and its derivative), the signed gather again.

    Yields the input, the prepared input, the channel output and its
    derivative, and the measured pair, all dense: the oracle for
    protocols.build_state and local_measurement_sim's state, stage by stage.
    """
    r0, ch = spec.in_frame
    state = oracle_initial_state(spec.n, spec.r, r0)
    yield state
    if spec.c is not None:
        state = oracle_gather(state)
        yield state
    out, dout = oracle_channel(state, ch), oracle_channel_derivative(state, ch)
    yield out
    yield dout
    if spec.c is not None:
        yield oracle_gather(out)
        yield oracle_gather(dout)


# Every one of the 4^n strings contracted with the Pauli matrices, one
# tensor slot per tensordot: the oracle for noisyqfi.mstate.to_dense, which
# transforms the lines of the nonzero strings' flip patterns instead.

def oracle_to_dense(state) -> np.ndarray:
    state = as_dense(state)
    _check_dense_cap(state.n)
    n = state.n
    out = state.coeffs.reshape((4,) * n).astype(complex)
    for _ in range(n):
        out = np.tensordot(out, PAULI_MATS, axes=([0], [0]))
    # axes are now (r0, c0, r1, c1, ...); gather rows then columns
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return np.ascontiguousarray(out.transpose(perm)).reshape(2 ** n, 2 ** n)


# The XOR lines of an operator scattered into its 2^n x 2^n matrix, and a
# matrix gathered into its nonzero lines: the dense side of the line form
# that noisyqfi.mstate.to_dense returns and noisyqfi.series computes on.

def dense_of(op: XorLines) -> np.ndarray:
    """The matrix whose XOR lines D[x ^ f, x] are op's lines."""
    dim = 2 ** op.n
    x = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    out[op.flips[:, None] ^ x, x] = op.lines
    return out


def lines_of(A: np.ndarray) -> XorLines:
    """The XOR lines of a 2^n x 2^n matrix that hold a nonzero entry."""
    dim = A.shape[0]
    x = np.arange(dim)
    lines = A[x[:, None] ^ x, x]
    flips = np.flatnonzero(np.any(lines != 0, axis=1))
    return XorLines(dim.bit_length() - 1, flips, lines[flips].astype(complex))


@dataclass(frozen=True)
class DenseStateOrders:
    """Dense purity orders rho^(j) and d(rho^(j))/dlam: the oracle's input."""

    rho: tuple
    drho: tuple

    @property
    def max_order(self) -> int:
        return len(self.rho) - 1


def dense_orders(orders) -> DenseStateOrders:
    """Dense orders as they are, and the dense matrices of line orders."""
    if isinstance(orders, DenseStateOrders):
        return orders
    return DenseStateOrders(tuple(map(dense_of, orders.rho)), tuple(map(dense_of, orders.drho)))


def line_orders(rho, drho) -> StateOrders:
    """StateOrders of the given dense matrices."""
    return StateOrders(tuple(map(lines_of, rho)), tuple(map(lines_of, drho)))


# The dense channel pass on the Pauli coefficients of each order, then one
# dense matrix per output by the slot-by-slot contraction: the oracle for
# noisyqfi.series.channel_output_orders, which passes the strings and
# transforms them to XOR lines with noisyqfi.mstate.to_dense.

def oracle_channel_output_orders(input_orders, ch) -> DenseStateOrders:
    dense = as_dense(input_orders)
    return DenseStateOrders(
        tuple(oracle_to_dense(st) for st in oracle_channel(dense, ch).orders),
        tuple(oracle_to_dense(st) for st in oracle_channel_derivative(dense, ch).orders))


# Generic order-by-order SLD solver in the full 2^n eigenbasis of rho^(0):
# the differential oracle for noisyqfi.series.sld_orders / qfi_orders.

def oracle_sld_orders(orders, K: int) -> list[np.ndarray]:
    orders = dense_orders(orders)
    rho0 = orders.rho[0]
    q, V = np.linalg.eigh(rho0)
    if q[0] <= 1e-14:
        raise ValueError("zeroth-order state is singular")
    denom = q[:, None] + q[None, :]
    zero = np.zeros_like(rho0, dtype=complex)

    def at(seq, j):
        return seq[j] if j <= orders.max_order else zero

    L: list[np.ndarray] = []
    for k in range(K + 1):
        R = 2.0 * at(orders.drho, k).astype(complex)
        for j in range(1, k + 1):
            R -= L[k - j] @ at(orders.rho, j) + at(orders.rho, j) @ L[k - j]
        Rt = V.conj().T @ R @ V
        L.append(V @ (Rt / denom) @ V.conj().T)
    return L


def oracle_qfi_orders(orders, L, K: int) -> np.ndarray:
    orders = dense_orders(orders)
    H = np.zeros(K + 1)
    for j in range(K + 1):
        H[j] = sum(float(np.trace(orders.drho[j - k] @ L[k]).real)
                   for k in range(j + 1) if j - k <= orders.max_order)
    return H


# Pairwise preparation in the Pauli basis: one 16x16 transfer pass per qubit
# pair.  The differential oracle for noisyqfi.mstate.prep_conjugate.

def pair_transfer(c) -> np.ndarray:
    """16x16 real matrix of the U_c conjugation on a two-slot Pauli pair.

    Index = 4 * left_letter + right_letter.  Built from the closed-form
    conjugation rules of the preparation gate:

        U_c (a.sigma 8 I) U_c = a.sigma 8 c.sigma
                                + (a.c) (c.sigma 8 I - c.sigma 8 c.sigma)
        U_c (a.sigma 8 b.sigma) U_c = (a x c).sigma 8 (b x c).sigma
                                + (a.c) I 8 b.sigma + (b.c) a.sigma 8 I
                                + (a.c)(b.c) (c.sigma 8 c.sigma
                                              - c.sigma 8 I - I 8 c.sigma)

    with the mirror rule for I 8 a.sigma (the gate is swap-symmetric).
    """
    c = _unit_vector(c, "c")
    R = np.zeros((16, 16))
    R[0, 0] = 1.0
    eye3 = np.eye(3)
    for a in range(3):
        ca = c[a]
        col = np.zeros(16)
        # a.sigma 8 I
        for j in range(3):
            col[(a + 1) * 4 + (j + 1)] += c[j]
        for i in range(3):
            col[(i + 1) * 4 + 0] += ca * c[i]
            for j in range(3):
                col[(i + 1) * 4 + (j + 1)] -= ca * c[i] * c[j]
        R[:, (a + 1) * 4 + 0] = col
        # I 8 a.sigma (mirror)
        col = np.zeros(16)
        for i in range(3):
            col[(i + 1) * 4 + (a + 1)] += c[i]
        for j in range(3):
            col[0 * 4 + (j + 1)] += ca * c[j]
            for i in range(3):
                col[(i + 1) * 4 + (j + 1)] -= ca * c[i] * c[j]
        R[:, 0 * 4 + (a + 1)] = col
    for a in range(3):
        for b in range(3):
            ua = np.cross(eye3[a], c)
            vb = np.cross(eye3[b], c)
            s = c[a] * c[b]
            col = np.zeros(16)
            for i in range(3):
                for j in range(3):
                    col[(i + 1) * 4 + (j + 1)] += ua[i] * vb[j] + s * c[i] * c[j]
            col[0 * 4 + (b + 1)] += c[a]
            col[(a + 1) * 4 + 0] += c[b]
            for i in range(3):
                col[(i + 1) * 4 + 0] -= s * c[i]
                col[0 * 4 + (i + 1)] -= s * c[i]
            R[:, (a + 1) * 4 + (b + 1)] = col
    R.flags.writeable = False
    return R


def _apply_pair(coeffs: np.ndarray, n: int, R4: np.ndarray, q1: int, q2: int) -> np.ndarray:
    t = coeffs.reshape((4,) * n)
    t = np.moveaxis(t, (q1, q2), (0, 1))
    t = np.tensordot(R4, t, axes=([2, 3], [0, 1]))
    t = np.moveaxis(t, (0, 1), (q1, q2))
    return t.reshape(4 ** n)


def oracle_prep_conjugate(state, c):
    """Conjugate by the full preparation unitary, one pair pass per qubit pair."""
    R4 = pair_transfer(c).reshape(4, 4, 4, 4)

    def one(st: PauliState) -> PauliState:
        coeffs = st.coeffs
        for i in range(st.n):
            for j in range(i + 1, st.n):
                coeffs = _apply_pair(coeffs, st.n, R4, i, j)
        return PauliState(st.n, coeffs)

    return _map_orders(state, one)


# The preparation for a general control direction c as the frame identity:
# rotate every slot by V+ (V sigma_z V+ = c.sigma), the CZ gather of
# noisyqfi.mstate.prep_conjugate, rotate back.  The rotation is built here,
# not by the library's frame, so the identity is checked on its own.

def frame_rotation(c) -> np.ndarray:
    """A rotation R with R z = c, by Rodrigues' formula about z x c.

    For c below the xy plane R takes z to -z first, so the formula never
    divides by a small 1 + c_z.  For c along a coordinate axis R is a
    signed permutation.
    """
    c = _unit_vector(c, "c")
    if c[2] < 0.0:
        return frame_rotation(-c) @ np.diag([1.0, -1.0, -1.0])
    k = np.array([-c[1], c[0], 0.0])  # z x c
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + K + K @ K / (1.0 + c[2])


def rotate_slots(state, R: np.ndarray):
    """The letter map I -> I, a.sigma -> (R a).sigma on every slot (each order separately)."""
    F = np.eye(4)
    F[1:, 1:] = R

    def one(st: PauliState) -> PauliState:
        t = st.coeffs.reshape((4,) * st.n)
        for _ in range(st.n):  # contracts the first slot, appends its image last
            t = np.tensordot(t, F, axes=([0], [1]))
        return PauliState(st.n, t.reshape(4 ** st.n))

    return _map_orders(state, one)


def lab_prep_conjugate(state, c):
    """Conjugate by the full preparation unitary for control direction c."""
    R = frame_rotation(c)
    gathered = _map_orders(rotate_slots(state, R.T),
                           lambda st: dense_state(prep_conjugate(as_strings(st))))
    return rotate_slots(gathered, R)


# The dense preparation path: U_c and the full preparation unitary as
# matrices, and conjugation through the dense matrix of a Pauli state.  The
# differential oracle for the Clifford gather of noisyqfi.mstate.prep_conjugate.

def from_dense(mat: np.ndarray, imag_tol: float = 1e-10) -> PauliState:
    """Expand a Hermitian matrix over the Pauli basis.

    Raises if any coefficient has an imaginary part above imag_tol, which is
    the check that the operator really is Hermitian.
    """
    mat = np.asarray(mat, dtype=complex)
    dim = mat.shape[0]
    if mat.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise ValueError(f"matrix must be square with power-of-two size, got {mat.shape}")
    n = dim.bit_length() - 1
    _check_dense_cap(n)
    t = mat.reshape((2,) * (2 * n))
    t = t.transpose([axis for k in range(n) for axis in (k, n + k)])
    for _ in range(n):
        # PAULI_MATS[a][j, i]: contract the row axis with i, the column with j
        t = np.tensordot(t, PAULI_MATS, axes=([0, 1], [2, 1]))
    coeffs = t.reshape(4 ** n) / (2 ** n)
    worst = float(np.max(np.abs(coeffs.imag)))
    if worst > imag_tol:
        raise ValueError(f"matrix is not Hermitian: Pauli coefficient imag part {worst:.3e}")
    return PauliState(n, coeffs.real.copy())


def u_c(c) -> np.ndarray:
    """The pairwise preparation gate for control direction c (4x4, dense).

    Hermitian and self-inverse; for c = z this is the controlled-Z gate.
    """
    c = _unit_vector(c, "c")
    sig_c = np.tensordot(c, PAULI_MATS[1:], axes=([0], [0]))
    eye = np.eye(2, dtype=complex)
    return 0.5 * (np.kron(eye, eye) + np.kron(eye, sig_c)
                  + np.kron(sig_c, eye) - np.kron(sig_c, sig_c))


def _mul_two_qubit(gate4: np.ndarray, mat: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """Left-multiply mat by gate4 embedded on qubits (i, j)."""
    dim = 2 ** n
    t = np.moveaxis(mat.reshape((2,) * n + (dim,)), (i, j), (0, 1))
    t = np.tensordot(gate4.reshape(2, 2, 2, 2), t, axes=([2, 3], [0, 1]))
    return np.moveaxis(t, (0, 1), (i, j)).reshape(dim, dim)


def u_prep(n: int, c) -> np.ndarray:
    """Dense preparation unitary: one U_c factor per qubit pair."""
    if n < 2:
        raise ValueError("preparation needs at least two qubits")
    _check_dense_cap(n)
    gate = u_c(c)
    full = np.eye(2 ** n, dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            full = _mul_two_qubit(gate, full, n, i, j)
    return full


def conjugate(state, U: np.ndarray):
    """Conjugate by a dense unitary: rho -> U rho U+ (each order separately)."""
    U = np.asarray(U, dtype=complex)

    def one(st: PauliState) -> PauliState:
        if U.shape != (2 ** st.n, 2 ** st.n):
            raise ValueError(f"unitary shape {U.shape} does not match n={st.n}")
        # any unitary fixes the identity string; conjugating only the rest
        # keeps the rounding relative to the traceless part
        rest = st.coeffs.copy()
        rest[0] = 0.0
        out = from_dense(U @ oracle_to_dense(PauliState(st.n, rest)) @ U.conj().T).coeffs.copy()
        out[0] = st.coeffs[0]
        return PauliState(st.n, out)

    state = as_dense(state)
    out = _map_orders(state, one)
    if isinstance(state, DenseOrders):
        # the zero-order term is proportional to the identity string and must
        # be fixed by any unitary
        assert np.allclose(out.orders[0].coeffs, state.orders[0].coeffs, atol=1e-12)
    return out


def permute_qubits(state, perm):
    """Reorder tensor slots: new slot k holds old slot perm[k]."""
    perm = tuple(perm)

    def one(st: PauliState) -> PauliState:
        if sorted(perm) != list(range(st.n)):
            raise ValueError(f"perm {perm} is not a permutation of 0..{st.n - 1}")
        t = st.coeffs.reshape((4,) * st.n).transpose(perm)
        return PauliState(st.n, np.ascontiguousarray(t).reshape(4 ** st.n))

    return _map_orders(state, one)


# Dense QFI and measurement oracles.

def qfi_numeric_derivative(state_at, lam0: float, h: float = 1e-6,
                           eps: float | None = None) -> float:
    """QFI with drho built by central difference from a lam -> rho map."""
    if h <= 0.0:
        raise ValueError("fd step must be positive")
    rho = np.asarray(state_at(lam0), dtype=complex)
    drho = (np.asarray(state_at(lam0 + h), dtype=complex)
            - np.asarray(state_at(lam0 - h), dtype=complex)) / (2.0 * h)
    return dense_qfi(rho, drho, eps)


def eigenprojectors(mat: np.ndarray) -> list[np.ndarray]:
    """Rank-one projectors onto the eigenbasis of a Hermitian matrix.

    Degenerate eigenspaces are resolved by the deterministic ordering of the
    eigensolver, so repeated calls on identical input give identical projectors.
    """
    _, vecs = np.linalg.eigh(mat)
    return [np.outer(vecs[:, k], vecs[:, k].conj()) for k in range(vecs.shape[1])]


def sld_eigen_measurement(sld: SldResult) -> list[np.ndarray]:
    """Projectors onto the SLD eigenbasis (a QCRB-saturating measurement)."""
    return eigenprojectors(sld.L)


def saturating_basis_lowest_order(drho1: np.ndarray) -> list[np.ndarray]:
    """Eigenprojectors of d(rho^(1))/dlam: the lowest-order QCRB-saturating basis."""
    mat = np.asarray(drho1, dtype=complex)
    worst = float(np.max(np.abs(mat - mat.conj().T)))
    if worst > 1e-8:
        raise ValueError(f"operator is not Hermitian: max asymmetry {worst:.3e}")
    return eigenprojectors(mat)


def local_measurement_cfi_ungrouped(spec) -> float:
    """CFI of the local measurement scheme over all 2^n raw outcomes, in the lab frame.

    No grouping by qubit 0's sign and the + count, and the preparation as
    the dense u_prep(n, c): the oracle for the grouping and the frame of
    noisyqfi.protocols.local_measurement_sim.
    """
    if spec.c is None:
        raise ValueError("the local measurement scheme is defined for correlated specs")
    U = u_prep(spec.n, spec.c)
    state, dstate = (conjugate(st, U) for st in lab_output(spec))
    return cfi(ProbModel(outcome_tensor(state.coeffs, spec.r0).reshape(-1),
                         outcome_tensor(dstate.coeffs, spec.r0).reshape(-1)))


def outcome_tensor(coeffs: np.ndarray, axis) -> np.ndarray:
    """Joint probabilities of measuring every qubit along axis, from the 4^n
    coefficient array, in its dtype; qubit 0's outcome is the first index."""
    n = (coeffs.size.bit_length() - 1) // 2
    W = np.array([[1.0, axis[0], axis[1], axis[2]],
                  [1.0, -axis[0], -axis[1], -axis[2]]], dtype=coeffs.dtype)
    t = coeffs.reshape((4,) * n)
    for _ in range(n):
        t = np.tensordot(t, W, axes=([0], [1]))
    return t
