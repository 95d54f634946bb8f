"""n-qubit operator algebra in the Pauli-string basis.

An n-qubit Hermitian operator rho is stored as the real coefficient array
over the 4^n Pauli strings, with the convention

    rho = sum_P coeffs[P] * P,        coeffs[P] = Tr[rho P] / 2^n.

Letters are coded I=0, X=1, Y=2, Z=3 and qubit 0 is the LEFTMOST tensor
factor, i.e. the most significant base-4 digit of the string index.  It is
the one qubit the channel acts on.

Two state forms coexist:

* ``PauliState``   -- a numeric state at fixed purity.
* ``OrderedState`` -- the same state with the purity tracked symbolically:
  ``orders[j]`` is the coefficient operator of r^j, so the physical state is
  sum_j r^j orders[j].  Channels and unitaries act on each order
  independently, which is what makes the purity-series machinery exact.

A single-qubit channel (M, d) acts on qubit 0 by the affine rule
I -> I + d.sigma and a.sigma -> (M a).sigma; the derivative pass applies
(dM, dd) with no identity pass-through.  ``_pauli_maps`` writes both as
(4, 4) maps of qubit 0's Pauli components, and a pass is one matrix product
of a map with the coefficients viewed as (4, 4^(n-1)), the leading digit
first.  ``_qubit0_maps`` writes them as one (8, 4) map on 2x2 matrices, for
the Schur-Weyl blocks, which apply the channel to qubit 0's 2x2 blocks.
The pairwise preparation gate with control direction c,

    U_c = (I8I + I8(c.sigma) + (c.sigma)8I - (c.sigma)8(c.sigma)) / 2,

is Hermitian and self-inverse.  It is the controlled-Z gate in a frame whose
z axis is c, U_c = V8V CZ V+8V+ with V sigma_z V+ = c.sigma, so the full
preparation (one U_c per qubit pair; the factors commute) is V^(8n) times
the complete-graph CZ circuit times V+^(8n).  The protocols build their
states in the frame of c (``_frame``), where the preparation is that circuit
alone.  It is a Clifford conjugation: X_i -> X_i prod_{j!=i} Z_j, Z_i -> Z_i,
so it sends every Pauli string to plus or minus one Pauli string (Hein,
Eisert & Briegel, PRA 69, 062311 (2004); Aaronson & Gottesman, PRA 70,
052328 (2004)).  With w the number of X or Y letters of a string:

* w even: every X becomes Y and every Y becomes -X; I and Z stay;
* w odd:  every I becomes Z and every Z becomes I; X and Y stay, and the
  string takes the sign (-1)^((w-1)/2).

``prep_conjugate`` applies this map as one signed gather of the 4^n array,
with a table cached per qubit count.  The dense preparation path (U_c and
the full unitary as matrices) is the test oracle in tests/support.py.

``to_dense`` pays for the nonzero strings, not for all 4^n.  With Y = iXZ a
string is i^(#Y) X^f Z^z, where the flip pattern f marks its X and Y
letters and z its Y and Z letters, and (X^f Z^z)[x + f, x] = (-1)^(z.x)
(+ is the bitwise XOR).  So the strings that share a flip pattern fill the
one line D[x + f, x] of the dense matrix, and that line is the
Walsh-Hadamard transform over z of their coefficients times i^(#Y).  Only
the nonzero strings are decoded; each line is two Hadamard matrix products
(sizes 2^floor(n/2) and 2^ceil(n/2)) and is scattered into a zeroed
matrix.  The slot-by-slot ``tensordot`` contraction over all 4^n strings
is the test oracle in tests/support.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .bloch import BlochChannel, _unit_vector

__all__ = [
    "PauliState",
    "OrderedState",
    "MAX_QUBITS_PAULI",
    "MAX_QUBITS_DENSE",
    "pauli_index",
    "pauli_label",
    "initial_state",
    "initial_state_orders",
    "to_dense",
    "prep_conjugate",
    "apply_channel",
    "apply_channel_derivative",
]

MAX_QUBITS_PAULI = 14   # 4^n coefficient array
MAX_QUBITS_DENSE = 10   # 2^n x 2^n complex matrices

_LETTERS = "IXYZ"

PAULI_MATS = np.array([
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)
PAULI_MATS.flags.writeable = False


def _check_pauli_cap(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS_PAULI:
        raise ValueError(
            f"qubit count {n} outside supported range 1..{MAX_QUBITS_PAULI} "
            "for Pauli-coefficient operations")


def _check_dense_cap(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS_DENSE:
        raise ValueError(
            f"qubit count {n} outside supported range 1..{MAX_QUBITS_DENSE} "
            "for dense-matrix operations")


@dataclass(frozen=True)
class PauliState:
    """Real Pauli-string coefficients of an n-qubit operator.

    The coefficients are read-only and share no writable buffer with the
    caller: the constructor copies the array it is given.  The builders in
    this module wrap the arrays they have just made with ``_adopt``, which
    runs the same checks without the copy.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        self._hold(np.array(self.coeffs, dtype=float))

    def _hold(self, c: np.ndarray) -> None:
        _check_pauli_cap(self.n)
        if c.shape != (4 ** self.n,):
            raise ValueError(
                f"coefficient array must have length 4^{self.n}, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def _adopt(cls, n: int, coeffs: np.ndarray) -> PauliState:
        """A state that takes over a float array which no one else holds."""
        st = object.__new__(cls)
        object.__setattr__(st, "n", n)
        st._hold(coeffs)
        return st

    def coeff(self, label: str) -> float:
        return float(self.coeffs[pauli_index(label)])


@dataclass(frozen=True)
class OrderedState:
    """A state expanded in powers of the purity: sum_j r^j orders[j]."""

    n: int
    orders: tuple[PauliState, ...]

    def __post_init__(self):
        for st in self.orders:
            if st.n != self.n:
                raise ValueError("all orders must share the qubit count")
        object.__setattr__(self, "orders", tuple(self.orders))

    @property
    def max_order(self) -> int:
        return len(self.orders) - 1

    def at_purity(self, r: float) -> PauliState:
        total = np.zeros(4 ** self.n)
        for j, st in enumerate(self.orders):
            total += (r ** j) * st.coeffs
        return PauliState._adopt(self.n, total)


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


def initial_state(n: int, r: float, r0) -> PauliState:
    """Product state ((I + r * r0.sigma)/2)^(x)n at fixed purity."""
    _check_pauli_cap(n)
    r0 = _unit_vector(r0, "r0")
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"purity must lie in [0, 1], got {r}")
    slot = 0.5 * np.array([1.0, r * r0[0], r * r0[1], r * r0[2]])
    coeffs = np.array([1.0])
    for _ in range(n):
        coeffs = np.multiply.outer(coeffs, slot).ravel()
    return PauliState._adopt(n, coeffs)


def initial_state_orders(n: int, r0, max_order: int | None = None) -> OrderedState:
    """Purity-order decomposition of the product initial state.

    orders[j] collects every string with exactly j letters drawn from
    r0.sigma (coefficient (1/2^n) * product of r0 components); orders beyond
    the requested max_order are truncated, orders beyond n are zero.  The
    coefficients of all strings and their letter weights are grown one
    tensor slot at a time, and each string of weight j <= max_order is
    written into row j of one zeroed array whose rows are the orders.
    """
    _check_pauli_cap(n)
    r0 = _unit_vector(r0, "r0")
    if max_order is None:
        max_order = n
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    slot = 0.5 * np.array([1.0, r0[0], r0[1], r0[2]])
    letter_weight = np.array([0, 1, 1, 1], dtype=np.int8)
    product = np.array([1.0])
    weight = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        product = np.multiply.outer(product, slot).ravel()
        weight = (weight[:, None] + letter_weight).ravel()
    product += 0.0  # a product through a zero r0 component is +0, never -0
    orders = np.zeros((max_order + 1, 4 ** n))
    kept = np.flatnonzero(weight <= max_order)
    orders[weight[kept], kept] = product[kept]
    return OrderedState(n, tuple(PauliState._adopt(n, row) for row in orders))


_I_POWERS = np.array([1, 1j, -1, -1j])


def _bits_of_digits(p: np.ndarray) -> np.ndarray:
    """The low bit of every base-4 digit of p, packed: bit 2k goes to bit k.

    Four shift-and-mask rounds pack up to 16 digits, so the decode costs
    the same for every qubit count.
    """
    p = p & 0x55555555
    p = (p | (p >> 1)) & 0x33333333
    p = (p | (p >> 2)) & 0x0F0F0F0F
    p = (p | (p >> 4)) & 0x00FF00FF
    return (p | (p >> 8)) & 0x0000FFFF


def _hadamard(k: int) -> np.ndarray:
    """The 2^k x 2^k Walsh-Hadamard matrix: (-1)^(z.x) at row z, column x."""
    i = np.arange(2 ** k)
    return 1.0 - 2.0 * (np.bitwise_count(i[:, None] & i) & 1)


def to_dense(state: PauliState) -> np.ndarray:
    """Dense 2^n x 2^n complex matrix of a Pauli-coefficient state.

    One line D[x + f, x] per flip pattern f of the nonzero strings (see the
    module docstring), so the cost follows the nonzero strings.
    """
    _check_dense_cap(state.n)
    n = state.n
    dim = 2 ** n
    string = np.flatnonzero(state.coeffs != 0.0)  # faster than on the floats
    # letters I, X, Y, Z are the codes 0..3: z is the high bit, f the XOR
    # of both bits, and a Y has both f and z set
    low, z = _bits_of_digits(string), _bits_of_digits(string >> 1)
    f = low ^ z
    # the flip patterns that occur, and each string's line among them
    rank = np.zeros(dim, dtype=np.intp)
    rank[f] = 1
    flips = np.flatnonzero(rank)
    rank[flips] = np.arange(len(flips))
    line = rank[f]
    g = np.zeros((len(flips), dim), dtype=complex)
    g[line, z] = state.coeffs[string] * _I_POWERS[np.bitwise_count(f & z) & 3]
    # the transform over z = (z_high, z_low) as H (x) H, one product per factor
    half = n // 2
    g = _hadamard(half) @ g.reshape(-1, 2 ** half, dim >> half) @ _hadamard(n - half)
    x = np.arange(dim)
    out = np.zeros(dim * dim, dtype=complex)
    out[((flips[:, None] ^ x) << n) | x] = g.reshape(-1, dim)
    return out.reshape(dim, dim)


State = Union[PauliState, OrderedState]


def _map_orders(state: State, fn) -> State:
    if isinstance(state, OrderedState):
        return OrderedState(state.n, tuple(fn(st) for st in state.orders))
    return fn(state)


def _frame(c) -> np.ndarray:
    """A rotation with columns (u, v, c): it takes z to c.

    u is the coordinate axis least aligned with c, made orthogonal to it, so
    for c along a coordinate axis the rotation is a signed permutation and
    r0 and the channel enter the frame exactly.
    """
    c = _unit_vector(c, "c")
    a = int(np.argmin(np.abs(c)))
    u = -c[a] * c
    u[a] += 1.0
    u /= np.linalg.norm(u)
    # c x u written out: np.cross costs more than the rest of the frame
    v = np.array([c[1] * u[2] - c[2] * u[1], c[2] * u[0] - c[0] * u[2],
                  c[0] * u[1] - c[1] * u[0]])
    return np.column_stack([u, v, c])


@lru_cache(maxsize=None)
def _cz_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather table of the complete-graph CZ conjugation on n slots.

    out[P] = sign[P] * in[index[P]].  Letters I, X, Y, Z are the codes
    0..3, so X <-> Y and I <-> Z are both the XOR of a letter with 3: an
    even-w string flips its X/Y slots, an odd-w string flips its I/Z
    slots.  The map is an involution, so index[P] is also the image of P
    and sign[P] is its sign: (-1)^(number of Y) for even w, (-1)^((w-1)/2)
    for odd w.  Built one slot at a time, with no (n, 4^n) temporaries;
    the cache holds at most one table per qubit count.
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


def prep_conjugate(state: State) -> State:
    """Conjugate by the complete-graph CZ circuit (the preparation in the frame
    of c): one signed gather per order."""

    def one(st: PauliState) -> PauliState:
        if st.n < 2:
            raise ValueError("preparation needs at least two qubits")
        index, sign = _cz_table(st.n)
        # indexing casts the int32 table in buffered chunks, where np.take
        # would make a 4^n intp copy of it
        x = st.coeffs[index]
        x *= sign
        return PauliState._adopt(st.n, x)

    return _map_orders(state, one)


def _channel_pass(st: PauliState, F: np.ndarray) -> PauliState:
    """The (4, 4) map F of Pauli components applied to qubit 0, the leading
    base-4 digit of the string index."""
    return PauliState._adopt(st.n, (F @ st.coeffs.reshape(4, -1)).reshape(4 ** st.n))


# A 2x2 operator X as the row-major vector vec(X): vec(X) = _FROM_PAULI @ x
# for X = sum_l x_l sigma_l / 2, and x_k = Tr[sigma_k X] = _TO_PAULI[k] @ vec(X).
_FROM_PAULI = PAULI_MATS.reshape(4, 4).T / 2.0
_TO_PAULI = PAULI_MATS.transpose(0, 2, 1).reshape(4, 4)


def _pauli_maps(ch: BlochChannel) -> np.ndarray:
    """The channel and its derivative as (2, 4, 4) maps of Pauli components,
    with the rules of ``apply_channel`` and ``apply_channel_derivative``."""
    F = np.zeros((2, 4, 4))
    F[0, 0, 0] = 1.0
    F[0, 1:, 0], F[0, 1:, 1:] = ch.d, ch.M
    F[1, 1:, 0], F[1, 1:, 1:] = ch.dd, ch.dM
    return F


def _qubit0_maps(ch: BlochChannel) -> np.ndarray:
    """The channel and its derivative on one qubit, as (8, 4).

    Rows 0..3 map vec(X) to vec(channel(X)), rows 4..7 to vec(derivative(X)).
    """
    return (_FROM_PAULI @ _pauli_maps(ch) @ _TO_PAULI).reshape(8, 4)


def apply_channel(state: State, ch: BlochChannel) -> State:
    """Apply a single-qubit channel to qubit 0."""
    F = _pauli_maps(ch)[0]
    return _map_orders(state, lambda st: _channel_pass(st, F))


def apply_channel_derivative(state: State, ch: BlochChannel) -> State:
    """Apply the parameter derivative of the channel to qubit 0.

    The channel input is parameter independent, so the derivative of the
    output state is obtained by pushing the input through (dM, dd) with no
    identity pass-through.
    """
    F = _pauli_maps(ch)[1]
    return _map_orders(state, lambda st: _channel_pass(st, F))
