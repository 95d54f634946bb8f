"""n-qubit operator algebra in the Pauli-string basis.

An n-qubit Hermitian operator rho is stored as the real coefficient array
over the 4^n Pauli strings, with the convention

    rho = sum_P coeffs[P] * P,        coeffs[P] = Tr[rho P] / 2^n.

Letters are coded I=0, X=1, Y=2, Z=3 and qubit 0 is the LEFTMOST tensor
factor, i.e. the most significant base-4 digit of the string index.  This is
also the qubit a single channel invocation acts on in the protocols built on
top of this module.

Two state forms coexist:

* ``PauliState``   -- a numeric state at fixed purity.
* ``OrderedState`` -- the same state with the purity tracked symbolically:
  ``orders[j]`` is the coefficient operator of r^j, so the physical state is
  sum_j r^j orders[j].  Channels and unitaries act on each order
  independently, which is what makes the purity-series machinery exact.

A single-qubit channel (M, d) acts on one tensor slot by the affine rule
I -> I + d.sigma and a.sigma -> (M a).sigma; the derivative pass applies
(dM, dd) with no identity pass-through.  The pairwise preparation gate with
control direction c,

    U_c = (I8I + I8(c.sigma) + (c.sigma)8I - (c.sigma)8(c.sigma)) / 2,

is Hermitian and self-inverse.  It is the controlled-Z gate in a frame whose
z axis is c, U_c = V8V CZ V+8V+ with V sigma_z V+ = c.sigma, so the full
preparation (one U_c per qubit pair; the factors commute) is V^(8n) times
the complete-graph CZ circuit times V+^(8n).  That circuit is a Clifford
conjugation: X_i -> X_i prod_{j!=i} Z_j, Z_i -> Z_i, so it sends every Pauli
string to plus or minus one Pauli string (Hein, Eisert & Briegel, PRA 69,
062311 (2004); Aaronson & Gottesman, PRA 70, 052328 (2004)).  With w the
number of X or Y letters of a string:

* w even: every X becomes Y and every Y becomes -X; I and Z stay;
* w odd:  every I becomes Z and every Z becomes I; X and Y stay, and the
  string takes the sign (-1)^((w-1)/2).

``prep_conjugate`` therefore rotates the letter axis of every slot into the
frame of c (two slots per matrix product), applies this map as one signed
gather of the 4^n array, and rotates back.  The gather table depends only on
n and is cached, one per qubit count.  The dense matrix path is kept as a
test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

import numpy as np

from .bloch import BlochChannel

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
    "from_dense",
    "u_c",
    "u_prep",
    "conjugate",
    "prep_conjugate",
    "apply_channel",
    "apply_channel_derivative",
    "permute_qubits",
    "state_to_doc",
    "state_from_doc",
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


def _unit_vector(v, name: str = "direction") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a unit 3-vector, got {v!r}")
    return v


@dataclass(frozen=True)
class PauliState:
    """Real Pauli-string coefficients of an n-qubit operator."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_pauli_cap(self.n)
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (4 ** self.n,):
            raise ValueError(
                f"coefficient array must have length 4^{self.n}, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c = c.copy() if c is self.coeffs else c
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

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
        return PauliState(self.n, total)


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
    return PauliState(n, coeffs)


def initial_state_orders(n: int, r0, max_order: int | None = None) -> OrderedState:
    """Purity-order decomposition of the product initial state.

    orders[j] collects every string with exactly j letters drawn from
    r0.sigma (coefficient (1/2^n) * product of r0 components); orders beyond
    the requested max_order are truncated, orders beyond n are zero.
    """
    _check_pauli_cap(n)
    r0 = _unit_vector(r0, "r0")
    if max_order is None:
        max_order = n
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    slot_i = 0.5 * np.array([1.0, 0.0, 0.0, 0.0])
    slot_r = 0.5 * np.array([0.0, r0[0], r0[1], r0[2]])
    # coefficient arrays per power of r, grown one tensor slot at a time
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
    return OrderedState(n, tuple(PauliState(n, p) for p in polys[: max_order + 1]))


def to_dense(state: PauliState) -> np.ndarray:
    """Dense 2^n x 2^n complex matrix of a Pauli-coefficient state."""
    _check_dense_cap(state.n)
    n = state.n
    out = state.coeffs.reshape((4,) * n).astype(complex)
    for _ in range(n):
        out = np.tensordot(out, PAULI_MATS, axes=([0], [0]))
    # axes are now (r0, c0, r1, c1, ...); gather rows then columns
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return np.ascontiguousarray(out.transpose(perm)).reshape(2 ** n, 2 ** n)


def from_dense(mat: np.ndarray, imag_tol: float = 1e-10) -> PauliState:
    """Expand a Hermitian matrix over the Pauli basis.

    Raises if any coefficient has an imaginary part above imag_tol, which is
    the ingestion check that the operator really is Hermitian.
    """
    mat = np.asarray(mat, dtype=complex)
    dim = mat.shape[0]
    if mat.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise ValueError(f"matrix must be square with power-of-two size, got {mat.shape}")
    n = dim.bit_length() - 1
    _check_dense_cap(n)
    t = mat.reshape((2,) * (2 * n))
    perm = []
    for k in range(n):
        perm += [k, n + k]
    t = t.transpose(perm)
    contract = PAULI_MATS  # P[a][j, i]; contract row axis with i, column with j
    for _ in range(n):
        t = np.tensordot(t, contract, axes=([0, 1], [2, 1]))
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
    t = mat.reshape((2,) * n + (dim,))
    t = np.moveaxis(t, (i, j), (0, 1))
    t = np.tensordot(gate4.reshape(2, 2, 2, 2), t, axes=([2, 3], [0, 1]))
    t = np.moveaxis(t, (0, 1), (i, j))
    return t.reshape(dim, dim)


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


State = Union[PauliState, OrderedState]


def _map_orders(state: State, fn) -> State:
    if isinstance(state, OrderedState):
        return OrderedState(state.n, tuple(fn(st) for st in state.orders))
    return fn(state)


def conjugate(state: State, U: np.ndarray) -> State:
    """Conjugate by a dense unitary: rho -> U rho U+ (each order separately)."""
    U = np.asarray(U, dtype=complex)

    def one(st: PauliState) -> PauliState:
        if U.shape != (2 ** st.n, 2 ** st.n):
            raise ValueError(f"unitary shape {U.shape} does not match n={st.n}")
        return from_dense(U @ to_dense(st) @ U.conj().T)

    out = _map_orders(state, one)
    if isinstance(state, OrderedState):
        # the zero-order term is proportional to the identity string and must
        # be fixed by any unitary
        assert np.allclose(out.orders[0].coeffs, state.orders[0].coeffs, atol=1e-12)
    return out


def _frame(c) -> np.ndarray:
    """A rotation with columns (u, v, c): it takes z to c.

    u is the coordinate axis least aligned with c, made orthogonal to it, so
    for c along a coordinate axis the rotation is a signed permutation and
    the preparation stays exact.
    """
    c = _unit_vector(c, "c")
    a = int(np.argmin(np.abs(c)))
    u = -c[a] * c
    u[a] += 1.0
    u /= np.linalg.norm(u)
    return np.column_stack([u, np.cross(c, u), c])


def _slot_maps(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The letter map I -> I, a.sigma -> (M a).sigma on one slot and on two."""
    F = np.eye(4)
    F[1:, 1:] = M
    return F, np.kron(F, F)


def _rotate_letters(x: np.ndarray, n: int, maps: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Apply a letter map to every slot of a 4^n array.

    Two slots at a time: one product of the 16x16 two-slot map with the
    array viewed as (leading slots, slot pair, trailing slots).
    """
    done = 0
    while done < n:
        width = min(2, n - done)
        F = maps[width - 1]
        v = x.reshape(4 ** done, 4 ** width, -1)
        # the last slots as one 2-D product: a stack of 16x1 products is slower
        x = v.reshape(-1, 4 ** width) @ F.T if v.shape[2] == 1 else np.matmul(F, v)
        done += width
    return x.reshape(4 ** n)


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


def prep_conjugate(state: State, c) -> State:
    """Conjugate by the full preparation unitary: rotate, signed gather, rotate back."""
    R = _frame(c)
    into, back = _slot_maps(R.T), _slot_maps(R)

    def one(st: PauliState) -> PauliState:
        if st.n < 2:
            raise ValueError("preparation needs at least two qubits")
        index, sign = _cz_table(st.n)
        x = np.take(_rotate_letters(st.coeffs, st.n, into), index)
        x *= sign
        return PauliState(st.n, _rotate_letters(x, st.n, back))

    return _map_orders(state, one)


def _channel_pass(st: PauliState, qubit: int, M: np.ndarray, d: np.ndarray,
                  keep_identity: bool) -> PauliState:
    if not 0 <= qubit < st.n:
        raise ValueError(f"qubit index {qubit} out of range for n={st.n}")
    t = st.coeffs.reshape(4 ** qubit, 4, -1)
    out = np.empty_like(t)
    out[:, 0, :] = t[:, 0, :] if keep_identity else 0.0
    out[:, 1:, :] = np.einsum("ab,ibj->iaj", M, t[:, 1:, :])
    out[:, 1:, :] += d.reshape(1, 3, 1) * t[:, 0, :].reshape(t.shape[0], 1, t.shape[2])
    return PauliState(st.n, out.reshape(4 ** st.n))


def apply_channel(state: State, ch: BlochChannel, qubit: int = 0) -> State:
    """Apply a single-qubit channel to one tensor slot."""
    return _map_orders(state, lambda st: _channel_pass(st, qubit, ch.M, ch.d, True))


def apply_channel_derivative(state: State, ch: BlochChannel, qubit: int = 0) -> State:
    """Apply the parameter derivative of the channel to one tensor slot.

    The channel input is parameter independent, so the derivative of the
    output state is obtained by pushing the input through (dM, dd) with no
    identity pass-through.
    """
    return _map_orders(state, lambda st: _channel_pass(st, qubit, ch.dM, ch.dd, False))


def permute_qubits(state: State, perm: Iterable[int]) -> State:
    """Reorder tensor slots: new slot k holds old slot perm[k]."""
    perm = tuple(perm)

    def one(st: PauliState) -> PauliState:
        if sorted(perm) != list(range(st.n)):
            raise ValueError(f"perm {perm} is not a permutation of 0..{st.n - 1}")
        t = st.coeffs.reshape((4,) * st.n).transpose(perm)
        return PauliState(st.n, np.ascontiguousarray(t).reshape(4 ** st.n))

    return _map_orders(state, one)


def state_to_doc(state: PauliState, tol: float = 0.0) -> dict:
    """JSON-ready document listing the nonzero Pauli coefficients."""
    entries = [
        {"pauli": pauli_label(i, state.n), "value": float(v)}
        for i, v in enumerate(state.coeffs)
        if abs(v) > tol
    ]
    return {"n": state.n, "convention": "coeff = Tr[rho P]/2^n", "entries": entries}


def state_from_doc(doc: dict) -> PauliState:
    n = int(doc["n"])
    _check_pauli_cap(n)
    coeffs = np.zeros(4 ** n)
    for entry in doc["entries"]:
        label = entry["pauli"]
        if len(label) != n or any(ch not in _LETTERS for ch in label):
            raise ValueError(f"bad Pauli label {label!r} for n={n}")
        coeffs[pauli_index(label)] = float(entry["value"])
    return PauliState(n, coeffs)
