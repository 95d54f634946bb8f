"""n-qubit operator algebra in the Pauli-string basis.

An n-qubit Hermitian operator rho is expanded over the 4^n Pauli strings
with real coefficients, in the convention

    rho = sum_P coeffs[P] * P,        coeffs[P] = Tr[rho P] / 2^n.

Letters are coded I=0, X=1, Y=2, Z=3 and qubit 0 is the LEFTMOST tensor
factor, i.e. the most significant base-4 digit of the string index.  It is
the one qubit the channel acts on.

Every operator is a ``PauliStrings``: read-only arrays of its nonzero
strings and their coefficients.  The states are built in the frame of c
(``protocols.ProtocolSpec.in_frame``), where r0 has no v component, so a
product state's slot holds at most the letters I, X and Z.  The state at
fixed purity holds (1 + k)^n strings for k nonzero components of r0 in that
frame: at most 3^n, and 2^n when c is perpendicular to r0.  An
``OrderedState`` holds the coefficient operators orders[j] of r^j end to
end in one strings/coeffs pair, so the physical state is sum_j r^j
orders[j].
Order j of the product input holds the strings with j letters drawn from
r0.sigma, C(n, j) k^j of them, so orders 0..K hold sum_{j<=K} C(n, j) k^j
strings in place of (K + 1) 4^n entries: at n = 9 order 4 holds 126
strings for r0 along or perpendicular to c and 2,016 for an oblique r0, of
262,144.  The preparation and the channel act on each order independently,
which makes the purity-series machinery exact, and on all orders in one
call, touching only their strings: the preparation sends each string to
one string, and the channel mixes only strings of one order that differ on
qubit 0.

A single-qubit channel (M, d) acts on qubit 0 by the affine rule
I -> I + d.sigma and a.sigma -> (M a).sigma; the derivative pass applies
(dM, dd) with no identity pass-through.  ``bloch._pauli_maps`` writes both
as (4, 4) maps of qubit 0's Pauli components, and a pass multiplies a map
with the coefficients viewed as (4, 4^(n-1)), the leading digit first, in
the columns of the qubit-1..n-1 tails that each order's strings occupy.
The pairwise preparation gate with control direction c,

    U_c = (I8I + I8(c.sigma) + (c.sigma)8I - (c.sigma)8(c.sigma)) / 2,

is Hermitian and self-inverse.  It is the controlled-Z gate in a frame whose
z axis is c, U_c = V8V CZ V+8V+ with V sigma_z V+ = c.sigma, so the full
preparation (one U_c per qubit pair; the factors commute) is V^(8n) times
the complete-graph CZ circuit times V+^(8n).  The protocols build their
states in the frame of c, where the preparation is that circuit alone.  It
is a Clifford conjugation: X_i -> X_i prod_{j!=i} Z_j, Z_i -> Z_i, so it
sends every Pauli string to plus or minus one Pauli string (Hein, Eisert &
Briegel, PRA 69, 062311 (2004); Aaronson & Gottesman, PRA 70, 052328
(2004)).  With w the number of X or Y letters of a string:

* w even: every X becomes Y and every Y becomes -X; I and Z stay;
* w odd:  every I becomes Z and every Z becomes I; X and Y stay, and the
  string takes the sign (-1)^((w-1)/2).

``prep_conjugate`` decodes each string's image and sign from its own
base-4 digits, the strings of all orders at once, so it touches nothing
but the strings.  The dense preparation path (U_c and the full unitary as
matrices) is the test oracle in tests/support.py, and so are the dense 4^n
coefficient arrays, the signed gather table of all 4^n strings and their
channel pass.

``to_dense`` pays for the nonzero strings, not for all 4^n, and returns
the operator's nonzero XOR lines (``XorLines``), never its 2^n x 2^n
matrix.  With Y = iXZ a string is i^(#Y) X^f Z^z, where the flip pattern f
marks its X and Y letters and z its Y and Z letters, and
(X^f Z^z)[x + f, x] = (-1)^(z.x) (+ is the bitwise XOR).  So the strings
that share a flip pattern fill the one line D[x + f, x] of the dense
matrix, and that line is the Walsh-Hadamard transform over z of their
coefficients times i^(#Y).  Only the nonzero strings are decoded.  Each
term is real or imaginary, so the two parts are transformed as one real
array, by two Hadamard matrix products: over the high floor(n/2) bits of z
on the (line, part, low bits of z) rows that hold a string, then over the
low bits on every row, a block of lines at a time so that the output is
the one array of its size.  When no string has an odd number of Y letters
every term is real: the imaginary part is not transformed, and the lines
are float64 in place of complex.  An ``OrderedState`` takes one pass for
all its orders, its strings grouped by (order, flip pattern), and each
order's lines are a row slice of one array.  The purity series computes
on these lines.  The scatter of the lines into a matrix and the
slot-by-slot ``tensordot`` contraction over all 4^n strings are the test
oracles in tests/support.py.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .bloch import BlochChannel, DomainError, _pauli_maps, _ReadOnly, _unit_vector

__all__ = [
    "PauliStrings",
    "OrderedState",
    "XorLines",
    "MAX_QUBITS_PAULI",
    "MAX_QUBITS_DENSE",
    "initial_state",
    "initial_state_orders",
    "to_dense",
    "prep_conjugate",
    "apply_channel",
    "apply_channel_derivative",
]

# an oblique state holds 3^n strings (4.8 million at n = 14), and each pass
# holds a few arrays of their length: the channel pass sorts their
# qubit-1..n-1 tails
MAX_QUBITS_PAULI = 14
MAX_QUBITS_DENSE = 10   # the purity series: up to 2^n lines of 2^n entries
# real entries of the per-block transform arrays in ``to_dense`` (512 KiB)
_BLOCK_ENTRIES = 1 << 16


def _check_pauli_cap(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS_PAULI:
        raise DomainError(
            f"qubit count {n} outside supported range 1..{MAX_QUBITS_PAULI} "
            "for Pauli-coefficient operations")


def _check_dense_cap(n: int) -> None:
    if not 1 <= n <= MAX_QUBITS_DENSE:
        raise DomainError(
            f"qubit count {n} outside supported range 1..{MAX_QUBITS_DENSE} "
            "for dense-matrix operations")


class PauliStrings(_ReadOnly):
    """The nonzero Pauli strings of an n-qubit operator and their coefficients.

    ``strings`` holds string indices (base 4, qubit 0 the leading digit) and
    ``coeffs`` their real coefficients; every other string has coefficient
    zero.  ``ends`` holds the offsets of the purity orders, order j at
    ends[j]:ends[j + 1], in each of which a string occurs at most once: a
    lone operator is the one order (0, len(strings)).  The arrays are
    read-only, and the constructor copies what it is given; the builders in
    this module wrap the arrays they have just made with ``_adopt``, which
    runs the same checks without the copy.
    """

    def __init__(self, n: int, strings, coeffs):
        strings = np.array(strings, dtype=np.intp)
        if strings.size and not 0 <= strings.min() <= strings.max() < 4 ** n:
            raise ValueError(f"string indices must lie in 0..4^{n} - 1")
        self._hold(n, strings, np.array(coeffs, dtype=float))

    def _hold(self, n: int, strings: np.ndarray, c: np.ndarray, ends=None) -> None:
        _check_pauli_cap(n)
        if strings.ndim != 1 or c.shape != strings.shape:
            raise ValueError(
                f"need one coefficient per string, got {c.shape} for {strings.shape}")
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        strings.flags.writeable = False
        c.flags.writeable = False
        vars(self).update(n=n, strings=strings, coeffs=c, ends=ends or (0, strings.size))

    @classmethod
    def _adopt(cls, n: int, strings: np.ndarray, coeffs: np.ndarray, ends=None) -> PauliStrings:
        """Terms that take over arrays which no one else holds (one order by default)."""
        st = object.__new__(cls)
        st._hold(n, strings, coeffs, ends)
        return st


class OrderedState(PauliStrings):
    """A state expanded in powers of the purity, sum_j r^j orders[j], with
    its orders end to end in one strings/coeffs pair."""

    def __init__(self, n: int, orders):
        orders = tuple(orders)
        if any(st.n != n for st in orders):
            raise ValueError("all orders must share the qubit count")
        self._hold(n, np.concatenate([np.empty(0, dtype=np.intp), *(st.strings for st in orders)]),
                   np.concatenate([np.empty(0), *(st.coeffs for st in orders)]),
                   (0, *accumulate(st.strings.size for st in orders)))

    @cached_property
    def orders(self) -> tuple[PauliStrings, ...]:
        """Each order as a lone operator, on read-only views of the arrays."""
        return tuple(PauliStrings._adopt(self.n, self.strings[a:b], self.coeffs[a:b])
                     for a, b in zip(self.ends[:-1], self.ends[1:]))

    @property
    def max_order(self) -> int:
        return len(self.ends) - 2


def _by_order(keys: np.ndarray, ends: tuple[int, ...], shift: int) -> np.ndarray:
    """keys with each string's order above bit shift; a lone order's as they are."""
    if len(ends) > 2:
        keys = keys | np.repeat(np.arange(len(ends) - 1) << shift, np.diff(ends))
    return keys


def _grow_product(n: int, slot: np.ndarray, max_order: int):
    """The nonzero strings of the product of n copies of slot (I, X, Y, Z
    coefficients), their coefficients and their number of non-I letters.

    Grown one tensor slot at a time, multiplying in the order of the dense
    outer product, so every coefficient is bit-equal to that product's.  A
    string leaves as soon as its weight passes max_order or its coefficient
    is zero: a letter whose slot value is zero is never appended, so no
    coefficient is zero (or -0).
    """
    letters = np.flatnonzero(slot)
    factor, adds = slot[letters], (letters > 0).astype(np.int8)
    strings = np.zeros(1, dtype=np.intp)
    product = np.ones(1)
    weight = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        strings = (4 * strings[:, None] + letters).ravel()
        product = np.multiply.outer(product, factor).ravel()
        weight = (weight[:, None] + adds).ravel()
        kept = (weight <= max_order) & (product != 0.0)
        if not kept.all():
            strings, product, weight = strings[kept], product[kept], weight[kept]
    return strings, product, weight


def initial_state(n: int, r: float, r0) -> PauliStrings:
    """Product state ((I + r * r0.sigma)/2)^(x)n at fixed purity, as its
    nonzero strings: (1 + k)^n of them for k nonzero components of r0."""
    _check_pauli_cap(n)
    r0 = _unit_vector(r0, "r0")
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"purity must lie in [0, 1], got {r}")
    slot = 0.5 * np.array([1.0, r * r0[0], r * r0[1], r * r0[2]])
    strings, product, _ = _grow_product(n, slot, n)
    return PauliStrings._adopt(n, strings, product)


def initial_state_orders(n: int, r0, max_order: int | None = None) -> OrderedState:
    """Purity-order decomposition of the product initial state.

    orders[j] collects every string with exactly j letters drawn from
    r0.sigma (coefficient (1/2^n) * product of r0 components); orders beyond
    the requested max_order are truncated, orders beyond n are empty.  The
    strings of weight <= max_order are grown together (``_grow_product``)
    and put in order of weight by a stable sort.
    """
    _check_pauli_cap(n)
    r0 = _unit_vector(r0, "r0")
    if max_order is None:
        max_order = n
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    slot = 0.5 * np.array([1.0, r0[0], r0[1], r0[2]])
    strings, product, weight = _grow_product(n, slot, max_order)
    by = np.argsort(weight, kind="stable")
    ends = np.searchsorted(weight[by], np.arange(max_order + 2))
    return OrderedState._adopt(n, strings[by], product[by], tuple(ends.tolist()))


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


@lru_cache(maxsize=None)
def _hadamard(k: int) -> np.ndarray:
    """The 2^k x 2^k Walsh-Hadamard matrix: (-1)^(z.x) at row z, column x.

    Read-only and cached, one per k: ``to_dense`` reads two per call.
    """
    i = np.arange(2 ** k)
    h = 1.0 - 2.0 * (np.bitwise_count(i[:, None] & i) & 1)
    h.flags.writeable = False
    return h


def _group(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in 0..size-1, ascending, and each key's place among them.

    A byte mask finds them.  The rank array is written and read only at the
    keys, so it is left uninitialised: for few keys and a large size that
    saves zeroing and scanning size words.
    """
    mark = np.zeros(size, dtype=bool)
    mark[keys] = True
    distinct = np.flatnonzero(mark)
    rank = np.empty(size, dtype=np.intp)
    rank[distinct] = np.arange(len(distinct))
    return distinct, rank[keys]


class XorLines(_ReadOnly):
    """An n-qubit operator A as its nonzero XOR lines.

    ``flips`` holds distinct flips f, ascending, and ``lines[i, x]`` is
    A[x + f_i, x] (+ the bitwise XOR) for x = 0..2^n-1; every other line of
    A is zero.  Qubit 0 is the top bit of x, so lines f and f + 2^(n-1)
    are the ones that a map of qubit 0's 2x2 blocks mixes.  ``lines`` is
    float64 when A's entries are real (from ``to_dense``: no string with an
    odd number of Y letters) and complex otherwise.
    """

    def __init__(self, n: int, flips: np.ndarray, lines: np.ndarray):
        vars(self).update(n=n, flips=flips, lines=lines)

    @cached_property
    def rank(self) -> np.ndarray:
        """Each flip's row in ``lines``, and -1 for the flips A has no line of."""
        rank = np.full(2 ** self.n, -1)
        rank[self.flips] = np.arange(len(self.flips))
        return rank


def to_dense(state: PauliStrings) -> XorLines | tuple[XorLines, ...]:
    """The XOR lines of a Pauli-string operator: one line D[x + f, x] per
    flip pattern f of the strings (see the module docstring), so the cost
    follows the nonzero strings and no 2^n x 2^n matrix is formed.

    An ``OrderedState`` gives one ``XorLines`` per order, all from one pass:
    their lines are row slices of one array.  The lines are float64 when no
    string of the call has an odd number of Y letters, and complex otherwise.
    """
    _check_dense_cap(state.n)
    n, ends = state.n, state.ends
    dim = 2 ** n
    # letters I, X, Y, Z are the codes 0..3: z is the high bit, f the XOR
    # of both bits, and a Y has both f and z set
    low, z = _bits_of_digits(state.strings), _bits_of_digits(state.strings >> 1)
    f = low ^ z
    # the (order, flip pattern) pairs that occur, and each string's line
    keys, line = _group(_by_order(f, ends, n), (len(ends) - 1) * dim)
    # the power of i: even powers are real, odd ones imaginary, 2 and 3 negative
    power = np.bitwise_count(f & z).astype(np.intp) & 3
    # with no odd power (an even number of Y letters in every string) the
    # lines are real, and only the real part is transformed
    parts = 2 if (power & 1).any() else 1
    # the transform over z = (z_high, z_low) as H (x) H on each part: first
    # over z_high on the (line, part, z_low) rows that hold a string, then
    # over z_low on every row.  A block of lines holds a run of those rows,
    # so the lines are transformed a block at a time and the output is the
    # only array of their full size.
    half, rest = n // 2, n - n // 2
    low = (1 << rest) - 1
    rows, row = _group((parts * line + (power & 1)) << rest | (z & low),
                       parts * len(keys) << rest)
    g = np.zeros((len(rows), 2 ** half))
    g[row, z >> rest] = np.where(power & 2, -state.coeffs, state.coeffs)
    lines = np.empty((len(keys), dim), dtype=complex if parts == 2 else float)
    # entry x of line i, part p (real, imaginary)
    entries = lines.view(float).reshape(len(keys), dim, parts)
    step = max(1, _BLOCK_ENTRIES // (parts * dim))
    starts = np.arange(0, len(keys) + step, step)
    runs = np.searchsorted(rows, parts * starts << rest)
    for a, ra, rb in zip(starts[:-1], runs[:-1], runs[1:]):
        block = entries[a:a + step]
        t = np.zeros((parts * len(block), 2 ** half, 2 ** rest))
        r = rows[ra:rb] - (parts * a << rest)
        t[r >> rest, :, r & low] = g[ra:rb] @ _hadamard(half)
        t = (t.reshape(-1, 2 ** rest) @ _hadamard(rest)).reshape(len(block), parts, dim)
        for p in range(parts):
            block[:, :, p] = t[:, p]
    cut = np.searchsorted(keys, dim * np.arange(len(ends)))
    out = tuple(XorLines(n, keys[a:b] - j * dim, lines[a:b])
                for j, (a, b) in enumerate(zip(cut[:-1], cut[1:])))
    return out if isinstance(state, OrderedState) else out[0]


def prep_conjugate(state: PauliStrings) -> PauliStrings:
    """Conjugate by the complete-graph CZ circuit (the preparation in the frame
    of c): each string's image and sign decoded in place from its digits, for
    the strings of every order at once.  The bits of a digit differ on X and
    Y only, and X <-> Y and I <-> Z are both the XOR of a digit with 3."""
    if state.n < 2:
        raise ValueError("preparation needs at least two qubits")
    strings, coeffs = state.strings, state.coeffs
    full = 4 ** state.n - 1
    high = strings >> 1
    xy = high ^ strings
    xy &= full // 3                     # the low bit of each X/Y digit
    high &= xy                          # the low bit of each Y digit
    ny = np.bitwise_count(high)
    del high
    w = np.bitwise_count(xy)
    odd = (w & 1).view(bool)
    # (-1)^((w - 1)/2) for odd w, (-1)^#Y for even w
    negative = (np.where(odd, w >> 1, ny) & 1).view(bool)
    signed = coeffs.copy()
    np.negative(signed, out=signed, where=negative)
    xy *= 3
    xy ^= strings                       # even w: X <-> Y
    np.bitwise_xor(xy, full, out=xy, where=odd)  # odd w: I <-> Z instead
    return type(state)._adopt(state.n, xy, signed, state.ends)


def _channel_pass(state: PauliStrings, F: np.ndarray) -> PauliStrings:
    """The (4, 4) map F of Pauli components applied to qubit 0, the leading
    base-4 digit of the string index, in every purity order at once.

    The strings are grouped by (order, qubit-1..n-1 tail), and F multiplies
    one column of four leading digits per pair that occurs.  Each order's
    columns, padded with zeros to the widest order's count, are one matrix
    of a stack, so its images come out as a lone order's, by leading digit,
    then tail (bit for bit, but for an order of one tail among wider ones:
    numpy multiplies one column by gemv).  Exact zeros are dropped.
    """
    n, ends, shift = state.n, state.ends, 2 * (state.n - 1)
    tail = (1 << shift) - 1
    keys, column = np.unique(_by_order(state.strings & tail, ends, shift), return_inverse=True)
    count, width = len(ends) - 1, len(keys)
    if count > 1:  # each column's place among the padded ones, order by order
        order = keys >> shift
        widths = np.bincount(order, minlength=count)
        width = widths.max()
        place = np.arange(len(keys)) + order * width - (np.cumsum(widths) - widths)[order]
        padded = np.zeros(count * width, dtype=np.intp)
        padded[place] = keys & tail
        keys, column = padded, place[column]
    t = np.zeros((4, count * width))
    t[state.strings >> shift, column] = state.coeffs
    del column
    out = F @ t.reshape(4, count, width).transpose(1, 0, 2)
    del t
    strings = keys.reshape(count, 1, width) | (np.arange(4)[:, None] << shift)
    nonzero = out != 0.0
    ends = None if count == 1 else (0, *accumulate(map(np.count_nonzero, nonzero)))
    return type(state)._adopt(n, strings[nonzero], out[nonzero], ends)


def apply_channel(state: PauliStrings, ch: BlochChannel) -> PauliStrings:
    """Apply a single-qubit channel to qubit 0."""
    return _channel_pass(state, _pauli_maps(ch)[0])


def apply_channel_derivative(state: PauliStrings, ch: BlochChannel) -> PauliStrings:
    """Apply the parameter derivative of the channel to qubit 0.

    The channel input is parameter independent, so the derivative of the
    output state is obtained by pushing the input through (dM, dd) with no
    identity pass-through.
    """
    return _channel_pass(state, _pauli_maps(ch)[1])
