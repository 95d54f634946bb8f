"""Purity-series computation of the SLD and QFI, plus closed-form lowest orders.

With every qubit initially at purity r, the final state, the SLD, and the
QFI all expand in powers of r:

    rho_f = sum_j r^j rho^(j),   L = sum_j r^j L^(j),   H = sum_j r^j H^(j).

Matching powers in the SLD defining equation gives, for each order k,

    L^(k) rho^(0) + rho^(0) L^(k)
        = 2 d(rho^(k))/dlam - sum_{j=1..k} (L^(k-j) rho^(j) + rho^(j) L^(k-j)),

a Sylvester-type equation.  Every protocol here leaves the zeroth order in
the product form rho^(0) = h (x) I/2^(n-1), where h = (I + d.sigma)/2 is the
qubit-0 factor (h = I/2 for unital channels), and its derivative as
hdot (x) I/2^(n-1), so L^(0) = l (x) I and the equation is solved in the 2x2
eigensystem of h: the change of basis, the division by the eigenvalue sums
and the change back act on the qubit-0 slot only.  h must be positive
definite (|d| < 1).

The QFI orders come from the stationary form of the QFI,
H = max_X (2 Tr[d(rho)/dlam X] - Tr[rho X^2]), whose maximum is the SLD.
Evaluated at the SLD series truncated after order m it errs by
O(r^(2m+2)) (Wigner's 2n+1 rule), so the SLD orders through K // 2 fix every
QFI order through K:

    H^(k) = 2 sum_{a+b=k} Tr[d(rho^(a))/dlam L^(b)]
            - sum_{a+b+c=k} Tr[rho^(a) L^(b) L^(c)],      b, c <= K // 2.

Every operator of the series is held as its nonzero XOR lines
D[x + f, x] (+ the bitwise XOR; ``mstate.XorLines``), which the purity
orders fill sparsely: at n = 9 and the canonical directions orders 0..4
fill 1, 9, 36, 84 and 126 of the 512 lines, and a K = 4 series reads 1, 9,
36, 0 and 0 of them (``qfi_orders``).  No 2^n x 2^n matrix is formed,
and every step costs (number of lines) 2^n in place of 4^n:

* a map of the qubit-0 2x2 blocks (the products with rho^(0) and L^(0),
  and the 2x2 inverse of the solve) mixes line f with f + 2^(n-1) only;
* the adjoint is line f read at x + f and conjugated;
* Re Tr[A^dagger B] sums over the lines A and B share;
* a product costs 2^n per pair of lines (``_product``).

The lines of an operator are float64 when every entry is real, which
``to_dense`` decides from the strings (an odd number of Y letters makes
them complex): at the canonical directions every order is real.  Each
operation takes its dtype from its operands, so the series stays in the
dtype of its input orders, and a complex operand makes the result complex.

At K = 4 only two products remain: L^(1) rho^(1), formed in the SLD solve
and reused by the traces, and L^(1) rho^(2) in the traces.  The channel and
its derivative each make one pass over the nonzero Pauli strings of all
input orders, and the output orders are then transformed to their lines in
one pass, and their derivatives in another (``channel_output_orders``).

The closed-form lowest orders implemented below, with Mdot = dM/dlam and
s1 >= s2 >= s3 its singular values:

* unital single qubit:      H^(2) = r0^T Mdot^T Mdot r0,  optimum s1^2
* non-unital, param-dep d:  H^(0) = ddot.ddot + (d(d^2)/dlam)^2 / (4(1-d^2))
* non-unital, constant d:   H^(2) = r0^T [Mdot^T Mdot
                                    + d^2/(1-d^2) Mdot^T P_d Mdot] r0
* correlated, unital:       H^(2) = r0^T [(I-Pc) G (I-Pc) + (2-n) Pc G Pc] r0
                                    + (n-1) c^T G c,   G = Mdot^T Mdot
  bounded by (n-1)s1^2 + s2^2 <= H^(2) <= n s1^2, the lower bound attained
  at the canonical directions c = B^T e1, r0 = B^T e2.
* correlated, unital, c perpendicular to r0: H^(3) = 0 and a closed H^(4)
  (n >= 3; n = 2 goes through the generic order solver).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bloch import (BlochChannel, Unitality, _ReadOnly, _unit_vector, classify_unitality,
                    svd3)
from .blocks import PERPENDICULAR_TOL
from .mstate import (OrderedState, XorLines, _group, apply_channel, apply_channel_derivative,
                     to_dense)

__all__ = [
    "BranchError",
    "StateOrders",
    "SldSeries",
    "QfiSeries",
    "channel_output_orders",
    "sld_orders",
    "qfi_orders",
    "sqsc_unital_h2",
    "sqsc_unital_opt",
    "SqscOpt",
    "sqsc_nonunital_h0",
    "sqsc_nonunital_const_h2",
    "corr_h2",
    "corr_bounds",
    "corr_gain_ratio",
    "corr_h3_h4",
    "canonical_directions",
    "sphere_directions",
    "corr_h2_grid_max",
    "GridMax",
    "FitResult",
    "fit_qfi_orders",
    "default_fit_purities",
    "require_unital",
]

DEFAULT_MAX_ORDER = 4


class BranchError(ValueError):
    """A closed-form result was requested for the wrong unitality branch."""


def require_unital(ch: BlochChannel) -> None:
    if classify_unitality(ch) is not Unitality.UNITAL:
        raise BranchError(
            f"channel is not unital: |d|={np.linalg.norm(ch.d):.3e}, "
            f"|dd|={np.linalg.norm(ch.dd):.3e}")


class StateOrders(_ReadOnly):
    """Purity orders of the final state and their lam derivatives, as XOR lines.

    From ``channel_output_orders`` every order is whole.  From
    ``protocols.purity_orders(spec, K)`` the orders through K // 2 are whole,
    and a higher order a holds the lines of at most K - a spectator flips,
    the only ones ``qfi_orders`` reads at any K' <= K.
    """

    def __init__(self, rho, drho):
        rho, drho = tuple(rho), tuple(drho)
        if len(rho) != len(drho) or not rho:
            raise ValueError("rho and drho order lists must be nonempty and equal length")
        vars(self).update(rho=rho, drho=drho)

    @property
    def max_order(self) -> int:
        return len(self.rho) - 1


class SldSeries(_ReadOnly):
    """SLD orders L^(0)..L^(K), and the products L^(b) rho^(a) the solve formed.

    products maps (b, a) to L^(b) rho^(a) for the state orders the series
    was solved from; ``qfi_orders`` takes each one out instead of forming
    it again.  rho0_factor and sld0_factor are the 2x2 q and l with
    rho^(0) = q (x) I and L^(0) = l (x) I, as the solve checked and built
    them; ``qfi_orders`` reads them instead of deriving them again.
    """

    def __init__(self, orders: tuple[XorLines, ...], products: dict,
                 rho0_factor: np.ndarray, sld0_factor: np.ndarray):
        vars(self).update(orders=orders, products=products, rho0_factor=rho0_factor,
                          sld0_factor=sld0_factor)


class QfiSeries(NamedTuple):
    orders: np.ndarray

    def evaluate(self, r: float) -> float:
        return float(sum(h * r ** j for j, h in enumerate(self.orders)))


def channel_output_orders(input_orders: OrderedState, ch: BlochChannel) -> StateOrders:
    """Push the purity orders of the channel input through (M, d) and (dM, dd).

    The preparation is parameter independent, so the derivative of each
    final-state order is the derivative channel applied to the same input
    order.  Each makes one pass over qubit 0's letter of the nonzero strings
    of all input orders, and the output orders and their derivatives are
    then transformed to their XOR lines in one pass each.
    """
    return StateOrders(to_dense(apply_channel(input_orders, ch)),
                       to_dense(apply_channel_derivative(input_orders, ch)))


def _at(A: XorLines, flips: np.ndarray) -> np.ndarray:
    """A's lines at the given flips, zero where A has none."""
    at = A.rank[flips]
    has = at >= 0
    if has.all():
        return A.lines[at]
    out = np.zeros((len(flips), 2 ** A.n), dtype=A.lines.dtype)
    out[has] = A.lines[at[has]]
    return out


def _sum(n: int, terms: list) -> XorLines:
    """sum of w A over the (w, A) terms, on the union of their flips, added
    in the order given; real weights keep the dtype of the lines."""
    if not terms:
        return XorLines(n, np.zeros(0, dtype=np.intp), np.zeros((0, 2 ** n)))
    flips, rows = _group(np.concatenate([A.flips for _, A in terms]), 2 ** n)
    out = np.zeros((len(flips), 2 ** n), dtype=np.result_type(*(A.lines for _, A in terms)))
    start = 0
    for w, A in terms:
        out[rows[start:start + len(A.flips)]] += w * A.lines
        start += len(A.flips)
    return XorLines(n, flips, out)


def _adjoint(A: XorLines) -> XorLines:
    """A^dagger: line f of A read at x + f and conjugated."""
    rows = np.arange(len(A.flips))[:, None]
    return XorLines(A.n, A.flips, A.lines[rows, A.flips[:, None] ^ np.arange(2 ** A.n)].conj())


# T[i, j, k, l] read at (t, j, u, s), for an output line with top bit t at
# a column of top bit j and the source term toggled by u in rows and by s in
# columns: i = j + t, k = i + u, l = j + s
_T, _J, _U, _S = np.indices((2, 2, 2, 2))
_W_INDEX = (((_J ^ _T) * 2 + _J) * 2 + (_J ^ _T ^ _U)) * 2 + (_J ^ _S)


def _block_map(T: np.ndarray):
    """The linear map T of qubit 0's 2x2 blocks, as a function of XorLines.

    X[(i, a), (j, b)] = sum_{k, l} T[i, j, k, l] A[(k, a), (l, b)], with
    qubit 0's row and column bits first.  Output line g at a column x of
    top bit j reads A's line g + (u + s) 2^(n-1) at x + s 2^(n-1), for
    k = i + u and l = j + s, i = j + top(g): only lines f and
    f + 2^(n-1) mix, and the output keeps A's flips unless T couples them.
    The terms (u, s) whose weights all vanish are left out.
    """
    W = T.reshape(16)[_W_INDEX]
    live = W.reshape(4, 4).any(axis=0).tolist()
    terms = [(k // 2, k % 2, W[:, :, k // 2, k % 2]) for k in range(4) if live[k]]
    mixes = any(u != s for u, s, _ in terms)

    def apply(A: XorLines) -> XorLines:
        n, m = A.n, 2 ** (A.n - 1)
        flips = A.flips
        if mixes:
            flips, _ = _group(np.concatenate([flips, flips ^ m]), 2 * m)
            src = [_at(A, f).reshape(-1, 2, m) for f in (flips, flips ^ m)]
        else:
            src = [A.lines.reshape(-1, 2, m)]
        out = np.zeros(src[0].shape, dtype=np.result_type(src[0], W))
        top = flips >> (n - 1)
        for u, s, w in terms:
            part = src[u ^ s][:, ::-1] if s else src[u ^ s]
            out += w[top][:, :, None] * part
        return XorLines(n, flips, out.reshape(len(flips), 2 * m))

    return apply


def _left(q: np.ndarray):
    """A -> (q (x) I) A: the block map T[i, j, k, l] = q[i, k] delta_jl."""
    return _block_map(q[:, None, :, None] * np.eye(2)[None, :, None, :])


def _qubit0_factor(A: XorLines, what: str, form: str) -> np.ndarray:
    """The 2x2 factor q of A = q (x) I, with I the identity on qubits 1..n-1.

    Only lines 0 and 2^(n-1) may be nonzero, and each must be constant on
    the halves of x that qubit 0 splits it into; every entry is checked to
    1e-12, and a ValueError names the operator and the expected form when A
    does not act on qubit 0 alone.
    """
    m = 2 ** (A.n - 1)
    # halves[t, j]: the diagonal of block (j + t, j), contiguous, so the
    # pairwise sum keeps q exact when its entries are equal
    halves = _at(A, np.array([0, m])).reshape(2, 2, m)
    mean = halves.sum(axis=-1) / m
    rest = A.lines[(A.flips != 0) & (A.flips != m)]
    if max(np.abs(rest).max(initial=0.0),
           np.abs(halves - mean[..., None]).max()) > 1e-12:
        raise ValueError(
            f"{what} does not factor as {form}; the order-by-order SLD solve "
            "needs qubit-0 operators times the identity on the rest")
    return mean[[[0, 1], [1, 0]], [0, 1]]  # q[i, j] = mean[i + j, j]


def _zeroth_order_inverse(h: np.ndarray, m: int) -> np.ndarray:
    """The map R -> X solving X rho0 + rho0 X = R for rho0 = h (x) I/m.

    In the eigenbasis h = V diag(q) V^dagger the solution is
    X~_ab = R~_ab m / (q_a + q_b), so with every block indexed by its
    qubit-0 row and column, X[x, y] = sum_{z, w} T[x, y, z, w] R[z, w] for
    the returned 2x2x2x2 T.
    """
    q, V = np.linalg.eigh(h)
    if q[0] / m <= 1e-14:
        raise ValueError(
            "zeroth-order state is singular; the order-by-order SLD "
            "equations need a positive definite rho^(0)")
    scale = m / (q[:, None] + q[None, :])
    return np.einsum("xa,za,ab,yb,wb->xyzw", V, V.conj(), scale, V.conj(), V)


def _re_inner(A: XorLines, B: XorLines) -> float:
    """Re Tr[A^dagger B] over the flips A and B share, summed in runs of
    2^(n // 2) entries and then pairwise: one running sum over a line drifts
    by about 1e-15 relative at n = 10 on h0 (and one over every entry by
    3e-14 at n = 9 on an order-4 trace).  Real lines are summed as complex
    ones: numpy reduces a real run in another order, which moves the last
    digits of a trace with the dtype of its operands."""
    if A.flips is B.flips:
        a, b = A.lines, B.lines
    else:
        at = B.rank[A.flips]
        common = at >= 0
        a, b = A.lines[common], B.lines[at[common]]
    run = 2 ** (A.n // 2)
    a, b = (np.asarray(v, dtype=complex).reshape(-1, run) for v in (a, b))
    return float(np.vecdot(a, b).sum().real)


def _product(A: XorLines, B: XorLines) -> XorLines:
    """A B from the XOR lines of its factors.

    With a_f[x] = A[x + f, x] and b_g[x] = B[x + g, x] (+ the bitwise XOR),

        (AB)[x + f + g, x] = sum over (f, g) of a_f[x + g] b_g[x],

    so every pair of lines costs 2^n work.  One pass per line f of A: the
    lines of B meet distinct output lines f + g, so each += adds to
    distinct rows.
    """
    n = A.n
    flips, rows = _group((A.flips[:, None] ^ B.flips).ravel(), 2 ** n)
    rows = rows.reshape(len(A.flips), len(B.flips))
    out = np.zeros((len(flips), 2 ** n), dtype=np.result_type(A.lines, B.lines))
    shifted = B.flips[:, None] ^ np.arange(2 ** n)
    for to, af in zip(rows, A.lines):
        out[to] += af[shifted] * B.lines
    return XorLines(n, flips, out)


def sld_orders(orders: StateOrders, K: int) -> SldSeries:
    """Solve the order-by-order SLD equations up to order K.

    rho^(0) = h (x) I/2^(n-1) and d(rho^(0))/dlam = hdot (x) I/2^(n-1) are
    checked, so L^(0) = l (x) I solves a 2x2 equation and every order needs
    only the 2x2 eigensystem of h.  Order k takes the right-hand side
    R = 2 d(rho^(k))/dlam - (Y + Y^dagger) with Y = sum_j L^(k-j) rho^(j)
    and maps it through the 2x2 inverse on the qubit-0 blocks.  The term
    L^(0) rho^(k) is a 2x2 contraction; the others are one line product
    each (``_product``), and the series keeps them for ``qfi_orders`` (at
    K = 2 that is L^(1) rho^(1) alone).
    """
    n = orders.rho[0].n
    m = 2 ** (n - 1)
    q = _qubit0_factor(orders.rho[0], "zeroth-order state", "h (x) I/2^(n-1)")
    h = m * q
    hdot = _qubit0_factor(orders.drho[0], "zeroth-order derivative",
                          "hdot (x) I/2^(n-1)")
    T = _zeroth_order_inverse(h, m)
    ell = np.tensordot(T, 2.0 * hdot, axes=2)
    identity = XorLines(n, np.zeros(1, dtype=np.intp), np.ones((1, 2 * m)))
    solve, times_ell = _block_map(T), _left(ell)
    L: list[XorLines] = [times_ell(identity)]
    products = {}
    for k in range(1, K + 1):
        terms = [(2.0, orders.drho[k])] if k <= orders.max_order else []
        for j in range(1, min(k, orders.max_order) + 1):
            if j == k:
                Y = times_ell(orders.rho[k])
            else:
                Y = products[k - j, j] = _product(L[k - j], orders.rho[j])
            terms += [(-1.0, Y), (-1.0, _adjoint(Y))]
        L.append(solve(_sum(n, terms)))
    return SldSeries(tuple(L), products, q, ell)


def qfi_orders(orders: StateOrders, K: int) -> QfiSeries:
    """QFI purity orders through K from the SLD orders through m = K // 2.

    The QFI is the maximum of the stationary functional
    F(X) = 2 Tr[d(rho)/dlam X] - Tr[rho X^2], attained at the SLD.  At the
    truncated SLD X = sum_{b<=m} r^b L^(b) it falls short by
    Tr[rho (L - X)^2] = O(r^(2m+2)) (Wigner's 2n+1 rule), so every order
    k <= K is exact (Macieszczak, Fraas & Demkowicz-Dobrzanski, NJP 16,
    113002 (2014); Gonze & Vigneron, PRB 39, 13120 (1989)):

        H^(k) = 2 sum_{a+b=k, b<=m} Tr[d(rho^(a))/dlam L^(b)]
                - sum_{a+b+c=k, b,c<=m} Tr[rho^(a) L^(b) L^(c)].

    The SLD orders come from ``sld_orders(orders, m)``.  Each trace is an
    inner product of one product with one order over their common lines:
    the real part of Tr[rho^(a) L^(b) L^(c)] is Re Tr[P^dagger L^(c)] for P
    either rho^(a) L^(b) or L^(b) rho^(a), and it is symmetric in b and c.
    When rho^(0) or L^(0) is a factor of P, P is a 2x2 contraction on the
    qubit-0 blocks; only P = L^(b) rho^(a) with a, b >= 1 is a line product
    (L^(1) rho^(1) and L^(1) rho^(2) at K = 4).  A product that the SLD
    solve already formed is taken out of its series (L^(1) rho^(1) at
    K = 4), so a K = 4 cell makes two products in all, and each is dropped
    after its last trace.
    """
    top = K // 2
    sld = sld_orders(orders, top)
    L, shared = sld.orders, sld.products
    rho, drho, last = orders.rho, orders.drho, orders.max_order
    times_h0, times_ell = _left(sld.rho0_factor), _left(sld.sld0_factor)
    H = np.zeros(K + 1)
    # an order with no line (``protocols.purity_orders`` builds only the
    # lines read) adds +0.0 to H, which is never -0.0: it is skipped
    for b, Lb in enumerate(L):
        for a in range(min(K - b, last) + 1):
            if len(drho[a].flips):
                H[a + b] += 2.0 * _re_inner(drho[a], Lb)
    for a in range(min(K, last) + 1):
        if not len(rho[a].flips):
            continue
        for b in range(min(top, (K - a) // 2) + 1):
            if a == 0:
                P = times_h0(L[b])
            elif b == 0:
                P = times_ell(rho[a])
            else:
                P = shared.pop((b, a), None)
                if P is None:
                    P = _product(L[b], rho[a])
            for c in range(b, min(top, K - a - b) + 1):
                t = _re_inner(P, L[c])
                H[a + b + c] -= t if b == c else 2.0 * t
            del P  # before the next product is formed
    return QfiSeries(H)


# ---------------------------------------------------------------------------
# closed-form lowest orders, single qubit baseline
# ---------------------------------------------------------------------------

def sqsc_unital_h2(ch: BlochChannel, r0) -> float:
    """Lowest-order QFI coefficient (of r^2) for a unital single-qubit run."""
    require_unital(ch)
    v = ch.dM @ _unit_vector(r0, "r0")
    return float(v @ v)


class SqscOpt(NamedTuple):
    h2_opt: float
    r0_opt: np.ndarray
    meas_dir: np.ndarray


def sqsc_unital_opt(ch: BlochChannel) -> SqscOpt:
    """Optimal lowest-order single-qubit protocol from the SVD of dM.

    The optimum is s1^2, attained with the input direction B^T e1; the
    matching lowest-order measurement is a projection along A e1.
    """
    require_unital(ch)
    dec = svd3(ch.dM)
    return SqscOpt(h2_opt=float(dec.S[0] ** 2), r0_opt=dec.B[0].copy(),
                   meas_dir=dec.A[:, 0].copy())


def sqsc_nonunital_h0(ch: BlochChannel) -> float:
    """Zeroth-order QFI for a parameter-dependent Bloch shift vector."""
    if classify_unitality(ch) is not Unitality.NONUNITAL_PARAM_SHIFT:
        raise BranchError("shift vector is parameter independent; use the r^2 branch")
    dnorm = float(np.linalg.norm(ch.d))
    base = float(ch.dd @ ch.dd)
    if dnorm > 1.0 - 1e-9:
        return base
    dd2 = 2.0 * float(ch.d @ ch.dd)  # d(d^2)/dlam
    return base + dd2 ** 2 / (4.0 * (1.0 - dnorm ** 2))


def sqsc_nonunital_const_h2(ch: BlochChannel, r0) -> float:
    """Lowest-order QFI coefficient for a constant nonzero Bloch shift."""
    kind = classify_unitality(ch)
    if kind is Unitality.NONUNITAL_PARAM_SHIFT:
        raise BranchError("shift vector is parameter dependent; use the r^0 branch")
    if kind is Unitality.UNITAL:
        raise BranchError("shift vector vanishes; the channel is unital")
    dnorm = float(np.linalg.norm(ch.d))
    if dnorm > 1.0 - 1e-9:
        raise BranchError("|d| = 1 forces M = 0 and leaves no parameter dependence")
    v = ch.dM @ _unit_vector(r0, "r0")
    proj = float(ch.d @ v) / dnorm  # component of Mdot r0 along the shift axis
    return float(v @ v) + dnorm ** 2 / (1.0 - dnorm ** 2) * proj ** 2


# ---------------------------------------------------------------------------
# symmetric pairwise correlated protocol, unital channels
# ---------------------------------------------------------------------------

def corr_h2(ch: BlochChannel, n: int, c, r0) -> float:
    """Lowest-order correlated-protocol QFI coefficient (of r^2)."""
    require_unital(ch)
    if n < 2:
        raise ValueError("correlated protocol needs n >= 2")
    c = _unit_vector(c, "c")
    r0 = _unit_vector(r0, "r0")
    G = ch.dM.T @ ch.dM
    Pc = np.outer(c, c)
    Q = np.eye(3) - Pc
    mat = Q @ G @ Q + (2.0 - n) * (Pc @ G @ Pc)
    return float(r0 @ mat @ r0 + (n - 1) * (c @ G @ c))


def corr_bounds(ch: BlochChannel, n: int) -> tuple[float, float]:
    """(lower, upper) bounds on the correlated H^(2) over all directions."""
    require_unital(ch)
    if n < 2:
        raise ValueError("correlated protocol needs n >= 2")
    s = svd3(ch.dM).S
    if s[0] <= 0.0:
        return 0.0, 0.0
    s1sq = float(s[0] ** 2)
    lower = (n - 1) * s1sq + float(s[1] ** 2)
    return lower, n * s1sq


def corr_gain_ratio(ch: BlochChannel, n: int) -> tuple[float, float]:
    """Bounds on the gain of the correlated protocol over the single-qubit optimum."""
    require_unital(ch)
    s = svd3(ch.dM).S
    if s[0] <= 0.0:
        raise BranchError("channel carries no parameter information (s1 = 0)")
    lo = n - (1.0 - float(s[1] ** 2) / float(s[0] ** 2))
    return lo, float(n)


def corr_h3_h4(ch: BlochChannel, n: int, c, r0) -> tuple[float, float]:
    """Third and fourth purity orders for perpendicular c and r0 (n >= 3).

    H^(3) vanishes identically for perpendicular directions.  The fourth
    order collects every trace the purity expansion produces at that order,

        H^(4) = (n-1) w^T Mdot^T Mdot w
                + [r0^T G' r0 + (n-1) c^T G' c]^2 / 4
                + (n-1) |v|^2
                + (n-1)(n-2) (c^T G' c)^2 / 2
                - 2(n-1) (Mdot r0 x Mdot c) . (M w)
                - 2(n-1) v . (Mdot w)
                - (n-1)(n-2) c^T Mdot^T Mdot c,

    with w = r0 x c, G' = d(M^T M)/dlam and v = d(M r0 x M c)/dlam.  The
    three negative terms come from cross traces in which the order-two
    operator meets the square of the order-one operator at matching tensor
    slots; dropping them looks tempting because most slot pairings do trace
    away, but the matching ones survive (checked against the generic order
    solver and against polynomial fits of the exact QFI).  The n = 2 case is
    routed through sld_orders / qfi_orders instead.
    """
    require_unital(ch)
    if n < 3:
        raise ValueError("closed-form fourth order needs n >= 3; use the generic solver")
    c = _unit_vector(c, "c")
    r0 = _unit_vector(r0, "r0")
    if not abs(float(c @ r0)) < PERPENDICULAR_TOL:
        raise ValueError("closed-form higher orders require c perpendicular to r0")
    Md, M = ch.dM, ch.M
    dG = Md.T @ M + M.T @ Md
    w = np.cross(r0, c)
    v = np.cross(Md @ r0, M @ c) + np.cross(M @ r0, Md @ c)
    cdGc = float(c @ dG @ c)
    h4 = float(
        (n - 1) * ((Md @ w) @ (Md @ w))
        + 0.25 * (r0 @ dG @ r0 + (n - 1) * cdGc) ** 2
        + (n - 1) * (v @ v)
        + 0.5 * (n - 1) * (n - 2) * cdGc ** 2
        - 2.0 * (n - 1) * float(np.cross(Md @ r0, Md @ c) @ (M @ w))
        - 2.0 * (n - 1) * float(v @ (Md @ w))
        - (n - 1) * (n - 2) * float((Md @ c) @ (Md @ c))
    )
    return 0.0, h4


def canonical_directions(ch: BlochChannel) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (c, r0) = (B^T e1, B^T e2) from the SVD dM = A S B."""
    dec = svd3(ch.dM)
    return dec.B[0].copy(), dec.B[1].copy()


def sphere_directions(k: int) -> np.ndarray:
    """k roughly uniform unit vectors (Fibonacci lattice)."""
    i = np.arange(k) + 0.5
    z = 1.0 - 2.0 * i / k
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    rxy = np.sqrt(np.clip(1.0 - z ** 2, 0.0, None))
    return np.stack([rxy * np.cos(phi), rxy * np.sin(phi), z], axis=1)


class GridMax(NamedTuple):
    value: float
    c: np.ndarray
    r0: np.ndarray


def corr_h2_grid_max(ch: BlochChannel, n: int, grid: int) -> GridMax:
    """Maximum of corr_h2 over the pairs of a grid of directions and the canonical pair."""
    dirs = sphere_directions(grid)
    pairs = [(c, r0) for c in dirs for r0 in dirs]
    pairs.append(canonical_directions(ch))
    best = None
    for c, r0 in pairs:
        val = corr_h2(ch, n, c, r0)
        if best is None or val > best[0]:
            best = (val, c, r0)
    return GridMax(value=best[0], c=np.asarray(best[1]), r0=np.asarray(best[2]))


# ---------------------------------------------------------------------------
# coefficient extraction by polynomial fit
# ---------------------------------------------------------------------------

class FitResult(NamedTuple):
    coeffs: dict[int, float]
    cond: float
    residual: float


def default_fit_purities() -> np.ndarray:
    """Nine log-spaced purity samples inside the series validity regime."""
    return np.logspace(-4, -2, 9)


def fit_qfi_orders(rs, qfis, orders) -> FitResult:
    """Least-squares fit of QFI samples to sum_j H_j r^j over the given orders.

    Columns are normalized before solving; the condition number reported is
    that of the normalized design matrix.
    """
    rs = np.asarray(rs, dtype=float)
    qfis = np.asarray(qfis, dtype=float)
    if rs.ndim != 1 or rs.shape != qfis.shape or len(rs) < len(orders):
        raise ValueError("need at least as many samples as fitted orders")
    A = np.stack([rs ** j for j in orders], axis=1)
    norms = np.linalg.norm(A, axis=0)
    An = A / norms
    sol, res, _, _ = np.linalg.lstsq(An, qfis, rcond=None)
    coeffs = {j: float(s / nv) for j, s, nv in zip(orders, sol, norms)}
    residual = float(np.sqrt(res[0])) if res.size else float(
        np.linalg.norm(An @ sol - qfis))
    return FitResult(coeffs=coeffs, cond=float(np.linalg.cond(An)), residual=residual)
