"""Purity-series computation of the SLD and QFI, plus closed-form lowest orders.

With every qubit initially at purity r, the final state, the SLD, and the
QFI all expand in powers of r:

    rho_f = sum_j r^j rho^(j),   L = sum_j r^j L^(j),   H = sum_j r^j H^(j).

Matching powers in the SLD defining equation gives, for each order k,

    L^(k) rho^(0) + rho^(0) L^(k)
        = 2 d(rho^(k))/dlam - sum_{j=1..k} (L^(k-j) rho^(j) + rho^(j) L^(k-j)),

a Sylvester-type equation.  Every protocol here leaves the zeroth order in
the product form rho^(0) = h (x) I/2^(n-1), where h = (I + d.sigma)/2 is the
qubit-0 factor (h = I/2 for unital channels), so the equation is solved in
the 2x2 eigensystem of h: the change of basis, the division by the
eigenvalue sums and the change back act on the qubit-0 slot only, and the
one matrix product per purity term is the only cubic work.  h must be
positive definite (|d| < 1).  The QFI orders follow from
H^(j) = sum_k Tr[d(rho^(j-k))/dlam L^(k)].

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
from dataclasses import dataclass

import numpy as np

from .bloch import BlochChannel, ChannelFamily, _unit_vector, classify_unitality, svd3
from .mstate import OrderedState, apply_channel, apply_channel_derivative, to_dense

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
    "verify_family_flag",
]

_ZERO_TOL = 1e-12
DEFAULT_MAX_ORDER = 4


class BranchError(ValueError):
    """A closed-form result was requested for the wrong unitality branch."""


def require_unital(ch: BlochChannel, tol: float = _ZERO_TOL) -> None:
    if np.linalg.norm(ch.d) > tol or np.linalg.norm(ch.dd) > tol:
        raise BranchError(
            f"channel is not unital: |d|={np.linalg.norm(ch.d):.3e}, "
            f"|dd|={np.linalg.norm(ch.dd):.3e}")


def verify_family_flag(family: ChannelFamily, ch: BlochChannel) -> None:
    """Re-verify a family's unitality flag against one evaluation."""
    actual = classify_unitality(ch)
    if actual != family.unitality:
        raise BranchError(
            f"unitality flag mismatch for channel {family.name!r}: "
            f"flag {family.unitality.value}, evaluation says {actual.value}")


@dataclass(frozen=True)
class StateOrders:
    """Dense purity orders of the final state and their lam derivatives."""

    rho: tuple[np.ndarray, ...]
    drho: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.rho) != len(self.drho) or not self.rho:
            raise ValueError("rho and drho order lists must be nonempty and equal length")
        object.__setattr__(self, "rho", tuple(self.rho))
        object.__setattr__(self, "drho", tuple(self.drho))

    @property
    def max_order(self) -> int:
        return len(self.rho) - 1


@dataclass(frozen=True)
class SldSeries:
    orders: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class QfiSeries:
    orders: np.ndarray

    def evaluate(self, r: float) -> float:
        return float(sum(h * r ** j for j, h in enumerate(self.orders)))


def channel_output_orders(input_orders: OrderedState, ch: BlochChannel,
                          qubit: int = 0) -> StateOrders:
    """Push the purity orders of the channel input through (M, d) and (dM, dd).

    The preparation is parameter independent, so the derivative of each
    final-state order is the derivative channel pass applied to the same
    input order.
    """
    rho = []
    drho = []
    for st in input_orders.orders:
        rho.append(to_dense(apply_channel(st, ch, qubit)))
        drho.append(to_dense(apply_channel_derivative(st, ch, qubit)))
    return StateOrders(tuple(rho), tuple(drho))


def _zeroth_order_inverse(rho0: np.ndarray) -> np.ndarray:
    """The map R -> X solving X rho0 + rho0 X = R, on the qubit-0 blocks.

    rho0 must factor as h (x) I/m with m = dim/2.  In the eigenbasis
    h = V diag(q) V^dagger the solution is X~_ab = R~_ab m / (q_a + q_b),
    so with every block indexed by its qubit-0 row and column,
    X[x, y] = sum_{z, w} T[x, y, z, w] R[z, w] for the returned 2x2x2x2 T.
    """
    dim = rho0.shape[0]
    m = dim // 2
    if dim % 2:
        raise ValueError("zeroth-order state must have even dimension 2^n")
    # trace over qubits 1..n-1; the contiguous copy makes the sum pairwise,
    # which keeps h exact when the diagonal entries are equal
    diag = np.ascontiguousarray(rho0.reshape(2, m, 2, m).diagonal(axis1=1, axis2=3))
    h = diag.sum(axis=-1)
    if np.max(np.abs(rho0 - np.kron(h, np.eye(m) / m))) > 1e-12:
        raise ValueError(
            "zeroth-order state does not factor as h (x) I/2^(n-1); the "
            "order-by-order SLD solve needs a qubit-0 state times the "
            "maximally mixed rest")
    q, V = np.linalg.eigh(h)
    if q[0] / m <= 1e-14:
        raise ValueError(
            "zeroth-order state is singular; the order-by-order SLD "
            "equations need a positive definite rho^(0)")
    scale = m / (q[:, None] + q[None, :])
    return np.einsum("xa,za,ab,yb,wb->xyzw", V, V.conj(), scale, V.conj(), V)


def sld_orders(orders: StateOrders, K: int) -> SldSeries:
    """Solve the order-by-order SLD equations up to order K.

    The zeroth order must be rho^(0) = h (x) I/2^(n-1); the solve then needs
    only the 2x2 eigensystem of h.  Order k takes the right-hand side
    R = 2 d(rho^(k))/dlam - (Y + Y^dagger) with Y = sum_j L^(k-j) rho^(j),
    one matrix product per term (terms with an all-zero L^(k-j), such as
    L^(0) of a unital channel, are skipped), and maps it through the 2x2
    inverse on the qubit-0 blocks.
    """
    T = _zeroth_order_inverse(orders.rho[0])
    dim = orders.rho[0].shape[0]
    m = dim // 2
    L: list[np.ndarray] = []
    for k in range(K + 1):
        if k <= orders.max_order:
            R = 2.0 * orders.drho[k].astype(complex)
        else:
            R = np.zeros((dim, dim), dtype=complex)
        Y = None
        for j in range(1, min(k, orders.max_order) + 1):
            if not L[k - j].any():
                continue
            term = L[k - j] @ orders.rho[j]
            Y = term if Y is None else Y + term
        if Y is not None:
            R -= Y + Y.conj().T
        X = np.tensordot(T, R.reshape(2, m, 2, m), axes=([2, 3], [0, 2]))
        L.append(X.transpose(0, 2, 1, 3).reshape(dim, dim))
    return SldSeries(tuple(L))


def qfi_orders(orders: StateOrders, sld: SldSeries, K: int) -> QfiSeries:
    """QFI purity orders H^(j) = sum_k Tr[d(rho^(j-k))/dlam L^(k)].

    d(rho)/dlam is Hermitian, so each trace is the elementwise inner product
    vdot(d(rho)/dlam, L).
    """
    if K > len(sld.orders) - 1:
        raise ValueError(f"SLD series only carries orders up to {len(sld.orders) - 1}")
    H = np.zeros(K + 1)
    for j in range(K + 1):
        total = 0.0
        for k in range(j + 1):
            if j - k <= orders.max_order:
                total += float(np.vdot(orders.drho[j - k], sld.orders[k]).real)
        H[j] = total
    return QfiSeries(H)


# ---------------------------------------------------------------------------
# closed-form lowest orders, single qubit baseline
# ---------------------------------------------------------------------------

def sqsc_unital_h2(ch: BlochChannel, r0) -> float:
    """Lowest-order QFI coefficient (of r^2) for a unital single-qubit run."""
    require_unital(ch)
    v = ch.dM @ _unit_vector(r0, "r0")
    return float(v @ v)


@dataclass(frozen=True)
class SqscOpt:
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
    if np.linalg.norm(ch.dd) <= _ZERO_TOL:
        raise BranchError("shift vector is parameter independent; use the r^2 branch")
    dnorm = float(np.linalg.norm(ch.d))
    base = float(ch.dd @ ch.dd)
    if dnorm > 1.0 - 1e-9:
        return base
    dd2 = 2.0 * float(ch.d @ ch.dd)  # d(d^2)/dlam
    return base + dd2 ** 2 / (4.0 * (1.0 - dnorm ** 2))


def sqsc_nonunital_const_h2(ch: BlochChannel, r0) -> float:
    """Lowest-order QFI coefficient for a constant nonzero Bloch shift."""
    if np.linalg.norm(ch.dd) > _ZERO_TOL:
        raise BranchError("shift vector is parameter dependent; use the r^0 branch")
    dnorm = float(np.linalg.norm(ch.d))
    if dnorm <= _ZERO_TOL:
        raise BranchError("shift vector vanishes; the channel is unital")
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
    if abs(float(c @ r0)) > 1e-9:
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


@dataclass(frozen=True)
class GridMax:
    value: float
    c: np.ndarray
    r0: np.ndarray


def corr_h2_grid_max(ch: BlochChannel, n: int, grid: int = 20,
                     include_canonical: bool = True) -> GridMax:
    """Maximum of corr_h2 over a direction grid (plus the canonical pair)."""
    dirs = sphere_directions(grid)
    pairs = [(c, r0) for c in dirs for r0 in dirs]
    if include_canonical:
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

@dataclass(frozen=True)
class FitResult:
    coeffs: dict[int, float]
    cond: float
    residual: float


def default_fit_purities(count: int = 9) -> np.ndarray:
    """Log-spaced purity samples inside the series validity regime."""
    if count < 5:
        raise ValueError("need at least 5 purity samples for a stable fit")
    return np.logspace(-4, -2, count)


def fit_qfi_orders(rs, qfis, orders=(2, 3, 4, 5)) -> FitResult:
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
