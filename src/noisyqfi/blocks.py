"""Exact QFI of a protocol's output state from its Schur-Weyl blocks, or from
4x4 pieces when the control direction c is perpendicular to r0.

Every protocol here invokes the channel on qubit 0 and treats the other
M = n - 1 qubits alike: the product input, the complete-graph preparation and
the channel all commute with permutations of qubits 1..M.  Those qubits split
as sum_j C^(2j+1) (x) C^(m_j), one spin j = M/2, M/2 - 1, ... per term with
multiplicity m_j = C(M, M/2 - j) - C(M, M/2 - j - 1), and each stage acts on
the split as X_j (x) 1.  The output state is therefore a direct sum of m_j
copies of one block rho_j of size 2(2j+1) per spin (qubit 0 times spin j),
and

    QFI = sum_j m_j Tr[drho_j L_j].

In the frame of the control direction c (``ProtocolSpec.in_frame``), with
a, b = (1 +- r)/2 and J the spin-j matrices in the J_z basis:

* the spectators' input is S_j = (ab)^(M/2-j) W diag(a^(j+nu) b^(j-nu)) W+,
  with W the eigenvectors of r0'.J and nu their eigenvalues;
* the preparation is the complete-graph CZ, the phase (-1)^(N(N-1)/2) of a
  basis string with N ones.  With N = M/2 - mu ones among the spectators
  (J_z = mu) it is C = |0><0| (x) D + |1><1| (x) Z D on a block, where
  D = diag((-1)^(N(N-1)/2)) and Z = diag((-1)^N);
* the channel and its derivative act on the block's qubit-0 Pauli parts.

Only the weights a^(j+nu) b^(j-nu) and qubit 0's Bloch vector r r0 depend on
the purity.  ``exact_qfis`` therefore solves a purity sweep at once: the
channel in the frame, the qubit-0 maps (``_qubit0_maps``) and the
eigenvectors W are built once,
and the normalised blocks rho_j / t_j of one spin at every purity where the
trace t_j is nonzero form one (P, 2(2j+1), 2(2j+1)) stack, decomposed once
(``fisher.in_eigenbasis``) and summed by one call of the stacked
``fisher.qfi_exact``.  The traces t_j ~ 2^-M and the weights m_j t_j are
carried as logs, so no t_j underflows.  The single-qubit protocol is the
M = 0 case: one 2x2 block.  PIQS uses the same decomposition (Shammah et
al., PRA 98, 063815 (2018)).  A dense eigh per spin costs about n^4 in all.

When c is ``perpendicular`` to r0 no spin block is needed.  On the whole state
C = D (|0><0| (x) 1 + |1><1| (x) Z), with D the spectators' own CZ phases and
Z = sigma_z^(x)M.  D does not depend on lambda and commutes with the channel
on qubit 0, so it drops out of the QFI.  In the frame of c, r0' lies in the
xy-plane, so sigma_z anticommutes with r0'.sigma: with |+> its eigenvector of
eigenvalue 1 and |-> := sigma_z|+>, the spectators are diagonal in the
product basis |s> of signs, with weight w_s = a^k b^(M-k) for k plus signs,
and Z|s> = |s'>, the complement of s.  Writing s + 0 = s and s + 1 = s',
qubit 0's input q0 and the spectators give before the channel

    <a,t|rho|b,u> = q0[a,b] w_(u+b) delta(t + a, u + b),

so the span of {|0,s>, |0,s'>, |1,s>, |1,s'>} is invariant under the channel
on qubit 0, and the output is a direct sum of 4x4 pieces, one per pair
{s, s'}.  A piece depends on s only through k: at unit trace its weights
(w_s, w_s') become (x_k, 1) / (1 + x_k) with x_k = (b/a)^(M - 2k).  With B
the Binomial(M, a) pmf, the C(M, k) pieces of k < M/2 hold weight
W_k = B(k) + B(M - k) of the state and the C(M, M/2)/2 pieces of k = M/2
(M even) hold W_k = B(M/2), so

    QFI = sum_{k <= M/2} W_k Q_k,

with Q_k the QFI of piece k at unit trace.  All pieces of a sweep, M//2 + 1
per purity, are solved in one ``_stack_qfis`` call, as each spin's blocks
are.  The W_k come from Loader's saddle-point form of the binomial pmf (C.
Loader, "Fast and Accurate Computation of Binomial Probabilities", 2000),
which forms neither log C(M, k) nor the powers, so they keep sum_k W_k = 1
to rounding at any M here.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import log, pi
from typing import TYPE_CHECKING

import numpy as np

from .bloch import PAULI_MATS, BlochChannel, DomainError, _pauli_maps
from .fisher import in_eigenbasis, qfi_exact

if TYPE_CHECKING:  # protocols imports this module
    from .protocols import ProtocolSpec

__all__ = ["MAX_QUBITS_BLOCKS", "MAX_QUBITS_PIECES", "PERPENDICULAR_TOL",
           "perpendicular", "spin_blocks", "exact_qfi", "exact_qfis"]

# dense eigh of every spin block, about n^4: one purity at n = 400 takes
# 50 s on one core (0.33 s at n = 100, 16 s at n = 300)
MAX_QUBITS_BLOCKS = 400
# the pieces are O(n): one purity at n = 10^5 takes about 0.1 s on one core
MAX_QUBITS_PIECES = 100_000
# |c.r0| below which c counts as perpendicular to r0 and the pieces apply.
# They drop the spectators' component d = c.r0 along c, which moves the QFI
# by about d^2 of itself (at most 1.2 d^2 measured, n <= 60, r > 0)
PERPENDICULAR_TOL = 1e-9
_WEIGHT_TOL = 1e-12  # how far the blocks' or the pieces' weights may miss 1

# stirlerr(n) = log n! - log(sqrt(2 pi n) (n/e)^n) for n = 1..15 (Loader's
# table; the entry for 0 is a placeholder)
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])

# a piece's entries x[a, b, t, u] = q0[a, b] w[u + b] where t + a = u + b,
# with t, u = 0 for s and 1 for s' and w = (w_s, w_s'); + is the XOR
_a, _b, _t, _u = np.indices((2, 2, 2, 2))
_PAIR_INDEX = _u ^ _b
_PAIR_MASK = (_t ^ _a == _u ^ _b).astype(float)
del _a, _b, _t, _u

# A 2x2 operator X as the row-major vector vec(X): vec(X) = _FROM_PAULI @ x
# for X = sum_l x_l sigma_l / 2, and x_k = Tr[sigma_k X] = _TO_PAULI[k] @ vec(X).
_FROM_PAULI = PAULI_MATS.reshape(4, 4).T / 2.0
_TO_PAULI = PAULI_MATS.transpose(0, 2, 1).reshape(4, 4)


def perpendicular(c: np.ndarray, r0: np.ndarray) -> bool:
    """|c.r0| < ``PERPENDICULAR_TOL`` (NaN is not): the one rule of the pieces,
    the frame's exact r0' = (1, 0, 0) and the closed-form higher orders."""
    return abs(float(c @ r0)) < PERPENDICULAR_TOL


def _qubit0_maps(ch: BlochChannel) -> np.ndarray:
    """The channel and its derivative on one qubit, as (8, 4).

    Rows 0..3 map vec(X) to vec(channel(X)), rows 4..7 to vec(derivative(X)).
    """
    return (_FROM_PAULI @ _pauli_maps(ch) @ _TO_PAULI).reshape(8, 4)


def spin_blocks(M: int) -> list[tuple[int, int]]:
    """(2j, m_j) for every spin j of M qubits, the largest spin first.

    m_j = C(M, k) - C(M, k - 1) with k = M/2 - j, the binomials exact
    integers from C(M, k + 1) = C(M, k) (M - k) / (k + 1).
    """
    spins, below, binom = [], 0, 1  # C(M, k - 1) and C(M, k)
    for k in range(M // 2 + 1):
        spins.append((M - 2 * k, binom - below))
        below, binom = binom, binom * (M - k) // (k + 1)
    return spins


def _spin_along(v: np.ndarray, two_j: int) -> np.ndarray:
    """v.J for spin j in the basis mu = j, j - 1, ..., -j."""
    j = two_j / 2
    mu = j - np.arange(two_j + 1)
    # <mu + 1|J_+|mu> = sqrt((j - mu)(j + mu + 1)); v.J = v_z J_z
    # + (v_x - i v_y) J_+ / 2 + (v_x + i v_y) J_- / 2
    up = np.sqrt((j - mu[1:]) * (j + mu[1:] + 1.0)) * complex(v[0], -v[1]) / 2.0
    G = np.zeros((two_j + 1, two_j + 1), dtype=complex)
    G.flat[::two_j + 2] = v[2] * mu  # the diagonal, then above and below it
    G.flat[1::two_j + 2] = up
    G.flat[two_j + 1::two_j + 2] = up.conj()
    return G


def exact_qfis(spec: ProtocolSpec, purities: Sequence[float] | np.ndarray,
               eps: float | None = None) -> np.ndarray:
    """Exact QFI of the spec's output state at each purity (spec.r is not used).

    For n >= 2 with c ``perpendicular`` to r0 the state is solved as
    4x4 pieces, otherwise as Schur-Weyl blocks.  The channel in the frame of
    c and the qubit-0 maps are built once per sweep, and so are each spin's
    r0'.J eigenvectors; all pieces of the sweep, or the blocks of one spin
    at all purities, form one stack, decomposed once, whose pair sums are
    one ``fisher.qfi_exact`` call.  Each entry equals the sweep of that
    purity alone, bit for bit.

    eps is the null-pair cutoff of the whole state, as in
    ``fisher.qfi_exact``: eigenvalue pairs of rho with sum <= eps are
    skipped.  A block or piece of trace t holds rho's eigenvalues scaled by
    1/t, so it is solved with the cutoff eps / t; one with t = 0 (at r = 1
    all but the largest spin, or all but the k = 0 piece) is skipped at
    that purity.  The default cuts pairs at 1e-12 times the largest
    eigenvalue of the block or piece that holds them; a given eps must be
    positive and finite, as the CLI's ``--eps``, or a ValueError names it.
    A DomainError names a qubit count above ``MAX_QUBITS_PIECES`` or
    ``MAX_QUBITS_BLOCKS``, and a ValueError then a purity where the weights
    miss 1 by more than 1e-12, before any block or piece is built.
    """
    rs = np.asarray(purities, dtype=float)
    if rs.ndim != 1 or not all(0.0 <= r <= 1.0 for r in rs.tolist()):
        raise ValueError(f"purities must lie in [0, 1], got {purities}")
    if eps is not None and not 0.0 < eps < np.inf:  # NaN fails too
        raise ValueError(f"eps must be positive and finite, got {eps}")
    M = spec.n - 1
    pieces = M > 0 and perpendicular(spec.c, spec.r0)
    limit, solve = ((MAX_QUBITS_PIECES, "4x4 pieces") if pieces
                    else (MAX_QUBITS_BLOCKS, "Schur-Weyl block solve"))
    if spec.n > limit:
        raise DomainError(f"qubit count {spec.n} outside supported range "
                         f"1..{limit} for the {solve}")
    if pieces:
        weight = _piece_weights(M, rs)
    else:
        spins = spin_blocks(M)
        log_t, weight = _log_weights(M, spins, rs)
    _check_weights(spec.n, rs, weight, "pieces" if pieces else "spin blocks")

    r0, ch = spec.in_frame
    maps = _qubit0_maps(ch)
    bloch = np.ones((len(rs), 4))
    bloch[:, 1:] = rs[:, None] * r0
    qubit0 = (bloch @ PAULI_MATS.reshape(4, 4) / 2.0).reshape(-1, 2, 2, 1, 1)
    if pieces:
        return _piece_qfis(M, rs, weight, qubit0, maps, eps)

    # (-1)^(N(N-1)/2) for N = 0..n: a basis string's CZ phase D is sign[N]
    # and Z D is sign[N + 1]
    ones = np.arange(M + 2)
    sign = 1 - 2 * (ones * (ones - 1) // 2 % 2)
    q = (1.0 - rs) / (1.0 + rs)  # b / a
    qfi = np.zeros(len(rs))
    for s, (two_j, _) in enumerate(spins):
        dim = two_j + 1
        # the purities where the block has weight, as a view when all have
        weighted = log_t[:, s] > -np.inf
        if not weighted.any():
            continue
        live = slice(None) if weighted.all() else np.flatnonzero(weighted)
        # eigh sorts ascending and r0'.J has the spectrum -j..j: j + nu = k,
        # and a^k b^(2j - k) normalised over k is q^(2j - k) normalised
        _, W = np.linalg.eigh(_spin_along(r0, two_j))
        w = q[live, None] ** np.arange(two_j, -1, -1)
        S = (W * (w / w.sum(axis=1, keepdims=True))[:, None, :]) @ W.conj().T
        # C's diagonal where qubit 0 is |0> (D) and |1> (Z D), then
        # C (qubit0 (x) S) C indexed (purity, qubit-0 row, column, spin row, column);
        # J_z = j - k has N = (M - 2j) / 2 + k ones among the spectators
        low = (M - two_j) // 2
        phase = np.array([sign[low:low + dim], sign[low + 1:low + dim + 1]])
        x = (qubit0[live] * phase[:, None, :, None] * phase[None, :, None, :]
             * S[:, None, None])
        qfi[live] += weight[live, s] * _stack_qfis(maps, x, eps, log_t[live, s])
    return qfi


def _check_weights(n: int, rs: np.ndarray, weight: np.ndarray, parts: str) -> None:
    """A ValueError naming the first purity whose weights miss 1 by more than 1e-12."""
    kept = weight.sum(axis=1)
    if np.any(bad := ~(np.abs(kept - 1.0) <= _WEIGHT_TOL)):  # NaN fails too
        p = int(np.argmax(bad))
        raise ValueError(f"exact QFI at n={n}, r={rs[p]:g}: the {parts} keep "
                         f"weight {kept[p]:.17g}, not 1 to {_WEIGHT_TOL:g}")


def _stack_qfis(maps: np.ndarray, x: np.ndarray, eps: float | None,
                log_t: np.ndarray | None) -> np.ndarray:
    """The QFI of each normalised block or piece of x at the cutoff eps / t.

    x is a stack of channel inputs (stack, 2, 2, d, d), indexed qubit-0 row
    and column, then the rest's row and column; maps is ``_qubit0_maps`` and
    log_t each input's log trace t in the whole state, read when eps is given.
    Neither the inputs nor the channel output are held past their last use.
    """
    dim = x.shape[-1]
    x = ((maps @ x.reshape(-1, 4, dim * dim)).reshape(-1, 2, 2, 2, dim, dim)
         .transpose(1, 0, 2, 4, 3, 5).reshape(2, -1, 2 * dim, 2 * dim))  # rho, drho
    p, G = in_eigenbasis(*x)
    del x
    with np.errstate(over="ignore"):  # a cut above every pair sum may be inf
        cut = None if eps is None else np.exp(log(eps) - log_t)
    return qfi_exact(p, G, cut)


def _piece_qfis(M: int, rs: np.ndarray, weight: np.ndarray, qubit0: np.ndarray,
                maps: np.ndarray, eps: float | None) -> np.ndarray:
    """The QFI at each purity, sum_k W_k Q_k over the pieces with weight."""
    live = weight > 0.0
    at, k = np.nonzero(live)  # the purity and the k of each piece
    m = M - 2 * k
    # w_s / w_s' = (b/a)^m = exp(-2m artanh r); artanh(1) = inf
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(m == 0, 1.0, np.exp(-2.0 * m * np.arctanh(rs[at])))
    w = np.stack([x, np.ones_like(x)], axis=-1) / (1.0 + x)[:, None]  # (w_s, w_s') / t
    log_t = None
    if eps is not None:
        # a piece's trace t = w_s' (1 + x), w_s' = a^(M - k) b^k
        with np.errstate(divide="ignore", invalid="ignore"):  # log b = -inf at r = 1
            log_t = ((M - k) * (np.log1p(rs[at]) - log(2.0))
                     + np.where(k > 0, k * (np.log1p(-rs[at]) - log(2.0)), 0.0) + np.log1p(x))
    qfi = weight[live] * _stack_qfis(maps, qubit0[at] * w[:, _PAIR_INDEX] * _PAIR_MASK, eps, log_t)
    terms = np.zeros(live.shape)
    terms[live] = qfi
    return terms.sum(axis=1)


def _piece_weights(M: int, rs: np.ndarray) -> np.ndarray:
    """The pieces' weights W_k in the state, shaped (purity, k = 0..M//2)."""
    k = np.arange(M // 2 + 1)
    a, b = (1.0 + rs) / 2.0, (1.0 - rs) / 2.0
    # B(k) at success probability a, then B(M - k) as the pmf of k at b
    pmf = _binomial_pmf(k, M, np.concatenate([a, b])[:, None],
                        np.concatenate([b, a])[:, None])
    weight = pmf[:len(rs)] + pmf[len(rs):]
    if M % 2 == 0:
        weight[:, -1] /= 2.0  # B(M/2), taken twice
    return weight


def _binomial_pmf(k: np.ndarray, M: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """C(M, k) p^k q^(M - k) for counts 0 <= k < M (a row) and q = 1 - p (a column).

    Loader's saddle-point form: the Stirling remainders of M, k and M - k,
    and the deviances bd0 of k and M - k from their means, so no log of size
    M log M cancels.
    """
    with np.errstate(divide="ignore", invalid="ignore"):  # k = 0 is taken apart
        err = _stirlerr(np.concatenate([[M], k, M - k]))
        dev = _bd0(np.stack([k, M - k])[:, None, :], np.stack([M * p, M * q]))
        log_pmf = (err[0] - err[1:len(k) + 1] - err[len(k) + 1:] - dev[0] - dev[1]
                   - 0.5 * np.log(2.0 * pi * k * (M - k) / M))
        # k = 0: q^M, through bd0(M, M q) where q is close to 1
        none = np.where(p < 0.1, -dev[1][:, :1] - M * p, M * np.log(q))
        return np.exp(np.where(k == 0, none, log_pmf))


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log n! - log(sqrt(2 pi n) (n/e)^n) for integers n >= 1 (0 gives 0)."""
    big = np.maximum(n, 16).astype(float)
    nn = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn)
              / nn) / big
    return np.where(n <= 15, _STIRLERR[np.minimum(n, 15)], series)


def _bd0(x, mean):
    """x log(x / mean) + mean - x, the deviance of a count x from its mean.

    Near the mean, |x - mean| < (x + mean) / 10, it is summed as
    d v + 2x sum_i v^(2i+1) / (2i + 1) with d = x - mean and
    v = d / (x + mean).  There |v| < 0.1, so term i is below
    1.1 |v|^(2i-1) / (2i + 1) of d v, and eight terms reach rounding.
    """
    d = x - mean
    near = np.abs(d) < 0.1 * (x + mean)
    v = np.where(near, d / np.where(near, x + mean, 1.0), 0.0)
    v2, tail = v * v, 0.0
    for i in range(8, 0, -1):  # Horner in v^2
        tail = (tail + 1.0 / (2 * i + 1)) * v2
    return np.where(near, d * v + 2.0 * x * v * tail, x * np.log(x / mean) + mean - x)


def _log_weights(M: int, spins: list[tuple[int, int]],
                 rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log t_j and the block weights m_j t_j, shaped (purity, spin).

    t_j = (ab)^((M - 2j)/2) a^(2j) S_j with q = b/a and S_j = sum_{i<=2j} q^i
    = -expm1((2j + 1) log q) / (1 - q), or 2j + 1 where a = b (r = 0 or
    r below rounding); log q and 1 - q come from the same rounded a and b,
    and log m_j from the exact m_j.
    """
    a, b = (1.0 + rs) / 2.0, (1.0 - rs) / 2.0
    two_j = np.array([two_j for two_j, _ in spins])
    half = (M - two_j) // 2
    log_m = np.array([log(m) for _, m in spins])
    with np.errstate(divide="ignore", invalid="ignore"):
        la, lb = np.log(a)[:, None], np.log(b)[:, None]  # log b = -inf at r = 1
        log_q = np.log1p((b - a) / a)[:, None]
        S = np.where((a == b)[:, None], two_j + 1.0,
                     -np.expm1((two_j + 1) * log_q) / ((a - b) / a)[:, None])
        # (ab)^0 = 1 also at r = 1, where log b = -inf
        log_t = np.where(half > 0, half * (la + lb), 0.0) + two_j * la + np.log(S)
    return log_t, np.exp(log_m + log_t)


def exact_qfi(spec: ProtocolSpec, eps: float | None = None) -> float:
    """Exact QFI of the spec's output state: ``exact_qfis`` at spec.r alone."""
    return float(exact_qfis(spec, [spec.r], eps)[0])
