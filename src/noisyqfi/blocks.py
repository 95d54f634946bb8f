"""Exact QFI of a protocol's output state from its Schur-Weyl blocks.

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
channel in the frame, the qubit-0 maps and the eigenvectors W are built once,
and the normalised blocks rho_j / t_j of one spin at every purity where the
trace t_j is nonzero form one (P, 2(2j+1), 2(2j+1)) stack.  Each stack
is decomposed once (``fisher.in_eigenbasis``); the default cutoff needs
every block's largest eigenvalue, so all stacks are decomposed first, and
then each goes through one call of the stacked ``fisher.qfi_exact``.
``exact_qfi`` is the sweep of one purity.  The single-qubit protocol is the
M = 0 case: one 2x2 block.  The traces t_j ~ 2^-M and the weights m_j t_j
are carried as logs, so no t_j underflows.  PIQS uses the same
decomposition (Shammah et al., PRA 98, 063815 (2018)).
"""

from __future__ import annotations

from collections.abc import Sequence
from math import log
from typing import TYPE_CHECKING

import numpy as np

from .fisher import in_eigenbasis, qfi_exact
from .mstate import PAULI_MATS, _qubit0_maps

if TYPE_CHECKING:  # protocols imports this module
    from .protocols import ProtocolSpec

__all__ = ["MAX_QUBITS_BLOCKS", "spin_blocks", "exact_qfi", "exact_qfis"]

# dense eigh of every spin block, about n^4: one purity at n = 400 takes
# 50 s on one core (0.33 s at n = 100, 16 s at n = 300)
MAX_QUBITS_BLOCKS = 400


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

    The channel in the frame of c, the qubit-0 maps and each spin's r0'.J
    eigenvectors do not depend on the purity and are built once; the blocks
    of one spin at all purities form one stack, decomposed once, whose pair
    sums are one ``fisher.qfi_exact`` call.  Each entry equals the sweep of
    that purity alone, bit for bit.

    eps is the null-pair cutoff of the whole state, as in
    ``fisher.qfi_exact``: eigenvalue pairs of rho with sum <= eps are
    skipped (default 1e-12 times rho's largest eigenvalue at that purity).
    A block of trace t_j holds rho's eigenvalues scaled by 1/t_j, so it is
    solved with the cutoff eps / t_j; a block with t_j = 0 (at r = 1 all but
    the largest spin) is skipped at that purity.  Before any block is built,
    a ValueError names a purity where sum_j m_j t_j misses 1 by more than
    1e-12, which rounding in the log weights reaches from n of about 7000,
    and a qubit count above ``MAX_QUBITS_BLOCKS``.
    """
    rs = np.asarray(purities, dtype=float)
    if rs.ndim != 1 or not all(0.0 <= r <= 1.0 for r in rs.tolist()):
        raise ValueError(f"purities must lie in [0, 1], got {purities}")
    M = spec.n - 1
    spins = spin_blocks(M)
    log_t, weight = _log_weights(M, spins, rs)
    kept = weight.sum(axis=1)
    if np.any(bad := ~(np.abs(kept - 1.0) <= 1e-12)):  # NaN fails too
        p = int(np.argmax(bad))
        raise ValueError(f"exact QFI at n={spec.n}, r={rs[p]:g}: the spin blocks keep "
                         f"weight {kept[p]:.17g}, not 1 to 1e-12")

    r0, ch = spec.in_frame()
    if spec.n > MAX_QUBITS_BLOCKS:
        raise ValueError(f"qubit count {spec.n} outside supported range "
                         f"1..{MAX_QUBITS_BLOCKS} for the Schur-Weyl block solve")
    maps = _qubit0_maps(ch)
    bloch = np.ones((len(rs), 4))
    bloch[:, 1:] = rs[:, None] * r0
    qubit0 = (bloch @ PAULI_MATS.reshape(4, 4) / 2.0).reshape(-1, 2, 2, 1, 1)
    # (-1)^(N(N-1)/2) for N = 0..n: a basis string's CZ phase D is sign[N]
    # and Z D is sign[N + 1]
    ones = np.arange(M + 2)
    sign = 1 - 2 * (ones * (ones - 1) // 2 % 2)
    q = (1.0 - rs) / (1.0 + rs)  # b / a

    # per spin with weight: the purities where t_j > 0, log t_j and m_j t_j
    # there, and the stacks of rho_j / t_j and drho_j / t_j, one matrix per
    # such purity
    blocks = []
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
        y = (maps @ x.reshape(-1, 4, dim * dim)).reshape(-1, 2, 2, 2, dim, dim)
        rho, drho = y.transpose(1, 0, 2, 4, 3, 5).reshape(2, -1, 2 * dim, 2 * dim)
        blocks.append((live, log_t[live, s], weight[live, s], *in_eigenbasis(rho, drho)))

    with np.errstate(divide="ignore"):
        if eps is None:
            # the largest eigenvalue of rho relative to the largest t_j
            log_top = log_t.max(axis=1)
            top = np.zeros(len(rs))
            for live, lt, _, p, _ in blocks:
                top[live] = np.maximum(top[live], np.exp(lt - log_top[live]) * p[:, -1])
            log_cut = np.log(1e-12 * top) + log_top
        else:
            log_cut = np.log(np.full(len(rs), float(eps)))
    qfi = np.zeros(len(rs))
    for live, lt, wt, p, G in blocks:
        qfi[live] += wt * qfi_exact(p, G, np.exp(log_cut[live] - lt))
    return qfi


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
