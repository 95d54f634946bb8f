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

In the frame of the control direction c (``mstate._frame`` takes z to c),
with a, b = (1 +- r)/2 and J the spin-j matrices in the J_z basis:

* the spectators' input is S_j = (ab)^(M/2-j) W diag(a^(j+nu) b^(j-nu)) W+,
  with W the eigenvectors of r0'.J and nu their eigenvalues;
* the preparation is the complete-graph CZ, the phase (-1)^(N(N-1)/2) of a
  basis string with N ones.  With N = M/2 - mu ones among the spectators
  (J_z = mu) it is C = |0><0| (x) D + |1><1| (x) Z D on a block, where
  D = diag((-1)^(N(N-1)/2)) and Z = diag((-1)^N);
* the channel and its derivative act on the block's qubit-0 Pauli parts.

Each block with nonzero trace t_j is normalised, diagonalised once and passed
in its own eigenbasis to the dense ``fisher.qfi_exact``.  The single-qubit
protocol is the M = 0 case: one 2x2 block.  PIQS uses the same decomposition
(Shammah et al., PRA 98, 063815 (2018)).
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING

import numpy as np

from .bloch import BlochChannel
from .fisher import qfi_exact
from .mstate import PAULI_MATS, _frame

if TYPE_CHECKING:  # protocols imports this module
    from .protocols import ProtocolSpec

__all__ = ["spin_blocks", "exact_qfi"]

# A 2x2 operator X as the row-major vector vec(X): vec(X) = _FROM_PAULI @ x
# for X = sum_l x_l sigma_l / 2, and x_k = Tr[sigma_k X] = _TO_PAULI[k] @ vec(X).
_FROM_PAULI = PAULI_MATS.reshape(4, 4).T / 2.0
_TO_PAULI = PAULI_MATS.transpose(0, 2, 1).reshape(4, 4)


def spin_blocks(M: int) -> list[tuple[int, int]]:
    """(2j, m_j) for every spin j of M qubits, the largest spin first."""
    return [(M - 2 * k, comb(M, k) - (comb(M, k - 1) if k else 0))
            for k in range(M // 2 + 1)]


def _qubit0_maps(ch: BlochChannel, R: np.ndarray) -> np.ndarray:
    """The channel and its derivative on qubit 0, in the frame R, as (8, 4).

    Rows 0..3 map vec(X) to vec(channel(X)), rows 4..7 to vec(derivative(X)).
    In Pauli components the channel is I -> I + d.sigma, a.sigma -> (M a).sigma
    and the derivative (dM, dd) has no identity pass-through, as in
    ``mstate.apply_channel``; the frame turns M into R^T M R and d into R^T d.
    """
    F = np.zeros((2, 4, 4))
    F[0, 0, 0] = 1.0
    F[0, 1:, 0], F[0, 1:, 1:] = ch.d, ch.M
    F[1, 1:, 0], F[1, 1:, 1:] = ch.dd, ch.dM
    R4 = np.eye(4)
    R4[1:, 1:] = R
    return (_FROM_PAULI @ (R4.T @ F @ R4) @ _TO_PAULI).reshape(8, 4)


def _spin_along(v: np.ndarray, two_j: int) -> np.ndarray:
    """v.J for spin j in the basis mu = j, j - 1, ..., -j."""
    j = two_j / 2
    mu = j - np.arange(two_j + 1)
    # <mu + 1|J_+|mu> = sqrt((j - mu)(j + mu + 1)); v.J = v_z J_z
    # + (v_x - i v_y) J_+ / 2 + (v_x + i v_y) J_- / 2
    up = np.sqrt((j - mu[1:]) * (j + mu[1:] + 1.0)) * complex(v[0], -v[1]) / 2.0
    G = np.diag(v[2] * mu).astype(complex)
    G[np.arange(two_j), np.arange(1, two_j + 1)] = up
    G[np.arange(1, two_j + 1), np.arange(two_j)] = up.conj()
    return G


def exact_qfi(spec: ProtocolSpec, eps: float | None = None) -> float:
    """Exact QFI of the spec's output state, one small eigensystem per spin.

    eps keeps the meaning it has for the whole state in ``fisher.sld_exact``:
    eigenvalue pairs of rho with sum <= eps are skipped (default 1e-12 times
    rho's largest eigenvalue).  A block of trace t_j holds rho's eigenvalues
    scaled by 1/t_j, so it is solved with the cutoff eps / t_j.
    """
    M = spec.n - 1
    R = np.eye(3) if spec.c is None else _frame(spec.c)
    r0 = R.T @ spec.r0
    maps = _qubit0_maps(spec.family.eval(spec.lam), R)
    a, b = (1.0 + spec.r) / 2.0, (1.0 - spec.r) / 2.0
    qubit0 = np.array([1.0, *(spec.r * r0)]) @ PAULI_MATS.reshape(4, 4) / 2.0

    blocks = []  # m_j, t_j, the eigensystem p of rho_j / t_j, drho_j / t_j in it
    for two_j, m in spin_blocks(M):
        dim = two_j + 1
        k = np.arange(dim)
        w = a ** k * b ** (two_j - k)
        t = (a * b) ** ((M - two_j) // 2) * float(w.sum())
        if t == 0.0:
            continue
        # eigh sorts ascending and r0'.J has the spectrum -j..j: j + nu = k
        _, W = np.linalg.eigh(_spin_along(r0, two_j))
        S = (W * (w / w.sum())) @ W.conj().T
        # C's diagonal where qubit 0 is |0> (D) and |1> (Z D), then
        # C (qubit0 (x) S) C indexed (qubit-0 row, column, spin row, column)
        N = (M - two_j) // 2 + k  # ones among the spectators at J_z = j - k
        D = 1 - 2 * (N * (N - 1) // 2 % 2)
        phase = np.array([D, D * (1 - 2 * (N % 2))])
        x = qubit0.reshape(2, 2, 1, 1) * phase[:, None, :, None] * phase[None, :, None, :] * S
        y = (maps @ x.reshape(4, dim * dim)).reshape(2, 2, 2, dim, dim)
        rho, drho = y.transpose(0, 1, 3, 2, 4).reshape(2, 2 * dim, 2 * dim)
        p, V = np.linalg.eigh(rho)
        blocks.append((m, t, p, V.conj().T @ drho @ V))

    if eps is None:
        eps = 1e-12 * max(t * p[-1] for _, t, p, _ in blocks)
    # each block in its own eigenbasis: the QFI is unchanged, the cutoff above
    # needs every block's eigenvalues first, and qfi_exact's eigh is trivial
    return float(sum(m * t * qfi_exact(np.diag(p), G, eps / t) for m, t, p, G in blocks))
