"""Exact quantum Fisher information, and classical Fisher information.

The SLD L solves drho = (L rho + rho L)/2.  In the eigenbasis of
rho = sum_j p_j |j><j|, with G = <j|drho|k>, it is
L_jk = 2 G_jk / (p_j + p_k), and the QFI is

    Tr[drho L] = sum_{j,k} 2 |G_jk|^2 / (p_j + p_k),

summed over the pairs with p_j + p_k above a cutoff eps.  ``in_eigenbasis``
checks a state and its derivative and returns (p, G); ``qfi_exact`` sums the
pairs.  Both take stacks (..., d, d) and treat each matrix as on its own, so
a caller can decompose many matrices at once and read every spectrum before
it picks the cutoff.  The library decomposes all 4x4 pieces of a purity
sweep, or the Schur-Weyl blocks of one spin at every purity, at once
(``blocks.exact_qfis``); on the whole 2^n state the pair is the test oracle
for the pieces, the blocks and the series.
"""

from __future__ import annotations

import numpy as np

from .bloch import _ReadOnly

__all__ = [
    "ProbModel",
    "qfi_exact",
    "in_eigenbasis",
    "cfi",
]

_HERM_TOL = 1e-8
_PSD_TOL = 1e-9
_CFI_MIN_PROB = 1e-14  # ``cfi`` skips outcomes less likely than this


def _check_hermitian(mat: np.ndarray, name: str) -> np.ndarray:
    """mat as complex, if it is one square matrix or a stack of them, each Hermitian."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    worst = float(np.abs(mat - mat.conj().swapaxes(-1, -2)).max()) if mat.size else 0.0
    if worst > _HERM_TOL:
        raise ValueError(f"{name} is not Hermitian: max asymmetry {worst:.3e}")
    return mat


def _first(values: np.ndarray, bad: np.ndarray):
    """The first entry of values where bad holds (values may be 0-d)."""
    return values[bad][0] if values.ndim else values


def in_eigenbasis(rho: np.ndarray, drho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho's eigenvalues p (ascending) and G = V^+ drho V in rho's eigenbasis V, checked.

    rho and drho may be stacks (..., d, d).  rho must be Hermitian with unit
    trace and drho Hermitian and traceless, to 1e-8; eigenvalues in
    [-1e-9, 0) are clamped to zero and anything more negative is rejected as
    an invalid state.  A ValueError names the first check that fails.
    """
    rho = _check_hermitian(rho, "rho")
    drho = _check_hermitian(drho, "drho")
    if rho.shape != drho.shape:
        raise ValueError("rho and drho must have matching shapes")
    # count_nonzero, not .any(): these run per block of every exact QFI
    trace = rho.trace(axis1=-2, axis2=-1).real
    off = abs(trace - 1.0) > _HERM_TOL
    if np.count_nonzero(off):
        raise ValueError(f"rho must have unit trace, got {_first(trace, off)}")
    dtrace = drho.trace(axis1=-2, axis2=-1)
    off = abs(dtrace) > _HERM_TOL
    if np.count_nonzero(off):
        raise ValueError(f"drho must be traceless, got trace {_first(dtrace, off)}")

    p, V = np.linalg.eigh(rho)
    low = p[..., 0] < -_PSD_TOL
    if np.count_nonzero(low):
        raise ValueError(
            f"rho is not positive semidefinite: eigenvalue {_first(p[..., 0], low):.3e}")
    return np.maximum(p, 0.0), V.conj().swapaxes(-1, -2) @ drho @ V


def _pairs(p: np.ndarray, eps: float | np.ndarray | None):
    """The pair sums p_j + p_k and the kept pairs, those above ``qfi_exact``'s cutoff."""
    if eps is None:
        eps = 1e-12 * p[..., -1]
    eps = np.asarray(eps, dtype=float)[..., None, None]
    denom = p[..., :, None] + p[..., None, :]
    return denom, denom > eps


def _pair_sum(G: np.ndarray, denom: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """sum over kept pairs of 2 |G_jk|^2 / (p_j + p_k), one per matrix (shape G.shape[:-2])."""
    terms = np.divide(2.0 * np.abs(G) ** 2, denom, out=np.zeros(G.shape), where=keep)
    # one reduction over each contiguous matrix, so a sum does not depend on
    # the stack; the dropped pairs add exact zeros
    return terms.sum(axis=(-2, -1))


def qfi_exact(p: np.ndarray, G: np.ndarray,
              eps: float | np.ndarray | None = None) -> float | np.ndarray:
    """QFI sum of 2 |G_jk|^2 / (p_j + p_k) over the pairs with p_j + p_k > eps.

    p are rho's eigenvalues (..., d) and G is drho in rho's eigenbasis
    (..., d, d), as ``in_eigenbasis`` returns them after its checks; they
    are not checked again.  eps is the null-pair cutoff, one for all
    matrices or one per matrix (shape ``p.shape[:-1]``); the default is
    1e-12 times each matrix's largest eigenvalue.  A given cutoff may be 0
    or +inf (which keeps no pair), and a ValueError names a negative or NaN
    one.  A stack gives an array of shape p.shape[:-1], each entry equal to
    the call on that matrix alone.
    """
    p, G = np.asarray(p, dtype=float), np.asarray(G)
    if p.shape != G.shape[:-1]:
        raise ValueError("eigenvalues and drho must have matching shapes")
    if eps is not None and not np.all(np.asarray(eps) >= 0.0):  # NaN fails too
        raise ValueError(f"eps must be a nonnegative cutoff, got {eps}")
    qfi = _pair_sum(G, *_pairs(p, eps))
    return float(qfi) if qfi.ndim == 0 else qfi


class ProbModel(_ReadOnly):
    """Outcome probabilities and their parameter derivatives."""

    def __init__(self, p, dp):
        p = np.asarray(p, dtype=float)
        dp = np.asarray(dp, dtype=float)
        if p.shape != dp.shape or p.ndim != 1:
            raise ValueError("p and dp must be 1-d arrays of equal length")
        vars(self).update(p=p, dp=dp)

    def validate(self) -> None:
        """A ValueError unless p sums to 1, dp to 0 and no p is negative; a NaN fails."""
        if not abs(float(np.sum(self.p)) - 1.0) <= 1e-10:
            raise ValueError(f"probabilities must sum to 1, got {np.sum(self.p)}")
        if not abs(float(np.sum(self.dp))) <= 1e-8:
            raise ValueError(f"probability derivatives must sum to 0, got {np.sum(self.dp)}")
        if not float(np.min(self.p)) >= -1e-12:
            raise ValueError(f"negative probability {np.min(self.p)}")


def cfi(model: ProbModel) -> float:
    """Classical Fisher information sum_x dp_x^2 / p_x over p_x >= ``_CFI_MIN_PROB``."""
    model.validate()
    keep = model.p >= _CFI_MIN_PROB
    return float(np.sum(model.dp[keep] ** 2 / model.p[keep]))
