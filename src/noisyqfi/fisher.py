"""Exact SLD, quantum Fisher information, and classical Fisher information.

Everything here works on dense Hermitian matrices: the SLD L solves
drho = (L rho + rho L)/2 and is built from the eigendecomposition
rho = sum_j p_j |j><j| as

    L = 2 sum_{j,k} <j|drho|k> / (p_j + p_k) |j><k|

restricted to pairs with p_j + p_k above a cutoff; the QFI is Tr[drho L].
``qfi_exact`` also takes a stack of states (..., d, d) and returns one QFI
per matrix, each checked and summed as on its own, and it takes rho as its
eigenvalues with drho in its eigenbasis (``in_eigenbasis``), so a caller can
read every spectrum before it picks the cutoff.  The library decomposes the
Schur-Weyl blocks of one spin at every purity of a sweep at once and sums
their pairs with it (``blocks.exact_qfis``); on the whole 2^n state it is
the test oracle for the blocks and for the series machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SldResult",
    "ProbModel",
    "sld_exact",
    "qfi_exact",
    "in_eigenbasis",
    "cfi",
]

_HERM_TOL = 1e-8
_PSD_TOL = 1e-9


def _check_hermitian(mat: np.ndarray, name: str, tol: float = _HERM_TOL) -> np.ndarray:
    """mat as complex, if it is one square matrix or a stack of them, each Hermitian."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    worst = float(np.abs(mat - mat.conj().swapaxes(-1, -2)).max()) if mat.size else 0.0
    if worst > tol:
        raise ValueError(f"{name} is not Hermitian: max asymmetry {worst:.3e}")
    return mat


def _first(values: np.ndarray, bad: np.ndarray):
    """The first entry of values where bad holds (values may be 0-d)."""
    return values[bad][0] if values.ndim else values


@dataclass(frozen=True)
class SldResult:
    """SLD operator with the eigensystem it was built from."""

    L: np.ndarray
    qfi: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    dropped_pairs: int


def _eigensystem(rho: np.ndarray, drho: np.ndarray):
    """Checked eigenvalues p and eigenvectors V of rho, and G = V^+ drho V.

    rho and drho may be stacks (..., d, d).
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
    G = V.conj().swapaxes(-1, -2) @ drho @ V
    return np.maximum(p, 0.0), V, G


def in_eigenbasis(rho: np.ndarray, drho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho's eigenvalues p (ascending) and drho in rho's eigenbasis, checked.

    ``qfi_exact(*in_eigenbasis(rho, drho), eps)`` equals
    ``qfi_exact(rho, drho, eps)`` bit for bit, so a caller can read every
    spectrum before it picks the cutoff without decomposing twice.
    """
    p, _, G = _eigensystem(rho, drho)
    return p, G


def _pairs(p: np.ndarray, eps: float | np.ndarray | None):
    """The pair sums p_j + p_k and the kept pairs (sum above the cutoff).

    eps is one cutoff for all matrices or one per matrix (shape
    ``p.shape[:-1]``); the default is 1e-12 times each one's largest
    eigenvalue.
    """
    if eps is None:
        eps = 1e-12 * p[..., -1]
    eps = np.asarray(eps, dtype=float)[..., None, None]
    denom = p[..., :, None] + p[..., None, :]
    return denom, denom > eps


def _pair_sum(G: np.ndarray, denom: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """sum over kept pairs of 2 |G_jk|^2 / (p_j + p_k), one per matrix (shape G.shape[:-2])."""
    terms = np.divide(2.0 * np.abs(G) ** 2, denom, out=np.zeros(G.shape), where=keep)
    size = G.shape[-2] * G.shape[-1]
    # the kept pairs of each matrix alone, so a sum does not depend on the stack
    sums = [t[k].sum() for t, k in zip(terms.reshape(-1, size), keep.reshape(-1, size))]
    return np.array(sums).reshape(G.shape[:-2])


def sld_exact(rho: np.ndarray, drho: np.ndarray, eps: float | None = None) -> SldResult:
    """SLD and QFI of a state family from (rho, drho) at one parameter value.

    eps is the null-pair cutoff: eigenvalue pairs with p_j + p_k <= eps are
    skipped (default 1e-12 times the largest eigenvalue).  Eigenvalues in
    [-1e-9, 0) are clamped to zero; anything more negative is rejected as an
    invalid state.
    """
    p, V, G = _eigensystem(rho, drho)
    denom, keep = _pairs(p, eps)
    ratio = np.zeros_like(G)
    np.divide(G, denom, out=ratio, where=keep)
    L = V @ (2.0 * ratio * keep) @ V.conj().T
    return SldResult(
        L=L,
        qfi=float(_pair_sum(G, denom, keep)),
        eigenvalues=p,
        eigenvectors=V,
        dropped_pairs=int(np.count_nonzero(~keep)),
    )


def qfi_exact(rho: np.ndarray, drho: np.ndarray,
              eps: float | np.ndarray | None = None) -> float | np.ndarray:
    """The QFI of ``sld_exact`` without forming the SLD.

    For stacks rho, drho of shape (..., d, d) it returns an array of shape
    (...), each entry equal to the call on that matrix alone; eps is then a
    cutoff for all matrices or one per matrix.  A matrix anywhere in the
    stack that fails a check raises the ValueError it raises on its own.
    rho may also be given as its eigenvalues (..., d) with drho in its
    eigenbasis, as ``in_eigenbasis`` returns them after its checks; that
    form is not checked again.
    """
    if np.ndim(rho) == np.ndim(drho) - 1:
        p, G = np.asarray(rho, dtype=float), np.asarray(drho)
        if p.shape != G.shape[:-1]:
            raise ValueError("eigenvalues and drho must have matching shapes")
    else:
        p, _, G = _eigensystem(rho, drho)
    qfi = _pair_sum(G, *_pairs(p, eps))
    return float(qfi) if qfi.ndim == 0 else qfi


@dataclass(frozen=True)
class ProbModel:
    """Outcome probabilities and their parameter derivatives."""

    p: np.ndarray
    dp: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        dp = np.asarray(self.dp, dtype=float)
        if p.shape != dp.shape or p.ndim != 1:
            raise ValueError("p and dp must be 1-d arrays of equal length")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dp", dp)

    def validate(self) -> None:
        if abs(float(np.sum(self.p)) - 1.0) > 1e-10:
            raise ValueError(f"probabilities must sum to 1, got {np.sum(self.p)}")
        if abs(float(np.sum(self.dp))) > 1e-8:
            raise ValueError(f"probability derivatives must sum to 0, got {np.sum(self.dp)}")
        if float(np.min(self.p)) < -1e-12:
            raise ValueError(f"negative probability {np.min(self.p)}")


def cfi(model: ProbModel, eps: float = 1e-14) -> float:
    """Classical Fisher information sum_x dp_x^2 / p_x, skipping p_x < eps."""
    model.validate()
    keep = model.p >= eps
    return float(np.sum(model.dp[keep] ** 2 / model.p[keep]))
