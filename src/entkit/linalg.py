"""Hermitian eigensolver: LAPACK's divide-and-conquer `eigh` behind one check.

Every spectrum in the package comes through here. The public solvers
enforce the input contract: square matrices (or a stack of equal-size
ones) with finite entries, Hermitian within 1e-10 of each matrix's
Frobenius norm. Two callers skip it, for matrices Hermitian by
construction: `entropy._cut_blocks`, for the Grams M M^dag it forms (it
rejects non-finite ones by their purities), and
`reducibility._pair_transpose_spectra`, for partial transposes of the
reduced matrices of a state. Results are sorted descending, which is the
order Schmidt coefficients and majorization tests read them in.
"""
from __future__ import annotations

import numpy as np

__all__ = ["hermitian_eigensystem", "hermitian_eigenvalues"]

_HERMITICITY_TOL = 1e-10


def _checked(matrix: np.ndarray) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(
            f"expected a square matrix or a stack of them, got shape {a.shape}"
        )
    with np.errstate(invalid="ignore"):  # inf entries give NaN norms, rejected below
        norms = np.linalg.norm(a, axis=(-2, -1))
    if not np.isfinite(norms).all():
        raise ValueError("matrix has non-finite entries (NaN or infinity)")
    skew = np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))
    if (skew > _HERMITICITY_TOL * np.maximum(norms, 1.0)).any():
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def hermitian_eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix, or a stack of them.

    Parameters
    ----------
    matrix : (n, n) or (k, n, n) array_like
        Finite, and Hermitian within 1e-10 relative to its Frobenius norm
        (per matrix for a stack); otherwise ValueError.

    Returns
    -------
    eigenvalues : (n,) or (k, n) float ndarray, sorted descending.
    eigenvectors : (n, n) or (k, n, n) complex ndarray; column i pairs with
        eigenvalue i.
    """
    eigenvalues, vectors = np.linalg.eigh(_checked(matrix))
    return eigenvalues[..., ::-1], vectors[..., ::-1]


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues only, sorted descending; same input contract."""
    return _unchecked_eigenvalues(_checked(matrix))


def _unchecked_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """`hermitian_eigenvalues` of a finite stack known Hermitian: real
    symmetric (LAPACK's real solver) or complex Hermitian."""
    return np.linalg.eigvalsh(stack)[..., ::-1]
