"""The Hermitian eigensolver against routes it does not use.

The solver wraps LAPACK's Hermitian driver, so the reference is the general
non-Hermitian eigensolver (a different LAPACK routine, `geev`) and, for one
matrix, a sign change of the characteristic polynomial.
"""
import numpy as np
import pytest

from entkit.linalg import hermitian_eigensystem, hermitian_eigenvalues


def random_hermitian(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def general_eigenvalues(a):
    """Eigenvalues from the general (non-Hermitian) solver, real parts descending."""
    return np.sort(np.linalg.eigvals(a).real)[::-1]


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 13, 64, 256])
def test_eigenvalues_match_lapack(dim):
    rng = np.random.default_rng(dim)
    for _ in range(20 if dim <= 64 else 3):
        a = random_hermitian(dim, rng)
        ours = hermitian_eigenvalues(a)
        reference = general_eigenvalues(a)
        assert np.allclose(ours, reference, atol=1e-10)


def test_stacked_input_matches_one_by_one():
    rng = np.random.default_rng(23)
    stack = np.stack([random_hermitian(6, rng) for _ in range(5)])
    vals = hermitian_eigenvalues(stack)
    all_vals, vecs = hermitian_eigensystem(stack)
    assert vals.shape == all_vals.shape == (5, 6)
    assert vecs.shape == (5, 6, 6)
    for a, v, w, u in zip(stack, vals, all_vals, vecs):
        assert np.allclose(v, general_eigenvalues(a), atol=1e-10)
        assert np.allclose(w, v, atol=1e-12)
        assert np.linalg.norm(u @ np.diag(w) @ u.conj().T - a) < 1e-10


def test_eigenvalues_descending():
    rng = np.random.default_rng(5)
    a = random_hermitian(9, rng)
    vals = hermitian_eigenvalues(a)
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(len(vals) - 1))


def test_eigensystem_reconstructs():
    rng = np.random.default_rng(11)
    for dim in (2, 4, 7):
        a = random_hermitian(dim, rng)
        vals, vecs = hermitian_eigensystem(a)
        assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.conj().T - a) < 1e-10
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(dim)) < 1e-10


def test_degenerate_spectrum():
    # projector onto a 2-dim subspace of C^4: eigenvalues (1, 1, 0, 0)
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    p = q @ q.conj().T
    vals = hermitian_eigenvalues(p)
    assert np.allclose(vals, [1.0, 1.0, 0.0, 0.0], atol=1e-11)


def test_diagonal_passthrough():
    vals = hermitian_eigenvalues(np.diag([0.25, 0.75, 0.5]))
    assert np.allclose(vals, [0.75, 0.5, 0.25], atol=1e-14)


def test_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # one bad matrix in a stack is enough
    stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigensystem(stack)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_entries(bad):
    a = np.eye(3, dtype=complex)
    a[1, 1] = bad
    for solver in (hermitian_eigenvalues, hermitian_eigensystem):
        with pytest.raises(ValueError, match="non-finite"):
            solver(a)
        with pytest.raises(ValueError, match="non-finite"):
            solver(np.stack([np.eye(3), a]))


def test_rejects_non_square():
    for shape in [(2, 3), (4,), (2, 2, 2, 2)]:
        with pytest.raises(ValueError, match="square"):
            hermitian_eigenvalues(np.zeros(shape))


def test_characteristic_polynomial_roots():
    # each reported eigenvalue must be a root of det(A - x I); checked by a
    # sign change of the characteristic polynomial across a small bracket
    rng = np.random.default_rng(17)
    a = random_hermitian(5, rng)
    vals = hermitian_eigenvalues(a)

    def char(x):
        return np.linalg.det(a - x * np.eye(5)).real

    for v in vals:
        left, right = char(v - 1e-6), char(v + 1e-6)
        assert left == 0 or right == 0 or np.sign(left) != np.sign(right) or (
            abs(char(v)) < 1e-8 * max(abs(left), abs(right), 1.0)
        )
