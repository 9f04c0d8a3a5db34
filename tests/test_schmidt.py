"""Schmidt machinery, the m-orthogonality test, and the type-class
combinatorics behind concentration and dilution."""
import math

import numpy as np
import pytest

from entkit.builders import cat_power, cat_state
from entkit.schmidt import (
    cat_yield,
    concentration_yield_distribution,
    dilution_fidelity,
    dilution_retained_types,
    expected_concentration_yield,
    is_m_orthogonal,
    schmidt_decompose,
)
from entkit.states import PureState, make_state, random_pure_state, random_unitary


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (3, 2, 4), (2, 2, 2, 2)])
def test_schmidt_reconstructs(dims):
    rng = np.random.default_rng(sum(dims))
    state = random_pure_state(dims, rng)
    for size in range(1, len(dims)):
        cut = tuple(range(size))
        d = schmidt_decompose(state, cut)
        rebuilt = d.reconstruct()
        assert abs(abs(rebuilt.overlap(state)) - 1.0) < 1e-9
        weights = d.coefficients**2
        assert abs(weights.sum() - 1.0) < 1e-9


def test_schmidt_sides_orthonormal():
    state = random_pure_state((4, 6), np.random.default_rng(9))
    d = schmidt_decompose(state, (0,))
    gram_l = d.left_vectors.conj().T @ d.left_vectors
    gram_r = d.right_vectors.conj().T @ d.right_vectors
    assert np.linalg.norm(gram_l - np.eye(d.rank)) < 1e-9
    assert np.linalg.norm(gram_r - np.eye(d.rank)) < 1e-9


def test_schmidt_rank_product_state():
    product = make_state((2, 2), [("00", 1.0)])
    assert schmidt_decompose(product, (0,)).rank == 1


def test_biased_pair_coefficients():
    state = make_state((2, 2), [("00", math.sqrt(3)), ("11", 1.0)])
    d = schmidt_decompose(state, (0,))
    assert d.coefficients[0] ** 2 == pytest.approx(0.75, abs=1e-12)
    assert d.coefficients[1] ** 2 == pytest.approx(0.25, abs=1e-12)


def test_cat_is_m_orthogonal():
    for m in (3, 4):
        result = is_m_orthogonal(cat_state(m))
        assert result.decomposable is True
        assert result.form is not None
        rebuilt = result.form.to_state()
        assert abs(abs(rebuilt.overlap(cat_state(m))) - 1.0) < 1e-9


def test_biased_threeparty_state_decomposes():
    state = make_state((2, 2, 2), [("000", math.sqrt(3)), ("111", 1.0)])
    result = is_m_orthogonal(state)
    assert result.decomposable is True
    weights = sorted(c**2 for c in result.form.coefficients)
    assert weights == pytest.approx([0.25, 0.75], abs=1e-12)


def test_w_state_not_decomposable():
    w = make_state((2, 2, 2), [("001", 1.0), ("010", 1.0), ("100", 1.0)])
    result = is_m_orthogonal(w)
    assert result.decomposable is False


def test_two_cat_copies_decompose():
    result = is_m_orthogonal(cat_power(3, 2))
    assert result.decomposable is True
    assert result.form.rank == 4


def test_rotated_cat_copies_inconclusive():
    # rotating one party mixes the degenerate local eigenbasis; the test
    # must refuse to certify either way rather than guess
    state = cat_power(3, 2)
    u = random_unitary(4, np.random.default_rng(3))
    tensorized = np.tensordot(u, state.as_tensor(), axes=([1], [0]))
    rotated = PureState(state.dims, tensorized.reshape(-1))
    result = is_m_orthogonal(rotated)
    assert result.decomposable is None


def test_random_state_rejected():
    state = random_pure_state((2, 2, 2), np.random.default_rng(12))
    result = is_m_orthogonal(state)
    assert result.decomposable is False


def test_cat_yield_values():
    assert cat_yield(cat_state(3)) == pytest.approx(1.0, abs=1e-12)
    assert cat_yield(cat_power(3, 2)) == pytest.approx(2.0, abs=1e-12)
    biased = make_state((2, 2, 2), [("000", math.sqrt(3)), ("111", 1.0)])
    assert cat_yield(biased) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_concentration_small_n_by_hand():
    # n=2, p=(3/4,1/4): types (2,0), (1,1), (0,2) with multiplicities 1,2,1
    branches = concentration_yield_distribution([0.75, 0.25], 2)
    table = {b.counts: b for b in branches}
    assert table[(2, 0)].probability == pytest.approx(9 / 16, abs=1e-12)
    assert table[(1, 1)].probability == pytest.approx(6 / 16, abs=1e-12)
    assert table[(0, 2)].probability == pytest.approx(1 / 16, abs=1e-12)
    assert table[(1, 1)].size == 2
    assert table[(1, 1)].yield_bits == pytest.approx(1.0, abs=1e-12)
    assert table[(1, 1)].yield_floor == 1
    assert table[(2, 0)].yield_floor == 0
    assert expected_concentration_yield([0.75, 0.25], 2) == pytest.approx(
        6 / 16, abs=1e-12
    )


def test_concentration_probabilities_sum_to_one():
    for n in (1, 5, 17):
        branches = concentration_yield_distribution([0.5, 0.3, 0.2], n)
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-9)


def test_concentration_yield_matches_brute_force():
    # the type-class yield must agree with enumerating all 2^n strings
    p = [0.75, 0.25]
    n = 8
    from collections import Counter

    by_type = Counter()
    for string in range(2**n):
        ones = bin(string).count("1")
        by_type[(n - ones, ones)] += 1
    branches = {b.counts: b for b in concentration_yield_distribution(p, n)}
    for counts, size in by_type.items():
        assert branches[counts].size == size
        per_string = p[0] ** counts[0] * p[1] ** counts[1]
        assert branches[counts].probability == pytest.approx(
            size * per_string, abs=1e-12
        )


def test_concentration_gap_shrinks():
    p = [0.75, 0.25]
    target = 0.8112781244591328
    gaps = [
        target - expected_concentration_yield(p, n) / n for n in (25, 50, 100, 200)
    ]
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_dilution_fidelity_monotone_in_k():
    p = [0.75, 0.25]
    for n in (1, 2, 5, 9):
        values = [dilution_fidelity(p, n, k) for k in range(0, n + 2)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-12)


def test_dilution_fidelity_endpoints():
    p = [0.75, 0.25]
    # k=0 keeps only the single most likely string
    assert dilution_fidelity(p, 2, 0) == pytest.approx(0.5625, abs=1e-12)
    assert dilution_fidelity(p, 2, 1) == pytest.approx(0.75, abs=1e-12)
    assert dilution_fidelity(p, 2, 2) == pytest.approx(1.0, abs=1e-12)


def test_dilution_fidelity_uniform_counts_strings():
    # uniform weights: fidelity is simply (strings kept) / (total strings)
    assert dilution_fidelity([0.5, 0.5], 4, 2) == pytest.approx(0.25, abs=1e-12)


def test_dilution_retained_types_budget():
    p = [0.75, 0.25]
    rows = dilution_retained_types(p, 4, 2)
    kept = sum(k for _, _, _, k in rows)
    assert kept <= 4
    # greedy: per-string probabilities nonincreasing down the list
    probs = [q for _, q, _, _ in rows]
    assert all(a >= b - 1e-15 for a, b in zip(probs, probs[1:]))


@pytest.mark.parametrize("n, k", [(0, 1), (2, -1)])
def test_dilution_rejects_bad_copy_count_and_budget(n, k):
    p = [0.75, 0.25]
    with pytest.raises(ValueError):
        dilution_retained_types(p, n, k)
    with pytest.raises(ValueError):
        dilution_fidelity(p, n, k)


@pytest.mark.parametrize("cut", [(7,), (-1,)])
def test_schmidt_decompose_rejects_out_of_range_cut(cut):
    with pytest.raises(ValueError, match="out of range"):
        schmidt_decompose(cat_state(3), cut)
