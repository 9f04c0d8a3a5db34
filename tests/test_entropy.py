"""Entropy vectors: frozen values, purity symmetry, unitary invariance."""
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from entkit.builders import (
    cat_power,
    cat_state,
    codeword5,
    epr_between,
    epr_pair,
    eprs_chain,
    eprs_complete,
)
from entkit.entropy import (
    PartitionAsymmetryError,
    cut_spectra,
    entropy,
    entropy_ratio_r21,
    entropy_vector,
    exact_entropy,
    exact_entropy_ratio_r21,
    exact_entropy_vector,
    exact_entropy_vector_of_factors,
    shannon_entropy,
    single_party_entropies,
)
from entkit.states import (
    canonical_partitions,
    random_pure_state,
    random_unitary,
    reduced_gram,
)

# h(3/4, 1/4), written out once so nothing downstream drifts
H_3Q = 0.8112781244591328


def test_shannon_reference_values():
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
    assert shannon_entropy([0.75, 0.25]) == pytest.approx(H_3Q, abs=1e-12)
    assert shannon_entropy([1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    # independent route: -sum p log2 p, term by term
    manual = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert H_3Q == pytest.approx(manual, abs=1e-15)


def test_ghz_entropy_vector_all_ones():
    vec = entropy_vector(cat_state(3))
    for _, value in vec.entries():
        assert value == pytest.approx(1.0, abs=1e-12)


def test_epr_pair_entropy():
    gram = reduced_gram(epr_pair(), (0,))
    assert entropy(gram) == pytest.approx(1.0, abs=1e-12)
    assert exact_entropy(gram) == Fraction(1)


def test_codeword_entropy_vector():
    exact = exact_entropy_vector(codeword5())
    for part, value in exact.items():
        assert value == Fraction(min(len(part.members), 5 - len(part.members)))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_r21_closed_form_for_complete_graphs(m):
    got = entropy_ratio_r21(eprs_complete(m))
    assert got == pytest.approx(2 * (m - 2) / (m - 1), abs=1e-12)
    exact = exact_entropy_ratio_r21(exact_entropy_vector(eprs_complete(m)), m)
    assert exact == Fraction(2 * (m - 2), m - 1)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_r21_is_one_for_cats(m):
    assert entropy_ratio_r21(cat_state(m)) == pytest.approx(1.0, abs=1e-12)


def test_r21_rejects_asymmetric_states():
    with pytest.raises(PartitionAsymmetryError):
        entropy_ratio_r21(eprs_chain(4))


def test_exact_r21_names_the_unequal_partitions():
    vec = exact_entropy_vector(eprs_chain(4))
    with pytest.raises(PartitionAsymmetryError) as caught:
        exact_entropy_ratio_r21(vec, 4)
    assert [label for label, _ in caught.value.unequal] == ["A", "B", "C", "D"]
    assert "S_A=1" in str(caught.value)


def test_purity_symmetry_random_states():
    rng = np.random.default_rng(42)
    for _ in range(60):
        m = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(2, 4)) for _ in range(m))
        state = random_pure_state(dims, rng)
        for part in canonical_partitions(m):
            s_x = entropy(reduced_gram(state, part.members))
            s_rest = entropy(reduced_gram(state, part.complement().members))
            assert abs(s_x - s_rest) < 1e-9


def test_unitary_invariance():
    rng = np.random.default_rng(7)
    state = random_pure_state((2, 3, 2), rng)
    before = entropy_vector(state)
    rotated = state
    from entkit.states import PureState

    tensorized = rotated.as_tensor()
    for party, d in enumerate(state.dims):
        u = random_unitary(d, rng)
        tensorized = np.moveaxis(
            np.tensordot(u, tensorized, axes=([1], [party])), 0, party
        )
    rotated = PureState(state.dims, tensorized.reshape(-1))
    after = entropy_vector(rotated)
    assert before.max_difference(after) < 1e-8


def test_single_party_entropies_cat_power():
    values = single_party_entropies(cat_power(3, 2))
    assert values == pytest.approx([2.0, 2.0, 2.0], abs=1e-12)


def test_exact_vector_of_factors_matches_dense():
    # three EPR pairs laid out across four parties, dense route vs additive route
    factors = [
        (epr_pair(), (0, 1)),
        (epr_pair(), (1, 2)),
        (epr_pair(), (2, 3)),
    ]
    additive = exact_entropy_vector_of_factors(4, factors)
    dense = exact_entropy_vector(eprs_chain(4))
    assert additive == dense


def test_exact_vector_of_factors_embedded_pair():
    additive = exact_entropy_vector_of_factors(3, [(epr_pair(), (0, 2))])
    dense = exact_entropy_vector(epr_between(3, 0, 2))
    assert additive == dense


def test_entropy_vector_dominance():
    ghz = entropy_vector(cat_state(3))
    w_like = entropy_vector(
        random_pure_state((2, 2, 2), np.random.default_rng(0))
    )
    assert ghz.dominates(ghz)
    # GHZ carries a full bit on every cut; a random state rarely does
    if not ghz.dominates(w_like):
        assert any(v > 1.0 + 1e-8 for _, v in w_like.entries())


def svd_spectrum(state, members):
    """Squared singular values of the amplitude matrix across a cut (numpy only)."""
    rest = tuple(p for p in range(state.num_parties) if p not in members)
    rows = math.prod(state.dims[p] for p in members)
    mat = state.as_tensor().transpose(members + rest).reshape(rows, -1)
    return np.linalg.svd(mat, compute_uv=False) ** 2


@pytest.mark.parametrize("dims", [(3, 3, 4, 2, 2), (3,) * 5, (2,) * 8])
def test_cut_spectra_match_svd(dims):
    state = random_pure_state(dims, np.random.default_rng(len(dims) * 101))
    spectra = cut_spectra(state)
    vec = entropy_vector(state)
    assert list(spectra) == canonical_partitions(len(dims))
    for part, spectrum in spectra.items():
        reference = svd_spectrum(state, part.members)
        assert isinstance(spectrum, np.ndarray)
        assert np.allclose(spectrum, reference, atol=1e-9)
        positive = reference[reference > 1e-15]
        assert vec[part] == pytest.approx(
            float(-(positive * np.log2(positive)).sum()), abs=1e-9
        )


def count_solver_calls(monkeypatch):
    # the package re-exports a function named `entropy`, so reach the module
    # through sys.modules
    module = sys.modules["entkit.entropy"]
    calls = []
    original = module.hermitian_eigenvalues

    def counting(matrix):
        calls.append(np.shape(matrix))
        return original(matrix)

    monkeypatch.setattr(module, "hermitian_eigenvalues", counting)
    return calls


@pytest.mark.parametrize(
    "state, formula",
    [
        (cat_state(5), lambda members: 1),
        (eprs_complete(4), lambda members: len(members) * (4 - len(members))),
        (codeword5(), lambda members: min(len(members), 5 - len(members))),
    ],
    ids=["cat5", "eprs4", "codeword5"],
)
def test_exact_vector_combinatorial_without_solver(monkeypatch, state, formula):
    calls = count_solver_calls(monkeypatch)
    exact = exact_entropy_vector(state)
    assert list(exact) == canonical_partitions(state.num_parties)
    for part, value in exact.items():
        assert type(value) is Fraction
        assert value == formula(part.members)
    assert calls == []


def test_flat_cuts_never_reach_the_solver(monkeypatch):
    calls = count_solver_calls(monkeypatch)
    vec = entropy_vector(cat_state(6))
    assert all(value == 1.0 for _, value in vec.entries())
    assert calls == []
    # control: a generic 8-qubit state needs one stacked call per Gram size
    entropy_vector(random_pure_state((2,) * 8, np.random.default_rng(3)))
    assert sorted(calls) == [(8, 2, 2), (28, 4, 4), (35, 16, 16), (56, 8, 8)]


def test_exact_vector_names_the_first_numeric_cut():
    state = random_pure_state((2, 2, 2), np.random.default_rng(4))
    with pytest.raises(ValueError, match="partition A has no exact"):
        exact_entropy_vector(state)
