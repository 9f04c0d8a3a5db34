"""Majorization, convertibility verdicts, and the separability/NPT witness."""
import itertools
import sys

import numpy as np
import pytest

from entkit.builders import (
    cat_power,
    cat_state,
    epr_pair,
    eprs_complete,
    eprs_graph,
)
from entkit.reducibility import (
    Classification,
    ComparisonVerdict,
    classify_states,
    exact_bipartite_reducible,
    ghz_epr_witness,
    is_npt_pair,
    lu_equivalent_bipartite,
    majorizes,
    ppt_minimum_eigenvalue,
)
from entkit.states import PureState, make_state, random_pure_state, random_unitary


def random_spectrum(rng, max_len=6):
    n = int(rng.integers(1, max_len + 1))
    raw = rng.random(n) + 1e-3
    return sorted(raw / raw.sum(), reverse=True)


def majorizes_oracle(q, p):
    # brute-force prefix sums, no shared code with the implementation
    qq = sorted(q, reverse=True)
    pp = sorted(p, reverse=True)
    size = max(len(qq), len(pp))
    qq += [0.0] * (size - len(qq))
    pp += [0.0] * (size - len(pp))
    acc_q = acc_p = 0.0
    for a, b in zip(qq, pp):
        acc_q += a
        acc_p += b
        if acc_q < acc_p - 1e-10:
            return False
    return True


def test_majorization_against_oracle():
    rng = np.random.default_rng(100)
    agree = 0
    for _ in range(400):
        q = random_spectrum(rng)
        p = random_spectrum(rng)
        assert majorizes(q, p) == majorizes_oracle(q, p)
        agree += 1
    assert agree == 400


def test_majorization_basics():
    assert majorizes([1.0], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [1.0])
    assert majorizes([0.5, 0.5], [0.5, 0.5])


def test_exact_bipartite_reducible_epr_to_product():
    product = make_state((2, 2), [("00", 1.0)])
    assert exact_bipartite_reducible(epr_pair(), product)
    assert not exact_bipartite_reducible(product, epr_pair())


def test_mutual_reducibility_iff_equal_spectra():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = random_pure_state((3, 3), rng)
        b = random_pure_state((3, 3), rng)
        mutual = exact_bipartite_reducible(a, b) and exact_bipartite_reducible(b, a)
        from entkit.reducibility import bipartite_spectrum

        sa = bipartite_spectrum(a)
        sb = bipartite_spectrum(b)
        same = max(abs(x - y) for x, y in zip(sa, sb)) < 1e-8
        assert mutual == same


def test_bipartite_verdicts():
    rng = np.random.default_rng(8)
    product = make_state((2, 2), [("00", 1.0)])
    biased = make_state((2, 2), [("00", np.sqrt(3)), ("11", 1.0)])

    down = classify_states(epr_pair(), product)
    assert down.verdict is ComparisonVerdict.REDUCIBLE_A_TO_B
    up = classify_states(product, epr_pair())
    assert up.verdict is ComparisonVerdict.REDUCIBLE_B_TO_A
    same = classify_states(biased, biased)
    assert same.verdict is ComparisonVerdict.LU_EQUIVALENT

    # crossing prefix sums: neither spectrum majorizes the other
    a = make_state((3, 3), {"00": np.sqrt(0.55), "11": np.sqrt(0.45)})
    b = make_state(
        (3, 3), {"00": np.sqrt(0.6), "11": np.sqrt(0.2), "22": np.sqrt(0.2)}
    )
    crossing = classify_states(a, b)
    assert crossing.verdict is ComparisonVerdict.INCOMPARABLE


def test_lu_equivalent_bipartite():
    rng = np.random.default_rng(21)
    state = random_pure_state((3, 3), rng)
    u = random_unitary(3, rng)
    v = random_unitary(3, rng)
    mat = state.as_tensor()
    rotated = PureState((3, 3), (u @ mat @ v.T).reshape(-1))
    assert lu_equivalent_bipartite(state, rotated) is True
    other = random_pure_state((3, 3), rng)
    assert lu_equivalent_bipartite(state, other) is False


@pytest.mark.parametrize("shift, equivalent", [(1e-6, False), (1e-10, True)])
def test_lu_equivalence_tolerance_is_fixed_between_1e_10_and_1e_6(shift, equivalent):
    def schmidt_state(p: float) -> PureState:
        return make_state((2, 2), [("00", np.sqrt(p)), ("11", np.sqrt(1.0 - p))])

    rng = np.random.default_rng(22)
    u, v = random_unitary(2, rng), random_unitary(2, rng)
    shifted = schmidt_state(0.6 + shift).as_tensor()
    rotated = PureState((2, 2), (u @ shifted @ v.T).reshape(-1))
    assert lu_equivalent_bipartite(schmidt_state(0.6), rotated) is equivalent


def test_classify_detects_local_unitary_equivalence():
    rng = np.random.default_rng(31)
    state = random_pure_state((2, 2, 2), rng)
    tensorized = state.as_tensor()
    for party in range(3):
        u = random_unitary(2, rng)
        tensorized = np.moveaxis(
            np.tensordot(u, tensorized, axes=([1], [party])), 0, party
        )
    rotated = PureState(state.dims, tensorized.reshape(-1))
    result = classify_states(state, rotated)
    assert result.verdict is ComparisonVerdict.LU_EQUIVALENT
    # the certificate maps the second state onto the first
    mats = result.details["unitaries"]
    check = rotated.as_tensor()
    for party, u in enumerate(mats):
        check = np.moveaxis(np.tensordot(u, check, axes=([1], [party])), 0, party)
    overlap = abs(np.vdot(check.reshape(-1), state.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_classify_marginally_but_not_fully_isentropic():
    # cat4 and two crossing EPR pairs agree on every single party (one bit
    # each); the pair partitions betray them
    crossed = eprs_graph(4, [(0, 2), (1, 3)])
    result = classify_states(cat_state(4), crossed)
    assert result.verdict is ComparisonVerdict.INCOMPARABLE_BY_DICHOTOMY
    assert result.witness_partition is not None


def test_classify_dominance_direction_unknown():
    # GHZ dominates W entropywise; dominance rules out only one direction
    w = make_state((2, 2, 2), [("001", 1.0), ("010", 1.0), ("100", 1.0)])
    result = classify_states(cat_state(3), w)
    assert result.verdict is ComparisonVerdict.UNKNOWN


def test_classify_entropy_gap_incomparable():
    # each dominates somewhere: A-B EPR vs B-C EPR
    ab = eprs_graph(3, [(0, 1)])
    bc = eprs_graph(3, [(1, 2)])
    result = classify_states(ab, bc)
    assert result.verdict is ComparisonVerdict.INCOMPARABLE
    assert result.witness_partition is not None


def test_ppt_epr_value():
    rho = np.outer(epr_pair().amplitudes, epr_pair().amplitudes.conj())
    assert ppt_minimum_eigenvalue(rho) == pytest.approx(-0.5, abs=1e-12)
    assert is_npt_pair(rho)


def test_ppt_separable_state_stays_positive():
    rho = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
    assert ppt_minimum_eigenvalue(rho) >= -1e-12
    assert not is_npt_pair(rho)


def test_ghz_epr_witness_report():
    report = ghz_epr_witness()
    assert report.verdict is ComparisonVerdict.INCOMPARABLE
    for _, value in report.entropy_vector_cats:
        assert value == pytest.approx(2.0, abs=1e-8)
    for _, value in report.entropy_vector_eprs:
        assert value == pytest.approx(2.0, abs=1e-8)
    assert report.cats_bc_offdiagonal_max < 1e-10
    assert report.cats_bc_nonzero_spectrum == pytest.approx([0.25] * 4, abs=1e-10)
    assert report.cats_b_marginal_deviation < 1e-10
    assert report.cats_c_marginal_deviation < 1e-10
    assert report.cats_marginal_product_deviation < 1e-10
    assert report.eprs_bc_ppt_eigenvalue == pytest.approx(-0.5, abs=1e-9)
    text = report.render()
    assert "Incomparable" in text


def test_classify_2ghz_vs_3epr():
    result = classify_states(cat_power(3, 2), eprs_complete(3))
    assert result.verdict is ComparisonVerdict.INCOMPARABLE


def test_classify_builds_each_entropy_vector_once(monkeypatch):
    # the package re-exports a function named `entropy`, so reach the
    # modules through sys.modules
    entropy_module = sys.modules["entkit.entropy"]
    calls = []
    original = entropy_module.cut_spectra

    def counting(state):
        calls.append(state)
        return original(state)

    monkeypatch.setattr(entropy_module, "cut_spectra", counting)
    monkeypatch.setattr(sys.modules["entkit.reducibility"], "cut_spectra", counting)

    # entropies cross: decided from the two vectors alone
    result = classify_states(eprs_graph(3, [(0, 1)]), eprs_graph(3, [(1, 2)]))
    assert result.verdict is ComparisonVerdict.INCOMPARABLE
    assert result.witness_partition.label == "C"
    assert len(calls) == 2

    # fully isentropic: the spectra behind the vectors also settle the
    # spectral comparison, so still one pass per state
    calls.clear()
    result = classify_states(cat_power(3, 2), eprs_complete(3))
    assert result.verdict is ComparisonVerdict.INCOMPARABLE
    assert len(calls) == 2


def test_ghz_epr_witness_computes_each_states_spectra_once(monkeypatch):
    calls = []
    original = sys.modules["entkit.entropy"].cut_spectra

    def counting(state):
        calls.append(state)
        return original(state)

    monkeypatch.setattr(sys.modules["entkit.entropy"], "cut_spectra", counting)
    monkeypatch.setattr(sys.modules["entkit.reducibility"], "cut_spectra", counting)
    report = ghz_epr_witness()
    assert report.verdict is ComparisonVerdict.INCOMPARABLE
    assert len(calls) == 2
