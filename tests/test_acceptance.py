"""Acceptance gate: one test per shipped guarantee, with the tolerance each
guarantee is stated at. Every test prints a single verdict line; run with
`pytest -v -s tests/test_acceptance.py` to see them all."""
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from conftest import random_protocol

from entkit.builders import (
    cat_state,
    codeword5,
    complete_graph_edges,
    epr_between,
    epr_pair,
    eprs_complete,
)
from entkit.entropy import entropy_vector, exact_entropy_vector, shannon_entropy
from entkit.linalg import hermitian_eigenvalues
from entkit.mregs import (
    CoefficientSolution,
    EntropyMatrix,
    Infeasible,
    mregs_lower_bound,
    r21_table,
    solve_coefficients,
)
from entkit.protocols import (
    cat_to_epr,
    dilution_end_to_end,
    eprs_to_cat,
    eprs_to_cat_input,
    run,
)
from entkit.reducibility import (
    ComparisonVerdict,
    classify_states,
    ghz_epr_witness,
)
from entkit.schmidt import (
    _mean_yield,
    _retained_fidelity,
    concentration_yield_distribution,
    dilution_retained_types,
)
from entkit.states import (
    PureState,
    canonical_partitions,
    fidelity,
    random_pure_state,
    random_unitary,
    reduced_gram,
)


def _verdict(n: int, text: str) -> None:
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_r21_table_exact():
    start = time.perf_counter()
    rows = {(r.num_parties, r.label): r.ratio for r in r21_table()}
    elapsed = time.perf_counter() - start
    expected = {
        (3, "cat3"): Fraction(1),
        (3, "3 eprs"): Fraction(1),
        (4, "cat4"): Fraction(1),
        (4, "6 eprs"): Fraction(4, 3),
        (5, "cat5"): Fraction(1),
        (5, "10 eprs"): Fraction(3, 2),
        (5, "codeword5"): Fraction(2),
        (6, "cat6"): Fraction(1),
        (6, "15 eprs"): Fraction(8, 5),
    }
    assert rows == expected  # exact rationals, zero tolerance
    assert elapsed < 10.0
    _verdict(1, f"nine exact entropy ratios in {elapsed:.2f}s")


def test_criterion_2_ghz_epr_witness():
    from entkit.builders import cat_power

    cats = cat_power(3, 2)
    eprs = eprs_complete(3)
    for state in (cats, eprs):
        for _, value in entropy_vector(state).entries():
            assert abs(value - 2.0) <= 1e-8

    # the cats' joint reduction on B,C: diagonal, four eigenvalues of 1/4 on
    # its support; each single marginal exactly I/4, their product I/16
    rho_bc = reduced_gram(cats, (1, 2))
    off_diag = rho_bc - np.diag(np.diag(rho_bc))
    assert np.max(np.abs(off_diag)) <= 1e-10
    spectrum = np.sort(np.diag(rho_bc).real)[::-1]
    assert np.max(np.abs(spectrum[:4] - 0.25)) <= 1e-10
    assert np.max(np.abs(spectrum[4:])) <= 1e-10
    rho_b = reduced_gram(cats, (1,))
    rho_c = reduced_gram(cats, (2,))
    assert np.max(np.abs(rho_b - np.eye(4) / 4)) <= 1e-10
    assert np.max(np.abs(rho_c - np.eye(4) / 4)) <= 1e-10
    assert np.max(np.abs(np.kron(rho_b, rho_c) - np.eye(16) / 16)) <= 1e-10

    report = ghz_epr_witness()
    assert abs(report.eprs_bc_ppt_eigenvalue - (-0.5)) <= 1e-9
    assert report.verdict is ComparisonVerdict.INCOMPARABLE
    _verdict(2, "all-2-bit vectors, separable versus NPT reduction, Incomparable")


def test_criterion_3_exact_protocols_and_monotonicity():
    checked_branches = 0
    for m in (3, 4, 5):
        for i, j in itertools.combinations(range(m), 2):
            outcome = run(cat_to_epr(m, i, j), cat_state(m), check_entropy=True)
            assert len(outcome.branches) == 2 ** (m - 2)
            for branch in outcome.branches:
                rho = reduced_gram(branch.state, (i, j))
                assert fidelity(rho, epr_pair()) >= 1.0 - 1e-9
                checked_branches += 1
    for m in (3, 4):
        for center in range(m):
            state = eprs_to_cat_input(m, center)
            outcome = run(eprs_to_cat(m, center), state, check_entropy=True)
            assert len(outcome.branches) == 4 ** (m - 1)
            for branch in outcome.branches:
                assert fidelity(branch.state, cat_state(m)) >= 1.0 - 1e-9
                checked_branches += 1

    rng = np.random.default_rng(777)
    for _ in range(200):
        steps = random_protocol(rng)
        state = random_pure_state((2, 2, 2), rng)
        outcome = run(steps, state, check_entropy=True)
        assert abs(sum(b.probability for b in outcome.branches) - 1.0) <= 1e-9
    _verdict(
        3,
        f"{checked_branches} conversion branches at 1e-9, entropy"
        " monotonicity on every shipped and 200 random protocols",
    )


def test_criterion_4_mregs_bounds_and_recovery():
    for m, expected in ((4, 7), (5, 12), (6, 31)):
        result = mregs_lower_bound(m)
        assert result.bound == expected

    # re-derive the accumulation independently, re-checking every certificate
    for m, probes, expected in (
        (4, [("cat4", cat_state(4))], 7),
        (5, [("cat5", cat_state(5)), ("codeword5", codeword5())], 12),
    ):
        gens = EntropyMatrix.from_states(
            m,
            [
                (f"epr{i}{j}", epr_between(m, i, j))
                for i, j in complete_graph_edges(m)
            ],
        )
        bound = m * (m - 1) // 2
        for label, state in probes:
            outcome = solve_coefficients(gens, state)
            assert isinstance(outcome, Infeasible)
            w = outcome.certificate
            target_row = list(exact_entropy_vector(state).values())
            assert sum(wi * ti for wi, ti in zip(w, target_row)) < 0
            for row in gens.rows:
                assert sum(wi * ri for wi, ri in zip(w, row)) >= 0
            gens = gens.with_generator(label, state)
            bound += 1
        assert bound == expected

    gens3 = EntropyMatrix.from_states(
        3,
        [
            ("eprAB", epr_between(3, 0, 1)),
            ("eprAC", epr_between(3, 0, 2)),
            ("eprBC", epr_between(3, 1, 2)),
        ],
    )
    rng = random.Random(404)
    for _ in range(100):
        triple = tuple(
            Fraction(rng.randrange(0, 30), rng.randrange(1, 11)) for _ in range(3)
        )
        target = [
            sum(t * gens3.rows[g][p] for g, t in enumerate(triple))
            for p in range(3)
        ]
        sol = solve_coefficients(gens3, target)
        assert isinstance(sol, CoefficientSolution)
        assert sol.coefficients == triple

    extended = gens3.with_generator("cat3", cat_state(3))
    sol = solve_coefficients(extended, [Fraction(2)] * 3)
    assert isinstance(sol, CoefficientSolution)
    assert sol.kernel_direction == (1, 1, 1, -2)
    _verdict(4, "bounds 7/12/31 with re-verified certificates, 100 exact"
                " recoveries, kernel (1,1,1,-2)")


def test_criterion_5_concentration_asymptotics():
    start = time.perf_counter()
    p = [0.75, 0.25]
    target = 0.8112781244591328
    gaps = []
    for n in (25, 50, 100, 200, 400):
        per_copy = _mean_yield(concentration_yield_distribution(p, n)) / n
        gaps.append(target - per_copy)
    elapsed = time.perf_counter() - start
    assert abs(gaps[-1]) <= 0.02
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert elapsed < 30.0
    _verdict(
        5,
        f"yield gap {gaps[-1]:.4f} at n=400, strictly shrinking, {elapsed:.2f}s",
    )


def test_criterion_6_dilution():
    p = [0.75, 0.25]
    for n in (1, 2, 5):
        values = [_retained_fidelity(dilution_retained_types(p, n, k)) for k in range(0, n + 2)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    coeffs = [math.sqrt(0.75), math.sqrt(0.25)]
    for n in (1, 2):
        k = n  # Schmidt rank 2 per copy: k = n copies of one cat each
        report = dilution_end_to_end(coeffs, n=n, k=k, num_parties=2)
        assert report.success_fidelity >= 1.0 - 1e-9
        assert report.classical_bits == 2 * k
    _verdict(6, "fidelity nondecreasing in k; exact-budget runs hit 1 - 1e-9"
                " and report 2k classical bits")


def test_criterion_7_majorization_oracle():
    rng = np.random.default_rng(1000)

    def partial_sum_oracle(source_spectrum, target_spectrum):
        a = sorted(source_spectrum, reverse=True)
        b = sorted(target_spectrum, reverse=True)
        size = max(len(a), len(b))
        a = a + [0.0] * (size - len(a))
        b = b + [0.0] * (size - len(b))
        acc_a = acc_b = 0.0
        for x, y in zip(a, b):
            acc_a += x
            acc_b += y
            if acc_b < acc_a - 1e-10:
                return False
        return True

    def state_with_spectrum(weights):
        d = len(weights)
        amps = np.zeros(d * d, dtype=complex)
        for idx, weight in enumerate(weights):
            amps[idx * d + idx] = math.sqrt(weight)
        return PureState((d, d), amps)

    def random_spectrum():
        n = int(rng.integers(1, 7))
        raw = rng.random(n) + 1e-4
        return list(np.sort(raw / raw.sum())[::-1])

    mutual_seen = 0
    for trial in range(1000):
        spectrum_a = random_spectrum()
        spectrum_b = random_spectrum()
        if trial % 7 == 0:
            spectrum_b = list(spectrum_a)  # force some equal-spectrum pairs
        a = state_with_spectrum(spectrum_a)
        b = state_with_spectrum(spectrum_b)
        verdict = classify_states(a, b).verdict
        forward = verdict in (ComparisonVerdict.LU_EQUIVALENT, ComparisonVerdict.REDUCIBLE_A_TO_B)
        # reducible a -> b iff b's spectrum majorizes a's
        assert forward == partial_sum_oracle(spectrum_a, spectrum_b)
        verdict = classify_states(b, a).verdict
        backward = verdict in (ComparisonVerdict.LU_EQUIVALENT, ComparisonVerdict.REDUCIBLE_A_TO_B)
        size = max(len(spectrum_a), len(spectrum_b))
        pa = spectrum_a + [0.0] * (size - len(spectrum_a))
        pb = spectrum_b + [0.0] * (size - len(spectrum_b))
        equal = max(abs(x - y) for x, y in zip(pa, pb)) < 1e-10
        assert (forward and backward) == equal
        if equal:
            mutual_seen += 1
    assert mutual_seen >= 100
    _verdict(7, f"1000 spectrum pairs match the partial-sum oracle;"
                f" mutual reducibility = equal spectra ({mutual_seen} equal pairs)")


def test_criterion_8_entropy_properties():
    rng = np.random.default_rng(2025)
    for _ in range(500):
        m = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(2, 4)) for _ in range(m))
        state = random_pure_state(dims, rng)
        for part in canonical_partitions(m):
            s_x = shannon_entropy(hermitian_eigenvalues(reduced_gram(state, part.members)))
            s_rest = shannon_entropy(hermitian_eigenvalues(reduced_gram(state, part.complement().members)))
            assert abs(s_x - s_rest) <= 1e-9

    for _ in range(25):
        m = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(2, 4)) for _ in range(m))
        state = random_pure_state(dims, rng)
        before = entropy_vector(state)
        tensorized = state.as_tensor()
        for party, d in enumerate(dims):
            u = random_unitary(d, rng)
            tensorized = np.moveaxis(
                np.tensordot(u, tensorized, axes=([1], [party])), 0, party
            )
        rotated = PureState(dims, tensorized.reshape(-1))
        assert before.max_difference(entropy_vector(rotated)) <= 1e-8
    _verdict(8, "purity symmetry on 500 states at 1e-9; unitary invariance"
                " on 25 states at 1e-8")
