"""Branch-exact protocol simulation: teleportation, cat/EPR conversions,
dilution end to end, and the entropy-monotonicity assertion."""
import itertools
import json

import numpy as np
import pytest

from conftest import random_protocol

from entkit.builders import cat_state, epr_between, epr_pair, eprs_complete
from entkit.protocols import (
    Branch,
    ConditionedUnitary,
    DiscardSubsystem,
    EntropyMonotonicityError,
    LocalMeasurement,
    LocalUnitary,
    ProtocolBuilder,
    ProtocolError,
    bell_projectors,
    cat_to_epr,
    dilution_end_to_end,
    dilution_input,
    dilution_protocol,
    eprs_to_cat,
    eprs_to_cat_input,
    expand_factor_op,
    hadamard_projectors,
    load_protocol,
    protocol_from_list,
    protocol_to_list,
    run,
    save_protocol,
)
from entkit.states import (
    PureState,
    fidelity,
    make_state,
    random_pure_state,
    random_unitary,
    reduced_gram,
    tensor,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


# --- operator embedding -----------------------------------------------------


def test_expand_factor_op_matches_kron():
    op = random_unitary(2, np.random.default_rng(0))
    full, factors = expand_factor_op(op, [2, 3], on=[0])
    assert factors == [2, 3]
    assert np.allclose(full, np.kron(op, np.eye(3)))


def test_expand_factor_op_trailing_factor():
    op = random_unitary(3, np.random.default_rng(1))
    full, factors = expand_factor_op(op, [2, 3], on=[1])
    assert factors == [2, 3]
    assert np.allclose(full, np.kron(np.eye(2), op))


def test_expand_factor_op_noncontiguous_keeps_slots():
    # acting on factors 0 and 2 of [2,2,2] must leave factor 1 alone and
    # preserve Hermiticity of projectors
    _, proj = bell_projectors()[0]
    full, factors = expand_factor_op(proj, [2, 2, 2], on=[0, 2])
    assert factors == [2, 2, 2]
    assert np.linalg.norm(full - full.conj().T) < 1e-12
    # brute-force reference built entry by entry over the basis
    ref = np.zeros((8, 8), dtype=complex)
    for col, (a, b, c) in enumerate(itertools.product(range(2), range(2), range(2))):
        for row, (d, e, f) in enumerate(itertools.product(range(2), range(2), range(2))):
            if e != b:
                continue
            ref[row, col] = proj[d * 2 + f, a * 2 + c]
    assert np.allclose(full, ref)


def test_expand_factor_op_isometry_grows_factor_list():
    ancilla = np.array([[1.0], [0.0]], dtype=complex)
    full, factors = expand_factor_op(ancilla, [3], on=[], out_dims=[2], insert_at=0)
    assert factors == [2, 3]
    assert full.shape == (6, 3)
    assert np.allclose(full.conj().T @ full, np.eye(3))


# --- teleportation -----------------------------------------------------------


def test_teleportation_exact():
    rng = np.random.default_rng(4)
    payload = random_pure_state((2,), rng)
    # party 0: payload qubit + EPR leg; party 1: EPR leg
    shared = tensor(payload, epr_pair(), party_map={0: 0, 1: 1})
    builder = ProtocolBuilder([[2, 2], [2]])
    builder.teleport(sender=0, payload=0, leg=1, receivers=[(1, 0)])
    outcome = run(builder.steps(), shared)
    assert len(outcome.branches) == 4
    for branch in outcome.branches:
        assert branch.probability == pytest.approx(0.25, abs=1e-12)
        received = branch.state.drop_trivial_parties()
        got = received if received.num_parties == 1 else branch.state
        overlap = abs(np.vdot(got.amplitudes, payload.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_bell_projectors_complete():
    labeled = bell_projectors()
    assert [label for label, _ in labeled] == ["00", "01", "10", "11"]
    total = sum(p for _, p in labeled)
    assert np.allclose(total, np.eye(4))
    for _, p in labeled:
        assert np.allclose(p @ p, p)
        assert np.allclose(p, p.conj().T)


# --- cat_to_epr / eprs_to_cat -------------------------------------------------


@pytest.mark.parametrize("m", [3, 4, 5])
def test_cat_to_epr_all_pairs(m):
    for i, j in itertools.combinations(range(m), 2):
        outcome = run(cat_to_epr(m, i, j), cat_state(m))
        assert len(outcome.branches) == 2 ** (m - 2)
        assert outcome.total_probability() == pytest.approx(1.0, abs=1e-9)
        target_gram = reduced_gram(epr_between(m, i, j), (i, j))
        for branch in outcome.branches:
            got = reduced_gram(branch.state, (i, j))
            # the reduction on i,j must be the exact EPR projector
            assert np.linalg.norm(got - target_gram) < 1e-9


@pytest.mark.parametrize("m,center", [(3, 0), (3, 1), (4, 0), (4, 2)])
def test_eprs_to_cat(m, center):
    state = eprs_to_cat_input(m, center)
    outcome = run(eprs_to_cat(m, center), state)
    assert len(outcome.branches) == 4 ** (m - 1)
    target = cat_state(m)
    for branch in outcome.branches:
        assert fidelity(branch.state, target) >= 1.0 - 1e-9


# --- runtime validation --------------------------------------------------------


def test_measurement_projectors_must_be_complete():
    builder = ProtocolBuilder([[2], [2]])
    plus, minus = hadamard_projectors()
    with pytest.raises(ProtocolError):
        run(
            [LocalMeasurement(0, (plus,), ("+",))],
            epr_pair(),
        )


def test_discard_of_entangled_factor_rejected():
    builder = ProtocolBuilder([[2], [2]])
    builder.discard(0, [0])
    with pytest.raises(ProtocolError):
        run(builder.steps(), epr_pair())


def test_probabilities_renormalized():
    builder = ProtocolBuilder([[2], [2]])
    plus, minus = hadamard_projectors()
    builder.measure(0, [plus, minus], ["+", "-"])
    outcome = run(builder.steps(), epr_pair())
    assert outcome.total_probability() == pytest.approx(1.0, abs=1e-12)
    assert outcome.probability_drift < 1e-9


def test_branches_sorted_by_transcript():
    builder = ProtocolBuilder([[2], [2]])
    plus, minus = hadamard_projectors()
    builder.measure(0, [minus, plus], ["b", "a"])
    builder.measure(1, [plus, minus], ["c", "d"])
    outcome = run(builder.steps(), epr_pair())
    transcripts = [b.transcript for b in outcome.branches]
    assert transcripts == sorted(transcripts)


def test_unitary_preserves_entropy_vector():
    from entkit.entropy import entropy_vector

    state = random_pure_state((2, 2, 2), np.random.default_rng(8))
    builder = ProtocolBuilder([[2], [2], [2]])
    builder.unitary(1, random_unitary(2, np.random.default_rng(9)))
    outcome = run(builder.steps(), state)
    assert len(outcome.branches) == 1
    before = entropy_vector(state)
    after = entropy_vector(outcome.branches[0].state)
    assert before.max_difference(after) < 1e-10


def test_monotonicity_assertion_fires_on_fabricated_increase():
    from entkit.protocols import ProtocolRun, _assert_entropy_monotone

    product = make_state((2, 2), [("00", 1.0)])
    fake = ProtocolRun(product, [Branch(1.0, epr_pair(), ())], 0.0)
    with pytest.raises(EntropyMonotonicityError):
        _assert_entropy_monotone(fake)


def test_monotonicity_accepts_decrease():
    from entkit.protocols import ProtocolRun, _assert_entropy_monotone

    product = make_state((2, 2), [("00", 1.0)])
    fine = ProtocolRun(epr_pair(), [Branch(1.0, product, ())], 0.0)
    _assert_entropy_monotone(fine)


def test_random_protocols_satisfy_monotonicity():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        steps = random_protocol(rng)
        state = random_pure_state((2, 2, 2), rng)
        outcome = run(steps, state, check_entropy=True)
        assert outcome.total_probability() == pytest.approx(1.0, abs=1e-9)


# --- POVM ---------------------------------------------------------------------


def test_povm_unsharp_measurement():
    k0 = np.sqrt(0.75) * np.eye(2)
    k1 = np.sqrt(0.25) * X
    builder = ProtocolBuilder([[2], [2]])
    builder.povm(0, [k0, k1], outcomes=["keep", "flip"])
    outcome = run(builder.steps(), epr_pair())
    probs = {b.transcript[-1]: b.probability for b in outcome.branches}
    assert probs["keep"] == pytest.approx(0.75, abs=1e-12)
    assert probs["flip"] == pytest.approx(0.25, abs=1e-12)


def test_povm_requires_identity_resolution():
    builder = ProtocolBuilder([[2], [2]])
    with pytest.raises(ValueError):
        builder.povm(0, [np.eye(2), X])


# --- dilution end to end --------------------------------------------------------


def test_dilution_end_to_end_exact_budget():
    report = dilution_end_to_end([np.sqrt(0.75), np.sqrt(0.25)], n=1, k=1, num_parties=2)
    assert report.classical_bits == 2
    assert report.success_probability == pytest.approx(1.0, abs=1e-9)
    assert report.success_fidelity >= 1.0 - 1e-9


def test_dilution_end_to_end_two_copies():
    report = dilution_end_to_end([np.sqrt(0.75), np.sqrt(0.25)], n=2, k=2, num_parties=2)
    assert report.classical_bits == 4
    assert report.success_fidelity >= 1.0 - 1e-9


def test_dilution_end_to_end_truncated_matches_combinatorics():
    from entkit.schmidt import dilution_fidelity

    report = dilution_end_to_end([np.sqrt(0.75), np.sqrt(0.25)], n=2, k=1, num_parties=2)
    expected = dilution_fidelity([0.75, 0.25], 2, 1)
    assert report.success_fidelity == pytest.approx(expected, abs=1e-9)


def test_dilution_end_to_end_three_parties():
    report = dilution_end_to_end([np.sqrt(0.75), np.sqrt(0.25)], n=1, k=1, num_parties=3)
    assert report.success_fidelity >= 1.0 - 1e-9
    assert report.target.num_parties == 3


def dilution_cases():
    """Qubit targets in both orders up to n = 3 at every budget (n = 4 at
    small budgets), plus an unsorted four-coefficient target at n = 1 and,
    at every budget, n = 2."""
    cases = []
    descending = [np.sqrt(0.75), np.sqrt(0.25)]
    for order, coeffs in (("desc", descending), ("asc", descending[::-1])):
        sizes = [(n, k, m) for n in (1, 2, 3) for k in range(n + 1) for m in (2, 3)]
        for n, k, m in sizes + [(4, 0, 2), (4, 1, 2)]:
            cases.append(pytest.param(coeffs, n, k, m, id=f"{order}-n{n}-k{k}-m{m}"))
    four = [0.5, 0.3, 0.6, np.sqrt(0.3)]
    for k in (0, 1, 2):
        cases.append(pytest.param(four, 1, k, 2, id=f"four-n1-k{k}-m2"))
    for k in range(5):
        cases.append(pytest.param(four, 2, k, 2, id=f"four-n2-k{k}-m2"))
    return cases


@pytest.mark.parametrize("coeffs, n, k, parties", dilution_cases())
def test_dilution_end_to_end_matches_type_class_fidelity(coeffs, n, k, parties):
    from entkit.schmidt import dilution_fidelity

    report = dilution_end_to_end(coeffs, n=n, k=k, num_parties=parties)
    weights = np.asarray(coeffs) ** 2
    expected = dilution_fidelity(weights / weights.sum(), n, k)
    assert report.success_fidelity == pytest.approx(expected, abs=1e-9)
    register_qubits = n * (len(coeffs).bit_length() - 1)
    if k == register_qubits:
        assert report.success_fidelity == pytest.approx(1.0, abs=1e-9)


# --- serialization ---------------------------------------------------------------


def test_protocol_roundtrip_through_json(tmp_path):
    from entkit.protocols import load_protocol, save_protocol

    steps = cat_to_epr(3, 0, 1)
    path = str(tmp_path / "p.json")
    save_protocol(steps, path)
    reloaded = load_protocol(path)
    original = run(steps, cat_state(3))
    replayed = run(reloaded, cat_state(3))
    assert len(original.branches) == len(replayed.branches)
    for a, b in zip(original.branches, replayed.branches):
        assert a.transcript == b.transcript
        assert a.probability == pytest.approx(b.probability, abs=1e-12)
        assert abs(abs(a.state.overlap(b.state)) - 1.0) < 1e-12


def test_protocol_list_roundtrip_preserves_step_count():
    steps = eprs_to_cat(3, 0)
    payload = protocol_to_list(steps)
    rebuilt = protocol_from_list(payload)
    assert len(rebuilt) == len(steps)
    state = eprs_to_cat_input(3, 0)
    a = run(steps, state)
    b = run(rebuilt, state)
    for x, y in zip(a.branches, b.branches):
        assert x.transcript == y.transcript
        assert fidelity(y.state, cat_state(3)) >= 1.0 - 1e-9


# --- factor-local steps against their dense expansion ---------------------------


def dense_steps(steps):
    """The same protocol with every operator expanded to its party's whole
    local space, which is how steps were stored before they carried their
    factors."""
    out = []
    for step in steps:
        if isinstance(step, DiscardSubsystem) or step.factor_dims is None:
            out.append(step)
            continue

        def full(op, **iso):
            return expand_factor_op(op, step.factor_dims, step.on, **iso)[0]

        if isinstance(step, LocalUnitary):
            iso = {"out_dims": step.out_dims, "insert_at": step.insert_at}
            out.append(LocalUnitary(step.party, full(step.matrix, **iso)))
        elif isinstance(step, LocalMeasurement):
            projs = tuple(full(p) for p in step.projectors)
            out.append(LocalMeasurement(step.party, projs, step.outcomes))
        else:
            table = {key: full(mat) for key, mat in step.table.items()}
            out.append(ConditionedUnitary(step.party, table))
    return out


def assert_same_runs(a, b):
    assert [x.transcript for x in a.branches] == [y.transcript for y in b.branches]
    assert [x.probability for x in a.branches] == [y.probability for y in b.branches]
    for x, y in zip(a.branches, b.branches):
        assert x.state.dims == y.state.dims
        assert np.max(np.abs(x.state.amplitudes - y.state.amplitudes)) < 1e-12


def povm_case():
    k0 = np.sqrt(0.75) * np.eye(2)
    k1 = np.sqrt(0.25) * X
    builder = ProtocolBuilder([[2, 2], [2]])
    builder.povm(0, [k0, k1], outcomes=["keep", "flip"], on=[1])
    builder.unitary(0, H, on=[0])
    state = random_pure_state((4, 2), np.random.default_rng(11))
    return builder.steps(), state


def equivalence_cases():
    cases = []
    for m in range(3, 7):
        for i, j in sorted({(0, 1), (1, m - 1), (m - 2, m - 1)}):
            cases.append(pytest.param(lambda m=m, i=i, j=j: (cat_to_epr(m, i, j), cat_state(m)), id=f"cat_to_epr-{m}-{i}{j}"))
    for m, center in ((3, 0), (3, 2), (4, 0), (4, 1)):
        cases.append(
            pytest.param(
                lambda m=m, c=center: (eprs_to_cat(m, c), eprs_to_cat_input(m, c)),
                id=f"eprs_to_cat-{m}-{center}",
            )
        )
    cases.append(pytest.param(povm_case, id="povm"))
    for coeffs, n, k, parties in (
        ([np.sqrt(0.75), np.sqrt(0.25)], 2, 1, 3),
        ([np.sqrt(0.25), np.sqrt(0.75)], 3, 2, 2),
        ([0.5, 0.3, 0.6, np.sqrt(0.3)], 1, 1, 2),
        ([0.5, 0.3, 0.6, np.sqrt(0.3)], 1, 2, 3),
    ):
        cases.append(
            pytest.param(
                lambda c=coeffs, n=n, k=k, p=parties: (
                    dilution_protocol(c, n, k, p),
                    dilution_input(c, n, k, p),
                ),
                id=f"dilution-r{len(coeffs)}-n{n}-k{k}-m{parties}",
            )
        )
    return cases


@pytest.mark.parametrize("make", equivalence_cases())
def test_factor_local_steps_match_dense_expansion(make):
    steps, state = make()
    assert any(getattr(s, "on", None) is not None for s in steps)
    assert_same_runs(run(steps, state), run(dense_steps(steps), state))


def test_dense_protocol_file_still_loads(tmp_path):
    steps = eprs_to_cat(3, 1)
    payload = protocol_to_list(dense_steps(steps))
    assert not any(key in entry for entry in payload for key in ("on", "out_dims", "insert_at"))
    assert all("factor_dims" not in entry for entry in payload if entry["type"] != "discard")
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(payload))
    state = eprs_to_cat_input(3, 1)
    assert_same_runs(run(load_protocol(str(path)), state), run(steps, state))


def test_factor_local_protocol_roundtrips_its_placement(tmp_path):
    steps = dilution_protocol([0.5, 0.3, 0.6, np.sqrt(0.3)], 1, 1, 2)
    path = str(tmp_path / "p.json")
    save_protocol(steps, path)
    reloaded = load_protocol(path)
    for a, b in zip(steps, reloaded):
        for key in ("factor_dims", "on", "out_dims", "insert_at"):
            assert getattr(a, key, None) == getattr(b, key, None)
    state = dilution_input([0.5, 0.3, 0.6, np.sqrt(0.3)], 1, 1, 2)
    assert_same_runs(run(reloaded, state), run(steps, state))


def test_saved_protocol_stays_factor_local(tmp_path):
    # the dense form of this protocol was a 40 MB file
    path = tmp_path / "e2c5.json"
    save_protocol(eprs_to_cat(5), str(path))
    assert path.stat().st_size < 100_000


def test_dilution_factor_moves_stay_small():
    # the closing factor permutation is a chain of two-factor swaps
    steps = dilution_protocol([0.5, 0.3, 0.6, np.sqrt(0.3)], n=2, k=0, num_parties=2)
    for step in steps:
        if isinstance(step, LocalUnitary):
            ops = [step.matrix]
        elif isinstance(step, LocalMeasurement):
            ops = list(step.projectors)
        elif isinstance(step, ConditionedUnitary):
            ops = list(step.table.values())
        else:
            continue
        assert all(max(op.shape) <= 16 for op in ops), step


def test_placement_fields_need_factor_dims():
    with pytest.raises(ValueError):
        LocalUnitary(0, np.eye(2), on=(0,))


def test_declared_factors_must_match_the_party():
    step = LocalUnitary(0, np.eye(2), factor_dims=(2, 3), on=(0,))
    with pytest.raises(ProtocolError):
        run([step], epr_pair())


# An operator on factor 0 of a party holding [2, 8] that is off by `eps`:
# the checks on the 2x2 operator must reject it exactly when the checks on
# the 16x16 party-space matrix do, although the untouched factor multiplies
# every party-space deviation by sqrt(8).
OFF_BY = [(1e-11, False), (0.5e-9, True)]


def perturbed_steps(eps):
    near_projector = np.diag([1.0, eps]).astype(complex)
    near_unitary = np.diag([1.0, 1.0 + eps / 2]).astype(complex)
    factors = (2, 8)
    return [
        LocalMeasurement(0, (near_projector, np.diag([0.0, 1.0])), ("0", "1"), factors, (0,)),
        LocalUnitary(0, near_unitary, factors, (0,)),
        ConditionedUnitary(0, {("0",): near_unitary, ("1",): np.eye(2)}, factors, (0,)),
        LocalUnitary(0, np.vstack([near_unitary, np.zeros((2, 2))]), factors, (0,), (4,)),
    ]


@pytest.mark.parametrize("eps, rejected", OFF_BY)
@pytest.mark.parametrize("which", range(4))
def test_small_operator_checks_are_as_strict_as_dense(eps, rejected, which):
    state = random_pure_state((16, 2), np.random.default_rng(5))
    steps = [perturbed_steps(eps)[which]]
    if which == 2:
        # the conditioned step needs a transcript: measure exactly first
        exact = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        steps.insert(0, LocalMeasurement(0, exact, ("0", "1"), (2, 8), (0,)))
    for steps in (steps, dense_steps(steps)):
        if rejected:
            with pytest.raises(ProtocolError):
                run(steps, state, check_entropy=False)
        else:
            run(steps, state, check_entropy=False)
