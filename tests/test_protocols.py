"""Branch-exact protocol simulation: teleportation, cat/EPR conversions,
dilution end to end, and the entropy-monotonicity assertion."""
import itertools
import json
import math
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from conftest import MALFORMED_PROTOCOLS, random_protocol

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
    ProtocolRun,
    StepStats,
    _assert_entropy_monotone,
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
from entkit.entropy import entropy_vector, flat_spectrum_rank
from entkit.states import (
    PureState,
    canonical_partitions,
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


@pytest.mark.parametrize("label", ["a,b", ""])
def test_outcome_labels_a_protocol_file_cannot_hold_are_rejected(label):
    # a saved conditioning table joins labels with ',', so these would not load back
    plus, minus = hadamard_projectors()
    with pytest.raises(ValueError, match=f"outcome label {label!r}"):
        LocalMeasurement(0, (plus, minus), (label, "z"))


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


def dense_four_steps():
    plus, minus = hadamard_projectors()
    return [
        LocalUnitary(0, H),
        LocalMeasurement(1, (plus, minus), ("+", "-")),
        ConditionedUnitary(0, {("+",): np.eye(2), ("-",): X}),
        DiscardSubsystem(1, (2, 1), (1,)),
    ]


# protocols with every step type, with and without placement fields
CODEC_CASES = [
    pytest.param(dense_four_steps, id="dense"),
    pytest.param(lambda: dilution_protocol([0.5, 0.3, 0.6, np.sqrt(0.3)], 1, 1, 2), id="dilution"),
    pytest.param(lambda: eprs_to_cat(3, 1), id="eprs_to_cat-3-1"),
    pytest.param(lambda: povm_case()[0], id="povm"),
]


@pytest.mark.parametrize("make", CODEC_CASES)
def test_file_entries_are_the_step_fields_in_order(make):
    steps = make()
    payload = protocol_to_list(steps)
    for step, entry in zip(steps, payload):
        names = [f.name for f in fields(step) if getattr(step, f.name) is not None]
        assert list(entry) == ["type"] + names
    # what a file holds reads back to the same entries
    reread = json.loads(json.dumps(payload))
    assert protocol_to_list(protocol_from_list(reread)) == reread


def test_the_codec_cases_cover_every_step_type():
    kinds = {entry["type"] for case in CODEC_CASES for entry in protocol_to_list(case.values[0]())}
    assert kinds == {"unitary", "measurement", "conditioned", "discard"}


def test_unknown_keys_in_a_step_are_ignored():
    payload = protocol_to_list(cat_to_epr(3, 0, 1))
    # `insert_at` is a unitary field; these measurement and conditioned steps have none
    noisy = [dict(entry, note="ignored", insert_at=5) for entry in payload]
    assert protocol_to_list(protocol_from_list(noisy)) == payload


@pytest.mark.parametrize("payload, message", MALFORMED_PROTOCOLS)
def test_malformed_protocol_names_the_entry(payload, message):
    with pytest.raises(ValueError) as excinfo:
        protocol_from_list(payload)
    assert str(excinfo.value).startswith(message)


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


DILUTION = [0.5, 0.3, 0.6, np.sqrt(0.3)]


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: (cat_to_epr(4, 1, 3), cat_state(4)), id="cat_to_epr"),
        pytest.param(lambda: (eprs_to_cat(4, 2), eprs_to_cat_input(4, 2)), id="eprs_to_cat"),
        pytest.param(lambda: (dilution_protocol(DILUTION, 2, 1, 3), dilution_input(DILUTION, 2, 1, 3)), id="dilution"),
    ],
)
def test_every_shipped_protocol_runs_the_same_after_a_save(tmp_path, make):
    steps, state = make()
    path = str(tmp_path / "p.json")
    save_protocol(steps, path)
    assert_same_runs(run(load_protocol(path), state), run(steps, state))


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


def test_growth_past_the_dense_limit_raises_before_allocating():
    # a 2^18-amplitude input whose party 0 grows by an ancilla of 32, to
    # 2^23 > 2^21 amplitudes (128 MB), and is then discarded again
    amps = np.zeros(1 << 18, dtype=complex)
    amps[0] = 1.0
    state = PureState((2, 1 << 17), amps)
    attach = np.zeros((64, 2), dtype=complex)
    attach[0, 0] = attach[32, 1] = 1.0
    steps = [LocalUnitary(0, attach), DiscardSubsystem(0, (2, 32), (1,))]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the dense representation limit"):
            run(steps, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < amps.nbytes


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


# --- batched simulator against a per-branch reference ---------------------------
#
# The simulator carries the branch set as one (B, dim) array. The reference
# below is the earlier per-branch simulator and check, kept as an oracle with
# the same arithmetic but without the input validation: one PureState per
# branch, one operator application per branch, one eigensystem per branch and
# discard, one entropy vector per branch.


def _reference_apply_local(state, party, op, layout):
    from entkit.protocols import _apply_factor_op

    dims = state.dims
    t = np.moveaxis(state.as_tensor(), party, 0).reshape(layout.factors + (-1,))
    out = _apply_factor_op(op, t, layout)
    d_out = math.prod(layout.new_factors)
    out = np.moveaxis(out.reshape((d_out,) + dims[:party] + dims[party + 1 :]), 0, party)
    return dims[:party] + (d_out,) + dims[party + 1 :], out.reshape(-1)


def _reference_discard_branch(state, step):
    from entkit.linalg import hermitian_eigensystem

    party = step.party
    dims = state.dims
    if math.prod(step.factor_dims) != dims[party]:
        raise ProtocolError("declared factors do not multiply to the party dimension")
    n_factors = len(step.factor_dims)
    keep = tuple(i for i in range(n_factors) if i not in step.discard)
    t = np.moveaxis(state.as_tensor(), party, 0)
    t = t.reshape(step.factor_dims + t.shape[1:])
    t = np.transpose(t, step.discard + keep + tuple(range(n_factors, t.ndim)))
    m = t.reshape(math.prod(step.factor_dims[i] for i in step.discard), -1)
    gram = m @ m.conj().T
    purity = float(np.vdot(gram, gram).real)
    if purity < 1.0 - 1e-9:
        raise ProtocolError(f"discarded factors are not in a product state (purity {purity:.12g})")
    _, vectors = hermitian_eigensystem(gram)
    remainder = vectors[:, 0].conj() @ m
    d_keep = math.prod(step.factor_dims[i] for i in keep)
    rest_dims = tuple(d for i, d in enumerate(dims) if i != party)
    out = np.moveaxis(remainder.reshape((d_keep,) + rest_dims), 0, party)
    new_dims = list(dims)
    new_dims[party] = d_keep
    return PureState(tuple(new_dims), out.reshape(-1))


def reference_run(steps, state, prune_threshold=1e-14):
    from entkit.protocols import _check_isometry, _step_layout, _validate_measurement

    branches = [(1.0, state, ())]
    for index, step in enumerate(steps):
        where = f"step {index} ({type(step).__name__})"
        new_branches = []
        if not isinstance(step, DiscardSubsystem):
            layout = _step_layout(step, branches[0][1].dims, where)
        if isinstance(step, LocalUnitary):
            _check_isometry(step.matrix, layout, where)
            for prob, psi, transcript in branches:
                dims, vec = _reference_apply_local(psi, step.party, step.matrix, layout)
                new_branches.append((prob, PureState(dims, vec), transcript))
        elif isinstance(step, LocalMeasurement):
            _validate_measurement(step, layout, where)
            for prob, psi, transcript in branches:
                for proj, outcome in zip(step.projectors, step.outcomes):
                    dims, vec = _reference_apply_local(psi, step.party, proj, layout)
                    p_new = prob * float(np.vdot(vec, vec).real)
                    if p_new < prune_threshold:
                        continue
                    new_branches.append((p_new, PureState(dims, vec), transcript + (outcome,)))
        elif isinstance(step, ConditionedUnitary):
            for prob, psi, transcript in branches:
                mat = step.table[transcript]
                _check_isometry(mat, layout, where)
                dims, vec = _reference_apply_local(psi, step.party, mat, layout)
                new_branches.append((prob, PureState(dims, vec), transcript))
        else:
            for prob, psi, transcript in branches:
                new_branches.append((prob, _reference_discard_branch(psi, step), transcript))
        branches = new_branches
    total = sum(prob for prob, _, _ in branches)
    branches = sorted(((p / total, s, t) for p, s, t in branches), key=lambda b: b[2])
    return ProtocolRun(state, tuple(Branch(p, s, t) for p, s, t in branches), abs(1.0 - total))


def reference_assert_entropy_monotone(result):
    before = entropy_vector(result.input_state)
    branch_vectors = [(b.probability, entropy_vector(b.state)) for b in result.branches]
    for part in before.partitions():
        expected_after = sum(p * vec.values[part] for p, vec in branch_vectors)
        if expected_after > before.values[part] + 1e-8:
            raise EntropyMonotonicityError(part.label, before.values[part], expected_after)


def shipped_protocol_cases():
    cases = []
    for m in range(3, 9):
        for i, j in sorted({(0, 1), (1, m - 1), (0, m - 1), (m - 2, m - 1)}):
            cases.append(pytest.param(lambda m=m, i=i, j=j: (cat_to_epr(m, i, j), cat_state(m)), id=f"cat_to_epr-{m}-{i}{j}"))
    for m in range(3, 7):
        for center in (0, m - 2):
            cases.append(
                pytest.param(
                    lambda m=m, c=center: (eprs_to_cat(m, c), eprs_to_cat_input(m, c)),
                    id=f"eprs_to_cat-{m}-{center}",
                )
            )
    return cases + [c for c in equivalence_cases() if not c.id.startswith(("cat_to_epr", "eprs_to_cat"))]


@pytest.mark.parametrize("make", shipped_protocol_cases())
def test_batched_run_matches_per_branch_reference(make):
    steps, state = make()
    got = run(steps, state)  # the stacked check accepts every shipped run
    want = reference_run(steps, state)
    assert [b.transcript for b in got.branches] == [b.transcript for b in want.branches]
    for x, y in zip(got.branches, want.branches):
        assert abs(x.probability - y.probability) <= 1e-15
        assert x.state.dims == y.state.dims
        assert np.max(np.abs(x.state.amplitudes - y.state.amplitudes)) < 1e-12
    assert got.probability_drift == pytest.approx(want.probability_drift, abs=1e-15)


HAAR_DIMS = [(2, 2, 2), (2, 3, 2), (3, 2, 2, 2), (2, 2, 2, 2), (3, 3, 2), (2, 3, 2, 3)]


def edge_rows(dims):
    """States at the edges of the exact flat-spectrum test, with transcripts:
    flat of rank 2 and 1 on every cut; the rank-2 one turned by 1e-7, which
    passes the purity test but fails r rho^2 = rho; and, given two qutrit
    parties, a maximally entangled pair of them, flat of rank 3 across every
    cut between them, where the entropy is not exact and goes to the
    eigensolver."""
    rows = {name: np.zeros(dims, dtype=complex) for name in ("cat", "product", "turned")}
    rows["cat"].flat[0] = rows["cat"].flat[-1] = 2**-0.5
    rows["product"].flat[0] = 1.0
    rows["turned"].flat[0] = math.cos(math.pi / 4 + 1e-7)
    rows["turned"].flat[-1] = math.sin(math.pi / 4 + 1e-7)
    qutrits = [p for p, d in enumerate(dims) if d == 3]
    if len(qutrits) >= 2:
        rows["qutrits"] = np.zeros(dims, dtype=complex)
        for k in range(3):
            index = [0] * len(dims)
            index[qutrits[0]] = index[qutrits[1]] = k
            rows["qutrits"][tuple(index)] = 3**-0.5
    return [(PureState(dims, row.reshape(-1)), (name,)) for name, row in rows.items()]


def haar_fake_run(seed):
    """A run whose branches include Haar-random states on shared dims, whose
    cuts are never flat, so the stacked check falls back to the eigensolver;
    half the seeds add the `edge_rows` to the same stack."""
    rng = np.random.default_rng([seed, 77])
    dims = HAAR_DIMS[seed % len(HAAR_DIMS)]
    count = int(rng.integers(1, 12))
    states = [(random_pure_state(dims, rng), (str(i),)) for i in range(count)]
    if seed // len(HAAR_DIMS) % 2:
        states += edge_rows(dims)
    weights = rng.dirichlet(np.ones(len(states)))
    branches = [Branch(float(w), state, t) for w, (state, t) in zip(weights, states)]
    if seed % 3 == 0:
        start = random_pure_state(dims, rng)
    else:
        # a weakly entangled input: most seeds must fail on some cut
        amps = np.zeros(math.prod(dims), dtype=complex)
        amps[0], amps[-1] = 1.0, rng.uniform(0.0, 1.5)
        start = PureState(dims, amps)
    return ProtocolRun(start, tuple(branches), 0.0)


def monotonicity_verdict(check, result):
    try:
        check(result)
    except EntropyMonotonicityError as exc:
        return exc.partition_label, exc.before, exc.after
    return None


def test_stacked_check_matches_per_branch_check_on_haar_branches(monkeypatch):
    entropy_module = sys.modules["entkit.entropy"]
    solver_calls = []
    original = entropy_module.hermitian_eigenvalues

    def counting(matrix):
        solver_calls.append(np.shape(matrix))
        return original(matrix)

    monkeypatch.setattr(entropy_module, "hermitian_eigenvalues", counting)
    verdicts = []
    for seed in range(24):
        fake = haar_fake_run(seed)
        solver_calls.clear()
        got = monotonicity_verdict(_assert_entropy_monotone, fake)
        # every cut of every Haar branch went through the stacked eigensolver fallback
        cuts = 2 ** (len(fake.input_state.dims) - 1) - 1
        haar = sum(b.transcript[0].isdigit() for b in fake.branches)
        assert sum(shape[0] for shape in solver_calls) >= haar * cuts
        assert got == monotonicity_verdict(reference_assert_entropy_monotone, fake)
        verdicts.append(got)
        # the values behind the verdict: the input as a stack of one, and the
        # branches' weighted sum in branch order
        start = fake.input_state
        assert entropy_vector(start.as_tensor()[None], [1.0]) == entropy_vector(start)
        stack = np.stack([b.state.as_tensor() for b in fake.branches])
        after = entropy_vector(stack, [b.probability for b in fake.branches])
        vectors = [(b.probability, entropy_vector(b.state)) for b in fake.branches]
        for part in after.partitions():
            assert after.values[part] == sum(p * v.values[part] for p, v in vectors)
        if haar < len(fake.branches):
            # across party 1: cat, product, turned (not flat) and the qutrit pair
            grams = reduced_gram(stack[haar:], (1,))
            ranks = flat_spectrum_rank(grams).tolist()
            assert ranks == [2, 1, 0, 3][: len(fake.branches) - haar]
            assert ranks == [flat_spectrum_rank(g[None])[0] for g in grams]
    assert any(v is None for v in verdicts) and any(v is not None for v in verdicts)


def counting_wrapper(monkeypatch, module_name, name):
    module = sys.modules[module_name]
    calls = []
    original = getattr(module, name)

    def counting(first, *args):
        calls.append(first)
        return original(first, *args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_check_forms_one_stacked_gram_per_cut(monkeypatch):
    entropy_module = sys.modules["entkit.entropy"]
    grams = []
    original = entropy_module.reduced_gram

    def recording(state, keep):
        grams.append((state.shape, tuple(keep.members)))
        return original(state, keep)

    monkeypatch.setattr(entropy_module, "reduced_gram", recording)
    blocks = counting_wrapper(monkeypatch, "entkit.entropy", "flat_spectrum_rank")
    solver = counting_wrapper(monkeypatch, "entkit.entropy", "hermitian_eigenvalues")
    run(cat_to_epr(8, 0, 1), cat_state(8))
    assert solver == []
    # each canonical cut's Gram, on its cheaper side, once for the input and
    # once for the 64 branches
    sides = sorted(
        part.members if len(part.members) <= 4 else part.complement().members
        for part in canonical_partitions(8)
    )
    for rows in (1, 64):
        assert sorted(keep for shape, keep in grams if shape == (rows,) + (2,) * 8) == sides
    assert len(grams) == 2 * len(sides)
    # same-size cuts share a block; one above the cap holds a single cut
    cap = entropy_module._BLOCK_ENTRIES
    assert len(blocks) < len(grams)
    assert all(b.size <= max(cap, 64 * b.shape[-1] ** 2) for b in blocks)
    assert any(b.size > cap for b in blocks) and any(len(b) > 64 for b in blocks)


def test_check_peak_memory_is_bounded():
    # 1,432,264 B is the traced peak of the check with one Gram stack per
    # cut, before cuts were grouped into blocks (numpy 2.4, Python 3.11); the
    # block cap keeps the check at or below it
    result = run(cat_to_epr(8, 0, 1), cat_state(8), check_entropy=False)
    _assert_entropy_monotone(result)
    tracemalloc.start()
    try:
        _assert_entropy_monotone(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_432_264


def test_each_discard_makes_one_stacked_eigensystem_call(monkeypatch):
    calls = counting_wrapper(monkeypatch, "entkit.protocols", "hermitian_eigensystem")
    steps = eprs_to_cat(4, 0)
    run(steps, eprs_to_cat_input(4, 0))
    assert sum(isinstance(step, DiscardSubsystem) for step in steps) == 3
    assert [np.shape(c) for c in calls] == [(4, 4, 4), (16, 4, 4), (64, 4, 4)]


@pytest.mark.parametrize("m, i, j", [(3, 0, 1), (5, 1, 4), (7, 2, 3)])
def test_step_stats_cat_to_epr_doubles_per_helper(m, i, j):
    outcome = run(cat_to_epr(m, i, j), cat_state(m))
    helpers = [2**h for h in range(1, m - 1)]
    assert outcome.step_stats == tuple(StepStats(b, 0, 0.0) for b in helpers + [helpers[-1]])


def test_step_stats_count_pruned_branches():
    basis = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    outcome = run([LocalMeasurement(0, basis, ("0", "1"))], make_state((2, 2), [("00", 1.0)]))
    assert [b.transcript for b in outcome.branches] == [("0",)]
    assert outcome.step_stats == (StepStats(1, 1, 0.0),)
