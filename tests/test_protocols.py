"""Branch-exact protocol simulation: teleportation, cat/EPR conversions,
dilution end to end, and the entropy-monotonicity assertion."""
import gc
import hashlib
import itertools
import json
import math
import re
import sys
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    _drop_pure_parties,
    _factor_layout,
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
from entkit.entropy import _cut_blocks, entropy_vector, flat_spectrum_rank
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
        # the sender's party is left with dimension 1, the receiver's holds the payload
        assert branch.state.dims == (1, 2)
        overlap = abs(np.vdot(branch.state.amplitudes, payload.amplitudes))
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
        assert sum(b.probability for b in outcome.branches) == pytest.approx(1.0, abs=1e-9)
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
    plus, minus = hadamard_projectors()
    with pytest.raises(ValueError, match="do not sum to the identity"):
        LocalMeasurement(0, (plus,), ("+",))


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
    assert sum(b.probability for b in outcome.branches) == pytest.approx(1.0, abs=1e-12)
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


def test_monotonicity_assertion_fires_on_fabricated_increase(record_calls):
    # real rows, as `run` leaves a real protocol's branches: complex, with no
    # imaginary part, so reduced in real arithmetic
    dtypes = record_calls("_block_grams", "entkit.entropy", record=lambda stack, block, size: stack.dtype)
    product = make_state((2, 2), [("00", 1.0)])
    with pytest.raises(EntropyMonotonicityError):
        _assert_entropy_monotone(product, epr_pair().as_tensor()[None], [1.0])
    # two branches, each gaining a pair across A|BC
    pairs = [make_state((2, 2, 2), [("000", 1.0), (bits, 1.0)]) for bits in ("110", "101")]
    rows = np.stack([pair.as_tensor() for pair in pairs])
    assert rows.dtype == complex and not rows.imag.any()
    with pytest.raises(EntropyMonotonicityError) as raised:
        _assert_entropy_monotone(make_state((2, 2, 2), [("000", 1.0)]), rows, [0.5, 0.5])
    assert (raised.value.partition_label, raised.value.before, raised.value.after) == ("A", 0.0, 1.0)
    assert set(dtypes) == {np.dtype(float)}


def test_monotonicity_accepts_decrease():
    product = make_state((2, 2), [("00", 1.0)])
    _assert_entropy_monotone(epr_pair(), product.as_tensor()[None], [1.0])


def test_run_checks_its_own_rows_in_the_returned_order(record_calls, monkeypatch):
    # outcomes listed against sorted order, so the simulator's rows come out
    # reordered; the check must read them as the returned branches hold them
    calls = record_calls("entropy_vector", "entkit.entropy", "entkit.protocols")
    drops = record_calls("_drop_pure_parties", "entkit.protocols")
    contractions = record_calls("_contract_pure", "entkit.protocols", record=lambda split, *rest: split(slice(None)))
    # every party of every branch is pure; lift the size gate so the drop runs
    monkeypatch.setattr(sys.modules["entkit.protocols"], "_DROP_MIN_READS", 0)
    state = random_pure_state((2, 2, 2), np.random.default_rng(31))
    zero, one = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    steps = [LocalMeasurement(0, (one, zero), ("1", "0")), LocalMeasurement(2, (one, zero), ("b", "a"))]
    result = run(steps, state)
    assert [b.transcript for b in result.branches] == [("0", "a"), ("0", "b"), ("1", "a"), ("1", "b")]
    returned = np.stack([b.state.as_tensor() for b in result.branches])
    ((given,),) = drops
    assert np.array_equal(given, returned)
    # the first contraction splits those rows, divided by their norms, on party 0
    assert len(contractions) == 3
    assert np.allclose(contractions[0], returned.reshape(4, 2, 4), rtol=0, atol=1e-15)
    (before,), (rows, probs) = calls
    assert before is state
    assert rows.shape == (4, 1, 1, 1)
    assert probs == [b.probability for b in result.branches]


def test_random_protocols_satisfy_monotonicity():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        steps = random_protocol(rng)
        state = random_pure_state((2, 2, 2), rng)
        outcome = run(steps, state, check_entropy=True)
        assert sum(b.probability for b in outcome.branches) == pytest.approx(1.0, abs=1e-9)


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


def test_a_failed_povm_leaves_the_builder_unchanged():
    builder = ProtocolBuilder([[2], [2]])
    builder.unitary(0, H)
    before = builder.steps()
    kraus = [np.sqrt(0.75) * np.eye(2), np.sqrt(0.25) * X]
    with pytest.raises(ValueError, match="one outcome label per projector"):
        builder.povm(0, kraus, outcomes=["a"])
    assert builder.steps() == before
    assert builder.factor_dims(0) == (2,)
    builder.povm(0, kraus, outcomes=["a", "b"])
    assert len(builder.steps()) == len(before) + 3
    assert builder.factor_dims(0) == (2,)


# --- a builder method that raises changes nothing ------------------------------


def _builder_in_use() -> ProtocolBuilder:
    """Three parties with factors (2, 2), (2,) and (4, 1), after one
    measurement, so a failed call has steps, factors and an outcome set
    it could disturb."""
    builder = ProtocolBuilder([[2, 2], [2], [4, 1]])
    builder.measure(1, hadamard_projectors(), ["+", "-"])
    return builder


_KRAUS = [np.sqrt(0.75) * np.eye(2), np.sqrt(0.25) * X]


def _bad_calls(party: int, slot: int) -> dict[str, list[tuple]]:
    """Arguments each mutating `ProtocolBuilder` method must refuse on
    `_builder_in_use()`, given a party it does not have and a factor index
    that no party has."""
    plus, minus = hadamard_projectors()
    return {
        "unitary": [(party, X), (0, X, [slot]), (0, X, [0, 0]), (0, X, [0, 1]), (0, [[1, 0], [0, 2]], [0]), (2, X)],
        # party 0 has the slots 0..2 to insert at; `slot` may be 2
        "add_ancilla": [(party, [1, 0]), (0, [0, 0]), (0, [1, 0], slot + 1 if slot > 0 else slot)],
        "measure": [(party, [plus, minus], "+-"), (0, [plus, minus], "+-", [slot]), (0, [plus], "+", [0]), (0, [plus, minus], "+", [0])],
        "conditioned": [(party, lambda t: X), (0, lambda t: X, [slot]), (0, lambda t: np.eye(3), [0])],
        "discard": [(party, [0]), (0, [slot]), (0, [])],
        "regroup": [(party, [2]), (0, [-2, -2]), (0, [2]), (0, [2, 0, 2])],
        "move_factors": [(party, [0]), (0, [0]), (0, [1, 1]), (0, [slot, 0])],
        "bell_measure": [(party, 0, 1), (0, 0, slot), (0, slot, 1), (0, 0, 0), (2, 0, 1)],
        "teleport": [
            (party, 0, 1, [(1, 0)]),
            (0, 0, 1, []),
            (0, 0, 1, [(party, 0)]),
            (0, 0, 1, [(1, slot)]),
            (0, 0, 1, [(1, 0), (2, 0)]),  # a four-level leg takes no qubit correction
            (0, slot, 1, [(1, 0)]),
        ],
        "povm": [(party, _KRAUS), (0, _KRAUS, None, [slot]), (0, _KRAUS, ["a"], [0]), (0, [np.eye(2), X], None, [0]), (0, [])],
    }


@st.composite
def _bad_builder_calls(draw):
    party = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=3)))
    slot = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=2)))
    calls = _bad_calls(party, slot)
    name = draw(st.sampled_from(sorted(calls)))
    return name, draw(st.sampled_from(calls[name]))


def test_the_bad_calls_cover_every_mutating_builder_method():
    readers = {"factor_dims", "party_dim", "steps"}
    public = {name for name in vars(ProtocolBuilder) if not name.startswith("_")}
    assert set(_bad_calls(-1, 2)) == public - readers


@settings(max_examples=400, deadline=None)
@given(_bad_builder_calls())
def test_a_builder_method_that_raises_leaves_the_builder_unchanged(call):
    name, args = call
    builder = _builder_in_use()
    steps, factors = builder.steps(), [builder.factor_dims(p) for p in range(3)]
    with pytest.raises(ValueError):
        getattr(builder, name)(*args)
    assert builder.steps() == steps  # steps compare by identity
    assert [builder.factor_dims(p) for p in range(3)] == factors
    # the outcome sets a conditioned step tabulates over are unchanged too
    seen = []
    builder.conditioned(0, lambda t: seen.append(t) or np.eye(2), on=[0])
    assert seen == [("+",), ("-",)]


def test_a_failed_teleport_leaves_no_measurement_behind():
    builder = ProtocolBuilder([[2, 2], [2]])
    with pytest.raises(ValueError, match="factor index out of range"):
        builder.teleport(0, 0, 1, [(1, 5)])
    assert builder.steps() == []
    assert builder.factor_dims(0) == (2, 2)


def test_builder_refuses_nonpositive_factors():
    for factor_dims in ([[-2, -2]], [[2], [0, 2]]):
        with pytest.raises(ValueError, match="factor dimensions must be positive"):
            ProtocolBuilder(factor_dims)
    # a party with no factors has dimension 1, as after discarding all of them
    builder = ProtocolBuilder([[2], [2]])
    builder.discard(1, [0])
    assert ProtocolBuilder([[2], []]).party_dim(1) == builder.party_dim(1) == 1


def test_numpy_integer_placement_values_are_stored_as_ints_and_round_trip(tmp_path):
    plus, minus = hadamard_projectors()
    steps = [
        LocalUnitary(np.int64(0), X, factor_dims=np.array([2, 1]), on=np.array([0])),
        LocalMeasurement(np.int32(1), (plus, minus), ("+", "-")),
        ConditionedUnitary(np.uint8(0), {("+",): X, ("-",): np.eye(2)}),
        DiscardSubsystem(np.int64(1), np.array([2, 1]), np.array([1])),
    ]
    builder = ProtocolBuilder([[2], [2]])
    builder.unitary(np.int64(1), X)
    steps += builder.steps()
    assert [(s.party, type(s.party)) for s in steps] == [(0, int), (1, int), (0, int), (1, int), (1, int)]
    placed = steps[0].factor_dims + steps[0].on + steps[3].factor_dims + steps[3].discard
    assert [(v, type(v)) for v in placed] == [(2, int), (1, int), (0, int), (2, int), (1, int), (1, int)]
    path = str(tmp_path / "p.json")
    save_protocol(steps, path)
    loaded = load_protocol(path)
    assert protocol_to_list(loaded) == json.loads(json.dumps(protocol_to_list(steps)))
    for build in (lambda: LocalUnitary(True, X), lambda: DiscardSubsystem(True, (2,), (0,))):
        with pytest.raises(ValueError, match="expected an integer, not True"):
            build()


def _integer_rule_calls(value) -> dict[str, list]:
    """For each step type, `expand_factor_op` and each `ProtocolBuilder`
    method, calls that pass `value` as one placement value (a party, a
    factor dimension or index, or `insert_at`) and are valid otherwise."""
    plus, minus = hadamard_projectors()
    builder = ProtocolBuilder([[2, 2], [2]])
    ket = [[1], [0]]
    return {
        "LocalUnitary": [
            lambda: LocalUnitary(value, X),
            lambda: LocalUnitary(0, X, factor_dims=(2, 2), on=(value,)),
            lambda: LocalUnitary(0, X, factor_dims=(value, 2), on=(1,)),
            lambda: LocalUnitary(0, ket, factor_dims=(2,), on=(), out_dims=(value,)),
            lambda: LocalUnitary(0, ket, factor_dims=(2,), on=(), out_dims=(2,), insert_at=value),
        ],
        "LocalMeasurement": [lambda: LocalMeasurement(0, (plus, minus), "+-", factor_dims=(2, 2), on=(value,))],
        "ConditionedUnitary": [lambda: ConditionedUnitary(0, {(): X}, factor_dims=(2, 2), on=(value,))],
        "DiscardSubsystem": [
            lambda: DiscardSubsystem(value, (2, 2), (0,)),
            lambda: DiscardSubsystem(0, (2, 2), (value,)),
            lambda: DiscardSubsystem(0, (value, 2), (1,)),
        ],
        "expand_factor_op": [lambda: expand_factor_op(X, (2, 2), on=(value,))],
        "ProtocolBuilder": [lambda: ProtocolBuilder([[value, 2]])],
        "factor_dims": [lambda: builder.factor_dims(value)],
        "party_dim": [lambda: builder.party_dim(value)],
        "regroup": [lambda: builder.regroup(0, [value, 4])],
        "unitary": [lambda: builder.unitary(value, X), lambda: builder.unitary(0, X, on=[value])],
        "add_ancilla": [lambda: builder.add_ancilla(0, [1, 0], insert_at=value)],
        "measure": [lambda: builder.measure(0, [plus, minus], "+-", on=[value])],
        "conditioned": [lambda: builder.conditioned(0, lambda t: X, on=[value])],
        "discard": [lambda: builder.discard(0, [value])],
        "move_factors": [lambda: builder.move_factors(0, [value, 0])],
        "bell_measure": [lambda: builder.bell_measure(0, value, 1)],
        "teleport": [lambda: builder.teleport(0, value, 1, [(1, 0)]), lambda: builder.teleport(0, 0, 1, [(1, value)])],
        "povm": [lambda: builder.povm(0, _KRAUS, on=[value])],
    }


def test_factor_layouts_are_shared_and_only_the_rule_is_cached():
    layout = _factor_layout((2, 2, 3), (2,), (3, 1))
    # equal int arguments of any integer type share one frozen layout
    assert _factor_layout([2, np.int64(2), 3], [np.int64(2)], [3, 1]) is layout
    assert layout.shape == (3, 3) and layout.new_factors == (2, 2, 3, 1)
    # a bool or float equal to a cached int is still refused
    for bad in (True, 2.0, np.float64(2.0)):
        with pytest.raises(ValueError, match=f"expected an integer, not {re.escape(repr(bad))}"):
            _factor_layout((2, 2, 3), (bad,), (3, 1))
    # an error is raised on every call, not cached as a result
    for _ in range(2):
        with pytest.raises(ValueError, match="factor index out of range"):
            _factor_layout((2, 2, 3), (3,))
    # the operator shape is checked on every call, against the shared layout
    assert _factor_layout((2, 2, 3), (2,), (3, 1), ops=(np.ones((3, 3)),)) is layout
    with pytest.raises(ValueError, match=r"does not act on factors \[2\] of \[2, 2, 3\]; expected \(3, 3\)"):
        _factor_layout((2, 2, 3), (2,), (3, 1), ops=(np.ones((3, 3)), np.eye(2)))
    # steps loaded twice from one file share their layouts
    payload = protocol_to_list(eprs_to_cat(4, 1))
    first, second = protocol_from_list(payload), protocol_from_list(payload)
    assert all(a.layout is b.layout for a, b in zip(first, second))


def test_the_integer_rule_calls_cover_every_step_type_and_builder_method():
    public = {name for name in vars(ProtocolBuilder) if not name.startswith("_")} - {"steps"}
    steps = {cls.__name__ for cls in (LocalUnitary, LocalMeasurement, ConditionedUnitary, DiscardSubsystem)}
    assert set(_integer_rule_calls(0)) == public | steps | {"ProtocolBuilder", "expand_factor_op"}


@pytest.mark.parametrize("value", [0.7, 1.6, 2.9, True, np.bool_(False), "0", np.float64(1.0)])
def test_built_steps_refuse_a_non_integer_placement_value(value):
    # a protocol file refuses these values (MALFORMED_PROTOCOLS); a step or
    # builder call refuses them too, rather than rounding or casting them
    for calls in _integer_rule_calls(value).values():
        for call in calls:
            with pytest.raises(ValueError, match=f"expected an integer, not {re.escape(repr(value))}"):
                call()


@pytest.mark.parametrize("party", [-1, 2])
def test_builder_readers_refuse_a_party_outside_the_builder(party):
    builder = ProtocolBuilder([[2, 2], [2]])
    for read in (builder.factor_dims, builder.party_dim):
        with pytest.raises(ValueError, match=f"party {party} out of range for 2 parties"):
            read(party)


# --- dilution end to end --------------------------------------------------------


@pytest.mark.parametrize("n, k", [(0, 0), (1, -1), (1, 5)])
def test_dilution_functions_reject_the_same_arguments(n, k):
    # no copy, a negative cat budget, and a budget above the register's one qubit
    messages = set()
    for build in (dilution_input, dilution_protocol, dilution_end_to_end):
        with pytest.raises(ValueError) as excinfo:
            build([1, 1], n, k)
        messages.add(str(excinfo.value))
    assert len(messages) == 1


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
    from entkit.schmidt import _retained_fidelity, dilution_retained_types

    report = dilution_end_to_end([np.sqrt(0.75), np.sqrt(0.25)], n=2, k=1, num_parties=2)
    expected = _retained_fidelity(dilution_retained_types([0.75, 0.25], 2, 1))
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
    from entkit.schmidt import _retained_fidelity, dilution_retained_types

    report = dilution_end_to_end(coeffs, n=n, k=k, num_parties=parties)
    weights = np.asarray(coeffs) ** 2
    expected = _retained_fidelity(dilution_retained_types(weights / weights.sum(), n, k))
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


# SHA-256 of `save_protocol` output; a change to what the builders store
# (the placement fields above all) or to the file encoding shows here
PINNED_FILES = [
    pytest.param(lambda: cat_to_epr(5, 0, 4), "89b80197410539b1fd28a2a8733bb06b54eccd01711788fea036278fbb0822e6", id="cat_to_epr-5-0-4"),
    pytest.param(lambda: eprs_to_cat(4, 1), "fd0c4e5506b143e83aae3ab9cd8841ea92d39d730f63cc8ec41f5ac8751e7e01", id="eprs_to_cat-4-1"),
    pytest.param(
        lambda: dilution_protocol([np.sqrt(0.75), np.sqrt(0.25)], 2, 1, 3),
        "9307af92d0f461f57dc80e8b8aeedc24df24fae84ac9c14de058f51fb2267284",
        id="dilution-n2-k1-m3",
    ),
    pytest.param(
        lambda: dilution_protocol([np.sqrt(0.25), np.sqrt(0.75)], 3, 2, 2),
        "1149733bbf72d81146b802da2f7f756e47b5d52f1d4b4918cbccb20f8174c083",
        id="dilution-n3-k2-m2",
    ),
    pytest.param(lambda: povm_case()[0], "b360df7aff6f1e86ae30d74dd3809e734eef87ff1e1687fe88b759613aa5fb1c", id="povm"),
]


@pytest.mark.parametrize("make, digest", PINNED_FILES)
def test_saved_protocol_files_are_pinned(tmp_path, make, digest):
    path = tmp_path / "p.json"
    save_protocol(make(), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


_I2 = [[1, 0], [0, 1]]

# (bad step, what its error says); each check a step makes when it is built
BAD_STEPS = [
    ({"type": "unitary", "party": 0, "matrix": _I2, "factor_dims": [2, 2], "on": [0, 1]}, "operator of shape (2, 2) does not act on factors [0, 1] of [2, 2]; expected (4, 4)"),
    ({"type": "unitary", "party": 0, "matrix": _I2, "factor_dims": [2], "on": [1]}, "factor index out of range"),
    ({"type": "unitary", "party": 0, "matrix": _I2, "factor_dims": [0, 2], "on": [1]}, "factor dimensions must be positive"),
    ({"type": "unitary", "party": 0, "matrix": [[]]}, "factor dimensions must be positive"),
    ({"type": "unitary", "party": 0, "matrix": _I2, "factor_dims": [2, 2], "on": [0, 0]}, "duplicate factor index"),
    ({"type": "unitary", "party": 0, "matrix": [[1], [0]], "factor_dims": [2], "on": [], "out_dims": [2], "insert_at": 5}, "insert_at out of range"),
    ({"type": "unitary", "party": 0, "matrix": [[1, 0]]}, "matrix is not an isometry"),
    ({"type": "unitary", "party": 0, "matrix": [[1, 0], [0, 2]]}, "matrix is not an isometry"),
    ({"type": "unitary", "party": 0, "matrix": [[float("nan"), 0], [0, 1]]}, "matrix is not an isometry"),
    ({"type": "measurement", "party": 0, "projectors": [_I2, [[1]]], "outcomes": ["a", "b"]}, "operator of shape (1, 1) does not act"),
    ({"type": "measurement", "party": 0, "projectors": [[[1, 1], [0, 0]], [[0, -1], [0, 1]]], "outcomes": ["a", "b"]}, "projector for outcome 'a' is not Hermitian"),
    ({"type": "measurement", "party": 0, "projectors": [[[0.5, 0], [0, 0]], [[0.5, 0], [0, 1]]], "outcomes": ["a", "b"]}, "projector for outcome 'a' is not idempotent"),
    ({"type": "measurement", "party": 0, "projectors": [[[1, 0], [0, 0]]], "outcomes": ["a"]}, "measurement projectors do not sum to the identity"),
    ({"type": "measurement", "party": 0, "projectors": [], "outcomes": []}, "a step needs at least one operator"),
    ({"type": "conditioned", "party": 0, "table": {}}, "a step needs at least one operator"),
    ({"type": "conditioned", "party": 0, "table": {"": [[1, 0], [0, 1], [0, 0]]}}, "operator of shape (3, 2) does not act"),
    # checked although no branch can reach the transcript "b"
    ({"type": "conditioned", "party": 0, "table": {"a": _I2, "b": [[1, 0], [0, 2]]}}, "matrix is not an isometry"),
    # a discard is placed by the same rule, so its messages name no operator field
    ({"type": "discard", "party": 0, "factor_dims": [2, 2], "discard": [1, 1]}, "duplicate factor index in [1, 1]"),
    ({"type": "discard", "party": 0, "factor_dims": [2, 2], "discard": [2]}, "factor index out of range in [2] for factors [2, 2]"),
    ({"type": "discard", "party": 0, "factor_dims": [2, 0], "discard": [0]}, "factor dimensions must be positive"),
    ({"type": "discard", "party": 0, "factor_dims": [2, 2], "discard": []}, "discard list must be nonempty"),
]


@pytest.mark.parametrize("bad, message", BAD_STEPS)
def test_each_step_check_names_the_step_of_a_bad_file(tmp_path, bad, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps([{"type": "unitary", "party": 0, "matrix": _I2}, bad]))
    with pytest.raises(ValueError) as excinfo:
        load_protocol(str(path))
    assert str(excinfo.value).startswith(f"protocol step 1 ({bad['type']}): {message}")


def test_a_run_builds_branch_states_only_when_they_are_read(monkeypatch, tmp_path, capsys):
    from entkit.cli import main
    from entkit.states import save_state

    built = []
    post_init = PureState.__post_init__
    monkeypatch.setattr(PureState, "__post_init__", lambda self: built.append(self) or post_init(self))
    state, steps = eprs_to_cat_input(4, 1), eprs_to_cat(4, 1)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("state", "protocol", "target")}
    save_state(state, paths["state"])
    save_protocol(steps, paths["protocol"])
    save_state(cat_state(4), paths["target"])
    built.clear()
    argv = ["run-protocol", "--protocol", paths["protocol"], "--state", paths["state"], "--target", paths["target"]]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 64 + 1
    # the input and the target, and no state per branch
    assert [s.dims for s in built] == [state.dims, (2, 2, 2, 2)]

    outcome = run(steps, state)
    built.clear()
    assert len(outcome.branches) == 64 and built == []
    assert not outcome.rows.flags.writeable
    first, second = list(outcome.branches), list(outcome.branches)
    assert len(built) == 64 and all(isinstance(a, Branch) and a is b for a, b in zip(first, second))
    assert outcome.branches[-1] is first[-1] and outcome.branches[2:5] == tuple(first[2:5])
    for branch, p, t, row in zip(first, outcome.probabilities, outcome.transcripts, outcome.rows):
        assert (branch.probability, branch.transcript) == (p, t)
        assert branch.state.dims == outcome.dims
        assert branch.state.amplitudes.tobytes() == PureState(outcome.dims, row).amplitudes.tobytes()


def test_a_run_that_built_its_branches_is_freed_when_dropped():
    # the view holds the run's arrays, not the run: no cycle for the
    # collector to find, so a dropped run's rows and states go at once
    outcome = run(cat_to_epr(4, 0, 1), cat_state(4))
    assert len(list(outcome.branches)) == 4
    dropped = weakref.ref(outcome)
    gc.disable()
    try:
        del outcome
        assert dropped() is None
    finally:
        gc.enable()


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


_P0 = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
_P1 = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]
_I2_PAIRS = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


def matrix_field_payload(field, matrix):
    """A protocol whose last step holds `matrix` in `field`: a unitary's
    matrix, a measurement's second projector, or a conditioned step's
    second table entry, after a measurement that makes the table's keys."""
    measure = {"type": "measurement", "party": 0, "projectors": [_P0, _P1], "outcomes": ["0", "1"]}
    if field == "matrix":
        return [{"type": "unitary", "party": 0, "matrix": matrix}]
    if field == "projectors":
        return [dict(measure, projectors=[_P0, matrix])]
    return [measure, {"type": "conditioned", "party": 0, "table": {"0": _I2_PAIRS, "1": matrix}}]


_NOT_A_PAIR = "is not a number or an [re, im] pair of numbers"

# one defect in a field's last matrix, and the error it has always given
MATRIX_DEFECTS = [
    pytest.param([[[1, 0], [0, 0]], [[0, 0], [True, 0]]], f"matrix entry [True, 0] {_NOT_A_PAIR}", id="bool"),
    pytest.param([[[1, 0], ["0", 0]], [[0, 0], [1, 0]]], f"matrix entry ['0', 0] {_NOT_A_PAIR}", id="str"),
    pytest.param([[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]], f"matrix entry [1, 0, 0] {_NOT_A_PAIR}", id="triple"),
    pytest.param(
        [[[1, 0], [0, 0]], [[1, 0]]],
        "setting an array element with a sequence. The requested array has an inhomogeneous "
        "shape after 1 dimensions. The detected shape was (2,) + inhomogeneous part.",
        id="ragged",
    ),
    pytest.param([[[1, 0], [0, 0]], [[0, 0], [10**400, 0]]], "int too large to convert to float", id="huge"),
]


@pytest.mark.parametrize("field", ["matrix", "projectors", "table"])
@pytest.mark.parametrize("bad, message", MATRIX_DEFECTS)
def test_a_bad_matrix_entry_gives_the_same_error_in_every_field(field, bad, message):
    payload = json.loads(json.dumps(matrix_field_payload(field, bad)))
    with pytest.raises(ValueError) as excinfo:
        protocol_from_list(payload)
    where = f"protocol step {len(payload) - 1} ({payload[-1]['type']})"
    assert str(excinfo.value) == f"{where}: field {field!r}: {message}"


@pytest.mark.parametrize(
    "field, message",
    [
        ("matrix", "matrix is not an isometry within tolerance"),
        ("projectors", "projector for outcome '1' is not Hermitian"),
        ("table", "matrix is not an isometry within tolerance"),
    ],
)
def test_a_nan_matrix_entry_is_refused_by_the_step_check(field, message):
    payload = matrix_field_payload(field, [[[1, 0], [0, 0]], [[0, 0], [math.nan, 0]]])
    with pytest.raises(ValueError) as excinfo:
        protocol_from_list(payload)
    assert str(excinfo.value) == f"protocol step {len(payload) - 1} ({payload[-1]['type']}): {message}"


@pytest.mark.parametrize("field", ["matrix", "projectors", "table"])
def test_a_matrix_mixing_numbers_and_pairs_loads_to_the_same_bits(field):
    # the phase gate diag(1, -i), with signed zeros; a bare number is an
    # entry with imaginary part 0.0
    pairs = [[[1.0, 0.0], [0, 0.0]], [[-0.0, 0.0], [0.0, -1]]]
    mixed = [[1.0, 0], [[-0.0, 0.0], [0.0, -1]]]
    want = np.array([[complex(1.0, 0.0), complex(0, 0.0)], [complex(-0.0, 0.0), complex(0.0, -1)]])
    if field == "projectors":
        pairs, mixed = [[[0, 0.0], [-0.0, 0]], [[0, 0.0], [1, -0.0]]], [[0, [-0.0, 0]], [0, [1, -0.0]]]
        want = np.array([[complex(0, 0.0), complex(-0.0, 0)], [complex(0, 0.0), complex(1, -0.0)]])
    for matrix in (pairs, mixed):
        step = protocol_from_list(matrix_field_payload(field, matrix))[-1]
        got = step.matrix if field == "matrix" else step.projectors[1] if field == "projectors" else step.table[("1",)]
        assert got.tobytes() == want.tobytes()


def test_one_call_decode_is_bit_identical_to_the_per_matrix_one():
    from entkit.protocols import _matrix_from_json, _matrix_stack

    values = [0.0, -0.0, 1, -3, 2**53 + 1, 2**70, -(2**64) - 1, 1e-300, 5e-324, 1.7976931348623157e308, 0.1, -2.5]
    rng = np.random.default_rng(5)
    payload = [
        [[[values[i], values[j]] for i, j in rng.integers(len(values), size=(3, 2))] for _ in range(3)]
        for _ in range(4)
    ]
    stack = _matrix_stack(payload)
    assert stack.shape == (4, 3, 3) and stack.dtype == complex
    assert stack.tobytes() == np.stack([_matrix_from_json(m) for m in payload]).tobytes()
    # anything but lists of [re, im] lists of JSON numbers of one shape is left to the per-matrix path
    for other in ([], [[]], [[[]]], [[[1, 0]], [[0, 1], [1, 0]]], [[[1, [0, 0]]]], [[(1, 0)]], [[[np.float64(1), 0]]]):
        assert _matrix_stack([other]) is None


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


def perturbed_steps(eps, dense):
    """Builders of four steps that are off by `eps`: on the small operators
    with their placement, or on the operators' party-space expansions."""
    near_projector = np.diag([1.0, eps]).astype(complex)
    near_unitary = np.diag([1.0, 1.0 + eps / 2]).astype(complex)
    near_isometry = np.vstack([near_unitary, np.zeros((2, 2))])
    factors = (2, 8)

    def op(matrix, out_dims=None):
        return expand_factor_op(matrix, factors, (0,), out_dims)[0] if dense else matrix

    at = {} if dense else {"factor_dims": factors, "on": (0,)}
    grow = {} if dense else dict(at, out_dims=(4,))
    return [
        lambda: LocalMeasurement(0, (op(near_projector), op(np.diag([0.0, 1.0]))), ("0", "1"), **at),
        lambda: LocalUnitary(0, op(near_unitary), **at),
        lambda: ConditionedUnitary(0, {("0",): op(near_unitary), ("1",): op(np.eye(2))}, **at),
        lambda: LocalUnitary(0, op(near_isometry, (4,)), **grow),
    ]


@pytest.mark.parametrize("eps, rejected", OFF_BY)
@pytest.mark.parametrize("which", range(4))
def test_small_operator_checks_are_as_strict_as_dense(eps, rejected, which):
    state = random_pure_state((16, 2), np.random.default_rng(5))
    for dense in (False, True):
        build = perturbed_steps(eps, dense)[which]
        if rejected:
            with pytest.raises(ValueError):
                build()
            continue
        steps = [build()]
        if which == 2:
            # the conditioned step needs a transcript: measure exactly first
            exact = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
            steps.insert(0, LocalMeasurement(0, exact, ("0", "1"), (2, 8), (0,)))
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
    branches = [(1.0, state, ())]
    for step in steps:
        new_branches = []
        layout = getattr(step, "layout", None)
        if isinstance(step, LocalUnitary):
            for prob, psi, transcript in branches:
                dims, vec = _reference_apply_local(psi, step.party, step.matrix, layout)
                new_branches.append((prob, PureState(dims, vec), transcript))
        elif isinstance(step, LocalMeasurement):
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
                dims, vec = _reference_apply_local(psi, step.party, mat, layout)
                new_branches.append((prob, PureState(dims, vec), transcript))
        else:
            for prob, psi, transcript in branches:
                new_branches.append((prob, _reference_discard_branch(psi, step), transcript))
        branches = new_branches
    total = sum(prob for prob, _, _ in branches)
    probs, states, transcripts = zip(*sorted(((p / total, s, t) for p, s, t in branches), key=lambda b: b[2]))
    rows = np.stack([s.amplitudes for s in states])
    return ProtocolRun(state, states[0].dims, rows, probs, transcripts, abs(1.0 - total))


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
    weights = tuple(map(float, rng.dirichlet(np.ones(len(states)))))
    rows = np.stack([state.amplitudes for state, _ in states])
    transcripts = tuple(t for _, t in states)
    if seed % 3 == 0:
        start = random_pure_state(dims, rng)
    else:
        # a weakly entangled input: most seeds must fail on some cut
        amps = np.zeros(math.prod(dims), dtype=complex)
        amps[0], amps[-1] = 1.0, rng.uniform(0.0, 1.5)
        start = PureState(dims, amps)
    return ProtocolRun(start, dims, rows, weights, transcripts, 0.0)


def stacked_check(result):
    """`run`'s check on a run's branches, stacked in branch order."""
    rows = np.stack([b.state.as_tensor() for b in result.branches])
    _assert_entropy_monotone(result.input_state, rows, [b.probability for b in result.branches])


def monotonicity_verdict(check, result):
    try:
        check(result)
    except EntropyMonotonicityError as exc:
        return exc.partition_label, exc.before, exc.after
    return None


def test_stacked_check_matches_per_branch_check_on_haar_branches(record_calls):
    solver_calls = record_calls("_unchecked_eigenvalues", "entkit.entropy", record=np.shape)
    verdicts = []
    for seed in range(24):
        fake = haar_fake_run(seed)
        solver_calls.clear()
        got = monotonicity_verdict(stacked_check, fake)
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


def first_argument(first, *rest):
    return first


def test_check_forms_one_stacked_gram_per_cut(record_calls):
    entropy_module = sys.modules["entkit.entropy"]
    buffers = record_calls(
        "_block_grams",
        "entkit.entropy",
        record=lambda stack, block, size: (stack.shape, [side.members for _, side, _ in block]),
    )
    blocks = record_calls("_flat_ranks", "entkit.entropy", record=first_argument)
    solver = record_calls("_unchecked_eigenvalues", "entkit.entropy", record=first_argument)
    contractions = record_calls("_contract_pure", "entkit.protocols", record=lambda split, *rest: rest[:3])
    run(cat_to_epr(8, 0, 1), cat_state(8))
    assert solver == []
    # the input: each canonical cut's Gram, on its cheaper side, once
    sides = sorted(
        part.members if len(part.members) <= 4 else part.complement().members
        for part in canonical_partitions(8)
    )
    assert sorted(keep for shape, block in buffers if shape == (1,) + (2,) * 8 for keep in block) == sides
    # the six helpers are pure in all 64 branches: each is contracted in
    # turn, halving the rows, and the branches' Grams are formed on the EPR
    # pair's parties 0 and 1 alone, one per distinct cut of them
    assert contractions == [(64, 2, 2**k) for k in range(7, 1, -1)]
    branch = [(shape, keep) for shape, block in buffers if shape[0] == 64 for keep in block]
    assert {shape for shape, _ in branch} == {(64, 2, 2) + (1,) * 6}
    assert sorted(tuple(p for p in keep if p < 2) for _, keep in branch) == [(), (0,), (1,)]
    # same-size cuts share a block; one above the cap holds a single cut
    cap = entropy_module._BLOCK_ENTRIES
    assert len(blocks) < len(buffers)
    assert all(b.size <= max(cap, 64 * b.shape[-1] ** 2) for b in blocks)
    assert any(len(b) > 64 for b in blocks)
    # a buffer holds at most 2^13 amplitudes: the input's 127 cuts fill 6
    assert all(len(block) * math.prod(shape) <= max(cap, math.prod(shape)) for shape, block in buffers)
    assert sorted(len(block) for shape, block in buffers if shape[0] == 1) == [3, 8, 24, 28, 32, 32]


def test_check_peak_memory_is_bounded():
    # 1,432,264 B is the traced peak of the check with one Gram stack per
    # cut, before cuts were grouped into blocks (numpy 2.4, Python 3.11); the
    # block cap keeps the check at or below it
    result = run(cat_to_epr(8, 0, 1), cat_state(8), check_entropy=False)
    rows = np.stack([b.state.as_tensor() for b in result.branches])
    probs = [b.probability for b in result.branches]
    _assert_entropy_monotone(result.input_state, rows, probs)
    tracemalloc.start()
    try:
        _assert_entropy_monotone(result.input_state, rows, probs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_432_264


def flat_cut_indices(stack):
    """Canonical indices of the cuts that are flat of power-of-two rank in
    every row of a stack, whose entropies are exact."""
    return {i for entries, _, others, _ in _cut_blocks(stack) for k, indices in enumerate(entries) if not others[k].any() for i in indices}


def assert_same_vector(got, want, exact):
    for index, part in enumerate(want.partitions()):
        if index in exact:
            assert got.values[part] == want.values[part], part.label
        else:
            assert abs(got.values[part] - want.values[part]) <= 1e-12, part.label


@pytest.mark.parametrize("make", shipped_protocol_cases())
def test_dropping_pure_parties_keeps_every_shipped_vector(make, monkeypatch):
    # the check's vector of the reduced stack against the full stack's, at
    # the shipped size gate and with every stack tried
    steps, state = make()
    result = run(steps, state, check_entropy=False)
    rows, probs = result.rows.reshape((-1,) + result.dims), result.probabilities
    want, exact = entropy_vector(rows, probs), flat_cut_indices(rows)
    assert_same_vector(entropy_vector(_drop_pure_parties(rows), probs), want, exact)
    monkeypatch.setattr(sys.modules["entkit.protocols"], "_DROP_MIN_READS", 0)
    reduced = _drop_pure_parties(rows)
    assert_same_vector(entropy_vector(reduced, probs), want, exact)
    if state.dims == (2,) * len(state.dims) and np.array_equal(state.amplitudes, cat_state(len(state.dims)).amplitudes):
        # cat_to_epr: only the EPR pair's two parties are kept
        assert sorted(reduced.shape[1:]) == [1] * (len(state.dims) - 2) + [2, 2]


def with_pure_parties(rows, inserts, rng):
    """Each row of a stack, tensored with a random pure state of its own on
    each inserted party: (position, dimension) pairs, in order."""
    for at, d in inserts:
        vectors = rng.standard_normal((len(rows), d)) + 1j * rng.standard_normal((len(rows), d))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        shape = (len(rows),) + (1,) * at + (d,) + (1,) * (rows.ndim - 1 - at)
        rows = np.expand_dims(rows, at + 1) * vectors.reshape(shape)
    return rows


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_dropping_inserted_pure_parties_keeps_haar_vectors(seed):
    rng = np.random.default_rng(seed)
    dims = [(2, 2), (2, 3), (3, 2, 2), (2, 2, 2)][int(rng.integers(4))]
    count = int(rng.integers(1, 7))
    rows = np.stack([random_pure_state(dims, rng).as_tensor() for _ in range(count)])
    inserts = []
    for _ in range(int(rng.integers(1, 4))):
        inserts.append((int(rng.integers(len(dims) + len(inserts) + 1)), int(rng.integers(2, 4))))
    rows = with_pure_parties(rows, inserts, rng)
    weights = list(map(float, rng.dirichlet(np.ones(count))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys.modules["entkit.protocols"], "_DROP_MIN_READS", 0)
        reduced = _drop_pure_parties(rows)
    # exactly the inserted parties go: each Haar party is mixed in every row
    assert sum(d > 1 for d in reduced.shape[1:]) == len(dims)
    assert math.prod(reduced.shape[1:]) == math.prod(dims)
    assert_same_vector(entropy_vector(reduced, weights), entropy_vector(rows, weights), flat_cut_indices(rows))


@pytest.mark.parametrize("mixing, dropped", [(0.5, False), (1e-12, False), (1e-14, True)])
def test_a_party_mixed_in_one_row_is_kept(mixing, dropped):
    # party 0 is pure in rows 0..30 and, in row 31, holds weight `mixing`
    # off its principal state, entangled with the rest: purity about
    # 1 - 2 mixing; the stack is above the size gate
    rng = np.random.default_rng(7)
    rows = with_pure_parties(np.stack([random_pure_state((2,) * 6, rng).as_tensor() for _ in range(32)]), [(0, 2)], rng)
    rest = [random_pure_state((2,) * 6, rng).as_tensor() for _ in range(2)]
    rows[31] = np.stack([math.sqrt(1.0 - mixing) * rest[0], math.sqrt(mixing) * rest[1]])
    weights = [1.0 / 32] * 32
    assert rows.size * (2**6 - 1) >= sys.modules["entkit.protocols"]._DROP_MIN_READS
    reduced = _drop_pure_parties(rows)
    assert reduced.shape[1] == (1 if dropped else 2)
    assert_same_vector(entropy_vector(reduced, weights), entropy_vector(rows, weights), set())


@pytest.mark.parametrize("scale, message", [(1.01, "stack row 3 has norm 1.01;"), (np.nan, "non-finite")])
def test_the_drop_lets_no_bad_row_through(scale, message):
    # the helpers are pure in every branch, so the drop runs; a row off its
    # norm or NaN must still be refused as `entropy_vector` refuses it
    result = run(cat_to_epr(8, 0, 1), cat_state(8), check_entropy=False)
    rows = np.array(result.rows).reshape((-1,) + result.dims)
    rows[3] *= scale
    with pytest.raises(ValueError, match=message):
        _assert_entropy_monotone(result.input_state, rows, result.probabilities)


def test_a_gain_on_a_kept_cut_still_raises_by_its_label(record_calls):
    # 32 branches of seven qubits, five of them pure in every branch, above
    # the size gate: the check drops them and still finds the EPR pair's gain
    contractions = record_calls("_contract_pure", "entkit.protocols", record=lambda split, *rest: rest[0])
    rng = np.random.default_rng(11)
    pair = np.stack([epr_pair().as_tensor()] * 32)
    rows = with_pure_parties(pair, [(2, 2), (0, 2), (4, 2), (1, 2), (6, 2)], rng)
    weights = tuple(map(float, rng.dirichlet(np.ones(32))))
    states = [PureState((2,) * 7, row.reshape(-1)) for row in rows]
    rows = np.stack([state.as_tensor() for state in states])
    start = make_state((2,) * 7, [("0" * 7, 1.0)])
    fake = ProtocolRun(start, (2,) * 7, rows.reshape(32, -1), weights, tuple((str(i),) for i in range(32)), 0.0)
    got = monotonicity_verdict(stacked_check, fake)
    assert contractions == [32] * 5
    want = monotonicity_verdict(reference_assert_entropy_monotone, fake)
    assert got[0] == want[0] == "C"
    assert got[1:] == pytest.approx(want[1:], abs=1e-12)
    assert got[1:] == pytest.approx((0.0, 1.0), abs=1e-12)


def test_each_discard_makes_one_stacked_eigensystem_call(record_calls):
    calls = record_calls("hermitian_eigensystem", "entkit.protocols", record=first_argument)
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
