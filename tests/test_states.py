import itertools
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import MALFORMED_STATES

from entkit.states import (
    Partition,
    PureState,
    canonical_partitions,
    fidelity,
    load_state,
    make_state,
    party_letters,
    permute_parties,
    random_pure_state,
    reduced_gram,
    save_state,
    state_from_dict,
    state_to_dict,
    tensor,
)
from entkit.states import _TERM_FLOOR


def test_make_state_normalizes():
    s = make_state((2, 2), [("00", 1.0), ("11", 1.0)])
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12
    assert abs(s.basis_amplitude((0, 0)) - 2**-0.5) < 1e-12


def test_make_state_accepts_mapping():
    s = make_state((2, 2), {"01": 1.0, "10": -1.0})
    assert abs(abs(s.basis_amplitude((0, 1))) - 2**-0.5) < 1e-12


def test_make_state_rejects_bad_basis():
    with pytest.raises(ValueError):
        make_state((2, 2), [("2", 1.0)])
    with pytest.raises(ValueError):
        make_state((2, 2), [((0, 2), 1.0)])


def test_party_letters():
    assert party_letters((0, 2)) == "AC"
    assert party_letters([3, 1]) == "BD"


def test_partition_canonical_prefers_smaller_side():
    p = Partition(4, (0, 1, 2)).canonical()
    assert p.members == (3,)


def test_partition_canonical_tie_avoids_party_zero():
    p = Partition(4, (0, 1)).canonical()
    assert p.members == (2, 3)


@pytest.mark.parametrize("m,count", [(2, 1), (3, 3), (4, 7), (5, 15), (6, 31)])
def test_canonical_partition_count(m, count):
    assert len(canonical_partitions(m)) == count


def brute_force_canonical(m):
    """Every mask's smaller side, ties to the side without party 0, sorted."""
    sides = set()
    for mask in range(1, (1 << m) - 1):
        inside = tuple(p for p in range(m) if mask >> p & 1)
        outside = tuple(p for p in range(m) if not mask >> p & 1)
        if len(inside) != len(outside):
            sides.add(min(inside, outside, key=len))
        else:
            sides.add(outside if 0 in inside else inside)
    return sorted(sides, key=lambda side: (len(side), side))


@pytest.mark.parametrize("m", range(2, 11))
def test_canonical_partitions_match_brute_force(m):
    parts = canonical_partitions(m)
    assert [part.members for part in parts] == brute_force_canonical(m)
    assert all(part.num_parties == m for part in parts)
    assert all(part.canonical() == part for part in parts)


@pytest.mark.parametrize("m", range(3, 7))
def test_partition_hash_is_its_fields_hash_and_order_is_unchanged(m):
    sides = [
        Partition(m, members)
        for size in range(1, m)
        for members in itertools.combinations(range(m), size)
    ]
    assert all(hash(p) == hash((p.num_parties, p.members)) for p in sides)
    # the same hash for the same cut however its members are spelled
    assert hash(Partition(m, (m - 1, 0, 0))) == hash(Partition(m, (0, m - 1)))
    assert Partition(m, (m - 1, 0)) == Partition(m, (0, m - 1))
    assert Partition(m, (0,)) != Partition(m + 1, (0,))
    assert sorted(sides, reverse=True) == sorted(
        sides, key=lambda p: (p.num_parties, p.members), reverse=True
    )
    assert list({p: None for p in reversed(sides)}) == sides[::-1]


def test_canonical_partitions_returns_a_fresh_list():
    first = canonical_partitions(4)
    expected = list(first)
    first.clear()
    second = canonical_partitions(4)
    assert second == expected
    second.append(Partition(4, (0,)))
    assert canonical_partitions(4) == expected


def test_tensor_party_map():
    a = make_state((2,), [("0", 1.0)])
    b = make_state((2,), [("1", 1.0)])
    joint = tensor(a, b, party_map=[1])
    assert joint.dims == (2, 2)
    assert abs(joint.basis_amplitude((0, 1)) - 1.0) < 1e-12


def test_tensor_merges_into_existing_party():
    a = make_state((2, 2), [("00", 1.0), ("11", 1.0)])
    b = make_state((2,), [("0", 1.0)])
    joint = tensor(a, b, party_map={0: 0})
    assert joint.dims == (4, 2)


def test_permute_parties_roundtrip():
    s = random_pure_state((2, 3, 4), rng=0)
    p = permute_parties(s, (2, 0, 1))
    assert p.dims == (4, 2, 3)
    back = permute_parties(p, (1, 2, 0))
    assert abs(abs(back.overlap(s)) - 1.0) < 1e-12


def test_reduced_gram_trace_one():
    s = random_pure_state((2, 2, 3), rng=1)
    for part in canonical_partitions(3):
        gram = reduced_gram(s, part)
        assert abs(np.trace(gram).real - 1.0) < 1e-12
        assert np.linalg.norm(gram - gram.conj().T) < 1e-12


def test_partial_trace_product_state():
    a = make_state((2,), [("0", 1.0)])
    b = make_state((2,), [("0", 1.0), ("1", 1.0)])
    joint = tensor(a, b, party_map=[1])
    rho = reduced_gram(joint, (1,))
    expect = np.full((2, 2), 0.5)
    assert np.linalg.norm(rho - expect) < 1e-12


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_reduced_gram_rejects_a_stack_with_non_finite_amplitudes(bad):
    # warnings are errors in this suite, so a RuntimeWarning from the product fails here
    stack = np.stack([random_pure_state((2, 3), rng=seed).as_tensor() for seed in range(3)])
    stack[1, 0, 2] = bad
    for keep in ((0,), (1,)):
        with pytest.raises(ValueError, match="stack has non-finite amplitudes"):
            reduced_gram(stack, keep)
    assert reduced_gram(stack[::2], (0,)).shape == (2, 2, 2)


@pytest.mark.parametrize("bad", [1.9, 0.5, True, np.bool_(True), "1", np.float64(1.0)])
def test_a_non_integer_party_is_refused_by_name(bad):
    cat = make_state((2, 2, 2), [("000", 1.0), ("111", 1.0)])
    message = f"expected an integer, not {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=message):
        reduced_gram(cat, [bad])
    with pytest.raises(ValueError, match=message):
        reduced_gram(cat.as_tensor()[None], [0, bad])
    with pytest.raises(ValueError, match=message):
        Partition(3, (bad,))
    with pytest.raises(ValueError, match=message):
        Partition(3, (0, bad))
    # numpy integers are integers, and are stored as ints
    part = Partition(3, (np.int64(2), np.uint8(0)))
    assert part.members == (0, 2) and all(type(p) is int for p in part.members)
    assert part == Partition(3, (0, 2)) and hash(part) == hash(Partition(3, (0, 2)))
    assert np.array_equal(reduced_gram(cat, [np.int64(1)]), reduced_gram(cat, [1]))
    # party maps: every index, key and target
    epr = make_state((2, 2), [("00", 1.0), ("11", 1.0)])
    for perm in ([0, 1, bad], [bad, 0, 2]):
        with pytest.raises(ValueError, match=message):
            permute_parties(cat, perm)
    for party_map in ([bad, 2], [0, bad], {0: 1, bad: 2}, {0: bad, 1: 2}):
        with pytest.raises(ValueError, match=message):
            tensor(epr, epr, party_map)
    moved = permute_parties(cat, [np.int64(2), np.uint8(0), 1])
    assert moved.dims == (2, 2, 2) and all(type(d) is int for d in moved.dims)
    assert tensor(epr, epr, {np.int64(0): np.uint8(1), 1: np.int64(2)}).dims == (2, 4, 2)


def test_reduced_gram_rejects_a_single_non_finite_state():
    # a single state is a stack of one; a `PureState` cannot hold one at all
    amps = np.array([0.6, 0.0, 0.0, np.inf])
    with pytest.raises(ValueError, match="stack has non-finite amplitudes"):
        reduced_gram(amps.reshape(1, 2, 2), (0,))
    with pytest.raises(ValueError, match="non-finite amplitudes"):
        PureState((2, 2), amps)


def einsum_trace(psi: PureState, keep) -> np.ndarray:
    """tr over the parties outside `keep` of |psi><psi|, as one explicit einsum:
    ket and bra share the traced indices and keep their own kept ones."""
    n = psi.num_parties
    bra = [n + p if p in keep else p for p in range(n)]
    out = list(keep) + [n + p for p in keep]
    rho = np.einsum(psi.as_tensor(), list(range(n)), psi.as_tensor().conj(), bra, out)
    d = math.prod(psi.dims[p] for p in keep)
    return rho.reshape(d, d)


@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 3, 2)])
def test_reduced_gram_matches_an_einsum_trace(dims):
    psi = random_pure_state(dims, rng=len(dims))
    n = len(dims)
    for size in range(1, n):
        for keep in itertools.combinations(range(n), size):
            assert np.max(np.abs(reduced_gram(psi, keep) - einsum_trace(psi, keep))) < 1e-12


def test_fidelity_of_a_pure_reduced_density_matrix():
    rng = np.random.default_rng(6)
    phi = random_pure_state((2, 2), rng)  # held by parties 0 and 2
    chi = random_pure_state((3,), rng)  # held by party 1
    joint = PureState((2, 3, 2), np.einsum("ik,j->ijk", phi.as_tensor(), chi.amplitudes).reshape(-1))
    for rho in (einsum_trace(joint, (0, 2)), reduced_gram(joint, (0, 2))):
        assert np.vdot(rho, rho).real == pytest.approx(1.0, abs=1e-12)
        for seed in range(3):
            psi = random_pure_state((2, 2), rng=seed)
            assert fidelity(rho, psi) == pytest.approx(abs(np.vdot(phi.amplitudes, psi.amplitudes)) ** 2, abs=1e-12)
    with pytest.raises(ValueError, match="does not match"):
        fidelity(reduced_gram(joint, (0,)), psi)


def test_fidelity_bounds():
    s = random_pure_state((2, 2), rng=2)
    t = random_pure_state((2, 2), rng=3)
    f = fidelity(s, t)
    assert 0.0 <= f <= 1.0
    assert abs(fidelity(s, s) - 1.0) < 1e-12


def test_state_file_roundtrip(tmp_path):
    s = random_pure_state((2, 3), rng=5)
    path = str(tmp_path / "s.json")
    save_state(s, path)
    loaded = load_state(path)
    assert loaded.dims == s.dims
    assert abs(abs(loaded.overlap(s)) - 1.0) < 1e-10


def test_state_file_normalizes_on_load(tmp_path):
    path = tmp_path / "raw.json"
    path.write_text(
        json.dumps(
            {
                "dims": [2],
                "terms": [
                    {"basis": [0], "re": 3.0, "im": 0.0},
                    {"basis": [1], "re": 4.0, "im": 0.0},
                ],
            }
        )
    )
    s = load_state(str(path))
    assert abs(s.basis_amplitude((0,)) - 0.6) < 1e-12
    assert abs(s.basis_amplitude((1,)) - 0.8) < 1e-12


@pytest.mark.parametrize("payload, message", MALFORMED_STATES)
def test_malformed_state_names_the_term(tmp_path, payload, message):
    with pytest.raises(ValueError) as direct:
        state_from_dict(payload)
    assert str(direct.value).startswith(message)
    # a file gets the same message in any layout: older one-token-per-line,
    # minified, and the one-term-per-line layout `save_state` writes
    layouts = {"indent": json.dumps(payload, indent=1), "minified": json.dumps(payload)}
    if isinstance(payload, dict) and isinstance(payload["terms"], list):
        lines = ",\n    ".join(map(json.dumps, payload["terms"]))
        layouts["lines"] = f'{{\n  "dims": {json.dumps(payload["dims"])},\n  "terms": [\n    {lines}\n  ]\n}}\n'
    for name, text in layouts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as loaded:
            load_state(str(path))
        assert str(loaded.value) == str(direct.value)


def test_state_from_dict_takes_numpy_numbers_and_large_integers():
    def payload(zero, one, re, im):
        return {"dims": [2, 2], "terms": [{"basis": [zero, one], "re": re, "im": im}, {"basis": [1, 0], "re": 2**70}]}

    want = state_from_dict(payload(0, 1, 0.25, 3.0)).amplitudes.tobytes()
    got = state_from_dict(payload(np.int64(0), np.int32(1), np.float64(0.25), np.int64(3))).amplitudes.tobytes()
    assert got == want
    with pytest.raises(ValueError, match="state term 0: 're' and 'im' must be numbers"):
        state_from_dict(payload(0, 1, np.bool_(True), 0.0))


def test_pure_state_rejects_zero_vector():
    with pytest.raises(ValueError):
        PureState((2,), np.zeros(2, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    with pytest.raises(ValueError, match="non-finite"):
        PureState((2, 2), np.array([1.0, 0.0, bad, 0.0]))


def test_pure_state_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        PureState((2, 2), np.ones(3, dtype=complex))


@pytest.mark.parametrize("bad", [2.7, 2.0, True, np.bool_(True), "2", np.float64(2.0)])
def test_pure_state_refuses_non_integer_dims_by_name(bad):
    # dims are read by the party rule, so 2.7 is not truncated to 2 nor True to 1
    message = f"expected an integer, not {re.escape(repr(bad))}"
    with pytest.raises(ValueError, match=message):
        PureState((bad, 2, 2), np.ones(8) / 8**0.5)
    with pytest.raises(ValueError, match=message):
        PureState((2, bad, 2), np.ones(8) / 8**0.5)
    with pytest.raises(ValueError, match=message):
        make_state((2, bad), [("00", 1.0)])
    with pytest.raises(ValueError, match=message):
        random_pure_state((bad, 2), rng=0)
    # numpy integers are integers, and are stored as ints
    state = PureState((np.int64(2), np.uint8(1), 2), np.ones(4) / 2)
    assert state.dims == (2, 1, 2) and all(type(d) is int for d in state.dims)


# --- the array state decoder against the per-term one it replaced ----------


def reference_make_state(dims, terms):
    """The per-term builder the array decoder replaced, kept as an oracle."""
    dims = tuple(int(d) for d in dims)
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    any_term = False
    for basis, amplitude in terms:
        digits = tuple(int(ch) for ch in basis) if isinstance(basis, str) else tuple(int(b) for b in basis)
        if len(digits) != len(dims) or not all(0 <= i < d for i, d in zip(digits, dims)):
            raise ValueError(f"bad basis {basis!r}")
        idx = 0
        for digit, d in zip(digits, dims):
            idx = idx * d + digit
        amps[idx] += complex(amplitude)
        any_term = True
    if not any_term:
        raise ValueError("state needs at least one term")
    return PureState(dims, amps)


def reference_state_from_dict(payload):
    terms = [
        (entry["basis"], complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0))))
        for entry in payload["terms"]
    ]
    return reference_make_state(payload["dims"], terms)


@st.composite
def state_payloads(draw):
    """State-file payloads on 1-5 parties with d <= 4: repeated bases, signed
    zeros, and terms that cancel."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    basis = st.tuples(*(st.integers(0, d - 1) for d in dims)).map(list)
    pool = draw(st.lists(basis, min_size=1, max_size=4))
    number = st.one_of(st.sampled_from([0.0, -0.0, 1, -1, 0.5]), st.floats(-4.0, 4.0))
    terms = []
    for _ in range(draw(st.integers(1, 10))):
        term = {"basis": draw(st.sampled_from(pool) | basis)}
        for key in ("re", "im"):
            if draw(st.booleans()):
                term[key] = draw(number)
        terms.append(term)
    return {"dims": dims, "terms": terms}


def decoded(build, *args):
    try:
        return build(*args).amplitudes.tobytes()
    except ValueError:
        return "rejected"


@settings(max_examples=300, deadline=None)
@given(state_payloads())
def test_array_decoder_is_bit_identical_to_the_per_term_one(payload):
    want = decoded(reference_state_from_dict, payload)
    assert decoded(state_from_dict, payload) == want
    # the same terms through make_state, as digit strings and as pairs
    pairs = [(t["basis"], complex(t.get("re", 0.0), t.get("im", 0.0))) for t in payload["terms"]]
    labels = [("".join(map(str, b)), amp) for b, amp in pairs]
    assert decoded(make_state, payload["dims"], labels) == want
    assert decoded(make_state, payload["dims"], pairs) == want


@pytest.mark.parametrize(
    "payload",
    [
        # normalizing turns the subnormal imaginary part into a signed zero
        {"dims": [1], "terms": [{"basis": [0], "re": 2.0}, {"basis": [0], "im": -5e-324}]},
        {"dims": [1], "terms": [{"basis": [0], "re": 1.0, "im": -0.0}]},
        {"dims": [2], "terms": [{"basis": [1], "re": -0.0, "im": -1.0}]},
    ],
)
def test_signed_zeros_round_trip_bit_identically(tmp_path, payload):
    state = state_from_dict(payload)
    path = str(tmp_path / "s.json")
    save_state(state, path)
    assert load_state(path).amplitudes.tobytes() == state.amplitudes.tobytes()
    # every state holds +0.0 for a zero, however it was built
    direct = PureState((2,), np.array([complex(-0.0, -0.0), complex(1.0, -0.0)]))
    for amps in (state.amplitudes, direct.amplitudes):
        parts = amps.view(float)
        assert not np.signbit(parts[parts == 0]).any()


@settings(max_examples=100, deadline=None)
@given(state_payloads())
def test_save_load_round_trips_bit_identically(tmp_path_factory, payload):
    try:
        state = state_from_dict(payload)
    except ValueError:  # every term cancelled
        return
    path = str(tmp_path_factory.mktemp("s") / "s.json")
    save_state(state, path)
    with open(path) as fh:
        assert decoded(reference_state_from_dict, json.load(fh)) == load_state(path).amplitudes.tobytes()
    # tiny amplitudes are not written, so compare only states without them
    if not np.any((np.abs(state.amplitudes) > 0) & (np.abs(state.amplitudes) <= 1e-14)):
        assert load_state(path).amplitudes.tobytes() == state.amplitudes.tobytes()


# --- the state file's layout ------------------------------------------------


def _saved(state, tmp_path):
    path = str(tmp_path / "s.json")
    save_state(state, path)
    return path


def _tiny_term_state():
    # one amplitude at or below the 1e-14 term floor, which is not written
    amps = random_pure_state((3, 4), rng=8).amplitudes.copy()
    amps[5] = 3e-15 - 2e-15j
    return PureState((3, 4), amps)


@pytest.mark.parametrize(
    "state",
    [
        pytest.param(random_pure_state((2, 3), rng=1), id="haar-2x3"),
        pytest.param(random_pure_state((3, 3, 4, 2, 2), rng=2), id="haar-3x3x4x2x2"),
        pytest.param(random_pure_state((2,) * 8, rng=3), id="haar-2^8"),
        pytest.param(PureState((3, 5), np.random.default_rng(4).standard_normal(15)), id="real"),
        pytest.param(_tiny_term_state(), id="tiny-term"),
    ],
)
def test_saved_states_load_bit_for_bit(tmp_path, state):
    want = state.amplitudes.copy()
    want[np.abs(want) <= _TERM_FLOOR] = 0.0
    assert np.array_equal(load_state(_saved(state, tmp_path)).amplitudes, want)


def test_saved_state_file_has_one_term_per_line(tmp_path):
    # 1155 terms: a full block of lines and part of another
    state = random_pure_state((3, 5, 7, 11), rng=2)
    with open(_saved(state, tmp_path), encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    terms = state_to_dict(state)["terms"]
    assert len(terms) == 1155
    assert lines[:3] == ["{", '  "dims": [3, 5, 7, 11],', '  "terms": [']
    assert lines[3:-4] == [f"    {json.dumps(term)}," for term in terms[:-1]]
    assert lines[-4:] == [f"    {json.dumps(terms[-1])}", "  ]", "}", ""]


def test_older_and_minified_layouts_load_to_the_same_state(tmp_path):
    state = random_pure_state((3, 2, 2), rng=6)
    payload = state_to_dict(state)
    legacy, minified = tmp_path / "legacy.json", tmp_path / "min.json"
    with open(legacy, "w", encoding="utf-8") as fh:  # the layout older versions wrote
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    minified.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
    want = load_state(_saved(state, tmp_path)).amplitudes
    for path in (legacy, minified):
        assert np.array_equal(load_state(str(path)).amplitudes, want)


def test_saving_holds_no_more_than_the_old_whole_payload():
    # the older writer held the whole `state_to_dict` payload while it wrote;
    # the blocked writer holds one block of terms (2^16 amplitudes on two
    # parties, as more parties only slow the traced run down)
    state = random_pure_state((256, 256), rng=9)
    peaks = []
    for write in (lambda: state_to_dict(state), lambda: save_state(state, os.devnull)):
        tracemalloc.start()
        try:
            write()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]
