import itertools
import json
import math

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
    refine_to_qubits,
    save_state,
    state_from_dict,
    tensor,
)


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


def test_refine_to_qubits():
    s = random_pure_state((4, 2), rng=4)
    refined, groups = refine_to_qubits(s)
    assert refined.dims == (2, 2, 2)
    assert groups == [[0, 1], [2]]
    assert abs(abs(refined.amplitudes @ s.amplitudes.conj()) - 1.0) < 1e-12


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
def test_malformed_state_names_the_term(payload, message):
    with pytest.raises(ValueError) as excinfo:
        state_from_dict(payload)
    assert str(excinfo.value).startswith(message)


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
