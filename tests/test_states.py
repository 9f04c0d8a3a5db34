import json

import numpy as np
import pytest

from entkit.states import (
    Partition,
    PureState,
    canonical_partitions,
    fidelity,
    load_state,
    make_state,
    partial_trace,
    party_letters,
    permute_parties,
    random_pure_state,
    reduced_gram,
    refine_to_qubits,
    save_state,
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
    rho = partial_trace(joint, keep=(1,))
    expect = np.full((2, 2), 0.5)
    assert np.linalg.norm(rho.matrix - expect) < 1e-12


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
