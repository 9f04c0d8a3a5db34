import itertools
import json

import numpy as np
import pytest

from conftest import MALFORMED_STATES

from entkit.states import (
    DensityMatrix,
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
    rho = partial_trace(joint, keep=(1,))
    expect = np.full((2, 2), 0.5)
    assert np.linalg.norm(rho.matrix - expect) < 1e-12


def density(state: PureState) -> DensityMatrix:
    return DensityMatrix(state.dims, np.outer(state.amplitudes, state.amplitudes.conj()))


@pytest.mark.parametrize("dims", [(2, 3, 2), (2, 2, 3, 2)])
def test_density_matrix_partial_trace_in_steps_matches_direct(dims):
    psi = random_pure_state(dims, rng=len(dims))
    rho = density(psi)
    n = len(dims)
    for size in range(1, n):
        for keep in itertools.combinations(range(n), size):
            # trace out one party at a time, last first so indices stay put
            stepped = rho
            for p in reversed([p for p in range(n) if p not in keep]):
                stepped = partial_trace(stepped, [q for q in range(len(stepped.dims)) if q != p])
            direct = partial_trace(rho, keep)
            from_pure = partial_trace(psi, keep)
            assert stepped.dims == direct.dims == from_pure.dims
            assert np.max(np.abs(stepped.matrix - from_pure.matrix)) < 1e-12
            assert np.max(np.abs(direct.matrix - from_pure.matrix)) < 1e-12


def test_fidelity_of_a_pure_reduced_density_matrix():
    rng = np.random.default_rng(6)
    phi = random_pure_state((2, 2), rng)  # held by parties 0 and 2
    chi = random_pure_state((3,), rng)  # held by party 1
    joint = PureState((2, 3, 2), np.einsum("ik,j->ijk", phi.as_tensor(), chi.amplitudes).reshape(-1))
    for rho in (partial_trace(density(joint), (0, 2)), partial_trace(joint, (0, 2))):
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)
        for seed in range(3):
            psi = random_pure_state((2, 2), rng=seed)
            assert fidelity(rho, psi) == pytest.approx(abs(np.vdot(phi.amplitudes, psi.amplitudes)) ** 2, abs=1e-12)


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
