"""Majorization, convertibility verdicts, partial-transpose spectra and the
cat-versus-EPR witness."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rotated, tied_form
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
    _pair_transpose_spectra,
    _turned_amplitudes,
    classify_states,
    ghz_epr_witness,
    majorizes,
)
from entkit.states import (
    PureState,
    canonical_partitions,
    make_state,
    random_pure_state,
    random_unitary,
    reduced_gram,
    tensor,
)


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


@st.composite
def _near_tie_distributions(draw):
    """A distribution p of 1..6 entries and a copy q with one amount t moved
    between two entries, t at or near the 1e-10 tolerance (or anywhere in
    [1e-12, 1e-2]), so prefix sums differ by about the tolerance."""
    n = draw(st.integers(1, 6))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    p = [x / sum(raw) for x in raw]
    t = draw(
        st.one_of(
            st.sampled_from([0.0, 1e-10]),
            st.floats(0.9e-10, 1.1e-10),
            st.floats(1e-12, 1e-2),
        )
    )
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n))
    q = p + [0.0]  # room for a longer q
    q[i] -= min(t, q[i])
    q[j] += min(t, p[i])
    if draw(st.booleans()):
        q, p = p, q
    return q, p


@settings(max_examples=600, deadline=None)
@given(_near_tie_distributions())
def test_majorization_matches_prefix_loop_on_near_ties(pair):
    q, p = pair
    assert majorizes(q, p) == majorizes_oracle(q, p)


@pytest.mark.parametrize("q, p", [([float("nan"), 1.0], [1.0]), ([1.0], [float("nan")])])
def test_majorization_rejects_nan(q, p):
    with pytest.raises(ValueError, match="normalized"):
        majorizes(q, p)


def test_mutual_reducibility_iff_equal_spectra():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = random_pure_state((3, 3), rng)
        b = random_pure_state((3, 3), rng)
        mutual = classify_states(a, b).verdict is ComparisonVerdict.LU_EQUIVALENT
        sa = np.linalg.svd(a.as_tensor(), compute_uv=False) ** 2
        sb = np.linalg.svd(b.as_tensor(), compute_uv=False) ** 2
        same = max(abs(x - y) for x, y in zip(sa, sb)) < 1e-8
        assert mutual == same


def test_bipartite_verdicts():
    rng = np.random.default_rng(8)
    product = make_state((2, 2), [("00", 1.0)])
    biased = make_state((2, 2), [("00", np.sqrt(3)), ("11", 1.0)])

    down = classify_states(epr_pair(), product)
    assert down.verdict is ComparisonVerdict.REDUCIBLE_A_TO_B
    assert str(down) == "ReducibleAToB; target spectrum majorizes the source spectrum"
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


def test_two_party_lu_equivalence():
    rng = np.random.default_rng(21)
    state = random_pure_state((3, 3), rng)
    u = random_unitary(3, rng)
    v = random_unitary(3, rng)
    mat = state.as_tensor()
    rotated = PureState((3, 3), (u @ mat @ v.T).reshape(-1))
    assert classify_states(state, rotated).verdict is ComparisonVerdict.LU_EQUIVALENT
    other = random_pure_state((3, 3), rng)
    assert classify_states(state, other).verdict is not ComparisonVerdict.LU_EQUIVALENT


@pytest.mark.parametrize("shift, equivalent", [(1e-6, False), (1e-10, True)])
def test_lu_equivalence_tolerance_is_fixed_between_1e_10_and_1e_6(shift, equivalent):
    def schmidt_state(p: float) -> PureState:
        return make_state((2, 2), [("00", np.sqrt(p)), ("11", np.sqrt(1.0 - p))])

    rng = np.random.default_rng(22)
    u, v = random_unitary(2, rng), random_unitary(2, rng)
    shifted = schmidt_state(0.6 + shift).as_tensor()
    rotated = PureState((2, 2), (u @ shifted @ v.T).reshape(-1))
    verdict = classify_states(schmidt_state(0.6), rotated).verdict
    assert (verdict is ComparisonVerdict.LU_EQUIVALENT) is equivalent


@st.composite
def _nearby_two_party_pairs(draw):
    """Two Haar-rotated two-party states on (d, d), d = 2..4, whose Schmidt
    weights differ only in one weight moved by eps in [1e-12, 1e-6]."""
    d = draw(st.integers(2, 4))
    raw = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)))
    weights = raw / raw.sum()
    eps = 10.0 ** draw(st.floats(-12.0, -6.0))
    up, down = draw(st.permutations(range(d)))[:2]
    moved = weights.copy()
    moved[up] += eps
    moved[down] -= eps
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rotated(w):
        u, v = random_unitary(d, rng), random_unitary(d, rng)
        return PureState((d, d), (u @ np.diag(np.sqrt(w)) @ v.T).reshape(-1))

    return rotated(weights), rotated(moved)


_SWAPPED = {
    ComparisonVerdict.REDUCIBLE_A_TO_B: ComparisonVerdict.REDUCIBLE_B_TO_A,
    ComparisonVerdict.REDUCIBLE_B_TO_A: ComparisonVerdict.REDUCIBLE_A_TO_B,
}


@settings(max_examples=200, deadline=None)
@given(_nearby_two_party_pairs())
def test_two_party_verdicts_agree_on_nearby_spectra(pair):
    # swapping the states swaps the one-way verdicts and keeps the others
    a, b = pair
    forward, backward = classify_states(a, b).verdict, classify_states(b, a).verdict
    for verdict in ComparisonVerdict:
        assert (forward is verdict) == (backward is _SWAPPED.get(verdict, verdict))


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


def test_w_is_lu_equivalent_to_its_rotations():
    # W's support leaves a phase free, which `_lu_align` pins as a search
    # step; nondegenerate marginals (2/3, 1/3) give the frames
    w = make_state((2, 2, 2), [("001", 1.0), ("010", 1.0), ("100", 1.0)])
    rng = np.random.default_rng(53)
    for _ in range(5):
        image = rotated(w, rng)
        for a, b in ((w, image), (image, w)):
            _assert_carries(classify_states(a, b), a, b)


def test_a_mismatch_after_a_search_pin_is_no_certificate():
    # past the gauge the support {000, 011, 101, 110} leaves three phases,
    # each equation holding two: the peel stalls, and the pinned phase need
    # not be the one solution
    state = make_state((2, 2, 2), {"000": 0.7, "011": 0.5j, "101": 0.4 * np.exp(2j), "110": 0.3})
    rng = np.random.default_rng(59)
    for _ in range(5):
        image = rotated(state, rng)
        for a, b in ((state, image), (image, state)):
            result = classify_states(a, b)
            assert result.verdict in (ComparisonVerdict.LU_EQUIVALENT, ComparisonVerdict.UNKNOWN)
            assert not set(_FRAME_CERTIFICATES) & set(result.details)


def _diagonal_state(p) -> PureState:
    """sum_i sqrt(p_i) |iii>: every cut has spectrum p."""
    return make_state((3, 3, 3), {f"{i}{i}{i}": np.sqrt(x) for i, x in enumerate(p)})


def test_classify_isospectral_entropies_with_different_spectra():
    # (b, b, a) with b = (1 - a) / 2, a < 1/3, and the same 1.5-bit Shannon
    # entropy as (1/2, 1/4, 1/4): H(b, b, a) rises on a in (0, 1/3], so
    # bisection finds it
    def shannon(a):
        b = (1.0 - a) / 2
        return -a * np.log2(a) - 2 * b * np.log2(b)

    lo, hi = 1e-6, 1.0 / 3.0
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if shannon(mid) < 1.5 else (lo, mid)
    a = (lo + hi) / 2
    result = classify_states(
        _diagonal_state([0.5, 0.25, 0.25]), _diagonal_state([(1 - a) / 2, (1 - a) / 2, a])
    )
    assert result.verdict is ComparisonVerdict.INCOMPARABLE
    assert result.witness_partition.label == "A"
    assert str(result) == (
        "Incomparable; fully isentropic but marginal spectra differ across a "
        "partition, which rules out local-unitary equivalence and with it any "
        "reduction either way; witness partition A"
    )


@pytest.mark.parametrize("seed", range(3))
def test_classify_never_guesses_on_rotated_four_party_copies(seed):
    rng = np.random.default_rng([seed, 41])
    state = random_pure_state((2, 2, 2, 2), rng)
    result = classify_states(state, rotated(state, rng))
    assert result.verdict is ComparisonVerdict.LU_EQUIVALENT


# Haar states have nondegenerate marginals, party 2 of (2, 2, 5) with one zero eigenvalue
_FRAME_SHAPES = [(2, 2, 2), (3, 3, 3), (2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 2, 2, 2), (3, 3, 3, 3), (2,) * 6]
_FRAME_CERTIFICATES = ("magnitude", "phase_relation")


def _assert_carries(result, a: PureState, b: PureState):
    assert result.verdict is ComparisonVerdict.LU_EQUIVALENT
    mats = result.details["unitaries"]
    assert all(np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) < 1e-9 for u in mats)
    assert np.max(np.abs(_turned_amplitudes(b, mats) - a.amplitudes)) < 1e-9


@pytest.mark.parametrize("dims", _FRAME_SHAPES + [(2, 2, 5)], ids=str)
def test_rotated_haar_states_are_lu_equivalent_at_every_shape(dims):
    for seed in range(10):
        rng = np.random.default_rng([seed, *dims, 31])
        state = random_pure_state(dims, rng)
        image = rotated(state, rng)
        _assert_carries(classify_states(state, image), state, image)


def _eigenframes(state: PureState) -> list[np.ndarray]:
    """Each party's marginal eigenvectors from `np.linalg.eigh`, columns in
    descending order of eigenvalue."""
    t = state.as_tensor()
    frames = []
    for p in range(state.num_parties):
        rest = [q for q in range(state.num_parties) if q != p]
        frames.append(np.linalg.eigh(np.tensordot(t, t.conj(), axes=(rest, rest)))[1][:, ::-1])
    return frames


def _in_frames(state: PureState, frames) -> np.ndarray:
    t = state.as_tensor()
    for p, v in enumerate(frames):
        t = np.moveaxis(np.tensordot(v.conj().T, t, axes=([1], [p])), 0, p)
    return t


def _check_frame_certificate(result, a: PureState, b: PureState):
    """Recompute the certificate from this module's own eigenframes; the
    phases of eigenvectors are arbitrary, and a relation k with k^T A = 0
    does not see them."""
    assert result.verdict is ComparisonVerdict.INCOMPARABLE
    assert result.witness_partition is None
    ta, tb = _in_frames(a, _eigenframes(a)), _in_frames(b, _eigenframes(b))
    if "magnitude" in result.details:
        entry, defect = result.details["magnitude"]
        assert abs(abs(ta[entry]) - abs(tb[entry]) - defect) < 1e-9
        assert abs(defect) > 1e-6
        return
    relation, defect = result.details["phase_relation"], result.details["phase_defect"]
    for party, d in enumerate(a.dims):
        for level in range(d):
            assert sum(c for digits, c in relation.items() if digits[party] == level) == 0
    assert all(isinstance(c, int) and c != 0 for c in relation.values())
    total = sum(c * np.angle(ta[digits] / tb[digits]) for digits, c in relation.items())
    assert abs((total - defect + np.pi) % (2 * np.pi) - np.pi) < 1e-6
    assert 1e-3 < abs(defect) <= np.pi


@pytest.mark.parametrize("dims", _FRAME_SHAPES, ids=str)
def test_a_state_and_its_conjugate_get_the_frame_certificate(dims):
    for seed in range(10):
        state = random_pure_state(dims, rng=[seed, *dims, 37])
        conjugate = PureState(dims, state.amplitudes.conj())
        for a, b in ((state, conjugate), (conjugate, state)):
            _check_frame_certificate(classify_states(a, b), a, b)


def test_a_real_state_is_lu_equivalent_to_its_conjugate():
    rng = np.random.default_rng(43)
    for dims in _FRAME_SHAPES:
        state = PureState(dims, rng.standard_normal(int(np.prod(dims))))
        for image in (PureState(dims, state.amplitudes.conj()), PureState(dims, rotated(state, rng).amplitudes.conj())):
            _assert_carries(classify_states(state, image), state, image)


def _with_gap(state: PureState, gap: float) -> PureState:
    """`state` with the two largest eigenvalues of party 0's marginal moved
    to their mean -+ gap / 2."""
    u, s, vh = np.linalg.svd(state.as_tensor().reshape(state.dims[0], -1), full_matrices=False)
    weights = s**2
    weights[:2] = weights[:2].mean() + np.array([gap, -gap]) / 2
    return PureState(state.dims, (u * np.sqrt(weights)) @ vh)


def _nudged(state: PureState, rng) -> PureState:
    """`state` moved by 1e-10 in a random direction, well inside the 1e-8
    to which spectra are compared."""
    step = rng.standard_normal(state.dim) + 1j * rng.standard_normal(state.dim)
    return PureState(state.dims, state.amplitudes + 1e-10 * step / np.linalg.norm(step))


@pytest.mark.parametrize("gap", [None, 1e-6, 1e-8])
@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 2, 2, 2)], ids=str)
def test_a_near_degenerate_or_nudged_image_never_gets_the_frame_certificate(dims, gap):
    # a frame moves by about the perturbation over the gap, so the
    # tolerances have to grow as the gap closes
    for seed in range(10):
        rng = np.random.default_rng([seed, *dims, 47])
        state = random_pure_state(dims, rng)
        state = state if gap is None else _with_gap(state, gap)
        for image in (rotated(state, rng), _nudged(rotated(state, rng), rng)):
            for a, b in ((state, image), (image, state)):
                result = classify_states(a, b)
                assert result.verdict in (ComparisonVerdict.LU_EQUIVALENT, ComparisonVerdict.UNKNOWN)
                assert not set(_FRAME_CERTIFICATES) & set(result.details)


def test_classify_entropy_gap_incomparable():
    # each dominates somewhere: A-B EPR vs B-C EPR
    ab = eprs_graph(3, [(0, 1)])
    bc = eprs_graph(3, [(1, 2)])
    result = classify_states(ab, bc)
    assert result.verdict is ComparisonVerdict.INCOMPARABLE
    assert result.witness_partition is not None


def test_ppt_epr_value():
    assert _pair_transpose_spectra(epr_pair())[(0, 1)][-1] == pytest.approx(-0.5, abs=1e-12)
    # beside a bystander the pair keeps its eigenvalue, and the bystander's
    # pairs have none below zero
    spectra = _pair_transpose_spectra(eprs_graph(3, [(0, 1)]))
    assert spectra[(0, 1)][-1] == pytest.approx(-0.5, abs=1e-12)
    assert spectra[(0, 2)][-1] >= -1e-12 and spectra[(1, 2)][-1] >= -1e-12


def test_ppt_separable_state_stays_positive():
    rho = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
    # a purification on a third party C has rho as its A,B reduction
    purified = make_state(
        (2, 2, 4), [((i >> 1, i & 1, i), np.sqrt(w)) for i, w in enumerate([0.4, 0.1, 0.3, 0.2])]
    )
    assert np.allclose(reduced_gram(purified, [0, 1]), rho, atol=1e-12)
    spectrum = _pair_transpose_spectra(purified)[(0, 1)]
    assert spectrum[-1] >= -1e-12
    assert spectrum == pytest.approx([0.4, 0.3, 0.2, 0.1], abs=1e-12)


def partial_transpose_oracle(rho: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """rho^{T_Y} entry by entry: <i l| rho^{T_Y} |k j> = <i j| rho |k l>."""
    out = np.empty_like(rho)
    for i, j, k, l in itertools.product(range(dx), range(dy), range(dx), range(dy)):
        out[i * dy + l, k * dy + j] = rho[i * dy + j, k * dy + l]
    return out


@pytest.mark.parametrize(
    "dims", [(2, 3, 4), (1, 2, 3), (4, 1, 2, 3), (2, 2, 2, 2), (3, 1, 4, 2, 1), (2, 3, 2, 2, 4)]
)
def test_pair_transpose_spectra_match_a_direct_partial_transpose(dims):
    psi = random_pure_state(dims, rng=[len(dims), *dims])
    spectra = _pair_transpose_spectra(psi)
    assert sorted(spectra) == list(itertools.combinations(range(len(dims)), 2))
    for (x, y), got in spectra.items():
        pt = partial_transpose_oracle(reduced_gram(psi, (x, y)), dims[x], dims[y])
        want = np.sort(np.linalg.eigvalsh(pt))[::-1]
        assert np.max(np.abs(got - want)) < 1e-12


def test_pair_transpose_spectra_leave_out_pairs_past_256():
    psi = random_pure_state((17, 16, 1), rng=3)
    assert sorted(_pair_transpose_spectra(psi)) == [(0, 2), (1, 2)]
    psi = random_pure_state((16, 16, 1), rng=3)
    assert sorted(_pair_transpose_spectra(psi)) == [(0, 1), (0, 2), (1, 2)]


def test_local_unitary_images_never_get_the_pair_certificate():
    rng = np.random.default_rng(16)
    verdicts = set()
    for _ in range(200):
        m = int(rng.integers(3, 6))
        dims = tuple(int(d) for d in rng.integers(1, 5, size=m))
        state = random_pure_state(dims, rng)
        result = classify_states(state, rotated(state, rng))
        assert result.verdict is not ComparisonVerdict.INCOMPARABLE
        assert result.verdict in (ComparisonVerdict.LU_EQUIVALENT, ComparisonVerdict.UNKNOWN)
        assert not {"pair", *_FRAME_CERTIFICATES} & set(result.details)
        verdicts.add(result.verdict)
    assert verdicts == {ComparisonVerdict.LU_EQUIVALENT, ComparisonVerdict.UNKNOWN}


def _padded(state: PureState, dims) -> PureState:
    """`state` with its amplitudes placed in larger local dimensions."""
    tensor = np.zeros(dims, dtype=complex)
    tensor[tuple(slice(d) for d in state.dims)] = state.as_tensor()
    return PureState(tuple(dims), tensor.reshape(-1))


@pytest.mark.parametrize(
    "state, dims", [(cat_state(3), (2, 2, 3)), (eprs_complete(3), (4, 4, 5)), (eprs_complete(3), (5, 4, 6))]
)
def test_the_same_state_in_larger_dims_never_gets_the_pair_certificate(state, dims):
    # the partial-transpose spectra gain zeros: padded with zeros and
    # sorted, they agree, negative entries included
    for a, b in ((state, _padded(state, dims)), (_padded(state, dims), state)):
        result = classify_states(a, b)
        assert result.verdict is ComparisonVerdict.UNKNOWN
        assert "pair" not in result.details


def _isospectral_partner(state: PureState, seed: int) -> PureState:
    """A state fitted by least squares to `state`'s spectrum on every cut,
    from a seeded random start."""
    from scipy.optimize import least_squares

    parts = canonical_partitions(state.num_parties)
    target = np.concatenate([np.linalg.eigvalsh(reduced_gram(state, p)) for p in parts])

    def unpack(x):
        amps = x[: state.dim] + 1j * x[state.dim :]
        return PureState(state.dims, amps / np.linalg.norm(amps))

    def residual(x):
        trial = unpack(x)
        return np.concatenate([np.linalg.eigvalsh(reduced_gram(trial, p)) for p in parts]) - target

    start = random_pure_state(state.dims, rng=[seed, 7]).amplitudes
    fit = least_squares(residual, np.concatenate([start.real, start.imag]), xtol=1e-15, ftol=1e-15, gtol=1e-15)
    assert np.max(np.abs(residual(fit.x))) < 1e-12
    return unpack(fit.x)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3), (2, 2, 2, 2)])
@pytest.mark.parametrize("seed", range(4))
def test_isospectral_states_are_told_apart_by_a_pair(dims, seed):
    # the marginals are nondegenerate, so the frame certificate comes first;
    # the pair invariant tells the states apart as well
    state = random_pure_state(dims, rng=[seed, 16])
    partner = _isospectral_partner(state, seed)
    pairs_a, pairs_b = _pair_transpose_spectra(state), _pair_transpose_spectra(partner)
    assert any(np.max(np.abs(pairs_a[pair] - pairs_b[pair])) > 1e-6 for pair in pairs_a)
    for a, b in ((state, partner), (partner, state)):
        result = classify_states(a, b)
        assert result.verdict is ComparisonVerdict.INCOMPARABLE
        assert result.witness_partition is None
        if "pair" in result.details:
            x, y = result.details["pair"]
            assert 0 <= x < y < len(dims)
        else:
            _check_frame_certificate(result, a, b)


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
    cats, eprs = cat_power(3, 2), eprs_complete(3)
    for a, b, mins in ((cats, eprs, (0.0, -0.125)), (eprs, cats, (-0.125, 0.0))):
        result = classify_states(a, b)
        assert result.verdict is ComparisonVerdict.INCOMPARABLE
        assert result.witness_partition is None
        assert result.details["pair"] == (0, 1)
        got = (result.details["min_eigenvalue_a"], result.details["min_eigenvalue_b"])
        assert got == pytest.approx(mins, abs=1e-12)


def test_cat_copies_against_eprs_up_to_the_pair_limit():
    # n cats against n - 2 cats beside the EPR triangle: every partial
    # entropy is n bits. At (16, 16, 16) each pair is 256 x 256 and is
    # certified; at (32, 32, 32) every pair is past the limit, and only the
    # cats are m-orthogonal
    for n, certificate in ((4, "pair"), (5, "m_orthogonal")):
        mixed = tensor(cat_power(3, n - 2), eprs_complete(3), {0: 0, 1: 1, 2: 2})
        for a, b, which in ((cat_power(3, n), mixed, "A"), (mixed, cat_power(3, n), "B")):
            result = classify_states(a, b)
            assert result.verdict is ComparisonVerdict.INCOMPARABLE
            assert result.witness_partition is None
            assert certificate in result.details
    assert result.details == {"m_orthogonal": "B"}
    assert result.reason.startswith("fully isentropic and isospectral, but only B is m-orthogonal (the other: ")


@pytest.mark.parametrize("state", [cat_state(3), cat_state(4), cat_power(3, 2)], ids=["ghz", "cat4", "2ghz"])
def test_rotated_cats_are_lu_equivalent_through_their_forms(state):
    # degenerate marginals have no canonical frame, so `_lu_align` gives
    # no verdict; the two m-orthogonal forms give the unitaries instead
    rng = np.random.default_rng([state.num_parties, state.dim, 29])
    for _ in range(3):
        image = rotated(state, rng)
        result = classify_states(state, image)
        assert result.verdict is ComparisonVerdict.LU_EQUIVALENT
        assert result.reason.startswith("both states are m-orthogonal with equal coefficients")
        mats = result.details["unitaries"]
        assert all(np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) < 1e-9 for u in mats)
        assert np.max(np.abs(_turned_amplitudes(image, mats) - state.amplitudes)) < 1e-9


def test_a_tied_form_is_lu_equivalent_to_its_rotations():
    # party 2's marginal has three zero eigenvalues, so `_lu_align` gives no
    # verdict and the forms decide; their contraction Grams tie on the
    # unrotated side only
    rng = np.random.default_rng(5)
    for _ in range(5):
        state = tied_form(rng)
        image = rotated(state, rng)
        for a, b in ((state, image), (image, state)):
            result = classify_states(a, b)
            assert result.verdict is ComparisonVerdict.LU_EQUIVALENT
            moved = _turned_amplitudes(b, result.details["unitaries"])
            assert np.max(np.abs(moved - a.amplitudes)) < 1e-9


def _spread_free_state(rng) -> tuple[PureState, bool]:
    """A state whose partial entropies all agree, so that `classify_states`
    reaches its m-orthogonality step on it and its images, and whether it
    is m-orthogonal: a form on up to five parties, degenerate or not, or one
    of two states without a form."""
    kind = int(rng.integers(4))
    if kind == 3:
        beside = tensor(cat_state(3), eprs_complete(3), {0: 0, 1: 1, 2: 2})
        return [beside, eprs_complete(3)][int(rng.integers(2))], False
    m, d = int(rng.integers(3, 6)), int(rng.integers(1, 5))
    c = np.ones(d) if kind == 2 else rng.uniform(0.1, 1.0, d)
    t = np.zeros(tuple(int(x) for x in rng.integers(d, 5, size=m)), dtype=complex)
    for i, x in enumerate(c / np.linalg.norm(c)):
        t[(i,) * m] = x * np.exp(2j * np.pi * rng.random())
    return PureState(t.shape, t.reshape(-1)), True


def test_local_unitary_images_are_never_incomparable():
    rng = np.random.default_rng(215)
    forms = 0
    for _ in range(200):
        state, has_form = _spread_free_state(rng)
        result = classify_states(state, rotated(state, rng))
        # the pairs without a form have degenerate marginals, on which `_lu_align` gives no verdict
        want = ComparisonVerdict.LU_EQUIVALENT if has_form else ComparisonVerdict.UNKNOWN
        assert result.verdict is want
        forms += has_form
    assert 100 < forms < 200


def test_classify_builds_each_entropy_vector_once(record_calls):
    calls = record_calls("_spectra_and_entropies", "entkit.entropy", "entkit.reducibility")

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

    # two parties: the verdict reads the same cut spectra
    calls.clear()
    result = classify_states(epr_pair(), make_state((2, 2), [("00", 1.0)]))
    assert result.verdict is ComparisonVerdict.REDUCIBLE_A_TO_B
    assert len(calls) == 2


def test_ghz_epr_witness_computes_each_states_spectra_once(record_calls):
    calls = record_calls("_spectra_and_entropies", "entkit.entropy", "entkit.reducibility")
    report = ghz_epr_witness()
    assert report.verdict is ComparisonVerdict.INCOMPARABLE
    assert len(calls) == 2
