"""Schmidt machinery, the m-orthogonality test, and the type-class
combinatorics behind concentration and dilution."""
import collections
import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rotated, tied_form
from entkit.builders import cat_power, cat_state, codeword5, eprs_chain, eprs_complete
from entkit.entropy import entropy_vector
from entkit.schmidt import (
    _FLOAT_OVERFLOW,
    TypeBranch,
    _log2_int,
    _mean_yield,
    _retained_fidelity,
    _type_classes,
    cat_yield,
    concentration_yield_distribution,
    dilution_retained_types,
    is_m_orthogonal,
    schmidt_decompose,
)
from entkit.states import (
    PureState,
    canonical_partitions,
    make_state,
    permute_parties,
    random_pure_state,
    random_unitary,
    tensor,
)


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (3, 2, 4), (2, 2, 2, 2)])
def test_schmidt_reconstructs(dims):
    rng = np.random.default_rng(sum(dims))
    state = random_pure_state(dims, rng)
    for size in range(1, len(dims)):
        cut = tuple(range(size))
        d = schmidt_decompose(state, cut)
        rebuilt = d.to_state()
        assert abs(abs(rebuilt.overlap(state)) - 1.0) < 1e-9
        weights = d.coefficients**2
        assert abs(weights.sum() - 1.0) < 1e-9


def test_every_cut_rebuilds_and_pins_the_ket_convention():
    # both sides of every cut, most of which do not start at party 0: the
    # far-side columns are kets, so <u_i (x) v_i|psi> is the coefficient
    dims = (2, 3, 2, 2)
    state = random_pure_state(dims, np.random.default_rng(23))
    for part in canonical_partitions(len(dims)):
        for side in (part, part.complement()):
            d = schmidt_decompose(state, side)
            near, far = d.parties
            assert near == side.members and far == side.complement().members
            assert np.max(np.abs(d.to_state().amplitudes - state.amplitudes)) < 1e-12
            order = np.argsort(near + far)
            shape = tuple(dims[p] for p in near + far)
            for i, c in enumerate(d.coefficients):
                ket = np.outer(d.vectors[0][:, i], d.vectors[1][:, i])
                ket = ket.reshape(shape).transpose(order).reshape(-1)
                assert abs(np.vdot(ket, state.amplitudes) - c) < 1e-12


def test_schmidt_sides_orthonormal():
    state = random_pure_state((4, 6), np.random.default_rng(9))
    d = schmidt_decompose(state, (0,))
    for v in d.vectors:
        assert np.linalg.norm(v.conj().T @ v - np.eye(d.rank)) < 1e-9


def test_schmidt_rank_product_state():
    product = make_state((2, 2), [("00", 1.0)])
    assert schmidt_decompose(product, (0,)).rank == 1


def test_biased_pair_coefficients():
    state = make_state((2, 2), [("00", math.sqrt(3)), ("11", 1.0)])
    d = schmidt_decompose(state, (0,))
    assert d.coefficients[0] ** 2 == pytest.approx(0.75, abs=1e-12)
    assert d.coefficients[1] ** 2 == pytest.approx(0.25, abs=1e-12)


def test_cat_is_m_orthogonal():
    for m in (3, 4):
        result = is_m_orthogonal(cat_state(m))
        assert result.decomposable is True
        assert result.form is not None
        rebuilt = result.form.to_state()
        assert abs(abs(rebuilt.overlap(cat_state(m))) - 1.0) < 1e-9


def test_biased_threeparty_state_decomposes():
    state = make_state((2, 2, 2), [("000", math.sqrt(3)), ("111", 1.0)])
    result = is_m_orthogonal(state)
    assert result.decomposable is True
    weights = sorted(c**2 for c in result.form.coefficients)
    assert weights == pytest.approx([0.25, 0.75], abs=1e-12)


def test_w_state_not_decomposable():
    w = make_state((2, 2, 2), [("001", 1.0), ("010", 1.0), ("100", 1.0)])
    result = is_m_orthogonal(w)
    assert result.decomposable is False
    assert result.reason == (
        "two contractions of the first-party Schmidt partners and the first-party "
        "spectrum do not commute (defect 1.260e-01)"
    )


def test_two_cat_copies_decompose():
    result = is_m_orthogonal(cat_power(3, 2))
    assert result.decomposable is True
    assert result.form.rank == 4


def test_rotated_cat_copies_decompose():
    # rotating one party mixes the degenerate local eigenbasis; the common
    # eigenbasis of the contraction Grams undoes the mixing
    state = cat_power(3, 2)
    u = random_unitary(4, np.random.default_rng(3))
    tensorized = np.tensordot(u, state.as_tensor(), axes=([1], [0]))
    rotated = PureState(state.dims, tensorized.reshape(-1))
    result = is_m_orthogonal(rotated)
    assert (result.decomposable, result.reason) == (True, "decomposition found")
    assert np.max(np.abs(result.form.to_state().amplitudes - rotated.amplitudes)) < 1e-12
    assert np.max(np.abs(result.form.coefficients - 0.5)) < 1e-12


@pytest.mark.parametrize("weights", [(0.6, 0.4), (0.5, 0.5)])
def test_product_branches_with_overlapping_vectors(weights):
    # sqrt(w0)|0>|0>|c0> + sqrt(w1)|1>|1>|c1> with <c0|c1> = 1e-5: every
    # branch is a product and every entropy agrees to about 1e-10, so only
    # the orthogonality check at party C can fail; the form is unique, equal
    # weights or not, so that failure is a no
    eps = 1e-5
    t = np.zeros((2, 2, 2))
    t[0, 0] = math.sqrt(weights[0]) * np.array([1.0, 0.0])
    t[1, 1] = math.sqrt(weights[1]) * np.array([eps, math.sqrt(1 - eps**2)])
    result = is_m_orthogonal(PureState((2, 2, 2), t.reshape(-1)))
    reason = "party 2 vectors for branches 0 and 1 are not orthogonal (|<i|j>| = 1.000e-05)"
    assert (result.decomposable, result.form, result.reason) == (False, None, reason)


def test_random_state_rejected():
    state = random_pure_state((2, 2, 2), np.random.default_rng(12))
    result = is_m_orthogonal(state)
    assert result.decomposable is False


def rotated_cat(coefficients, phases, m, rng) -> PureState:
    """sum_i c_i e^{i phi_i} |i...i> on m parties, each then rotated by its
    own Haar-random unitary."""
    d = len(coefficients)
    t = np.zeros((d,) * m, dtype=complex)
    for i, (c, phi) in enumerate(zip(coefficients, phases)):
        t[(i,) * m] = c * np.exp(1j * phi)
    return rotated(PureState((d,) * m, t.reshape(-1)), rng)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("d", [2, 3])
def test_complex_rotated_cats_decompose(m, d):
    rng = np.random.default_rng(100 * m + d)
    for _ in range(25):
        c = np.sort(rng.uniform(0.1, 1.0, d))
        while np.min(np.diff(c)) < 0.02:
            c = np.sort(rng.uniform(0.1, 1.0, d))
        c /= np.linalg.norm(c)
        state = rotated_cat(c, rng.uniform(0, 2 * np.pi, d), m, rng)
        result = is_m_orthogonal(state)
        assert result.decomposable is True, result.reason
        form = result.form
        assert form.parties == tuple((p,) for p in range(m))
        assert abs(form.to_state().overlap(state)) ** 2 >= 1.0 - 1e-9
        assert np.max(np.abs(form.to_state().amplitudes - state.amplitudes)) < 1e-9
        assert np.max(np.abs(form.coefficients - c[::-1])) < 1e-9
        weights = c**2
        assert abs(cat_yield(state) + float(np.sum(weights * np.log2(weights)))) < 1e-12


def test_complex_two_party_form_reproduces_the_state():
    state = make_state((2, 2), [("00", math.sqrt(0.7)), ("11", 1j * math.sqrt(0.3))])
    result = is_m_orthogonal(state)
    assert result.decomposable is True
    assert np.max(np.abs(result.form.to_state().amplitudes - state.amplitudes)) < 1e-12


def test_cat_yield_values():
    assert cat_yield(cat_state(3)) == pytest.approx(1.0, abs=1e-12)
    assert cat_yield(cat_power(3, 2)) == pytest.approx(2.0, abs=1e-12)
    biased = make_state((2, 2, 2), [("000", math.sqrt(3)), ("111", 1.0)])
    assert cat_yield(biased) == pytest.approx(0.8112781244591328, abs=1e-12)


def m_orthogonal_state(coefficients, dims, rng) -> PureState:
    """sum_i c_i e^{i phi_i} |i...i> on `dims`, each party then rotated."""
    t = np.zeros(dims, dtype=complex)
    for i, c in enumerate(coefficients):
        t[(i,) * len(dims)] = c * np.exp(2j * np.pi * rng.random())
    return rotated(PureState(tuple(dims), t.reshape(-1)), rng)


W_STATE = make_state((2, 2, 2), [("001", 1.0), ("010", 1.0), ("100", 1.0)])
CERTIFICATES = (
    "partial entropies are not constant across partitions",
    "two contractions of the first-party Schmidt partners",
    "branch ",
    "party ",
    "assembled form has fidelity",
)


def assert_reproduces(state: PureState, coefficients) -> None:
    result = is_m_orthogonal(state)
    assert (result.decomposable, result.reason) == (True, "decomposition found")
    assert np.max(np.abs(result.form.to_state().amplitudes - state.amplitudes)) < 1e-10
    assert np.max(np.abs(result.form.coefficients - np.sort(coefficients)[::-1])) < 1e-10


@pytest.mark.parametrize(
    "state",
    [cat_state(m) for m in range(3, 7)] + [cat_power(3, k) for k in (1, 2, 3)],
    ids=[f"cat{m}" for m in range(3, 7)] + [f"{k}ghz" for k in (1, 2, 3)],
)
def test_rotated_cats_decompose(state):
    # every coefficient is the same, so the first-party spectrum says
    # nothing about the basis
    rng = np.random.default_rng([state.num_parties, state.dim])
    rank = round(2 ** entropy_vector(state)[(0,)])
    for _ in range(3):
        assert_reproduces(rotated(state, rng), np.full(rank, rank**-0.5))


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("degenerate", [False, True])
def test_random_m_orthogonal_states_decompose(m, degenerate):
    rng = np.random.default_rng([m, degenerate, 15])
    for _ in range(20):
        d = int(rng.integers(2, 5))
        dims = tuple(int(x) for x in rng.integers(d, 5, size=m))
        c = rng.uniform(0.1, 1.0, d)
        if degenerate:
            c[: d // 2 + 1] = c[0]
        c /= np.linalg.norm(c)
        assert_reproduces(m_orthogonal_state(c, dims, rng), c)


def test_a_tie_of_both_draws_never_mixes_distinct_coefficients():
    # both contraction Grams are multiples of the identity, so only the
    # first-party spectrum can keep the two branches apart
    rng = np.random.default_rng(2)
    for _ in range(10):
        assert_reproduces(tied_form(rng), [0.8, 0.6])


NO_FORM = {
    "3epr": eprs_complete(3),
    "chain4": eprs_chain(4),
    "chain5": eprs_chain(5),
    "eprs4": eprs_complete(4),
    "eprs5": eprs_complete(5),
    "codeword5": codeword5(),
    "w": W_STATE,
}


@pytest.mark.parametrize("state", NO_FORM.values(), ids=NO_FORM.keys())
def test_states_without_a_form_are_refused_with_a_certificate(state):
    rng = np.random.default_rng(state.dim)
    for s in (state, rotated(state, rng)):
        result = is_m_orthogonal(s)
        assert (result.decomposable, result.form) == (False, None)
        assert result.reason.startswith(CERTIFICATES)
        with pytest.raises(ValueError, match="not Schmidt decomposable"):
            cat_yield(s)


def test_three_eprs_fail_the_commutator_certificate():
    # every cut carries two bits, so the entropies cannot tell it from 2ghz
    result = is_m_orthogonal(eprs_complete(3))
    assert result.reason.startswith("two contractions of the first-party Schmidt partners")


def test_haar_states_are_refused_by_their_entropy_spread():
    rng = np.random.default_rng(200)
    for _ in range(200):
        dims = tuple(int(d) for d in rng.integers(2, 5, size=int(rng.integers(3, 6))))
        result = is_m_orthogonal(random_pure_state(dims, rng))
        assert result.decomposable is False
        assert result.reason.startswith(CERTIFICATES[0])


@st.composite
def _states_and_moves(draw):
    """A state of one of several kinds, with a seed for local unitaries and
    a party permutation."""
    m = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["form", "degenerate form", "haar", "w", "3epr", "ghz beside 3epr"]))
    if kind.endswith("form"):
        d = draw(st.integers(1, 4))
        c = rng.uniform(0.1, 1.0, d)
        if kind == "degenerate form":
            c[:] = 1.0
        dims = tuple(int(x) for x in rng.integers(d, 5, size=m))
        state = m_orthogonal_state(c / np.linalg.norm(c), dims, rng)
    elif kind == "haar":
        state = random_pure_state(tuple(int(x) for x in rng.integers(2, 4, size=m)), rng)
    else:
        m = 3
        state = {"w": W_STATE, "3epr": eprs_complete(3)}.get(kind)
        if state is None:
            state = tensor(cat_state(3), eprs_complete(3), {0: 0, 1: 1, 2: 2})
    return state, rng, draw(st.permutations(range(m)))


@settings(max_examples=60, deadline=None)
@given(_states_and_moves())
def test_the_verdict_ignores_local_unitaries_and_party_order(case):
    state, rng, perm = case
    verdict = is_m_orthogonal(state).decomposable
    assert is_m_orthogonal(rotated(state, rng)).decomposable is verdict
    assert is_m_orthogonal(permute_parties(state, perm)).decomposable is verdict


def test_concentration_small_n_by_hand():
    # n=2, p=(3/4,1/4): types (2,0), (1,1), (0,2) with multiplicities 1,2,1
    branches = concentration_yield_distribution([0.75, 0.25], 2)
    table = {b.counts: b for b in branches}
    assert table[(2, 0)].probability == pytest.approx(9 / 16, abs=1e-12)
    assert table[(1, 1)].probability == pytest.approx(6 / 16, abs=1e-12)
    assert table[(0, 2)].probability == pytest.approx(1 / 16, abs=1e-12)
    assert table[(1, 1)].size == 2
    assert table[(1, 1)].yield_bits == pytest.approx(1.0, abs=1e-12)
    assert table[(1, 1)].yield_floor == 1
    assert table[(2, 0)].yield_floor == 0
    assert _mean_yield(branches) == pytest.approx(6 / 16, abs=1e-12)


def test_concentration_probabilities_sum_to_one():
    for n in (1, 5, 17):
        branches = concentration_yield_distribution([0.5, 0.3, 0.2], n)
        assert sum(b.probability for b in branches) == pytest.approx(1.0, abs=1e-9)


def test_concentration_yield_matches_brute_force():
    # the type-class yield must agree with enumerating all 2^n strings
    p = [0.75, 0.25]
    n = 8
    from collections import Counter

    by_type = Counter()
    for string in range(2**n):
        ones = bin(string).count("1")
        by_type[(n - ones, ones)] += 1
    branches = {b.counts: b for b in concentration_yield_distribution(p, n)}
    for counts, size in by_type.items():
        assert branches[counts].size == size
        per_string = p[0] ** counts[0] * p[1] ** counts[1]
        assert branches[counts].probability == pytest.approx(
            size * per_string, abs=1e-12
        )


@pytest.mark.parametrize("letters", [1, 2, 3, 4])
@pytest.mark.parametrize("n", range(1, 7))
def test_type_classes_match_brute_force(letters, n):
    probs = [x / sum(range(1, letters + 1)) for x in range(1, letters + 1)]
    sizes = collections.Counter()
    per_string = {}
    for string in itertools.product(range(letters), repeat=n):
        counts = tuple(string.count(x) for x in range(letters))
        sizes[counts] += 1
        per_string[counts] = math.prod(probs[x] for x in string)
    classes = list(_type_classes(probs, n))
    assert [c[0] for c in classes] == sorted(sizes)
    assert {c[0]: c[2] for c in classes} == sizes
    for counts, p, _ in classes:
        assert p == pytest.approx(per_string[counts], rel=1e-12)


def test_type_classes_skip_zero_probability_letters():
    classes = list(_type_classes([0.5, 0.0, 0.5], 3))
    assert [c[0] for c in classes] == [(0, 0, 3), (1, 0, 2), (2, 0, 1), (3, 0, 0)]
    assert [c[2] for c in classes] == [1, 3, 3, 1]


def _reference_multinomial(counts):
    out = 1
    seen = 0
    for c in counts:
        seen += c
        out *= math.comb(seen, c)
    return out


def _reference_type_classes(probs, n):
    """The per-class enumerator that the power-table one replaced: stars and
    bars over cut points, one `pow` and one `math.comb` per letter."""
    p = [float(x) for x in probs]
    total = sum(p)
    p = [x / total for x in p]
    for cuts in itertools.combinations_with_replacement(range(n + 1), len(p) - 1):
        counts = tuple(map(operator.sub, cuts + (n,), (0,) + cuts))
        per_string = math.prod(map(pow, p, counts))
        if per_string != 0.0:
            yield counts, per_string, _reference_multinomial(counts)


def _reference_concentration(probs, n):
    return [
        (counts, float(size) * per_string, size, _log2_int(size), size.bit_length() - 1)
        for counts, per_string, size in _reference_type_classes(probs, n)
    ]


def _reference_dilution(probs, n, k):
    types = sorted(_reference_type_classes(probs, n), key=lambda t: (-t[1], t[0]))
    budget = 1 << k
    rows = []
    for counts, per_string, size in types:
        take = min(size, budget)
        rows.append((counts, per_string, size, take))
        budget -= take
        if budget == 0:
            break
    return rows


def _bits(row):
    """A row with every float replaced by its exact hex spelling."""
    return tuple(x.hex() if isinstance(x, float) else x for x in row)


# letters -> largest n drawn, so that no example has more than ~12k classes
_MAX_COPIES = {1: 80, 2: 80, 3: 80, 4: 40, 5: 20}


@st.composite
def _weights_and_copies(draw):
    letters = draw(st.integers(1, 5))
    numerators = draw(st.lists(st.integers(0, 12), min_size=letters, max_size=letters))
    if not any(numerators):
        numerators[draw(st.integers(0, letters - 1))] = 1
    denominators = draw(st.lists(st.integers(1, 12), min_size=letters, max_size=letters))
    weights = [Fraction(a, b) for a, b in zip(numerators, denominators)]
    total = sum(weights)
    probs = [float(w / total) for w in weights]
    return probs, draw(st.integers(1, _MAX_COPIES[letters]))


@settings(max_examples=150, deadline=None)
@given(_weights_and_copies(), st.integers(0, 12))
def test_type_classes_bit_identical_to_the_per_class_enumerator(case, k):
    probs, n = case
    want = list(_reference_type_classes(probs, n))
    counts, per_string, sizes = _type_classes(probs, n).columns
    assert list(zip(*counts)) == [c for c, _, _ in want]
    assert [p.hex() for p in per_string.tolist()] == [p.hex() for _, p, _ in want]
    assert sizes == [s for _, _, s in want]
    branches = concentration_yield_distribution(probs, n)
    assert all(type(b) is TypeBranch for b in branches)
    assert list(zip(*branches.columns.counts)) == [c for c, _, _ in want]
    assert [_bits(b) for b in branches] == [_bits(r) for r in _reference_concentration(probs, n)]
    assert all(type(x) is float for x in branches.columns.probability + branches.columns.yield_bits)
    retained = dilution_retained_types(probs, n, k)
    assert [_bits(r) for r in retained] == [_bits(r) for r in _reference_dilution(probs, n, k)]
    assert all(type(x) is float for x in retained.columns[1])


def test_tables_index_and_unpack_like_row_lists():
    branches = concentration_yield_distribution([0.5, 0.3, 0.2], 4)
    rows = list(branches)
    assert len(branches) == len(rows) == 15
    assert [branches[i] for i in range(-15, 15)] == rows + rows
    assert branches[2:7:2] == rows[2:7:2]
    with pytest.raises(IndexError):
        branches[15]
    counts, probability, size, yield_bits, yield_floor = branches[-1]
    assert (counts, size, yield_floor) == ((4, 0, 0), 1, 0)
    retained = dilution_retained_types([0.5, 0.3, 0.2], 4, 3)
    assert [len(row) for row in retained] == [4] * len(retained)
    assert sum(kept for _, _, _, kept in retained) == 8


def test_type_branch_is_an_immutable_named_tuple():
    (branch,) = concentration_yield_distribution([1.0], 3)
    assert TypeBranch._fields == ("counts", "probability", "size", "yield_bits", "yield_floor")
    assert branch == ((3,), 1.0, 1, 0.0, 0)
    with pytest.raises(AttributeError):
        branch.size = 2


def test_float_overflow_is_the_first_integer_float_cannot_hold():
    assert float(_FLOAT_OVERFLOW - 1) == 1.7976931348623157e308
    with pytest.raises(OverflowError):
        float(_FLOAT_OVERFLOW)


@pytest.mark.parametrize(
    "probs, n",
    [
        ([0.5, 0.5], 1050),  # C(1050, 525) has no float
        ([0.9, 0.1], 3000),  # nor do the likeliest class sizes here
        ([0.5, 0.5], 1100),  # every per-string 2^-1100 underflows to 0.0
    ],
)
def test_classes_lost_to_the_float_range_are_an_error(probs, n):
    with pytest.raises(ValueError, match=f"n = {n} is past the float range"):
        concentration_yield_distribution(probs, n)
    with pytest.raises(ValueError, match=f"n = {n} is past the float range"):
        dilution_retained_types(probs, n, n - 1)


def test_classes_lost_below_2_to_the_minus_53_are_dropped():
    # the 81 classes with 320 or more of the 1/10 letter underflow; together
    # they hold about 2^-790.7
    branches = concentration_yield_distribution([0.9, 0.1], 400)
    assert [b.counts for b in branches] == [(400 - c, c) for c in range(319, -1, -1)]
    assert [_bits(b) for b in branches] == [
        _bits(r) for r in _reference_concentration([0.9, 0.1], 400)
    ]


def test_rejects_probabilities_summing_to_nan():
    with pytest.raises(ValueError, match="sum to nan"):
        list(_type_classes([float("nan"), 1.0], 3))


def test_concentration_gap_shrinks():
    p = [0.75, 0.25]
    target = 0.8112781244591328
    gaps = [
        target - _mean_yield(concentration_yield_distribution(p, n)) / n for n in (25, 50, 100, 200)
    ]
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_dilution_fidelity_monotone_in_k():
    p = [0.75, 0.25]
    for n in (1, 2, 5, 9):
        values = [_retained_fidelity(dilution_retained_types(p, n, k)) for k in range(0, n + 2)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-12)


def test_dilution_fidelity_endpoints():
    p = [0.75, 0.25]
    # k=0 keeps only the single most likely string
    assert _retained_fidelity(dilution_retained_types(p, 2, 0)) == pytest.approx(0.5625, abs=1e-12)
    assert _retained_fidelity(dilution_retained_types(p, 2, 1)) == pytest.approx(0.75, abs=1e-12)
    assert _retained_fidelity(dilution_retained_types(p, 2, 2)) == pytest.approx(1.0, abs=1e-12)


def test_dilution_fidelity_uniform_counts_strings():
    # uniform weights: fidelity is simply (strings kept) / (total strings)
    fidelity = _retained_fidelity(dilution_retained_types([0.5, 0.5], 4, 2))
    assert fidelity == pytest.approx(0.25, abs=1e-12)


def test_dilution_retained_types_budget():
    p = [0.75, 0.25]
    rows = dilution_retained_types(p, 4, 2)
    kept = sum(k for _, _, _, k in rows)
    assert kept <= 4
    # greedy: per-string probabilities nonincreasing down the list
    probs = [q for _, q, _, _ in rows]
    assert all(a >= b - 1e-15 for a, b in zip(probs, probs[1:]))


@pytest.mark.parametrize("n, k", [(0, 1), (2, -1)])
def test_dilution_rejects_bad_copy_count_and_budget(n, k):
    p = [0.75, 0.25]
    with pytest.raises(ValueError):
        dilution_retained_types(p, n, k)


@pytest.mark.parametrize("cut", [(7,), (-1,)])
def test_schmidt_decompose_rejects_out_of_range_cut(cut):
    with pytest.raises(ValueError, match="out of range"):
        schmidt_decompose(cat_state(3), cut)
