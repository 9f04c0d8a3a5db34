"""Entropy vectors: frozen values, purity symmetry, unitary invariance."""
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

import entkit.entropy as entropy_module

from entkit.builders import (
    cat_power,
    cat_state,
    chain_edges,
    codeword5,
    complete_graph_edges,
    epr_between,
    epr_pair,
    eprs_chain,
    eprs_complete,
)
from entkit.entropy import (
    PartitionAsymmetryError,
    _cut_blocks,
    _cuts_by_size,
    _exact_rows,
    _spectra_and_entropies,
    cut_spectra,
    entropy_vector,
    exact_entropy,
    exact_entropy_ratio_r21,
    exact_entropy_vector,
    flat_spectrum_rank,
    shannon_entropy,
)
from entkit.linalg import hermitian_eigenvalues
from entkit.states import (
    Partition,
    PureState,
    canonical_partitions,
    random_pure_state,
    random_unitary,
    reduced_gram,
    tensor,
)

# h(3/4, 1/4), written out once so nothing downstream drifts
H_3Q = 0.8112781244591328


def test_shannon_reference_values():
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
    assert shannon_entropy([0.75, 0.25]) == pytest.approx(H_3Q, abs=1e-12)
    assert shannon_entropy([1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    # independent route: -sum p log2 p, term by term
    manual = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert H_3Q == pytest.approx(manual, abs=1e-15)


def test_ghz_entropy_vector_all_ones():
    vec = entropy_vector(cat_state(3))
    for _, value in vec.entries():
        assert value == pytest.approx(1.0, abs=1e-12)


def test_epr_pair_entropy():
    gram = reduced_gram(epr_pair(), (0,))
    assert shannon_entropy(hermitian_eigenvalues(gram)) == pytest.approx(1.0, abs=1e-12)
    assert exact_entropy(gram) == Fraction(1)


def test_codeword_entropy_vector():
    exact = exact_entropy_vector(codeword5())
    for part, value in exact.items():
        assert value == Fraction(min(len(part.members), 5 - len(part.members)))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_r21_closed_form_for_complete_graphs(m):
    exact = exact_entropy_ratio_r21(exact_entropy_vector(eprs_complete(m)), m)
    assert exact == Fraction(2 * (m - 2), m - 1)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_r21_is_one_for_cats(m):
    assert exact_entropy_ratio_r21(exact_entropy_vector(cat_state(m)), m) == 1


def test_exact_r21_names_the_unequal_partitions():
    vec = exact_entropy_vector(eprs_chain(4))
    with pytest.raises(PartitionAsymmetryError) as caught:
        exact_entropy_ratio_r21(vec, 4)
    assert [label for label, _ in caught.value.unequal] == ["A", "B", "C", "D"]
    assert "S_A=1" in str(caught.value)


def test_purity_symmetry_random_states():
    rng = np.random.default_rng(42)
    for _ in range(60):
        m = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(2, 4)) for _ in range(m))
        state = random_pure_state(dims, rng)
        for part in canonical_partitions(m):
            s_x = shannon_entropy(hermitian_eigenvalues(reduced_gram(state, part.members)))
            s_rest = shannon_entropy(hermitian_eigenvalues(reduced_gram(state, part.complement().members)))
            assert abs(s_x - s_rest) < 1e-9


def test_unitary_invariance():
    rng = np.random.default_rng(7)
    state = random_pure_state((2, 3, 2), rng)
    before = entropy_vector(state)
    rotated = state
    from entkit.states import PureState

    tensorized = rotated.as_tensor()
    for party, d in enumerate(state.dims):
        u = random_unitary(d, rng)
        tensorized = np.moveaxis(
            np.tensordot(u, tensorized, axes=([1], [party])), 0, party
        )
    rotated = PureState(state.dims, tensorized.reshape(-1))
    after = entropy_vector(rotated)
    assert before.max_difference(after) < 1e-8


def test_max_difference_by_cut_size_reads_either_side():
    # sizes past m/2 name the same cuts as their complements
    a = entropy_vector(random_pure_state((2, 3, 2, 2), np.random.default_rng(8)))
    b = entropy_vector(random_pure_state((2, 3, 2, 2), np.random.default_rng(9)))
    for size in (1, 2, 3):
        want = max(abs(a[members] - b[members]) for members in itertools.combinations(range(4), size))
        assert a.max_difference(b, size=size) == want == a.max_difference(b, size=4 - size)
    assert a.max_difference(b) == max(a.max_difference(b, size=k) for k in (1, 2))
    for size in (0, 4, -1):
        with pytest.raises(ValueError, match=f"cut size {size} is outside 1..3"):
            a.max_difference(b, size=size)


def test_single_party_entropies_cat_power():
    vec = entropy_vector(cat_power(3, 2))
    values = [vec[(p,)] for p in range(3)]
    assert values == pytest.approx([2.0, 2.0, 2.0], abs=1e-12)


@pytest.mark.parametrize(
    "m, edges, dense",
    [
        (4, chain_edges(4), eprs_chain),
        (3, complete_graph_edges(3), eprs_complete),
        (4, complete_graph_edges(4), eprs_complete),
    ],
)
def test_exact_vectors_of_embedded_pairs_add_up_to_the_dense_graph(m, edges, dense):
    # partial entropy is additive over tensor factors; `r21_table` sums these
    pairs = [exact_entropy_vector(epr_between(m, i, j)) for i, j in edges]
    summed = {part: sum(vec[part] for vec in pairs) for part in pairs[0]}
    assert summed == exact_entropy_vector(dense(m))


def test_entropy_vector_dominance():
    ghz = entropy_vector(cat_state(3))
    w_like = entropy_vector(
        random_pure_state((2, 2, 2), np.random.default_rng(0))
    )
    assert ghz.dominates(ghz)
    # GHZ carries a full bit on every cut; a random state rarely does
    if not ghz.dominates(w_like):
        assert any(v > 1.0 + 1e-8 for _, v in w_like.entries())


def svd_spectrum(state, members):
    """Squared singular values of the amplitude matrix across a cut (numpy only)."""
    rest = tuple(p for p in range(state.num_parties) if p not in members)
    rows = math.prod(state.dims[p] for p in members)
    mat = state.as_tensor().transpose(members + rest).reshape(rows, -1)
    return np.linalg.svd(mat, compute_uv=False) ** 2


# states on these dims are Haar-random, except for a maximally entangled
# qutrit pair around a dim-1 party: every cut flat of rank 3 or 1
FLAT_STATES = {(3, 1, 3): PureState((3, 1, 3), np.eye(3))}


# dimension-1 parties in every position fold cuts into shared entries
FOLDING_DIMS = [(2, 1, 3, 1, 2), (1, 2, 2), (2, 2, 1, 1, 1), (1, 1, 2, 2, 2), (1, 4, 1, 2), (1, 1, 1)]


@pytest.mark.parametrize("dims", [(3, 3, 4, 2, 2), (3,) * 5, (2,) * 8, (2, 1, 3, 2), (3, 1, 3), *FOLDING_DIMS])
def test_cut_spectra_match_svd(dims):
    state = FLAT_STATES.get(dims) or random_pure_state(dims, np.random.default_rng(len(dims) * 101))
    spectra = cut_spectra(state)
    vec = entropy_vector(state)
    assert list(spectra) == canonical_partitions(len(dims))
    # a single state is a stack of one with weight 1
    stacked = entropy_vector(state.as_tensor()[None], [1.0])
    assert [v.hex() for v in vec.values.values()] == [v.hex() for v in stacked.values.values()]
    for part, spectrum in spectra.items():
        reference = svd_spectrum(state, part.members)
        positive = reference[reference > 1e-15]
        assert vec[part] == pytest.approx(
            float(-(positive * np.log2(positive)).sum()), abs=1e-9
        )
        rank = len(positive)
        flat = np.allclose(positive, 1.0 / rank, atol=1e-9)
        # exact bits for flat rank 2^s; flat rank 3 goes to the eigensolver
        assert isinstance(spectrum, Fraction) == (flat and rank & (rank - 1) == 0)
        if isinstance(spectrum, Fraction):
            assert 2**spectrum == rank
            continue
        assert np.allclose(spectrum, reference, atol=1e-9)
        # blocks of cuts change nothing: the cut's Gram, on its cheaper side,
        # diagonalized alone
        size = math.prod(dims[p] for p in part.members)
        side = part if size * size <= state.dim else part.complement()
        assert np.array_equal(spectrum, hermitian_eigenvalues(reduced_gram(state, side)))


@pytest.fixture
def solver_calls(record_calls):
    """The shape of every eigensolver call the block routine makes."""
    return record_calls("_unchecked_eigenvalues", "entkit.entropy", record=np.shape)


@pytest.fixture
def buffer_calls(record_calls):
    """(stack shape, cheaper sides) of every Gram buffer the block routine fills."""
    return record_calls(
        "_block_grams",
        "entkit.entropy",
        record=lambda stack, block, size: (stack.shape, [side for _, side, _ in block]),
    )


@pytest.mark.parametrize(
    "state, formula",
    [
        (cat_state(5), lambda members: 1),
        (eprs_complete(4), lambda members: len(members) * (4 - len(members))),
        (codeword5(), lambda members: min(len(members), 5 - len(members))),
    ],
    ids=["cat5", "eprs4", "codeword5"],
)
def test_exact_vector_combinatorial_without_solver(solver_calls, state, formula):
    calls = solver_calls
    exact = exact_entropy_vector(state)
    assert list(exact) == canonical_partitions(state.num_parties)
    for part, value in exact.items():
        assert type(value) is Fraction
        assert value == formula(part.members)
    assert calls == []


def test_flat_cuts_never_reach_the_solver(solver_calls, buffer_calls):
    calls, buffers = solver_calls, buffer_calls
    vec = entropy_vector(cat_state(6))
    assert all(value == 1.0 for _, value in vec.entries())
    assert calls == []
    # control: a generic 8-qubit state needs one stacked call per block of
    # same-size cuts; the 35 half cuts' 16x16 Grams split at 2^13 entries
    buffers.clear()
    entropy_vector(random_pure_state((2,) * 8, np.random.default_rng(3)))
    assert sorted(calls) == [(3, 16, 16), (8, 2, 2), (28, 4, 4), (32, 16, 16), (56, 8, 8)]
    # a buffer holds at most 2^13 amplitudes, 32 cuts of 256: the 56
    # three-party cuts' Grams come from two, 32 + 24
    assert sorted(len(sides) for _, sides in buffers) == [3, 8, 24, 28, 32, 32]


def test_exact_vector_names_the_first_numeric_cut():
    state = random_pure_state((2, 2, 2), np.random.default_rng(4))
    with pytest.raises(ValueError, match="partition A has no exact"):
        exact_entropy_vector(state)


# --- stacks of states with shared dims ------------------------------------------


def mixed_stack(dims, seed):
    """Random states and flat (cat-like, product) ones on the same dims."""
    rng = np.random.default_rng(seed)
    states = [random_pure_state(dims, rng) for _ in range(4)]
    cat = np.zeros(math.prod(dims), dtype=complex)
    cat[0] = cat[-1] = 1.0
    product = np.zeros(math.prod(dims), dtype=complex)
    product[0] = 1.0
    states[1:1] = [PureState(dims, cat), PureState(dims, product)]
    return states, np.stack([s.as_tensor() for s in states])


def one_hot(count, b):
    weights = [0.0] * count
    weights[b] = 1.0
    return weights


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2, 2), (3, 3, 4)])
def test_stacked_cut_entropies_match_each_state(dims):
    # one-hot weights read one state's row out of every Gram block: the other
    # rows add 0.0, so the sum is that row's entropy exactly
    states, stack = mixed_stack(dims, len(dims))
    for b, state in enumerate(states):
        got = entropy_vector(stack, one_hot(len(states), b))
        assert list(got.values) == canonical_partitions(len(dims))
        assert got == entropy_vector(state)


def test_flat_spectrum_rank_on_a_stack_matches_each_matrix():
    states, stack = mixed_stack((2, 2, 2, 2), 9)
    grams = reduced_gram(stack, (0, 1))
    assert grams.shape == (len(states), 4, 4)
    ranks = flat_spectrum_rank(grams).tolist()
    assert ranks == [flat_spectrum_rank(g[None])[0] for g in grams]
    assert ranks[1:3] == [2, 1] and ranks.count(0) == 4
    assert [exact_entropy(g) for g in grams] == [None, Fraction(1), Fraction(0), None, None, None]


def test_zero_non_finite_and_empty_stacks():
    # warnings are errors in this suite, so a RuntimeWarning fails here
    bell = np.zeros((2, 2), dtype=complex)
    bell[0, 0] = bell[1, 1] = 2**-0.5
    stack = np.stack([np.zeros((2, 2), dtype=complex), bell])
    grams = reduced_gram(stack, (0,))
    assert flat_spectrum_rank(grams).tolist() == [0, 2]
    assert [flat_spectrum_rank(g[None])[0] for g in grams] == [0, 2]
    # a zero row is not a state; a product row beside the pair is
    with pytest.raises(ValueError, match="stack row 0 has norm 0;"):
        entropy_vector(stack, [0.5, 0.5])
    stack[0, 0, 0] = 1.0
    assert entropy_vector(stack, [0.5, 0.5]).entries() == [(Partition(2, (1,)), 0.5)]
    for bad in (np.nan, np.inf):
        for row in (0, 1):
            broken = grams.copy()
            broken[row, 0, 0] = bad
            assert flat_spectrum_rank(broken)[row] == 0
            assert flat_spectrum_rank(broken[row][None])[0] == 0
            broken = stack.copy()
            broken[row, 0, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                entropy_vector(broken, [0.5, 0.5])
    with pytest.raises(ValueError, match="at least one state"):
        entropy_vector(stack[:0], [])


def test_a_partition_of_another_party_count_is_refused_by_name():
    vec = entropy_vector(cat_state(3))
    assert vec[Partition(3, (0,))] == vec[(0,)]
    with pytest.raises(ValueError, match="partition refers to a different number of parties"):
        vec[Partition(4, (0,))]


def test_entropy_vector_of_a_stack_is_the_weighted_sum():
    states, stack = mixed_stack((2, 2, 3), 5)
    weights = np.random.default_rng(6).dirichlet(np.ones(len(states)))
    got = entropy_vector(stack, weights)
    vectors = [entropy_vector(s) for s in states]
    for part in got.partitions():
        assert got.values[part] == sum(w * v.values[part] for w, v in zip(weights, vectors))
    with pytest.raises(ValueError):
        entropy_vector(stack)
    with pytest.raises(ValueError):
        entropy_vector(states[0], [1.0])


@pytest.mark.parametrize("scale", [2.0, 0.5, 1.0 + 1e-9, 0.0])
def test_a_stack_row_off_its_norm_raises(scale):
    # 2 EPR once read 0.0 bits and 0.5 EPR 0.75, with no error
    pair = epr_pair().as_tensor()
    stack = np.stack([pair, scale * pair])
    with pytest.raises(ValueError, match=f"stack row 1 has norm {scale:.12g};"):
        entropy_vector(stack, [0.5, 0.5])
    # within the limit `PureState` normalizes to, a row is a state
    assert entropy_vector(np.stack([pair, (1.0 + 5e-11) * pair]), [0.5, 0.5])[(0,)] == 1.0


@pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, -0.25])
def test_a_weight_that_is_not_finite_and_nonnegative_raises(weight):
    # a NaN weight once made every cut NaN, which the monotonicity check's
    # `>` read as no gain
    stack = np.stack([epr_pair().as_tensor()] * 2)
    with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
        entropy_vector(stack, [1.0, weight])
    assert entropy_vector(stack, [1.0, 0.0])[(0,)] == 1.0


def test_held_back_eigensolver_batches_are_bounded(monkeypatch, solver_calls, buffer_calls):
    calls, buffers = solver_calls, buffer_calls
    states, stack = mixed_stack((2, 2, 2, 2, 2), 12)
    weights = [1.0 / len(states)] * len(states)
    whole_single = cut_spectra(states[0])
    calls.clear()
    buffers.clear()
    whole = entropy_vector(stack, weights)
    assert sorted(calls) == [(20, 2, 2), (40, 4, 4)]  # one block per Gram size
    # one buffer per Gram size and arithmetic: the flat rows are real
    assert sorted((shape[0], len(sides)) for shape, sides in buffers) == [(2, 5), (2, 10), (4, 5), (4, 10)]
    calls.clear()
    buffers.clear()
    monkeypatch.setattr(sys.modules["entkit.entropy"], "_BLOCK_ENTRIES", 64)
    split = entropy_vector(stack, weights)
    # a block holds at most 64 Gram entries, or one cut's rows when they
    # alone are more; a buffer at most 64 amplitudes, or one cut's
    assert len(calls) > 2 and all(n * d * d <= max(64, len(stack) * d * d) for n, d, _ in calls)
    assert len(buffers) > 2 and all(len(sides) * stack.size <= max(64, stack.size) for _, sides in buffers)
    assert split == whole
    # a single state is a stack of one under the same bound
    calls.clear()
    buffers.clear()
    split = cut_spectra(states[0])
    assert len(calls) > 2 and all(n * d * d <= max(64, d * d) for n, d, _ in calls)
    assert len(buffers) > 2 and all(len(sides) * 32 <= 64 for _, sides in buffers)
    assert all(np.array_equal(whole_single[part], split[part]) for part in whole_single)


def block_test_stack(dims, count, seed):
    """`count` states on `dims`: Haar rows, with a cat row and a product row
    among every four after the first."""
    rng = np.random.default_rng(seed)
    rows = []
    for b in range(count):
        flat = np.zeros(dims, dtype=complex)
        flat[(0,) * len(dims)] = 1.0
        if b % 4 == 1:
            flat[tuple(d - 1 for d in dims)] = 1.0
        rows.append(flat / np.linalg.norm(flat) if b % 4 in (1, 3) else random_pure_state(dims, rng).as_tensor())
    return np.stack(rows)


def kept_parties(dims, side):
    """The parties of dimension > 1 on one side of a cut."""
    return tuple(p for p in side.members if dims[p] > 1)


@pytest.mark.parametrize("count", [1, 7, 64])
@pytest.mark.parametrize("dims", [(3, 3, 4, 2, 2), (2, 1, 3, 2), (2,) * 8, (32, 2, 2), *FOLDING_DIMS])
def test_block_spectra_match_the_per_cut_reference(buffer_calls, dims, count):
    # each cut alone: its Gram on its own cheaper side, the flat test, the
    # checked eigensolver on that cut's stack and `shannon_entropy` of each
    # spectrum
    stack = block_test_stack(dims, count, len(dims) * count)
    parts = canonical_partitions(len(dims))
    got, seen = {}, []
    for entries, entropies, others, spectra in _cut_blocks(stack):
        spectra = iter(spectra)
        for indices, cut_entropies, cut_others in zip(entries, entropies, others):
            eigenvalues = [next(spectra).tobytes() for _ in range(cut_others.sum())]
            value = (cut_entropies[~cut_others].tolist(), eigenvalues, cut_entropies[cut_others].tolist())
            got.update(dict.fromkeys(indices, value))
            seen += indices
    formed = [kept_parties(dims, side) for _, sides in buffer_calls for side in sides]
    assert sorted(seen) == list(range(len(parts)))
    sides = {index: side for _, cuts in _cuts_by_size(dims) for indices, side, _ in cuts for index in indices}
    own_sides = []
    for index, part in enumerate(parts):
        size = math.prod(dims[p] for p in part.members)
        side = part if size * size <= stack[0].size else part.complement()
        own_sides.append(kept_parties(dims, side))
        # the entry's side holds the same parties of dimension > 1
        assert kept_parties(dims, sides[index]) == own_sides[-1]
        grams = reduced_gram(stack, side)
        ranks = flat_spectrum_rank(grams)
        flat = (ranks > 0) & (np.log2(np.maximum(ranks, 1)) % 1 == 0)
        eigenvalues = hermitian_eigenvalues(grams)[~flat]
        want = (
            np.log2(ranks[flat]).tolist(),
            [s.tobytes() for s in eigenvalues],
            [shannon_entropy(s) for s in eigenvalues],
        )
        assert got[index] == want
    # one Gram per distinct reduced matrix and arithmetic, and one per cut
    # and arithmetic without dimension-1 parties: past the first (Haar)
    # row, the stack holds real flat rows too
    arithmetics = 1 if count == 1 else 2
    assert sorted(formed) == sorted(list(set(own_sides)) * arithmetics)
    if 1 not in dims:
        assert len(formed) == arithmetics * len(parts)
    weights = np.random.default_rng(count).dirichlet(np.ones(count))
    vectors = [entropy_vector(PureState(dims, row)) for row in stack]
    stacked = entropy_vector(stack, weights)
    for part in parts:
        assert stacked.values[part] == sum(w * v.values[part] for w, v in zip(weights, vectors))
    if count > 1:  # the flat rows reach the flat test, not the solver
        assert any(entropies[~others].size for _, entropies, others, _ in _cut_blocks(stack))
    broken = stack.copy()
    broken[count // 2].reshape(-1)[-1] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        list(_cut_blocks(broken))


# --- real rows in real arithmetic ----------------------------------------------


@pytest.fixture
def gram_dtypes(record_calls):
    """The dtype of every Gram buffer the block routine fills."""
    return record_calls("_block_grams", "entkit.entropy", record=lambda stack, block, size: stack.dtype)


def svd_spectra(row, dims):
    """Per canonical cut, the squared singular values of the complex
    amplitude matrix split across it, largest first."""
    tensor = np.asarray(row, dtype=complex).reshape(dims)
    spectra = []
    for part in canonical_partitions(len(dims)):
        rest = tuple(p for p in range(len(dims)) if p not in part.members)
        split = tensor.transpose(part.members + rest).reshape(math.prod(dims[p] for p in part.members), -1)
        spectra.append(np.linalg.svd(split, compute_uv=False) ** 2)
    return spectra


def svd_entropy(spectrum):
    p = spectrum[spectrum > 1e-12]
    return -math.fsum(p * np.log2(p))


def real_stack(dims, count, rng):
    """Real Gaussian rows, with a real cat row and a product row among them."""
    rows = rng.standard_normal((count, math.prod(dims)))
    if count > 2:
        rows[1] = 0.0
        rows[1, 0] = rows[1, -1] = 1.0
        rows[2] = 0.0
        rows[2, -1] = -1.0
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows.astype(complex).reshape((count,) + dims)


@pytest.mark.parametrize("seed", range(12))
def test_real_stacks_match_an_svd_oracle(gram_dtypes, seed):
    rng = np.random.default_rng([seed, 25])
    m = int(rng.integers(2, 7))
    dims = tuple(int(d) for d in rng.choice([1, 2, 2, 3, 4], m))
    while math.prod(dims) > 256:
        dims = dims[:-1]
    count = int(rng.integers(1, 17))
    stack = real_stack(dims, count, rng)
    weights = rng.dirichlet(np.ones(count))
    oracle = [svd_spectra(row, dims) for row in stack]
    got = entropy_vector(stack, weights)
    parts = canonical_partitions(len(dims))
    for index, part in enumerate(parts):
        want = math.fsum(w * svd_entropy(spectra[index]) for w, spectra in zip(weights, oracle))
        assert abs(got.values[part] - want) <= 1e-12
    for row, spectra in zip(stack, oracle):
        # the SVD gives one value per dimension of the cheaper side, as the
        # Gram there does
        for want, spectrum in zip(spectra, cut_spectra(PureState(dims, row)).values()):
            if isinstance(spectrum, Fraction):
                # a flat cut matches exactly: 2^s equal weights, s bits
                rank = int(np.sum(want > 1e-12))
                assert np.allclose(want[:rank], 1.0 / rank, atol=1e-12) and 2**spectrum == rank
            else:
                assert np.allclose(spectrum, want, atol=1e-12, rtol=0)
    if count > 2:  # the cat and product rows are flat on every cut
        for b in (1, 2):
            read = entropy_vector(stack, one_hot(count, b))
            assert read.values == {part: float(round(svd_entropy(oracle[b][i]))) for i, part in enumerate(parts)}
    # every Gram of these stacks was formed in real arithmetic
    assert set(gram_dtypes) == {np.dtype(float)}


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 4, 2, 2), (2, 1, 3, 2)])
def test_a_real_row_gets_its_own_bits_beside_complex_rows(gram_dtypes, dims):
    rng = np.random.default_rng(len(dims))
    real = real_stack(dims, 6, rng)
    rows = [real[0], random_pure_state(dims, rng).as_tensor(), real[3], real[1], random_pure_state(dims, rng).as_tensor(), real[4]]
    stack = np.stack(rows)
    alone = [entropy_vector(PureState(dims, row)) for row in rows]
    gram_dtypes.clear()
    for b, vector in enumerate(alone):
        assert entropy_vector(stack, one_hot(len(rows), b)).values == vector.values
    assert set(gram_dtypes) == {np.dtype(float), np.dtype(complex)}


def test_a_negative_zero_imaginary_part_counts_as_real(gram_dtypes):
    rows = real_stack((3, 2, 2), 5, np.random.default_rng(7))
    signed = rows.copy()
    signed.imag = -0.0
    assert np.signbit(signed.imag).all() and not np.signbit(rows.imag).any()
    weights = [0.2] * 5
    assert entropy_vector(signed, weights) == entropy_vector(rows, weights) == entropy_vector(rows.real, weights)
    assert set(gram_dtypes) == {np.dtype(float)}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_a_non_finite_real_row_still_raises(gram_dtypes, bad, dtype):
    stack = real_stack((2, 3, 2), 4, np.random.default_rng(3)).real.astype(dtype)
    stack[3].reshape(-1)[4] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
        list(_cut_blocks(stack))
    with pytest.raises(ValueError, match="non-finite"):
        entropy_vector(stack, [0.25] * 4)
    assert set(gram_dtypes) == {np.dtype(float)}
    if dtype is complex:
        # a non-finite imaginary part sends its row to complex arithmetic,
        # where its purity rejects it
        stack[3].reshape(-1)[4] = complex(0.0, bad)
        gram_dtypes.clear()
        with pytest.raises(ValueError, match="non-finite"):
            entropy_vector(stack, [0.25] * 4)
        assert np.dtype(complex) in gram_dtypes


# the cut spectra of states on these dims feed the entropy-route test below
ENTROPY_SUM_DIMS = [(2,) * 6, (3, 3, 4, 2, 2), (2, 1, 3, 2), (3, 3, 3), (2, 3, 2, 2)]


def test_every_entropy_route_gives_the_same_bits():
    # a single state, a stack of one, the one-pass reader
    # `_spectra_and_entropies` and `shannon_entropy` on each cut's spectrum;
    # within 1e-14 of an fsum
    states = [random_pure_state(dims, np.random.default_rng(seed)) for seed in range(12) for dims in ENTROPY_SUM_DIMS]
    states += [cat_state(4), PureState((3, 1, 3), np.eye(3))]
    checked = 0
    for state in states:
        spectra, entropies = _spectra_and_entropies(state)
        routes = [
            entropy_vector(state).values,
            entropy_vector(state.as_tensor()[None], [1.0]).values,
            dict(zip(spectra, entropies)),
        ]
        for part, spectrum in spectra.items():
            values = [route[part] for route in routes]
            if isinstance(spectrum, Fraction):
                assert values == [float(spectrum)] * 3
                continue
            values.append(shannon_entropy(spectrum))
            assert len({v.hex() for v in values}) == 1 and type(values[-1]) is float
            positive = [float(p) for p in spectrum if p > 1e-12]
            reference = max(-math.fsum(p * math.log2(p) for p in positive), 0.0)
            assert abs(values[0] - reference) <= 1e-14
            checked += 1
    assert checked >= 500


def test_shannon_entropy_rejects_negatives_and_drops_zeros():
    with pytest.raises(ValueError, match="negative probability"):
        shannon_entropy([0.5, 0.5 + 2e-12, -2e-12])
    with pytest.raises(ValueError, match="negative probability"):
        shannon_entropy([[0.5, 0.5], [1.0 + 1e-11, -1e-11]])
    # 0 log 0 = 0, for exact zeros and anything within 1e-12 of zero
    assert shannon_entropy([1.0, 0.0]).hex() == (0.0).hex()
    assert shannon_entropy([0.5, 0.5, 0.0, 1e-13, -1e-13]) == 1.0
    stacked = shannon_entropy([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.75, 0.25, 0.0]])
    assert stacked.tolist() == [1.0, 0.0, shannon_entropy([0.75, 0.25])]


# --- exact rows, one block pass per shape ----------------------------------------


def flat_factor(m, members, dims, rank, rng):
    """A rank-`rank` cat on `members` of m parties, dimension 1 elsewhere:
    member p has dimension dims[p] and holds `rank` random distinct levels,
    and the terms carry random phases half of the time."""
    shape = tuple(dims[p] if p in members else 1 for p in range(m))
    levels = {p: rng.permutation(dims[p])[:rank] for p in members}
    phases = np.exp(2j * np.pi * rng.random(rank)) if rng.random() < 0.5 else np.ones(rank)
    amps = np.zeros(shape, dtype=complex)
    for k in range(rank):
        amps[tuple(levels[p][k] if p in members else 0 for p in range(m))] = phases[k]
    return PureState(shape, amps.reshape(-1)), ((frozenset(members), int(rank).bit_length() - 1),)


def flat_collection(m, rng):
    """Embedded EPR pairs, embedded cats, their products and one-party
    states on m parties, with qubit, qutrit and ququart members and
    dimension-1 parties, each with its factors' (members, bits)."""
    out = []
    for _ in range(6):
        size = 2 if rng.random() < 0.5 else int(rng.integers(2, min(m, 4) + 1))
        members = tuple(sorted(rng.choice(m, size, replace=False).tolist()))
        dims, rank = rng.choice([2, 3, 4], m).tolist(), 2
        if rng.random() < 0.25:  # ququart members holding two bits a split
            dims, rank = [4] * m, 4
        out.append(flat_factor(m, members, dims, rank, rng))
    for (a, fa), (b, fb) in itertools.combinations(out[:4], 2):
        out.append((tensor(a, b, list(range(m))), fa + fb))
    lone = np.ones(m, dtype=int)
    lone[int(rng.integers(m))] = 3
    out.append((PureState(tuple(lone.tolist()), rng.normal(size=3) + 0j), ()))
    out.append((PureState((1,) * m, [1j]), ()))
    return out


def test_exact_rows_match_the_combinatorial_vector_and_the_one_state_call(monkeypatch):
    # every party count in one call, shuffled: each row is the sum over
    # factors of the bits of those whose members the cut splits, and the
    # one-state call's row; one block pass per shape with two or more
    # parties of dimension > 1
    rng = np.random.default_rng(2027)
    entries = [entry for m in range(2, 7) for entry in flat_collection(m, rng)]
    entries = [entries[i] for i in rng.permutation(len(entries))]
    states = [state for state, _ in entries]
    singles = [tuple(exact_entropy_vector(state).values()) for state in states]
    passes = []
    blocks = _cut_blocks
    monkeypatch.setattr(entropy_module, "_cut_blocks", lambda stack: passes.append(stack.shape) or blocks(stack))
    rows = _exact_rows(states)
    shapes = {tuple(d for d in state.dims if d > 1) for state in states}
    assert sorted(shape[1:] for shape in passes) == sorted(shape for shape in shapes if len(shape) > 1)
    assert any(shape[0] > 1 for shape in passes)
    for (state, factors), row, single in zip(entries, rows, singles):
        want = tuple(
            sum(bits for members, bits in factors if 0 < len(members & set(part.members)) < len(members))
            for part in canonical_partitions(state.num_parties)
        )
        assert row == want == single
        assert all(type(value) is Fraction for value in row)


def test_a_lone_state_is_a_view_on_its_nontrivial_parties(monkeypatch):
    state = epr_between(5, 0, 3)
    stacks = []
    blocks = _cut_blocks
    monkeypatch.setattr(entropy_module, "_cut_blocks", lambda stack: stacks.append(stack) or blocks(stack))
    assert _exact_rows([state]) == [tuple(exact_entropy_vector(state).values())]
    assert stacks[0].shape == (1, 2, 2)
    assert np.shares_memory(stacks[0], state.amplitudes)


@pytest.mark.parametrize("count", [1, 3])
def test_exact_rows_name_the_first_inexact_cut_per_state(count):
    # EPR on A, B and a Haar pair on C, D: A and B are exact, C is not
    haar = tensor(epr_pair(), random_pure_state((2, 2), np.random.default_rng(9)))
    states = [cat_state(4)] * (count - 1) + [haar]
    rows = _exact_rows(states)
    assert rows[:-1] == [tuple(exact_entropy_vector(cat_state(4)).values())] * (count - 1)
    assert isinstance(rows[-1], ValueError)
    assert str(rows[-1]) == "partition C has no exact rational entropy"
    with pytest.raises(ValueError, match="^partition C has no exact rational entropy$"):
        exact_entropy_vector(haar)
