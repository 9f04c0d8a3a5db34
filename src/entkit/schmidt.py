"""Schmidt decompositions, the m-orthogonal form test, and the exact
combinatorics of entanglement concentration and dilution.

A state of m parties is Schmidt decomposable when it can be written as
sum_i c_i |i_1>|i_2>...|i_m> with each party's vectors orthonormal. For
two parties this always holds; for three or more it is a strong
restriction. Decomposable states behave like a single biased coin shared
by everyone: concentration turns n copies into cat states at the
entropy rate, and dilution rebuilds copies from cat states, so the
squared-coefficient distribution governs both directions through plain
type-class counting.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .entropy import entropy_vector, shannon_entropy
from .linalg import hermitian_eigensystem
from .states import Partition, PureState, _keep_indices

__all__ = [
    "SchmidtDecomposition",
    "schmidt_decompose",
    "MOrthogonalResult",
    "is_m_orthogonal",
    "cat_yield",
    "TypeBranch",
    "TypeTable",
    "concentration_yield_distribution",
    "dilution_retained_types",
]

_COEFF_FLOOR = 1e-12
_RANK_ONE_TOL = 1e-8
_ORTHOGONALITY_TOL = 1e-8
_ENTROPY_SPREAD_TOL = 1e-8
_RECONSTRUCTION_TOL = 1e-9
_COMMUTATOR_TOL = 1e-8
_EQUAL_COEFFICIENT_TOL = 1e-8
# the seed of the two fixed contraction vectors of `_decide_m_orthogonal`
_DRAW_SEED = 1993


@dataclass(frozen=True)
class SchmidtDecomposition:
    """A state written as sum_i c_i |v_i^1>|v_i^2>...|v_i^k> over k groups
    of its parties.

    `parties[g]` lists the parties of tensor factor g, ascending, and
    `vectors[g]` is the (their dimension, rank) matrix whose orthonormal
    columns are that factor's kets. Coefficients are real and nonnegative;
    the decompositions found here sort them descending. A cut's
    decomposition has two groups, the cut side and then the rest; an
    m-orthogonal form has one group per party.
    """

    dims: tuple[int, ...]
    parties: tuple[tuple[int, ...], ...]
    coefficients: np.ndarray
    vectors: tuple[np.ndarray, ...]

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    def to_state(self) -> PureState:
        """The state sum_i c_i |v_i^1>...|v_i^k>, parties in their original order."""
        *head, last = self.vectors
        t = self.coefficients[None]
        for v in head:
            t = (t[:, None] * v).reshape(-1, self.rank)
        order = sum(self.parties, ())
        t = (t @ last.T).reshape(tuple(self.dims[p] for p in order))
        return PureState(self.dims, t.transpose(np.argsort(order)).reshape(-1))


def schmidt_decompose(
    state: PureState, cut: Partition | Iterable[int]
) -> SchmidtDecomposition:
    """Schmidt decomposition of a pure state across one cut.

    Kets on the cut side come from the reduced density matrix; the
    matching kets on the far side are read off the amplitude matrix M as
    M^T u_i^* / c_i, so phases land entirely in the vectors and the
    coefficients stay real.
    """
    members = _keep_indices(state.num_parties, cut)
    rest = tuple(p for p in range(state.num_parties) if p not in members)
    if not rest:
        raise ValueError("cut must split the parties into two nonempty sides")

    d_left = math.prod(state.dims[p] for p in members)
    m = state.as_tensor().transpose(members + rest).reshape(d_left, -1)
    eigenvalues, vectors = hermitian_eigensystem(m @ m.conj().T)
    keep = eigenvalues > _COEFF_FLOOR
    coeffs = np.sqrt(eigenvalues[keep])
    left = vectors[:, keep]
    return SchmidtDecomposition(
        state.dims, (members, rest), coeffs, (left, (m.T @ left.conj()) / coeffs)
    )


@dataclass(frozen=True)
class MOrthogonalResult:
    """Outcome of the m-orthogonality test: always a yes or a no.

    `decomposable` says whether the state has an m-orthogonal form, and
    `form` carries it, with one group per party, when it does. `reason`
    names the certificate behind the answer.
    """

    decomposable: bool
    form: SchmidtDecomposition | None
    reason: str

    def __bool__(self) -> bool:
        return self.decomposable


def _peel(ket: np.ndarray, dims: Sequence[int]) -> list[np.ndarray] | str:
    """Split a multiparty ket into per-party unit kets, or say why not.

    Peels one party at a time by Schmidt-decomposing the ket as a
    (party, rest) state: the cut must be rank one within tolerance, its
    near-side ket is the factor, and its far-side ket carries on, phase
    included, so the product of the factors reproduces the ket.
    """
    factors = []
    for axis, d in enumerate(dims[:-1]):
        sd = schmidt_decompose(PureState((d, ket.size // d), ket), (0,))
        weights = sd.coefficients**2
        if weights[0] < (1.0 - _RANK_ONE_TOL) * weights.sum():
            return (
                f"factor {axis} is entangled with the remainder "
                f"(principal weight {weights[0] / weights.sum():.9f})"
            )
        factors.append(sd.vectors[0][:, 0])
        ket = sd.vectors[1][:, 0]
    return factors + [ket]


def is_m_orthogonal(state: PureState) -> MOrthogonalResult:
    """Whether a pure state has an m-orthogonal form; two parties always do."""
    if state.num_parties < 2:
        raise ValueError("need at least two parties")
    if state.num_parties == 2:
        return MOrthogonalResult(True, schmidt_decompose(state, (0,)), "two parties always decompose")
    return _decide_m_orthogonal(state, entropy_vector(state).values.values())


def _decide_m_orthogonal(state: PureState, entropies: Iterable[float]) -> MOrthogonalResult:
    """`is_m_orthogonal` of a state of three or more parties with these
    partial entropies: yes or no, each with its certificate.

    A spread of the entropies is a no. Else let the state be sum_k s_k
    |u_k>|w_k> across party 0. A form sum_i c_i |a_i>|b_i>|v_i> (v_i over
    parties 2..m-1) has u = A Q, Q mixing only equal c_i, and the unit w_k
    contracted with a vector r over parties 2..m-1 give N_r N_r^dag = Q^dag
    diag|v_i . r|^2 Q. For two fixed unit complex Gaussian draws these
    Grams commute with each other and with diag(s_k^2), or the answer is
    no; on each block of equal s_k, the eigenbasis of the Gram with the
    wider gap there turns u into the a_i, and each branch must peel into
    orthogonal per-party kets that rebuild the state. The form is unique up
    to order and phases (Kruskal, 1977), so with separated eigenvalues a no
    holds whatever the draws; only where both draws tie inside one block of
    equal coefficients, a set of measure zero, can a no be wrong.
    """
    spread = max(entropies) - min(entropies)
    if spread > _ENTROPY_SPREAD_TOL:
        reason = f"partial entropies are not constant across partitions (spread {spread:.3e})"
        return MOrthogonalResult(False, None, reason)
    sd = schmidt_decompose(state, (0,))
    n = math.prod(state.dims[2:])
    draws = np.random.default_rng(_DRAW_SEED).standard_normal((2, n, 2)) @ [1, 1j]
    draws /= np.linalg.norm(draws, axis=1, keepdims=True)
    contracted = np.einsum("jnk,dn->dkj", sd.vectors[1].reshape(state.dims[1], n, sd.rank), draws)
    grams = contracted @ contracted.conj().swapaxes(1, 2)
    pairs = itertools.combinations([*grams, np.diag(sd.coefficients**2)], 2)
    defect = max(np.linalg.norm(x @ y - y @ x) for x, y in pairs)
    if defect > _COMMUTATOR_TOL:
        reason = "two contractions of the first-party Schmidt partners and the first-party spectrum"
        return MOrthogonalResult(False, None, f"{reason} do not commute (defect {defect:.3e})")
    # a tie of the Grams may mix only branches of equal coefficient
    basis = np.eye(sd.rank, dtype=complex)
    edges = np.flatnonzero(np.diff(sd.coefficients**2, prepend=2, append=-1) < -_EQUAL_COEFFICIENT_TOL)
    for lo, hi in itertools.pairwise(edges):
        values, bases = hermitian_eigensystem(grams[:, lo:hi, lo:hi])
        basis[lo:hi, lo:hi] = bases[np.argmax(np.min(-np.diff(values), axis=1, initial=np.inf))]

    branches = []
    for i, ket in enumerate((sd.vectors[1] @ basis.conj()).T):
        factors = _peel(ket, state.dims[1:])
        if isinstance(factors, str):
            return MOrthogonalResult(False, None, f"branch {i} of the first-party cut: {factors}")
        branches.append(factors)

    vectors = (sd.vectors[0] @ basis,) + tuple(np.column_stack(f) for f in zip(*branches))
    for p, f in enumerate(vectors[1:], 1):
        inners = abs(f.conj().T @ f)
        clashes = np.argwhere(np.triu(inners > _ORTHOGONALITY_TOL, 1))
        if len(clashes):
            i, j = clashes[0]
            reason = f"party {p} vectors for branches {i} and {j} are not orthogonal"
            return MOrthogonalResult(False, None, f"{reason} (|<i|j>| = {inners[i, j]:.3e})")

    parties = tuple((p,) for p in range(state.num_parties))
    form = SchmidtDecomposition(state.dims, parties, sd.coefficients, vectors)
    overlap = abs(form.to_state().overlap(state)) ** 2
    if overlap < 1.0 - _RECONSTRUCTION_TOL:
        return MOrthogonalResult(False, None, f"assembled form has fidelity {overlap:.12f}")
    return MOrthogonalResult(True, form, "decomposition found")


def cat_yield(state: PureState) -> float:
    """Asymptotic cat states per copy from a Schmidt decomposable state.

    This is the entropy of the squared coefficients, which equals every
    partition's partial entropy. Raises for a state that is not
    decomposable, naming the certificate.
    """
    result = is_m_orthogonal(state)
    if not result.decomposable:
        raise ValueError(f"state is not Schmidt decomposable: {result.reason}")
    return shannon_entropy(result.form.coefficients ** 2)


# --- type-class combinatorics ------------------------------------------------


def _log2_int(value: int) -> float:
    """log2 of a positive integer without float overflow."""
    shift = value.bit_length() - 1
    if shift <= 52:
        return math.log2(value)
    return shift + math.log2(value / (1 << shift))


# the least integer that float() rounds past the largest finite float
_FLOAT_OVERFLOW = 2**1024 - 2**970
# classes lost to the float range may hold at most this much probability
_LOST_MASS_LOG2 = -53


def _heads(tables, counts, rest, head, base):
    """Every choice of the counts drawn from `tables`, in lexicographic order:
    (counts, copies left, product of their per-string factors, multinomial
    of the counts and the copies left)."""
    if not tables:
        yield counts, rest, head, base
        return
    table, tables = tables[0], tables[1:]
    for c in range(rest + 1):
        yield from _heads(tables, counts + (c,), rest - c, head * table[c], base)
        base = base * (rest - c) // (c + 1)


def _binomial_row(r: int) -> list[int]:
    """C(r, j) for j = 0..r, by C(r, j + 1) = C(r, j) (r - j) / (j + 1)."""
    row = [1]
    for j in range(r):
        row.append(row[-1] * (r - j) // (j + 1))
    return row


def _pascal(n: int) -> list[list[int]]:
    """Rows 0..n of Pascal's triangle."""
    rows = [[1]]
    for _ in range(n):
        row = rows[-1]
        rows.append([1, *map(operator.add, row, row[1:]), 1])
    return rows


class TypeTable(Sequence):
    """A table with one row per type class, held column by column.

    `columns` holds one column per row field, in field order, except that
    the counts field is one column per letter. `len`, indexing and
    iteration build each row as `row(counts, *other cells)`, so rows unpack
    as tuples; comparing a table with a list of rows is not supported.
    """

    def __init__(self, columns: tuple, row=lambda *cells: cells) -> None:
        self.columns = columns
        self._row = row

    def __len__(self) -> int:
        return len(self.columns[1])

    def __iter__(self):
        counts, *cells = self.columns
        return map(self._row, zip(*counts), *cells)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        counts, *cells = self.columns
        return self._row(tuple(c[index] for c in counts), *(c[index] for c in cells))


def _type_classes(probs: Sequence[float], n: int) -> TypeTable:
    """Every type class of n-letter strings with nonzero probability, counts
    in lexicographic order: a table of (counts, per-string probability,
    class size) rows whose columns are one list of counts per letter, a
    float array and a list of exact ints.

    Each letter gets a table of its powers 0..n. The counts of all letters
    but the last two (a head) are chosen in lexicographic order, and each
    head starts a block of rows over the last two counts (j, rest - j).
    A block's per-string column is head * a[j] * b[rest - j], the letters'
    factors multiplied in letter order, and its sizes are the head's
    multinomial times C(rest, j).

    A class that uses a zero-probability letter is skipped. A class whose
    per-string probability underflows to 0.0, or whose size float() cannot
    hold, is lost to the float range: those classes are skipped while the
    probability they hold together is below 2^-53, and a ValueError naming
    n is raised otherwise.
    """
    p = [float(x) for x in probs]
    if len(p) < 1:
        raise ValueError("need at least one probability")
    if any(x < 0 for x in p):
        raise ValueError("probabilities must be nonnegative")
    total = sum(p)
    if not abs(total - 1.0) <= 1e-9:  # NaN fails this test
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    if n < 1:
        raise ValueError("need at least one copy")
    p = [x / total for x in p]
    if len(p) == 1:  # p == [1.0]
        return TypeTable((([n],), np.ones(1), [1]))
    powers = [[pow(x, c) for c in range(n + 1)] for x in p]
    a, b = np.array(powers[-2:])
    heads = list(_heads(powers[:-2], (), n, 1, 1))
    # C(rest, j) by rest: two letters need row n alone, more need every row
    binomials = _pascal(n) if len(heads) > 1 else {n: _binomial_row(n)}
    counts: list[list[int]] = [[] for _ in p]
    blocks = []
    sizes: list[int] = []
    largest = 0
    for head_counts, rest, head, base in heads:
        for column, c in zip(counts, head_counts):
            column += itertools.repeat(c, rest + 1)
        counts[-2] += range(rest + 1)
        counts[-1] += range(rest, -1, -1)
        blocks.append(head * a[: rest + 1] * b[rest::-1])
        row = binomials[rest]
        sizes += row if base == 1 else map(base.__mul__, row)
        largest = max(largest, base * row[rest // 2])

    per_string = np.concatenate(blocks)
    keep = per_string != 0.0
    if largest >= _FLOAT_OVERFLOW:
        keep &= [size < _FLOAT_OVERFLOW for size in sizes]
    if not keep.all():
        zero = [i for i, x in enumerate(p) if x == 0.0]
        log2_lost = [
            _log2_int(size) + sum(c * math.log2(x) for c, x in zip(full, p) if c)
            for full, size, kept in zip(zip(*counts), sizes, keep.tolist())
            if not kept and not any(full[i] for i in zero)
        ]
        if log2_lost:
            top = max(log2_lost)
            mass = top + math.log2(sum(2.0 ** (x - top) for x in log2_lost))
            if mass >= _LOST_MASS_LOG2:
                raise ValueError(
                    f"n = {n} is past the float range: type classes of total "
                    f"probability {2.0 ** mass:.3g} have a per-string probability "
                    "below the least float or more strings than the largest float"
                )
        counts = [list(itertools.compress(c, keep)) for c in counts]
        per_string = per_string[keep]
        sizes = list(itertools.compress(sizes, keep))
    return TypeTable((tuple(counts), per_string, sizes))


class TypeBranch(NamedTuple):
    """One type class of n-letter strings: its count profile, probability,
    and the cat states extractable from a uniform set of that size.

    A named tuple: immutable, and compared and unpacked as a plain tuple of
    its five fields.
    """

    counts: tuple[int, ...]
    probability: float
    size: int
    yield_bits: float
    yield_floor: int


def concentration_yield_distribution(probs: Sequence[float], n: int) -> TypeTable:
    """Outcome distribution of concentrating n copies by type measurement.

    Everyone holding n copies of a shared distribution measures the type
    (the count profile of the n letters); each outcome leaves a uniform
    superposition over a type class of size `multinomial(n, counts)`,
    worth log2 of that size in cat states, of which floor(log2) are
    extractable as whole ones. The result is a `TypeTable` with one
    `TypeBranch` row per class, in lexicographic order of the count
    profiles; its `columns` is a `TypeBranch` of columns.
    """
    counts, per_string, sizes = _type_classes(probs, n).columns
    float_sizes = np.array(sizes, dtype=float)  # float(size) of each size
    floor = np.fromiter(map(int.bit_length, sizes), int, len(sizes)) - 1
    # log2 of each size as `_log2_int` takes it: past 2^53 the size is
    # scaled into [1, 2) by its power of two, which ldexp does exactly
    shift = np.where(floor > 52, floor, 0)
    scaled = np.ldexp(float_sizes, -shift).tolist()
    bits = shift + np.fromiter(map(math.log2, scaled), float, len(scaled))
    columns = TypeBranch(
        counts, (float_sizes * per_string).tolist(), sizes, bits.tolist(), floor.tolist()
    )
    return TypeTable(columns, TypeBranch)


def _mean_yield(table: TypeTable) -> float:
    """The expected `yield_bits` of a `concentration_yield_distribution` table."""
    columns = table.columns
    return sum(map(operator.mul, columns.probability, columns.yield_bits))


def _retained_fidelity(table: TypeTable) -> float:
    """The kept probability mass of a `dilution_retained_types` table."""
    _, per_string, _, kept = table.columns
    return min(sum(map(operator.mul, per_string, kept)), 1.0)


def dilution_retained_types(probs: Sequence[float], n: int, k: int) -> TypeTable:
    """Which strings a dilution of n copies from k cat states keeps, by
    truncation: a `TypeTable` with one (counts, per-string probability,
    class size, strings kept) row per type, in the greedy order.

    The 2^k most probable strings of the n-fold product distribution are
    kept (whole type classes while they fit, then part of the next); the
    best fidelity with the true n-copy state is the kept probability mass
    (`_retained_fidelity` of this table). It is nondecreasing in k and
    reaches 1 once 2^k covers the full support; a budget past the number
    of strings keeps what that number keeps.
    """
    if k < 0:
        raise ValueError("cat budget must be nonnegative")
    counts, per_string, sizes = _type_classes(probs, n).columns
    strings = len(counts) ** n  # every n-letter string, zero-probability ones too
    budget = 1 << k if k < strings.bit_length() else strings
    # a stable sort keeps equal per-string probabilities in count order
    order = np.argsort(-per_string, kind="stable").tolist()
    kept = []
    for i in order:
        take = min(sizes[i], budget)
        kept.append(take)
        budget -= take
        if budget == 0:
            break
    order = order[: len(kept)]
    return TypeTable(
        (
            tuple([c[i] for i in order] for c in counts),
            per_string[order].tolist(),
            [sizes[i] for i in order],
            kept,
        )
    )
