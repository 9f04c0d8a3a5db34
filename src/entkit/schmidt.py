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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .entropy import entropy_vector, shannon_entropy
from .linalg import hermitian_eigensystem
from .states import Partition, PureState, _keep_indices

__all__ = [
    "SchmidtDecomposition",
    "schmidt_decompose",
    "MOrthogonalForm",
    "MOrthogonalResult",
    "is_m_orthogonal",
    "cat_yield",
    "TypeBranch",
    "concentration_yield_distribution",
    "expected_concentration_yield",
    "dilution_fidelity",
    "dilution_retained_types",
]

_COEFF_FLOOR = 1e-12
_RANK_ONE_TOL = 1e-8
_DEGENERACY_GAP = 1e-8
_ORTHOGONALITY_TOL = 1e-8
_ENTROPY_SPREAD_TOL = 1e-8
_RECONSTRUCTION_TOL = 1e-9


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Bipartite decomposition sum_i c_i |u_i>|v_i> across a cut.

    Coefficients are real, nonnegative, and sorted descending; the u and v
    columns are orthonormal. `left_parties` lists the parties of the cut,
    `right_parties` the rest, both ascending.
    """

    state: PureState
    left_parties: tuple[int, ...]
    right_parties: tuple[int, ...]
    coefficients: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    def spectrum(self) -> np.ndarray:
        return self.coefficients**2

    def reconstruct(self) -> PureState:
        """Rebuild the state from the decomposition (original party order)."""
        dims = self.state.dims
        matrix = (self.left_vectors * self.coefficients) @ self.right_vectors.conj().T
        left_dims = tuple(dims[p] for p in self.left_parties)
        right_dims = tuple(dims[p] for p in self.right_parties)
        t = matrix.reshape(left_dims + right_dims)
        order = np.argsort(self.left_parties + self.right_parties)
        return PureState(dims, t.transpose(order).reshape(-1))


def schmidt_decompose(
    state: PureState, cut: Partition | Iterable[int]
) -> SchmidtDecomposition:
    """Schmidt decomposition of a pure state across one cut.

    Vectors on the cut side come from the reduced density matrix; the
    matching vectors on the far side are read off the amplitude matrix, so
    phases land entirely in the vectors and the coefficients stay real.
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
    right = (m.conj().T @ left) / coeffs
    return SchmidtDecomposition(
        state=state,
        left_parties=members,
        right_parties=rest,
        coefficients=coeffs,
        left_vectors=left,
        right_vectors=right,
    )


@dataclass(frozen=True)
class MOrthogonalForm:
    """Explicit form sum_i c_i |e_i^1>...|e_i^m| with orthonormal vectors
    per party. `party_vectors[p]` is a (dim_p, rank) column matrix."""

    dims: tuple[int, ...]
    coefficients: np.ndarray
    party_vectors: tuple[np.ndarray, ...]

    @property
    def rank(self) -> int:
        return len(self.coefficients)

    def to_state(self) -> PureState:
        total = math.prod(self.dims)
        amps = np.zeros(total, dtype=complex)
        for i in range(self.rank):
            term = self.coefficients[i]
            vec = np.ones(1, dtype=complex)
            for p in range(len(self.dims)):
                vec = np.multiply.outer(vec, self.party_vectors[p][:, i]).reshape(-1)
            amps += term * vec
        return PureState(self.dims, amps)


@dataclass(frozen=True)
class MOrthogonalResult:
    """Outcome of the m-orthogonality test.

    `decomposable` is True or False when certified either way; None means
    the test was inconclusive (this can happen when the squared
    coefficients are degenerate, where the canonical construction loses
    its uniqueness). `form` carries the decomposition when found.
    """

    decomposable: bool | None
    form: MOrthogonalForm | None
    reason: str

    def __bool__(self) -> bool:
        return self.decomposable is True


def _factor_into_products(
    vector: np.ndarray, dims: Sequence[int]
) -> tuple[list[np.ndarray] | None, str]:
    """Split a multiparty vector into per-party unit vectors, or report why not.

    Peels one party at a time: the party's reduced state must be rank one
    within tolerance, its principal vector is the factor, and the residual
    carries on. The global phase is pushed into the first factor so the
    product reproduces the vector exactly.
    """
    factors: list[np.ndarray] = []
    residual = np.asarray(vector, dtype=complex)
    shape = tuple(dims)
    for axis, d in enumerate(shape[:-1]):
        m = residual.reshape(d, -1)
        eigenvalues, vectors = hermitian_eigensystem(m @ m.conj().T)
        norm_sq = float(eigenvalues.sum())
        if eigenvalues[0] < (1.0 - _RANK_ONE_TOL) * norm_sq:
            return None, (
                f"factor {axis} is entangled with the remainder "
                f"(principal weight {eigenvalues[0] / norm_sq:.9f})"
            )
        principal = vectors[:, 0]
        factors.append(principal)
        residual = principal.conj() @ m
    last = residual.reshape(-1)
    last_norm = np.linalg.norm(last)
    factors.append(last / last_norm)

    product = np.ones(1, dtype=complex)
    for f in factors:
        product = np.multiply.outer(product, f).reshape(-1)
    overlap = np.vdot(product, np.asarray(vector, dtype=complex).reshape(-1))
    factors[0] = factors[0] * (overlap / abs(overlap))
    return factors, ""


def is_m_orthogonal(state: PureState) -> MOrthogonalResult:
    """Test whether a pure state admits an m-orthogonal decomposition.

    Decomposes across the {first party | rest} cut and tries to split each
    right-hand vector into a product over the remaining parties, then
    checks that each party's collected vectors are pairwise orthogonal. A
    necessary condition is checked first: every partition must carry the
    same entropy, which rejects most states immediately. When the squared
    coefficients are degenerate and the construction fails, the result is
    inconclusive rather than negative, since a different basis of the
    degenerate subspace could still succeed.
    """
    m = state.num_parties
    if m < 2:
        raise ValueError("need at least two parties")

    if m >= 3:
        vec = entropy_vector(state)
        lo = min(v for _, v in vec.entries())
        hi = max(v for _, v in vec.entries())
        if hi - lo > _ENTROPY_SPREAD_TOL:
            return MOrthogonalResult(
                decomposable=False,
                form=None,
                reason=(
                    "partial entropies are not constant across partitions "
                    f"(spread {hi - lo:.3e})"
                ),
            )

    sd = schmidt_decompose(state, (0,))
    coeffs = sd.coefficients
    spectrum = coeffs**2
    degenerate = any(
        abs(spectrum[i] - spectrum[j]) < _DEGENERACY_GAP
        for i in range(len(spectrum))
        for j in range(i + 1, len(spectrum))
    )

    if m == 2:
        form = MOrthogonalForm(
            dims=state.dims,
            coefficients=coeffs,
            party_vectors=(sd.left_vectors, sd.right_vectors),
        )
        return MOrthogonalResult(True, form, "two parties always decompose")

    rest_dims = state.dims[1:]
    per_party: list[list[np.ndarray]] = [[] for _ in range(m - 1)]
    for i in range(sd.rank):
        factors, why = _factor_into_products(sd.right_vectors[:, i], rest_dims)
        if factors is None:
            if degenerate:
                return MOrthogonalResult(
                    None,
                    None,
                    "inconclusive: degenerate coefficients and a non-product "
                    "branch; a rotated degenerate basis might still decompose "
                    f"({why})",
                )
            return MOrthogonalResult(
                False, None, f"branch {i} of the first-party cut: {why}"
            )
        for p, f in enumerate(factors):
            per_party[p].append(f)

    for p, vectors in enumerate(per_party):
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                inner = abs(np.vdot(vectors[i], vectors[j]))
                if inner > _ORTHOGONALITY_TOL:
                    if degenerate:
                        return MOrthogonalResult(
                            None,
                            None,
                            "inconclusive: degenerate coefficients and "
                            f"non-orthogonal vectors at party {p + 1} "
                            f"(|<i|j>| = {inner:.3e})",
                        )
                    return MOrthogonalResult(
                        False,
                        None,
                        f"party {p + 1} vectors for branches {i} and {j} are "
                        f"not orthogonal (|<i|j>| = {inner:.3e})",
                    )

    party_vectors = (sd.left_vectors,) + tuple(
        np.column_stack(vectors) for vectors in per_party
    )
    form = MOrthogonalForm(state.dims, coeffs, party_vectors)
    overlap = abs(form.to_state().overlap(state)) ** 2
    if overlap < 1.0 - _RECONSTRUCTION_TOL:
        return MOrthogonalResult(
            None,
            None,
            f"inconclusive: assembled form has fidelity {overlap:.12f}",
        )
    return MOrthogonalResult(True, form, "decomposition found")


def cat_yield(state: PureState) -> float:
    """Asymptotic cat states per copy from a Schmidt decomposable state.

    This is the entropy of the squared coefficients, which equals every
    partition's partial entropy. Raises for states that are not certified
    decomposable (inconclusive cases included, with a distinct message).
    """
    result = is_m_orthogonal(state)
    if result.decomposable is None:
        raise ValueError(f"decomposability is unresolved: {result.reason}")
    if not result.decomposable:
        raise ValueError(f"state is not Schmidt decomposable: {result.reason}")
    return shannon_entropy(result.form.coefficients ** 2)


# --- type-class combinatorics ------------------------------------------------


def _multinomial(counts: Sequence[int]) -> int:
    out = 1
    seen = 0
    for c in counts:
        seen += c
        out *= math.comb(seen, c)
    return out


def _log2_int(value: int) -> float:
    """log2 of a positive integer without float overflow."""
    shift = value.bit_length() - 1
    if shift <= 52:
        return math.log2(value)
    return shift + math.log2(value / (1 << shift))


def _type_classes(probs: Sequence[float], n: int):
    """(counts, per-string probability, class size) of every type class of
    n-letter strings with nonzero probability, counts in lexicographic order.

    Stars and bars: the counts are the gaps between len(probs) - 1 sorted
    cut points in 0..n, and the cut tuples come out in lexicographic order,
    so the counts do too.
    """
    p = [float(x) for x in probs]
    if len(p) < 1:
        raise ValueError("need at least one probability")
    if any(x < 0 for x in p):
        raise ValueError("probabilities must be nonnegative")
    total = sum(p)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    if n < 1:
        raise ValueError("need at least one copy")
    p = [x / total for x in p]
    for cuts in itertools.combinations_with_replacement(range(n + 1), len(p) - 1):
        counts = tuple(map(operator.sub, cuts + (n,), (0,) + cuts))
        # a zero count's factor is exactly 1.0, so it leaves the product as is
        per_string = math.prod(map(pow, p, counts))
        if per_string != 0.0:
            yield counts, per_string, _multinomial(counts)


@dataclass(frozen=True)
class TypeBranch:
    """One type class of n-letter strings: its count profile, probability,
    and the cat states extractable from a uniform set of that size."""

    counts: tuple[int, ...]
    probability: float
    size: int
    yield_bits: float
    yield_floor: int


def concentration_yield_distribution(
    probs: Sequence[float], n: int
) -> list[TypeBranch]:
    """Outcome distribution of concentrating n copies by type measurement.

    Everyone holding n copies of a shared distribution measures the type
    (the count profile of the n letters); each outcome leaves a uniform
    superposition over a type class of size `multinomial(n, counts)`,
    worth log2 of that size in cat states, of which floor(log2) are
    extractable as whole ones. Branches come back in lexicographic order
    of their count profiles.
    """
    return [
        TypeBranch(
            counts=counts,
            probability=float(size) * per_string,
            size=size,
            yield_bits=_log2_int(size),
            yield_floor=size.bit_length() - 1,
        )
        for counts, per_string, size in _type_classes(probs, n)
    ]


def expected_concentration_yield(probs: Sequence[float], n: int) -> float:
    """Expected cat states from concentrating n copies (fractional bits)."""
    return _mean_yield(concentration_yield_distribution(probs, n))


def _mean_yield(branches: Sequence[TypeBranch]) -> float:
    """The expected `yield_bits` of `concentration_yield_distribution` branches."""
    return sum(b.probability * b.yield_bits for b in branches)


def dilution_fidelity(probs: Sequence[float], n: int, k: int) -> float:
    """Best fidelity for building n copies from k cat states by truncation.

    The 2^k most probable strings of the n-fold product distribution are
    kept (whole type classes while they fit, then part of the next); the
    achievable squared overlap with the true n-copy state is the kept
    probability mass. Nondecreasing in k, reaching 1 once 2^k covers the
    full support.
    """
    return _retained_fidelity(dilution_retained_types(probs, n, k))


def _retained_fidelity(rows: Sequence[tuple[tuple[int, ...], float, int, int]]) -> float:
    """The kept probability mass of `dilution_retained_types` rows."""
    return min(sum(per_string * take for _, per_string, _, take in rows), 1.0)


def dilution_retained_types(
    probs: Sequence[float], n: int, k: int
) -> list[tuple[tuple[int, ...], float, int, int]]:
    """Breakdown of `dilution_fidelity`: (counts, per-string probability,
    class size, strings kept) per type, in the greedy order."""
    if k < 0:
        raise ValueError("cat budget must be nonnegative")
    types = sorted(_type_classes(probs, n), key=lambda t: (-t[1], t[0]))
    budget = 1 << k
    rows = []
    for counts, per_string, size in types:
        take = min(size, budget)
        rows.append((counts, per_string, size, take))
        budget -= take
        if budget == 0:
            break
    return rows
