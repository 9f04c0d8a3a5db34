"""Partial entropies of pure states and the entropy-vector invariants.

For a pure state, the von Neumann entropy of the reduced state of a party
subset X equals that of its complement, so every cut is computed on the
cheaper side and stored once per canonical partition. Entropies are in bits.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .linalg import hermitian_eigenvalues
from .states import Partition, PureState, canonical_partitions, reduced_gram

__all__ = [
    "shannon_entropy",
    "entropy",
    "EntropyVector",
    "entropy_vector",
    "cut_spectra",
    "single_party_entropies",
    "PartitionAsymmetryError",
    "entropy_ratio_r21",
    "flat_spectrum_rank",
    "exact_entropy",
    "exact_entropy_vector",
    "exact_entropy_vector_of_factors",
    "exact_entropy_ratio_r21",
]

# eigenvalues below this are treated as exact zeros
_EIGENVALUE_FLOOR = 1e-12
_ISENTROPY_TOL = 1e-8
_FLAT_TOL = 1e-9


def shannon_entropy(probs: Sequence[float]) -> float:
    """H(p) in bits with the 0*log(0) = 0 convention."""
    total = 0.0
    for p in probs:
        if p < -_EIGENVALUE_FLOOR:
            raise ValueError(f"negative probability {p}")
        if p > _EIGENVALUE_FLOOR:
            total -= p * math.log2(p)
    return max(total, 0.0)


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -tr(rho log2 rho) in bits of a reduced matrix
    (see `reduced_gram`)."""
    exact = exact_entropy(rho)
    return _cut_entropy(hermitian_eigenvalues(rho) if exact is None else exact)


def flat_spectrum_rank(stack: np.ndarray) -> np.ndarray:
    """Per matrix of a (N, d, d) stack of reduced matrices, the rank r if it
    is exactly (a projector)/r within tolerance, else 0.

    The purity tr(rho^2) = 1/r singles out the candidates, and one stacked
    product tests r rho^2 = rho on them only. Zero and non-finite matrices
    come out 0.
    """
    if len(stack) == 1:  # Python floats are the cheapest arithmetic for one matrix
        purity = float(np.vdot(stack, stack).real)
        r = round(1.0 / purity) if purity > 0.0 else 0
        if r < 1 or abs(r * purity - 1.0) > _FLAT_TOL:
            return np.zeros(1)
        deviation = stack @ stack
        deviation *= r
        deviation -= stack
        return np.array([r if math.sqrt(np.vdot(deviation, deviation).real) <= _FLAT_TOL else 0.0])
    purity = _squared_norms(stack)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ranks = np.rint(1.0 / purity)
        ranks[~(np.abs(ranks * purity - 1.0) <= _FLAT_TOL)] = 0.0
    rows = ranks.nonzero()[0]
    if len(rows):
        candidates = stack if len(rows) == len(stack) else stack[rows]
        deviation = candidates @ candidates
        deviation *= ranks[rows].reshape(-1, 1, 1)
        deviation -= candidates
        ranks[rows[np.sqrt(_squared_norms(deviation)) > _FLAT_TOL]] = 0.0
    return ranks


def _squared_norms(stack: np.ndarray) -> np.ndarray:
    """Sum of squared moduli of each entry of a stack, per leading index."""
    if len(stack) == 1:  # np.vdot is the cheapest reduction for one matrix
        return np.array([np.vdot(stack, stack).real])
    flat = np.ascontiguousarray(stack).reshape(len(stack), -1).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def exact_entropy(rho: np.ndarray) -> Fraction | None:
    """Entropy of a reduced matrix as an exact rational, when its spectrum
    allows it.

    Flat spectra of power-of-two rank r = 2^s have entropy exactly s bits;
    anything else returns None and callers fall back to floating point.
    """
    r = int(flat_spectrum_rank(rho[None])[0])
    if not r or r & (r - 1):
        return None
    return Fraction(r.bit_length() - 1)


@dataclass(frozen=True)
class EntropyVector:
    """Partial entropies S_X for every canonical nontrivial partition."""

    num_parties: int
    values: dict[Partition, float]

    def __post_init__(self) -> None:
        expected = canonical_partitions(self.num_parties)
        if set(self.values) != set(expected):
            raise ValueError("entropy vector must cover exactly the canonical partitions")

    def __getitem__(self, key: Partition | Iterable[int]) -> float:
        if not isinstance(key, Partition):
            key = Partition(self.num_parties, tuple(key))
        return self.values[key.canonical()]

    def partitions(self) -> list[Partition]:
        return canonical_partitions(self.num_parties)

    def entries(self) -> list[tuple[Partition, float]]:
        return [(part, self.values[part]) for part in self.partitions()]

    def max_difference(self, other: "EntropyVector", size: int | None = None) -> float:
        """Largest |S_X(self) - S_X(other)|, over cuts with |X| = size if given."""
        if self.num_parties != other.num_parties:
            raise ValueError("entropy vectors span different party counts")
        return max(
            abs(self.values[p] - other.values[p])
            for p in self.partitions()
            if size is None or len(p.members) == size
        )

    def dominates(self, other: "EntropyVector") -> bool:
        """Componentwise S_X(self) >= S_X(other) - 1e-8."""
        if self.num_parties != other.num_parties:
            raise ValueError("entropy vectors span different party counts")
        return all(
            self.values[p] >= other.values[p] - _ISENTROPY_TOL for p in self.partitions()
        )


def _cheaper_side(dims: Sequence[int], dim: int, part: Partition) -> Partition:
    dim_x = math.prod(dims[p] for p in part.members)
    return part if dim_x * dim_x <= dim else part.complement()


# matrix entries held back for one stacked eigensolver call (64 MB)
_PENDING_ENTRIES = 1 << 22
# Gram entries per block of same-size cuts in a stack's entropy vector
# (128 KB): larger blocks save little Python work and raise peak memory
_BLOCK_ENTRIES = 1 << 13


def cut_spectra(state: PureState) -> dict[Partition, Fraction | np.ndarray]:
    """The reduced spectrum across every canonical cut, in canonical order.

    Each cut's reduced Gram matrix is formed on its cheaper side. A flat
    spectrum of power-of-two rank is reported as its exact entropy (a
    `Fraction`) and never reaches the eigensolver; every other cut maps to
    its eigenvalues, sorted descending. The remaining Gram matrices are
    diagonalized with one stacked call per matrix size, split only when the
    held-back matrices would exceed 64 MB.
    """
    out: dict[Partition, Fraction | np.ndarray | None] = {}
    # per Gram size: the cuts still to diagonalize and their Grams
    pending: dict[int, list[tuple[Partition, np.ndarray]]] = {}

    def diagonalize(size: int) -> None:
        batch = pending.pop(size)
        spectra = hermitian_eigenvalues(np.stack([gram for _, gram in batch]))
        for (part, _), values in zip(batch, spectra):
            out[part] = values

    for part in canonical_partitions(state.num_parties):
        gram = reduced_gram(state, _cheaper_side(state.dims, state.dim, part))
        out[part] = exact_entropy(gram)
        if out[part] is None:
            size = len(gram)
            pending.setdefault(size, []).append((part, gram))
            if len(pending[size]) * gram.size >= _PENDING_ENTRIES:
                diagonalize(size)
    for size in list(pending):
        diagonalize(size)
    return out


def _cut_entropy(value: Fraction | np.ndarray) -> float:
    if isinstance(value, np.ndarray):
        return shannon_entropy([max(float(v), 0.0) for v in value])
    return float(value)


def _vector_from_spectra(num_parties: int, spectra: dict) -> EntropyVector:
    """The entropy vector of the cut spectra that `cut_spectra` returned."""
    return EntropyVector(
        num_parties, {part: _cut_entropy(value) for part, value in spectra.items()}
    )


def _stack_entropies(grams: np.ndarray) -> np.ndarray:
    """The entropy of each matrix of a (N, d, d) stack of reduced matrices.

    A flat spectrum of rank 2^s is exactly s bits; every other matrix goes
    to one stacked eigensolver call.
    """
    mantissa, exponent = np.frexp(flat_spectrum_rank(grams))
    out = (exponent - 1).astype(float)
    rest = (mantissa != 0.5).nonzero()[0]
    if len(rest):
        spectra = hermitian_eigenvalues(grams if len(rest) == len(grams) else grams[rest])
        out[rest] = [_cut_entropy(values) for values in spectra]
    return out


def entropy_vector(
    state: PureState | np.ndarray, weights: Sequence[float] | None = None
) -> EntropyVector:
    """All partial entropies of a pure state, one per canonical partition.

    `state` may also be a stack of states with shared dims, an array of
    shape (B, d1, ..., dm), with one weight per state: the result is the
    weighted sum of their entropy vectors, with branch probabilities as
    weights the expected one. The cuts whose cheaper side has the same
    size d share one (cuts, B, d, d) Gram block of at most about 2^13
    entries (one cut's stack when that alone is larger). Each block takes
    one flat-spectrum test and one eigensolver call for the rows that are
    not flat of power-of-two rank. Each cut's sum runs left to right over
    the states, so it equals the sum of the states' own vectors exactly.
    """
    if isinstance(state, PureState):
        if weights is not None:
            raise ValueError("weights apply to a stack of states only")
        return _vector_from_spectra(state.num_parties, cut_spectra(state))
    if not len(state) or weights is None or len(weights) != len(state):
        raise ValueError("a stack needs at least one state and one weight per state")
    weights = np.asarray(weights, dtype=float)
    dims = state.shape[1:]
    dim = math.prod(dims)
    values: dict[Partition, float] = {}
    by_size: dict[int, list[tuple[Partition, Partition]]] = {}
    for part in canonical_partitions(len(dims)):
        values[part] = 0.0  # keeps the canonical order
        side = _cheaper_side(dims, dim, part)
        by_size.setdefault(math.prod(dims[p] for p in side.members), []).append((part, side))
    # infinite rows give NaN Grams, which the eigensolver rejects
    with np.errstate(invalid="ignore"):
        for size, cuts in by_size.items():
            per_block = max(1, _BLOCK_ENTRIES // (len(state) * size * size))
            for start in range(0, len(cuts), per_block):
                block = cuts[start : start + per_block]
                grams = [reduced_gram(state, side) for _, side in block]
                grams = grams[0] if len(grams) == 1 else np.concatenate(grams)
                entropies = _stack_entropies(grams).reshape(len(block), len(state))
                for (part, _), row in zip(block, entropies):
                    values[part] = sum((weights * row).tolist())
    return EntropyVector(len(dims), values)


def single_party_entropies(state: PureState) -> list[float]:
    vec = entropy_vector(state)
    return [vec[(p,)] for p in range(state.num_parties)]


class PartitionAsymmetryError(ValueError):
    """Raised when a ratio that assumes partition symmetry is requested."""

    def __init__(self, message: str, unequal: list[tuple[str, float]]):
        detail = ", ".join(f"S_{label}={value:.10g}" for label, value in unequal)
        super().__init__(f"{message}: {detail}")
        self.unequal = unequal


def _symmetric_level(
    values: dict[Partition, float | Fraction], num_parties: int, size: int, tol: float
) -> float | Fraction:
    """The common S_X over |X| = size, or raise with every such S_X listed.

    Callers pass tol = 0 for exact `Fraction` entropies.
    """
    levels = []
    for members in itertools.combinations(range(num_parties), size):
        part = Partition(num_parties, members)
        levels.append((part.label, values[part.canonical()]))
    spread = max(v for _, v in levels) - min(v for _, v in levels)
    if spread > tol:
        raise PartitionAsymmetryError(
            f"size-{size} partition entropies are not all equal",
            [(label, float(v)) for label, v in levels],
        )
    return levels[0][1]


def entropy_ratio_r21(state: PureState) -> float:
    """S_AB / S_A for partition-symmetric states of m >= 3 parties.

    Requires all single-party entropies equal and all two-party entropies
    equal (within 1e-8); otherwise raises PartitionAsymmetryError naming
    the unequal partitions.
    """
    if state.num_parties < 3:
        raise ValueError("r21 needs at least three parties")
    values = entropy_vector(state).values
    s1 = _symmetric_level(values, state.num_parties, 1, _ISENTROPY_TOL)
    s2 = _symmetric_level(values, state.num_parties, 2, _ISENTROPY_TOL)
    if s1 <= _ISENTROPY_TOL:
        raise ValueError("r21 undefined: single-party entropy is zero")
    return s2 / s1


# --- exact-rational entropy vectors -----------------------------------------


def exact_entropy_vector(state: PureState) -> dict[Partition, Fraction]:
    """Exact entropy per canonical partition; raises if any cut is not exact."""
    values = cut_spectra(state)
    for part, value in values.items():
        if not isinstance(value, Fraction):
            raise ValueError(
                f"partition {part.label} has no exact rational entropy"
            )
    return values


def exact_entropy_vector_of_factors(
    num_parties: int,
    factors: Iterable[tuple[PureState, Sequence[int]]],
) -> dict[Partition, Fraction]:
    """Exact entropy vector of a tensor product given per-factor states.

    Each factor is a small pure state together with the global parties it
    occupies (in its own party order). Partial entropy is additive over
    tensor factors, so each canonical cut is summed factor by factor; this
    sidesteps ever materializing the (possibly huge) joint state.
    """
    factor_list = [
        (state, tuple(int(p) for p in parties)) for state, parties in factors
    ]
    for state, parties in factor_list:
        if len(parties) != state.num_parties:
            raise ValueError("factor party list does not match its party count")
        if len(set(parties)) != len(parties):
            raise ValueError("factor parties must be distinct")
        if any(p < 0 or p >= num_parties for p in parties):
            raise ValueError("factor party out of range")
    values: dict[Partition, Fraction] = {}
    for part in canonical_partitions(num_parties):
        inside = set(part.members)
        total = Fraction(0)
        for state, parties in factor_list:
            local = tuple(
                idx for idx, p in enumerate(parties) if p in inside
            )
            if not local or len(local) == state.num_parties:
                continue
            gram = reduced_gram(state, local)
            value = exact_entropy(gram)
            if value is None:
                raise ValueError(
                    f"factor on {parties} has no exact entropy across {part.label}"
                )
            total += value
        values[part] = total
    return values


def exact_entropy_ratio_r21(
    vec: dict[Partition, Fraction], num_parties: int
) -> Fraction:
    """Exact S_AB / S_A from an exact entropy vector of a symmetric state."""
    s1 = _symmetric_level(vec, num_parties, 1, 0)
    s2 = _symmetric_level(vec, num_parties, 2, 0)
    if s1 == 0:
        raise ValueError("r21 undefined: single-party entropy is zero")
    return s2 / s1
