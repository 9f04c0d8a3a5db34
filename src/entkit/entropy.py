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
from .states import (
    DensityMatrix,
    Partition,
    PureState,
    canonical_partitions,
    reduced_gram,
)

__all__ = [
    "shannon_entropy",
    "entropy",
    "EntropyVector",
    "entropy_vector",
    "cut_spectra",
    "single_party_entropies",
    "is_isentropic",
    "is_marginally_isentropic",
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


def _gram_of(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def entropy(rho: DensityMatrix | np.ndarray) -> float:
    """Von Neumann entropy -tr(rho log2 rho) in bits."""
    gram = _gram_of(rho)
    exact = exact_entropy(gram)
    if exact is not None:
        return float(exact)
    eigenvalues = hermitian_eigenvalues(gram)
    return shannon_entropy([max(float(v), 0.0) for v in eigenvalues])


def flat_spectrum_rank(rho: DensityMatrix | np.ndarray) -> int | None:
    """Rank r if rho is exactly (a projector)/r within tolerance, else None."""
    gram = _gram_of(rho)
    purity = float(np.vdot(gram, gram).real)
    if purity <= 0.0:
        return None
    r = round(1.0 / purity)
    if r < 1 or abs(r * purity - 1.0) > _FLAT_TOL:
        return None
    if float(np.linalg.norm(r * (gram @ gram) - gram)) > _FLAT_TOL:
        return None
    return int(r)


def exact_entropy(rho: DensityMatrix | np.ndarray) -> Fraction | None:
    """Entropy as an exact rational, when the spectrum allows it.

    Flat spectra of power-of-two rank r = 2^s have entropy exactly s bits;
    anything else returns None and callers fall back to floating point.
    """
    r = flat_spectrum_rank(rho)
    if r is None:
        return None
    s = r.bit_length() - 1
    if (1 << s) != r:
        return None
    return Fraction(s)


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

    def dominates(self, other: "EntropyVector", tol: float = _ISENTROPY_TOL) -> bool:
        """Componentwise S_X(self) >= S_X(other) - tol."""
        if self.num_parties != other.num_parties:
            raise ValueError("entropy vectors span different party counts")
        return all(
            self.values[p] >= other.values[p] - tol for p in self.partitions()
        )


def _cheaper_side(state: PureState, part: Partition) -> tuple[int, ...]:
    dim_x = math.prod(state.dims[p] for p in part.members)
    dim_rest = state.dim // dim_x
    return part.members if dim_x <= dim_rest else part.complement().members


def cut_spectra(state: PureState) -> dict[Partition, Fraction | np.ndarray]:
    """The reduced spectrum across every canonical cut, in canonical order.

    Each cut's reduced Gram matrix is formed on its cheaper side. A flat
    spectrum of power-of-two rank is reported as its exact entropy (a
    `Fraction`) and never reaches the eigensolver; every other cut maps to
    its eigenvalues, sorted descending. The remaining Gram matrices are
    diagonalized with one stacked call per matrix size.
    """
    out: dict[Partition, Fraction | np.ndarray] = {}
    pending: dict[int, list[tuple[Partition, np.ndarray]]] = {}
    for part in canonical_partitions(state.num_parties):
        gram = reduced_gram(state, _cheaper_side(state, part))
        exact = exact_entropy(gram)
        out[part] = exact
        if exact is None:
            pending.setdefault(len(gram), []).append((part, gram))
    for cuts in pending.values():
        spectra = hermitian_eigenvalues(np.stack([gram for _, gram in cuts]))
        for (part, _), spectrum in zip(cuts, spectra):
            out[part] = spectrum
    return out


def _vector_from_spectra(
    num_parties: int, spectra: dict[Partition, Fraction | np.ndarray]
) -> EntropyVector:
    """The entropy vector of the cut spectra that `cut_spectra` returned."""
    values = {
        part: float(value) if isinstance(value, Fraction)
        else shannon_entropy([max(float(v), 0.0) for v in value])
        for part, value in spectra.items()
    }
    return EntropyVector(num_parties, values)


def entropy_vector(state: PureState) -> EntropyVector:
    """All partial entropies of a pure state, one per canonical partition."""
    return _vector_from_spectra(state.num_parties, cut_spectra(state))


def single_party_entropies(state: PureState) -> list[float]:
    vec = entropy_vector(state)
    return [vec[(p,)] for p in range(state.num_parties)]


def is_isentropic(a: PureState, b: PureState, tol: float = _ISENTROPY_TOL) -> bool:
    """True when every partial entropy matches within tolerance."""
    if a.num_parties != b.num_parties:
        raise ValueError("states have different party counts")
    return entropy_vector(a).max_difference(entropy_vector(b)) <= tol


def is_marginally_isentropic(
    a: PureState, b: PureState, tol: float = _ISENTROPY_TOL
) -> bool:
    """True when every single-party entropy matches within tolerance."""
    if a.num_parties != b.num_parties:
        raise ValueError("states have different party counts")
    return entropy_vector(a).max_difference(entropy_vector(b), size=1) <= tol


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


def entropy_ratio_r21(state: PureState, tol: float = _ISENTROPY_TOL) -> float:
    """S_AB / S_A for partition-symmetric states of m >= 3 parties.

    Requires all single-party entropies equal and all two-party entropies
    equal (within `tol`); otherwise raises PartitionAsymmetryError naming
    the unequal partitions.
    """
    if state.num_parties < 3:
        raise ValueError("r21 needs at least three parties")
    values = entropy_vector(state).values
    s1 = _symmetric_level(values, state.num_parties, 1, tol)
    s2 = _symmetric_level(values, state.num_parties, 2, tol)
    if s1 <= tol:
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
