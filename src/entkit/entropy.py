"""Partial entropies of pure states and the entropy-vector invariants.

For a pure state, the von Neumann entropy of the reduced state of a party
subset X equals that of its complement, so every cut is computed on the
cheaper side and stored once per canonical partition. Entropies are in bits.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .linalg import _unchecked_eigenvalues
from .states import _NORM_TOL, Partition, PureState, _gram_axes, _keep_indices, canonical_partitions

__all__ = [
    "shannon_entropy",
    "EntropyVector",
    "entropy_vector",
    "cut_spectra",
    "PartitionAsymmetryError",
    "flat_spectrum_rank",
    "exact_entropy",
    "exact_entropy_vector",
    "exact_entropy_ratio_r21",
]

# eigenvalues below this are treated as exact zeros
_EIGENVALUE_FLOOR = 1e-12
_ISENTROPY_TOL = 1e-8
_FLAT_TOL = 1e-9


def shannon_entropy(probs: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """H(p) in bits over the last axis (a float for one distribution), with
    0 log 0 = 0 for |p| <= 1e-12; a more negative p raises."""
    p = np.asarray(probs, dtype=float)
    if (p < -_EIGENVALUE_FLOOR).any():
        raise ValueError(f"negative probability {p.min()}")
    p = np.where(p > _EIGENVALUE_FLOOR, p, 1.0)  # log2(1) = 0 drops the zeros
    h = np.maximum(0.0 - (p * np.log2(p)).sum(axis=-1), 0.0)
    return h if h.ndim else float(h)


def flat_spectrum_rank(stack: np.ndarray) -> np.ndarray:
    """Per matrix of a (N, d, d) stack of reduced matrices, the rank r if it
    is exactly (a projector)/r within tolerance, else 0.

    The purity tr(rho^2) = 1/r singles out the candidates, and one stacked
    product tests r rho^2 = rho on them only. Zero and non-finite matrices
    come out 0. Every cut spectrum takes this test first: a block of cuts
    in `_cut_blocks`, or one matrix in `exact_entropy`.
    """
    return _flat_ranks(stack, _squared_norms(stack))


def _flat_ranks(stack: np.ndarray, purity: np.ndarray) -> np.ndarray:
    """`flat_spectrum_rank` of a stack whose purities are already known."""
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
    anything else returns None.
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
        if isinstance(key, Partition):
            _keep_indices(self.num_parties, key)  # refuses another party count
        else:
            key = Partition(self.num_parties, tuple(key))
        return self.values[key.canonical()]

    def partitions(self) -> list[Partition]:
        return canonical_partitions(self.num_parties)

    def entries(self) -> list[tuple[Partition, float]]:
        return [(part, self.values[part]) for part in self.partitions()]

    def max_difference(self, other: "EntropyVector", size: int | None = None) -> float:
        """Largest |S_X(self) - S_X(other)|, over cuts with |X| = size if given
        (1 <= size <= m - 1; X and its complement are one cut)."""
        if self.num_parties != other.num_parties:
            raise ValueError("entropy vectors span different party counts")
        m = self.num_parties
        if size is not None and not 1 <= size <= m - 1:
            raise ValueError(f"cut size {size} is outside 1..{m - 1} for {m} parties")
        return max(
            abs(self.values[p] - other.values[p])
            for p in self.partitions()
            if size is None or len(p.members) == min(size, m - size)
        )

    def dominates(self, other: "EntropyVector") -> bool:
        """Componentwise S_X(self) >= S_X(other) - 1e-8."""
        if self.num_parties != other.num_parties:
            raise ValueError("entropy vectors span different party counts")
        return all(
            self.values[p] >= other.values[p] - _ISENTROPY_TOL for p in self.partitions()
        )


# amplitudes per Gram buffer and Gram entries per block (128 KB each, so
# that they stay in L2): larger blocks save little work, raise peak memory
_BLOCK_ENTRIES = 1 << 13


@functools.cache
def _cuts_by_size(dims: tuple[int, ...]) -> tuple:
    """The canonical cuts of states on `dims`, one entry per distinct reduced
    matrix, grouped by the size d of the Gram matrix on their cheaper side:
    (d, ((canonical indices, side, the axes of a stack that bring that side
    first), ...)).

    Cuts whose cheaper sides hold the same parties of dimension > 1 share
    one entry, with the first such cut's side: a dimension-1 party adds no
    length to either axis of the split amplitude matrix, so their Grams are
    the same matrix, byte for byte. A state with no dimension-1 party has
    one index per entry. This is the package's one rule for dimension-1
    parties: `_exact_lift` reads it from these entries too.
    """
    dim, m = math.prod(dims), len(dims)
    by_size: dict[int, dict[tuple[int, ...], tuple[list[int], Partition]]] = {}
    for index, part in enumerate(canonical_partitions(m)):
        size = math.prod(dims[p] for p in part.members)
        if size * size > dim:
            part, size = part.complement(), dim // size
        kept = tuple(p for p in part.members if dims[p] > 1)
        by_size.setdefault(size, {}).setdefault(kept, ([], part))[0].append(index)
    return tuple(
        (size, tuple((tuple(cuts), side, _gram_axes(m, side.members, True)) for cuts, side in entries.values()))
        for size, entries in by_size.items()
    )


def _block_grams(stack: np.ndarray, block: tuple, size: int) -> np.ndarray:
    """The (K B, d, d) Grams of K same-size entries of `_cuts_by_size` of a
    stack, entry-major, in the stack's dtype: one copy per entry's side into
    a (K, B, d, n) buffer, then one product."""
    buf = np.empty((len(block), len(stack), size, stack[0].size // size), dtype=stack.dtype)
    for k, (_, _, axes) in enumerate(block):
        permuted = stack.transpose(axes)
        buf[k].reshape(permuted.shape)[...] = permuted
    return (buf @ buf.conj().swapaxes(-1, -2)).reshape(-1, size, size)


def _arithmetic_groups(stack: np.ndarray) -> list:
    """(rows, their stack) per arithmetic: float64 for rows with no nonzero
    imaginary part (-0.0 is zero), else complex128, where the purity of a
    row with a NaN or infinite imaginary part rejects it."""
    stack = stack.astype(complex, copy=False)
    complex_rows = stack.reshape(len(stack), -1).imag.any(axis=1)
    if len(set(complex_rows.tolist())) == 1:
        return [(slice(None), stack if complex_rows[0] else stack.real)]
    return [(~complex_rows, stack[~complex_rows].real), (complex_rows, stack[complex_rows])]


def _cut_blocks(stack: np.ndarray):
    """The partial entropies and cut spectra of a (B, d1, ..., dm) stack of
    states, one block of same-size entries of `_cuts_by_size` at a time:
    (indices, entropies, others, spectra). Every partial entropy in the
    package comes from here.

    Each distinct reduced matrix is formed, flat-tested and diagonalized
    once, for every cut that shares it. A block holds the entries whose
    cheaper side has the same Gram size d, at most `_BLOCK_ENTRIES` Gram
    entries; its Grams are formed in buffers of at most `_BLOCK_ENTRIES`
    amplitudes (either holds one entry when that entry alone is larger).
    `indices[k]` is the tuple of canonical indices of entry k's cuts, and
    row b of entry k is state b's reduced matrix on each of them. For a row
    whose spectrum is flat of power-of-two rank 2^s, `entropies[k, b]` is
    exactly s bits; `others[k, b]` marks every other row, and `spectra`
    holds their eigenvalues in row order, sorted descending, from one
    unchecked eigensolver call, and their entropies from one
    `shannon_entropy` call: the Grams are Hermitian by construction, and a
    non-finite one raises by its purity.

    Rows with no imaginary part are reduced in real arithmetic, at about half
    the cost, the others in complex arithmetic: per row, so a row gets the
    same bits in any stack as alone, and a mixed stack makes each call twice.
    """
    count = len(stack)
    groups = _arithmetic_groups(stack)
    chunk = max(1, _BLOCK_ENTRIES // (count * stack[0].size))  # entries per buffer
    for size, entries in _cuts_by_size(stack.shape[1:]):
        per_block = max(chunk, _BLOCK_ENTRIES // (count * size * size))
        for start in range(0, len(entries), per_block):
            block = entries[start : start + per_block]
            parts = []
            for rows, sub in groups:
                grams = [_block_grams(sub, block[i : i + chunk], size) for i in range(0, len(block), chunk)]
                grams = grams[0] if len(grams) == 1 else np.concatenate(grams)
                purity = _squared_norms(grams)
                if not np.isfinite(purity).all():
                    raise ValueError("stack has non-finite amplitudes (NaN or infinity)")
                mantissa, exponent = np.frexp(_flat_ranks(grams, purity).reshape(len(block), -1))
                others = mantissa != 0.5
                rest = grams if others.all() else grams[others.ravel()]
                parts.append((rows, exponent - 1.0, others, _unchecked_eigenvalues(rest) if len(rest) else ()))
            _, entropies, others, spectra = parts[0]
            if len(parts) > 1:  # both arithmetics: each row in its place
                entropies, others = np.empty((len(block), count)), np.empty((len(block), count), dtype=bool)
                for rows, part_entropies, part_others, _ in parts:
                    entropies[:, rows], others[:, rows] = part_entropies, part_others
                slots = (np.cumsum(others) - 1).reshape(others.shape)  # row order in `spectra`
                spectra = np.empty((others.sum(), size))
                for rows, _, part_others, values in parts:
                    spectra[slots[:, rows][part_others]] = np.reshape(values, (-1, size))
            if len(spectra):
                entropies[others] = shannon_entropy(spectra)
            yield [entry[0] for entry in block], entropies, others, spectra


def cut_spectra(state: PureState) -> dict[Partition, Fraction | np.ndarray]:
    """The reduced spectrum across every canonical cut, in canonical order.

    The state goes through `_cut_blocks` as a stack of one, so each distinct
    reduced matrix is formed once, on its cheaper side, in real arithmetic
    if the state has no imaginary part, and same-size ones share one
    flat-spectrum test and one eigensolver call; cuts that differ only by
    parties of dimension 1 fold into one matrix and get the same value (for
    an eigenvalue array, the same object). A flat spectrum of power-of-two
    rank is reported as its exact entropy (a `Fraction`) and never reaches
    the eigensolver; every other cut maps to its eigenvalues, descending.
    """
    return _spectra_and_entropies(state)[0]


def _spectra_and_entropies(state: PureState) -> tuple[dict[Partition, Fraction | np.ndarray], list[float]]:
    """`cut_spectra` of one state and its partial entropies in the same
    (canonical) order, the values of its `entropy_vector`, from one pass of
    `_cut_blocks`."""
    parts = canonical_partitions(state.num_parties)
    spectra: list[Fraction | np.ndarray | None] = [None] * len(parts)
    values = [0.0] * len(parts)
    for entries, entropies, others, block in _cut_blocks(state.as_tensor()[None]):
        block = iter(block)
        for indices, value, other in zip(entries, entropies[:, 0].tolist(), others[:, 0].tolist()):
            spectrum = next(block) if other else Fraction(int(value))
            for index in indices:
                spectra[index], values[index] = spectrum, value
    return dict(zip(parts, spectra)), values


def _check_norms(squared: list[float]) -> None:
    """Given each stack row's squared norm, refuse the first row whose norm
    is finite and off 1 by more than `_NORM_TOL`; a non-finite row is left
    for `_cut_blocks` to refuse."""
    low, high = (1.0 - _NORM_TOL) ** 2, (1.0 + _NORM_TOL) ** 2
    if not low <= min(squared) <= max(squared) <= high:
        for row, value in enumerate(squared):
            if math.isfinite(value) and not low <= value <= high:
                raise ValueError(f"stack row {row} has norm {math.sqrt(value):.12g}; a state's norm is 1")


def entropy_vector(
    state: PureState | np.ndarray, weights: Sequence[float] | None = None
) -> EntropyVector:
    """All partial entropies of a pure state, one per canonical partition.

    `state` may also be a stack of states with shared dims, an array of
    shape (B, d1, ..., dm), with one weight per state: the result is the
    weighted sum of their entropy vectors, with branch probabilities as
    weights the expected one. A single state is a stack of one with weight
    1. The entropies come from `_cut_blocks`, one per distinct reduced
    matrix, and each sum is copied to every cut that shares the matrix.
    Each cut's sum runs left to right over the states, so it equals the
    sum of the states' own vectors exactly. A stack row whose norm is off
    1 by more than `states._NORM_TOL` (the limit `PureState` normalizes
    to), a row with NaN or infinite amplitudes (refused by its purity in
    `_cut_blocks`) and a weight that is negative, NaN or infinite raise
    ValueError.
    """
    if isinstance(state, PureState):
        if weights is not None:
            raise ValueError("weights apply to a stack of states only")
        state, weights = state.as_tensor()[None], np.ones(1)
    else:
        if not len(state) or weights is None or len(weights) != len(state):
            raise ValueError("a stack needs at least one state and one weight per state")
        state, weights = np.asarray(state, dtype=complex), np.asarray(weights, dtype=float)
        if not 0.0 <= weights.min() <= weights.max() < math.inf:
            raise ValueError("weights must be finite and nonnegative")
        _check_norms(_squared_norms(state).tolist())
    parts = canonical_partitions(state.ndim - 1)
    totals = [0.0] * len(parts)
    # infinite rows give NaN Grams, which `_cut_blocks` rejects
    with np.errstate(invalid="ignore"):
        for entries, entropies, _, _ in _cut_blocks(state):
            for indices, total in zip(entries, map(sum, (entropies * weights).tolist())):
                for index in indices:
                    totals[index] = total
    return EntropyVector(state.ndim - 1, dict(zip(parts, totals)))


class PartitionAsymmetryError(ValueError):
    """Raised when a ratio that assumes partition symmetry is requested."""

    def __init__(self, message: str, unequal: list[tuple[str, float]]):
        detail = ", ".join(f"S_{label}={value:.10g}" for label, value in unequal)
        super().__init__(f"{message}: {detail}")
        self.unequal = unequal


def _symmetric_level(values: dict[Partition, Fraction], num_parties: int, size: int) -> Fraction:
    """The common exact S_X over |X| = size, or raise with every such S_X listed."""
    levels = []
    for members in itertools.combinations(range(num_parties), size):
        part = Partition(num_parties, members)
        levels.append((part.label, values[part.canonical()]))
    if len({v for _, v in levels}) > 1:
        raise PartitionAsymmetryError(
            f"size-{size} partition entropies are not all equal",
            [(label, float(v)) for label, v in levels],
        )
    return levels[0][1]


# --- exact-rational entropy vectors -----------------------------------------


@functools.cache
def _exact_lift(dims: tuple[int, ...]) -> tuple:
    """(shape, lift) of states on `dims`: their shape on the parties of
    dimension > 1 and, per canonical cut, the canonical index of its cut of
    those parties (-1 if it splits none), read through the side of its
    `_cuts_by_size` entry."""
    kept = [p for p, d in enumerate(dims) if d > 1]
    position = {p: i for i, p in enumerate(kept)}
    lift = [-1] * len(canonical_partitions(len(dims)))
    for _, entries in _cuts_by_size(dims):
        for indices, side, _ in entries:
            members = tuple(position[p] for p in side.members if p in position)
            for index in indices if members else ():
                lift[index] = canonical_partitions(len(kept)).index(Partition(len(kept), members).canonical())
    return tuple(dims[p] for p in kept), tuple(lift)


def _exact_rows(states: Sequence[PureState]) -> list:
    """Per state, its exact entropies in canonical order, or the `ValueError`
    naming its first inexact cut, returned so that a caller raises the first
    fault in entry order. States of one shape on their parties of dimension
    > 1 take one `_cut_blocks` pass, each a copy-free view on those parties
    (a group of one stays that view); `_exact_lift` maps the rows back onto
    each state's cuts, and a cut that splits none of those parties is 0."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, state in enumerate(states):
        groups.setdefault(_exact_lift(state.dims)[0], []).append(i)
    rows: list = [None] * len(states)
    for shape, members in groups.items():
        values = [{-1: Fraction(0)} for _ in members]  # -1: every unsplit cut
        if len(shape) > 1:
            views = [states[i].amplitudes.reshape(shape) for i in members]
            stack = views[0][None] if len(views) == 1 else np.stack(views)
            for entries, entropies, others, _ in _cut_blocks(stack):
                for (index,), column, flags in zip(entries, entropies.tolist(), others.tolist()):
                    for row, value, other in zip(values, column, flags):
                        row[index] = None if other else Fraction(int(value))
        for i, row in zip(members, values):
            rows[i] = tuple(map(row.__getitem__, _exact_lift(states[i].dims)[1]))
            if any(value is None for value in row.values()):
                part = canonical_partitions(states[i].num_parties)[[v is None for v in rows[i]].index(True)]
                rows[i] = ValueError(f"partition {part.label} has no exact rational entropy")
    return rows


def exact_entropy_vector(state: PureState) -> dict[Partition, Fraction]:
    """Exact entropy per canonical partition, from `_exact_rows` of the state
    alone; raises, naming the first cut, if any cut is not exact."""
    row = _exact_rows([state])[0]
    if isinstance(row, ValueError):
        raise row
    return dict(zip(canonical_partitions(state.num_parties), row))


def exact_entropy_ratio_r21(
    vec: dict[Partition, Fraction], num_parties: int
) -> Fraction:
    """Exact S_AB / S_A from an exact entropy vector of a symmetric state."""
    s1 = _symmetric_level(vec, num_parties, 1)
    s2 = _symmetric_level(vec, num_parties, 2)
    if s1 == 0:
        raise ValueError("r21 undefined: single-party entropy is zero")
    return s2 / s1
