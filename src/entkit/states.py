"""Multipartite pure states, density matrices, and party partitions.

Conventions used throughout the package:

* A pure state of m parties with local dimensions ``dims = (d1, ..., dm)``
  is a dense complex vector of length ``prod(dims)`` in mixed-radix order
  with party 1 as the most significant digit: basis ``(i1, ..., im)`` sits
  at flat index ``i1*d2*...*dm + i2*d3*...*dm + ... + im``.
* Parties are indexed 0..m-1 in code and printed as letters A, B, C, ...
* A party may hold several subsystems (e.g. two qubits of different EPR
  pairs); its local dimension is then the product, and the subsystem order
  is fixed by the order in which `tensor` merged them.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Partition",
    "PureState",
    "DensityMatrix",
    "make_state",
    "tensor",
    "permute_parties",
    "partial_trace",
    "reduced_gram",
    "fidelity",
    "party_letters",
    "canonical_partitions",
    "refine_to_qubits",
    "random_pure_state",
    "random_unitary",
    "load_state",
    "save_state",
    "state_from_dict",
    "state_to_dict",
]

_NORM_TOL = 1e-10
_DENSE_DIM_LIMIT = 1 << 21


def party_letters(parties: Iterable[int]) -> str:
    """Render party indices as letters: (0, 2) -> 'AC'."""
    return "".join(chr(ord("A") + p) for p in sorted(parties))


@dataclass(frozen=True, order=True)
class Partition:
    """One side of a bipartition of the parties of an m-party state.

    `members` is the sorted tuple of party indices on this side; the other
    side is the complement. Two partitions describe the same cut iff one's
    members are the other's complement; `canonical()` picks the class
    representative (fewer members, ties going to the side without party 0).
    """

    num_parties: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(sorted(set(self.members)))
        object.__setattr__(self, "members", members)
        if self.num_parties < 2:
            raise ValueError("a partition needs at least two parties")
        if not members:
            raise ValueError("partition side must be nonempty")
        if len(members) >= self.num_parties:
            raise ValueError("partition side must be a proper subset of the parties")
        if members[0] < 0 or members[-1] >= self.num_parties:
            raise ValueError(f"party index out of range in {members}")

    def complement(self) -> "Partition":
        other = tuple(p for p in range(self.num_parties) if p not in self.members)
        return Partition(self.num_parties, other)

    def canonical(self) -> "Partition":
        other = self.complement()
        if len(self.members) < len(other.members):
            return self
        if len(self.members) > len(other.members):
            return other
        # equal sizes: keep the side NOT containing party 0
        return other if 0 in self.members else self

    @property
    def label(self) -> str:
        return party_letters(self.members)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


@functools.cache
def _canonical_sides(num_parties: int) -> tuple[Partition, ...]:
    # the smaller side of each cut; at even m, a half-half cut keeps the
    # half without party 0. Combinations come out in (size, members) order.
    return tuple(
        Partition(num_parties, members)
        for size in range(1, num_parties // 2 + 1)
        for members in itertools.combinations(range(num_parties), size)
        if 2 * size < num_parties or members[0] != 0
    )


def canonical_partitions(num_parties: int) -> list[Partition]:
    """All 2**(m-1) - 1 canonical nontrivial partitions, sorted by (size, members)."""
    if num_parties < 2:
        raise ValueError("need at least two parties")
    return list(_canonical_sides(num_parties))


@dataclass(frozen=True)
class PureState:
    """Normalized dense pure state over parties with the given local dims."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"local dimensions must be positive, got {dims}")
        total = math.prod(dims)
        if total > _DENSE_DIM_LIMIT:
            raise ValueError(
                f"total dimension {total} exceeds the dense representation limit"
            )
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != total:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {total}"
            )
        norm = float(np.linalg.norm(amps))
        if not math.isfinite(norm):
            raise ValueError("state vector has non-finite amplitudes (NaN or infinity)")
        if norm < _NORM_TOL:
            raise ValueError("state vector has (near-)zero norm")
        if abs(norm - 1.0) > _NORM_TOL:
            amps = amps / norm
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_parties(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party (read-only view)."""
        return self.amplitudes.reshape(self.dims)

    def basis_amplitude(self, basis: Sequence[int]) -> complex:
        if len(basis) != self.num_parties:
            raise ValueError("basis label length does not match party count")
        for digit, d in zip(basis, self.dims):
            if not 0 <= digit < d:
                raise ValueError(f"basis digit {digit} out of range for dim {d}")
        return complex(self.as_tensor()[tuple(basis)])

    def overlap(self, other: "PureState") -> complex:
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def drop_trivial_parties(self) -> "PureState":
        """Remove parties of local dimension 1 (keeps at least one party)."""
        keep = tuple(d for d in self.dims if d > 1)
        if not keep:
            keep = (1,)
        return PureState(keep, self.amplitudes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PureState(dims={self.dims})"


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix over the retained parties of a state."""

    dims: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)

    _HERMITICITY_TOL = 1e-10
    _TRACE_TOL = 1e-10

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        total = math.prod(dims)
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (total, total):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        if np.linalg.norm(mat - mat.conj().T) > self._HERMITICITY_TOL * max(
            1.0, float(np.linalg.norm(mat))
        ):
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(mat).real - 1.0) > self._TRACE_TOL:
            raise ValueError("density matrix trace differs from 1 beyond tolerance")
        mat = (mat + mat.conj().T) / 2.0
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    def purity(self) -> float:
        return float(np.vdot(self.matrix, self.matrix).real)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DensityMatrix(dims={self.dims})"


def _parse_basis(basis: Sequence[int] | str, dims: Sequence[int]) -> tuple[int, ...]:
    if isinstance(basis, str):
        digits = tuple(int(ch) for ch in basis)
    else:
        digits = tuple(int(b) for b in basis)
    if len(digits) != len(dims):
        raise ValueError(
            f"basis label {basis!r} has {len(digits)} digits, expected {len(dims)}"
        )
    for digit, d in zip(digits, dims):
        if not 0 <= digit < d:
            raise ValueError(f"basis digit {digit} out of range for local dim {d}")
    return digits


def make_state(
    dims: Sequence[int],
    terms: Iterable[tuple[Sequence[int] | str, complex]] | Mapping,
) -> PureState:
    """Build a pure state from sparse (basis, amplitude) terms.

    `terms` is a mapping or an iterable of pairs. Basis labels may be digit
    strings ("010") or index sequences. Amplitudes need not be normalized;
    the resulting vector is. An empty or all-zero term list is rejected.
    """
    dims = tuple(int(d) for d in dims)
    total = math.prod(dims)
    if total > _DENSE_DIM_LIMIT:
        raise ValueError(f"total dimension {total} exceeds the dense limit")
    if isinstance(terms, Mapping):
        terms = terms.items()
    amps = np.zeros(total, dtype=complex)
    any_term = False
    for basis, amplitude in terms:
        digits = _parse_basis(basis, dims)
        idx = 0
        for digit, d in zip(digits, dims):
            idx = idx * d + digit
        amps[idx] += complex(amplitude)
        any_term = True
    if not any_term:
        raise ValueError("state needs at least one term")
    return PureState(dims, amps)


def tensor(
    a: PureState,
    b: PureState,
    party_map: Mapping[int, int] | Sequence[int] | None = None,
) -> PureState:
    """Tensor two states, assigning b's parties to global party slots.

    `a`'s parties keep their indices 0..a.num_parties-1. `party_map` sends
    each party of `b` to a global party index; indices beyond `a`'s range
    append new parties. When several subsystems land on one party, that
    party's local dimension becomes the product, with `a`'s subsystems as
    the more significant factors (in order), then `b`'s in `b`'s order.
    Omitting `party_map` appends all of b's parties after a's.
    """
    if party_map is None:
        mapping = {i: a.num_parties + i for i in range(b.num_parties)}
    elif isinstance(party_map, Mapping):
        mapping = {int(k): int(v) for k, v in party_map.items()}
    else:
        mapping = {i: int(v) for i, v in enumerate(party_map)}
    if sorted(mapping) != list(range(b.num_parties)):
        raise ValueError("party_map must assign every party of b exactly once")
    targets = list(mapping.values())
    if any(t < 0 for t in targets):
        raise ValueError("party_map targets must be nonnegative")
    num_parties = max(a.num_parties, max(targets) + 1)
    used = set(range(a.num_parties)) | set(targets)
    if used != set(range(num_parties)):
        missing = party_letters(set(range(num_parties)) - used)
        raise ValueError(f"party_map leaves parties {missing} without any subsystem")

    # full product with one axis per subsystem: a's axes then b's axes
    joint = np.multiply.outer(a.as_tensor(), b.as_tensor())
    # subsystem slots per global party, a's first then b's in b-order
    slots: list[list[int]] = [[] for _ in range(num_parties)]
    dims_out: list[int] = [1] * num_parties
    for axis, d in enumerate(a.dims):
        slots[axis].append(axis)
        dims_out[axis] *= d
    for b_party in range(b.num_parties):
        target = mapping[b_party]
        slots[target].append(a.num_parties + b_party)
        dims_out[target] *= b.dims[b_party]
    order = [axis for group in slots for axis in group]
    joint = joint.transpose(order)
    return PureState(tuple(dims_out), joint.reshape(-1))


def permute_parties(state: PureState, perm: Sequence[int]) -> PureState:
    """Reorder parties; position i of the result holds party perm[i]."""
    order = tuple(int(p) for p in perm)
    if sorted(order) != list(range(state.num_parties)):
        raise ValueError("perm must list every party exactly once")
    dims = tuple(state.dims[p] for p in order)
    return PureState(dims, state.as_tensor().transpose(order).reshape(-1))


def _keep_indices(
    state_parties: int, keep: Partition | Iterable[int]
) -> tuple[int, ...]:
    if isinstance(keep, Partition):
        if keep.num_parties != state_parties:
            raise ValueError("partition refers to a different number of parties")
        return keep.members
    members = tuple(sorted(set(int(p) for p in keep)))
    if not members:
        raise ValueError("must keep at least one party")
    if members[0] < 0 or members[-1] >= state_parties:
        raise ValueError(f"party index out of range in {members}")
    return members


def reduced_gram(
    state: PureState | np.ndarray, keep: Partition | Iterable[int]
) -> np.ndarray:
    """Reduced density matrix of `keep`, as a raw ndarray (no wrapper checks).

    `state` may also be a stack of states with shared dims, an array of
    shape (B, d1, ..., dm); the result is then the (B, d, d) stack of their
    reduced matrices.
    """
    stacked = isinstance(state, np.ndarray)
    tensor = state if stacked else state.as_tensor()
    dims = tensor.shape[stacked:]
    members = _keep_indices(len(dims), keep)
    rest = tuple(p for p in range(len(dims)) if p not in members)
    dim_keep = math.prod(dims[p] for p in members)
    if stacked:
        m = tensor.transpose((0,) + tuple(1 + p for p in members + rest))
        m = m.reshape(len(tensor), dim_keep, -1)
    else:
        m = tensor.transpose(members + rest).reshape(dim_keep, -1)
    return m @ m.conj().swapaxes(-1, -2)


def partial_trace(
    state: PureState | DensityMatrix, keep: Partition | Iterable[int]
) -> DensityMatrix:
    """Trace out every party not in `keep`.

    For pure states this is formed from the amplitude matrix directly; for
    density matrices the traced axes are contracted pairwise.
    """
    if isinstance(state, PureState):
        members = _keep_indices(state.num_parties, keep)
        rho = reduced_gram(state, members)
        return DensityMatrix(tuple(state.dims[p] for p in members), rho)
    members = _keep_indices(len(state.dims), keep)
    dims = state.dims
    n = len(dims)
    mat = state.matrix.reshape(dims + dims)
    # contract traced-out axes from the back so axis numbers stay valid
    traced = [p for p in range(n) if p not in members]
    remaining = n
    for p in reversed(traced):
        mat = np.trace(mat, axis1=p, axis2=p + remaining)
        remaining -= 1
    dim_keep = math.prod(dims[p] for p in members)
    return DensityMatrix(
        tuple(dims[p] for p in members), mat.reshape(dim_keep, dim_keep)
    )


def fidelity(rho: DensityMatrix | PureState, psi: PureState) -> float:
    """Fidelity <psi| rho |psi> against a pure reference state.

    A pure first argument is treated as its projector, giving |<phi|psi>|^2.
    """
    if isinstance(rho, PureState):
        return float(abs(rho.overlap(psi)) ** 2)
    if math.prod(rho.dims) != psi.dim:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {psi.dims}")
    value = np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real
    return float(min(max(value, 0.0), 1.0))


def refine_to_qubits(state: PureState) -> tuple[PureState, list[list[int]]]:
    """Split every party whose dimension is a power of two into qubit parties.

    Returns the refined state plus, per original party, the list of its
    qubit indices in the refined state (most significant first). Parties
    with non-power-of-two dimensions are kept whole.
    """
    new_dims: list[int] = []
    groups: list[list[int]] = []
    for d in state.dims:
        group = []
        if d > 1 and d & (d - 1) == 0:
            for _ in range(d.bit_length() - 1):
                group.append(len(new_dims))
                new_dims.append(2)
        else:
            group.append(len(new_dims))
            new_dims.append(d)
        groups.append(group)
    return PureState(tuple(new_dims), state.amplitudes), groups


def random_pure_state(
    dims: Sequence[int], rng: np.random.Generator | int | None = None
) -> PureState:
    """Haar-random pure state with the given local dimensions."""
    rng = np.random.default_rng(rng)
    total = math.prod(int(d) for d in dims)
    vec = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return PureState(tuple(int(d) for d in dims), vec)


def random_unitary(dim: int, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    rng = np.random.default_rng(rng)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase gauge so the distribution is Haar
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


# --- state file format -----------------------------------------------------
#
# {"dims": [d1, ..., dm],
#  "terms": [{"basis": [i1, ..., im], "re": x, "im": y}, ...]}
#
# Terms may be unnormalized; the loader normalizes.


def state_from_dict(payload: Mapping) -> PureState:
    """A state from a parsed state file. A malformed term raises one
    ValueError naming it (terms numbered from 0)."""
    try:
        dims = [int(d) for d in payload["dims"]]
        raw_terms = payload["terms"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"state payload missing field: {exc}") from exc
    if not isinstance(raw_terms, (list, tuple)):
        raise ValueError(f"state terms must be a list, not {type(raw_terms).__name__}")
    terms = []
    for index, entry in enumerate(raw_terms):
        # a state can have many terms, so the checks run only on failure
        try:
            basis = [int(i) for i in entry["basis"]]
            amp = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            reason = exc
            if not isinstance(entry, Mapping):
                reason = f"expected an object, not {type(entry).__name__}"
            elif isinstance(exc, KeyError):
                reason = f"missing field {exc}"
            raise ValueError(f"state term {index}: {reason}") from exc
        terms.append((basis, amp))
    return make_state(dims, terms)


def state_to_dict(state: PureState, threshold: float = 1e-14) -> dict:
    terms = []
    tensor_view = state.as_tensor()
    for idx in np.argwhere(np.abs(tensor_view) > threshold):
        amp = tensor_view[tuple(idx)]
        terms.append(
            {"basis": [int(i) for i in idx], "re": float(amp.real), "im": float(amp.imag)}
        )
    return {"dims": list(state.dims), "terms": terms}


def load_state(path: str) -> PureState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))


def save_state(state: PureState, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(state), fh, indent=1)
        fh.write("\n")
