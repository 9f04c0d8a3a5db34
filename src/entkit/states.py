"""Multipartite pure states, their reduced matrices, and party partitions.

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
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Partition",
    "PureState",
    "make_state",
    "tensor",
    "permute_parties",
    "reduced_gram",
    "fidelity",
    "party_letters",
    "canonical_partitions",
    "random_pure_state",
    "random_unitary",
    "load_state",
    "save_state",
    "state_from_dict",
    "state_to_dict",
]

_NORM_TOL = 1e-10
# amplitudes at or below this are left out of state files
_TERM_FLOOR = 1e-14
_DENSE_DIM_LIMIT = 1 << 21


def _integer(value) -> int:
    """A party index, a state's local dimension or a protocol placement
    value (a factor dimension or index, `insert_at`) as a Python int, from
    any integer type. A bool, a float or a string is refused, not rounded or
    cast."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"expected an integer, not {value!r}")
    return operator.index(value)


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
    Its hash is the hash of (num_parties, members), taken once.
    """

    num_parties: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(sorted(set(map(_integer, self.members))))
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_hash", hash((self.num_parties, members)))
        if self.num_parties < 2:
            raise ValueError("a partition needs at least two parties")
        if not members:
            raise ValueError("partition side must be nonempty")
        if len(members) >= self.num_parties:
            raise ValueError("partition side must be a proper subset of the parties")
        if members[0] < 0 or members[-1] >= self.num_parties:
            raise ValueError(f"party index out of range in {members}")

    def __hash__(self) -> int:
        return self._hash

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
        dims = tuple(map(_integer, self.dims))
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"local dimensions must be positive, got {dims}")
        total = math.prod(dims)
        _check_dense(total)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)  # a copy
        if amps.size != total:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {total}"
            )
        _normalize_rows(amps[None], [float(np.linalg.norm(amps))])
        amps += 0.0  # turns -0.0 into 0.0, as state files load it
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PureState(dims={self.dims})"


def _normalize_rows(amps: np.ndarray, norms: Sequence[float]) -> None:
    """Rescale in place each row of a (B, n) array of state vectors whose
    norm, one float per row in `norms`, is off by more than `_NORM_TOL`;
    refuse non-finite amplitudes and a (near-)zero norm. Every `PureState`
    and every branch row of `protocols.run` is normalized here."""
    if not all(map(math.isfinite, norms)):
        raise ValueError("state vector has non-finite amplitudes (NaN or infinity)")
    low, high = min(norms), max(norms)
    if low < _NORM_TOL:
        raise ValueError("state vector has (near-)zero norm")
    if high - 1.0 > _NORM_TOL or 1.0 - low > _NORM_TOL:
        amps /= np.array([n if abs(n - 1.0) > _NORM_TOL else 1.0 for n in norms])[:, None]


def _check_dense(total: int) -> None:
    """Refuse a total dimension beyond the dense limit."""
    if total > _DENSE_DIM_LIMIT:
        raise ValueError(f"total dimension {total} exceeds the dense representation limit")


def _dense_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """`dims` as a tuple of ints (see `_integer`), checked against the
    dense limit."""
    dims = tuple(map(_integer, dims))
    _check_dense(math.prod(dims))
    return dims


def _flat_indices(bases, dims: tuple[int, ...]) -> np.ndarray:
    """Flat amplitude index of each basis, a sequence of one integer digit
    per party; all are checked at once."""
    if not bases:
        raise ValueError("state needs at least one term")
    try:
        # types are compared exactly: JSON true decodes to a bool, an int subclass
        if set(map(len, bases)) == {len(dims)} and all(
            t is not bool and issubclass(t, (int, np.integer))
            for t in set(map(type, itertools.chain.from_iterable(bases)))
        ):
            digits = np.fromiter(itertools.chain.from_iterable(bases), np.intp, len(bases) * len(dims))
            return np.ravel_multi_index(digits.reshape(len(bases), len(dims)).T, dims)
    except (TypeError, ValueError, OverflowError):  # a basis that is not a list, a digit out of range
        pass
    raise ValueError(f"basis must be {len(dims)} integer digits within dims {list(dims)}")


def _dense_state(dims: tuple[int, ...], index: np.ndarray, amplitudes) -> PureState:
    """The one builder behind `make_state` and state files."""
    amps = np.zeros(math.prod(dims), dtype=complex)
    np.add.at(amps, index, amplitudes)  # repeated bases add up in term order
    return PureState(dims, amps)


def make_state(
    dims: Sequence[int],
    terms: Iterable[tuple[Sequence[int] | str, complex]] | Mapping,
) -> PureState:
    """Build a pure state from sparse (basis, amplitude) terms.

    `terms` is a mapping or an iterable of pairs. Basis labels may be digit
    strings ("010") or sequences of integer digits. Amplitudes need not be
    normalized; the resulting vector is. Repeated bases add up. An empty or
    all-zero term list is rejected.
    """
    dims = _dense_dims(dims)
    pairs = list(terms.items() if isinstance(terms, Mapping) else terms)
    bases = [[int(ch) for ch in b] if isinstance(b, str) else b for b, _ in pairs]
    amplitudes = np.array([amp for _, amp in pairs], dtype=complex)
    return _dense_state(dims, _flat_indices(bases, dims), amplitudes)


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
    Omitting `party_map` appends all of b's parties after a's. Its keys
    and targets are integers (see `_integer`).
    """
    if party_map is None:
        mapping = {i: a.num_parties + i for i in range(b.num_parties)}
    elif isinstance(party_map, Mapping):
        mapping = {_integer(k): _integer(v) for k, v in party_map.items()}
    else:
        mapping = {i: _integer(v) for i, v in enumerate(party_map)}
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
    """Reorder parties; position i of the result holds party perm[i], an
    integer (see `_integer`)."""
    order = tuple(map(_integer, perm))
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
    members = tuple(sorted(set(map(_integer, keep))))
    if not members:
        raise ValueError("must keep at least one party")
    if members[0] < 0 or members[-1] >= state_parties:
        raise ValueError(f"party index out of range in {members}")
    return members


@functools.cache
def _gram_axes(num_parties: int, members: tuple[int, ...], stacked: bool) -> tuple[int, ...]:
    # the stack axis if any, then the kept parties' axes, then the rest
    rest = tuple(p for p in range(num_parties) if p not in members)
    return tuple(range(stacked)) + tuple(stacked + p for p in members + rest)


def reduced_gram(
    state: PureState | np.ndarray, keep: Partition | Iterable[int]
) -> np.ndarray:
    """The reduced state of the parties in `keep`: tr_rest |psi><psi|, the
    d x d Gram matrix M M^dag of the amplitudes reshaped to (d, rest).

    This ndarray is the package's one reduced-state type: `fidelity` and
    `reducibility`'s local-unitary alignment, partial transpose and
    witness tests take it. Cut spectra and partial entropies do not:
    `entropy._block_grams` forms the Grams of a block of same-size cuts
    with one product. Callers that also need the split amplitude matrix M
    itself form M M^dag from it directly: `schmidt_decompose`, and
    `protocols._contract_pure` for a discard and for the monotonicity
    check's drop of pure parties (`_drop_pure_parties` tests their first
    row the same way). `state` may also be a stack of states with
    shared dims, an array of shape (B, d1, ..., dm); the result is then
    the (B, d, d) stack of their reduced matrices, and a non-finite
    amplitude raises.
    """
    stacked = isinstance(state, np.ndarray)
    if stacked and not np.isfinite(state).all():
        raise ValueError("stack has non-finite amplitudes (NaN or infinity)")
    tensor = state if stacked else state.as_tensor()
    dims = tensor.shape[stacked:]
    members = _keep_indices(len(dims), keep)
    m = tensor.transpose(_gram_axes(len(dims), members, stacked))
    m = m.reshape(tensor.shape[:stacked] + (math.prod(dims[p] for p in members), -1))
    return m @ m.conj().swapaxes(-1, -2)


def fidelity(rho: PureState | np.ndarray, psi: PureState) -> float:
    """Fidelity <psi| rho |psi> against a pure reference state, clamped to [0, 1].

    `rho` is a reduced matrix (see `reduced_gram`) on psi's space; a pure
    first argument is treated as its projector, giving |<phi|psi>|^2.
    """
    if isinstance(rho, PureState):
        return float(abs(rho.overlap(psi)) ** 2)
    rho = np.asarray(rho)
    if rho.shape != (psi.dim, psi.dim):
        raise ValueError(f"matrix shape {rho.shape} does not match dims {psi.dims}")
    value = np.vdot(psi.amplitudes, rho @ psi.amplitudes).real
    return float(min(max(value, 0.0), 1.0))


def random_pure_state(
    dims: Sequence[int], rng: np.random.Generator | int | None = None
) -> PureState:
    """Haar-random pure state with the given local dimensions."""
    rng = np.random.default_rng(rng)
    dims = tuple(map(_integer, dims))
    total = math.prod(dims)
    vec = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return PureState(dims, vec)


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
# Terms may be unnormalized; the loader normalizes. `save_state` writes
# `dims` on one line and one compact term per line, as in the README; the
# loader reads any layout of the same JSON.

# lines per write of a line-per-item JSON file, and state-file terms per
# conversion from numpy to Python objects
_LINE_BLOCK = 1024


def _write_json_lines(path: str, head: str, items: Iterable, tail: str, indent: str = "") -> None:
    """Write `head`, then each item as one compact JSON line after `indent`,
    comma-separated, then `tail`: one write per block of `_LINE_BLOCK`
    lines, so no string holds the whole file. Floats are `float.__repr__`,
    as `json.dump` writes them in every layout."""
    items, sep = iter(items), ",\n" + indent
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head)
        lead = indent
        while block := list(itertools.islice(items, _LINE_BLOCK)):
            fh.write(lead + sep.join(map(json.dumps, block)))
            lead = sep
        fh.write(tail)


def _decode_terms(terms, dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and complex amplitudes of state-file terms; `re` and
    `im` go bit for bit into the complex array."""
    index = _flat_indices([term["basis"] for term in terms], dims)
    parts = [part for term in terms for part in (term.get("re", 0.0), term.get("im", 0.0))]
    # as for digits, exact types keep JSON true out
    if all(
        t is not bool and issubclass(t, (int, float, np.integer, np.floating))
        for t in set(map(type, parts))
    ):
        try:
            return index, np.fromiter(parts, float, len(parts)).view(complex)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError("'re' and 'im' must be numbers within the float range")


def _bad_term(terms, dims: tuple[int, ...]) -> str:
    """What is wrong with the first malformed term of a term list that
    failed to decode as a whole."""
    for index, term in enumerate(terms):
        try:
            _decode_terms([term], dims)
        except KeyError as exc:
            return f"state term {index}: missing field {exc}"
        except (TypeError, AttributeError):
            return f"state term {index}: expected an object, not {type(term).__name__}"
        except ValueError as exc:
            return f"state term {index}: {exc}"
    return "state needs at least one term"


def state_from_dict(payload: Mapping) -> PureState:
    """A state from a parsed state file. A malformed payload or term raises
    one ValueError naming it (terms numbered from 0)."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"a state file holds an object, not {type(payload).__name__}")
    dims, terms = payload.get("dims"), payload.get("terms")
    if not (isinstance(dims, (list, tuple)) and dims and all(type(d) is int and d > 0 for d in dims)):
        raise ValueError(f"state dims must be a list of positive integers, not {dims!r}")
    if not isinstance(terms, (list, tuple)):
        raise ValueError(f"state terms must be a list, not {type(terms).__name__}")
    dims = _dense_dims(dims)
    try:
        # a state can have many terms, so they are checked one by one only on failure
        index, amplitudes = _decode_terms(terms, dims)
    except (KeyError, TypeError, AttributeError, ValueError):
        raise ValueError(_bad_term(terms, dims)) from None
    return _dense_state(dims, index, amplitudes)


def _state_terms(state: PureState) -> Iterator[dict]:
    """The state-file terms of a state, in basis order: one per amplitude
    above 1e-14, turned into Python objects a block at a time."""
    flat = np.flatnonzero(np.abs(state.amplitudes) > _TERM_FLOOR)
    for start in range(0, len(flat), _LINE_BLOCK):
        block = flat[start : start + _LINE_BLOCK]
        digits = np.stack(np.unravel_index(block, state.dims), axis=1)
        for b, a in zip(digits.tolist(), state.amplitudes[block].tolist()):
            yield {"basis": b, "re": a.real, "im": a.imag}


def state_to_dict(state: PureState) -> dict:
    """The state-file payload of a state: one term per amplitude above 1e-14."""
    return {"dims": list(state.dims), "terms": list(_state_terms(state))}


def load_state(path: str) -> PureState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))


def save_state(state: PureState, path: str) -> None:
    """Write a state file: `dims` on one line, then one term per line."""
    head = f'{{\n  "dims": {json.dumps(list(state.dims))},\n  "terms": [\n'
    _write_json_lines(path, head, _state_terms(state), "\n  ]\n}\n", indent="    ")
