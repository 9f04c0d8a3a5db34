"""Exact simulation of finite LOCC protocols on dense pure states.

A protocol is a list of steps applied to a shared pure state. Classical
communication is implicit: every measurement outcome is broadcast, the
growing tuple of outcomes is the branch's transcript, and later steps may
condition on it. The simulator carries every branch (probability, pure
state, transcript), pruning only branches below probability 1e-14.

Local maps may be proper isometries (ancilla attachment grows a party's
dimension), and parties may discard subsystems, but only subsystems that
are in a product state with everything else; together with projective
measurements this keeps every branch pure, which is what makes the
partial-entropy bookkeeping exact. Unless disabled, every run checks the
monotonicity law for partial entropies once it is over: for each
partition, the probability-weighted entropy of the final branches must not
exceed the input's. A violation raises EntropyMonotonicityError naming the
partition, since no sequence of local operations and broadcasts can
increase any partial entropy on average.

Operators are stored and applied on the factors of a party's local space
they touch, not as matrices on the whole party: a step may declare the
party's current `factor_dims` and the factors `on` which it acts, and the
simulator contracts the small operator over those axes of the state.

Every step is placed once, when it is built or loaded, by one rule
(`_factor_layout`: integer placement values, distinct factor indices in
range, positive dimensions); a discard is placed as an operator that
consumes the dropped factors and emits none. Operators are checked then
too: their shape against the step's placement, each unitary and
conditioned matrix for being an isometry, each measurement for
Hermitian, idempotent projectors that sum to the identity; a failed
check, like a negative party, is a ValueError, and `protocol_from_list`
names the step. `run` checks only what depends on the state, and raises
ProtocolError for a step on a party the state does not have, factors
that do not multiply to the party's current dimension, a reached
transcript with no table entry, a discard of factors that are not in a
product state, a step after which every branch was pruned, probability
drift, and (EntropyMonotonicityError) entropy growth.

Every branch shares the same dims after every step, so the branch set is
one complex array of shape (B, dim), with a probability vector and a list
of transcripts. A local map is one contraction over all B rows; a
measurement with K outcomes turns them into B*K rows, then drops the ones
below the pruning threshold; a conditioned unitary applies each distinct
table matrix once, to the rows whose transcript selects it; a discard
checks purity and finds each row's product factor with one stacked Gram
and one stacked eigensystem call (`_contract_pure`). Rows are processed in
slices of about 4096 amplitudes, so the transient copies stay small; each
is viewed as (rows, parties before, the party, parties after), so a step
moves one axis. Each row is normalized by the routine `PureState` uses,
and the returned `ProtocolRun` holds the rows themselves: a branch's
`PureState` is built only when `ProtocolRun.branches` reads it. The
monotonicity check runs `entropy.entropy_vector` once on the input, as a
stack of one, and once on the simulator's own rows, in the order the
branches are returned, after `_drop_pure_parties` has contracted every
party that is pure in every row to dimension 1 through `_contract_pure`,
the routine a discard uses: the branches of `cat_to_epr(m, i, j)` are
checked on their EPR pair. Both entropy passes test and diagonalize Grams
in blocks of same-size cuts. Their cost is arithmetic: forming each cut's
(B, d, d) Grams, and the flat-spectrum test, which squares each Gram,
O(B d^3) per cut. With 256 branches, `cat_to_epr(10, 0, 1)` takes about
0.03 s with the check on a shared 2-core host, one BLAS thread, and
0.013 s without; a check on all ten parties would take 0.7 s.
"""
from __future__ import annotations

import collections.abc
import functools
import itertools
import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .builders import cat_state, epr_pair
from .entropy import _check_norms, _squared_norms, entropy_vector
from .linalg import _unchecked_eigensystem
from .schmidt import SchmidtDecomposition
from .states import PureState, _check_dense, _integer, _normalize_rows, _write_json_lines, permute_parties, tensor

__all__ = [
    "LocalUnitary",
    "LocalMeasurement",
    "ConditionedUnitary",
    "DiscardSubsystem",
    "ProtocolStep",
    "Branch",
    "ProtocolRun",
    "StepStats",
    "ProtocolError",
    "EntropyMonotonicityError",
    "run",
    "expand_factor_op",
    "ProtocolBuilder",
    "hadamard_projectors",
    "bell_projectors",
    "cat_to_epr",
    "eprs_to_cat_input",
    "eprs_to_cat",
    "DilutionReport",
    "dilution_input",
    "dilution_protocol",
    "dilution_end_to_end",
    "load_protocol",
    "save_protocol",
    "protocol_to_list",
    "protocol_from_list",
]

_PRUNE_THRESHOLD = 1e-14
_OPERATOR_TOL = 1e-9  # isometries and projectors
_DISCARD_PURITY_TOL = 1e-9
_PROBABILITY_TOL = 1e-9
_ENTROPY_GAIN_TOL = 1e-8
# the monotonicity check drops a party whose marginal has purity at least
# 1 - delta in every normalized row: its non-principal eigenvalues then sum
# to at most delta, and contracting it moves each cut entropy by at most
# h(delta) + delta log2(2^21) (the dense limit), 6.2e-11 bits at delta =
# 1e-12, so that even 21 drops move it by under 1.3e-9, an eighth of the
# gain the check allows
_PURE_PARTY_TOL = _ENTROPY_GAIN_TOL * 1e-4
# the check tries that drop only on stacks it reads at least this many
# amplitudes of, rows times amplitudes times canonical cuts: below it, the
# per-party Grams and eigensystem calls of a drop cost about what the cuts
# they remove do (2^15 reads, 16 rows of six qubits with four pure, break
# even on a 2-core host with one BLAS thread; 2^18 reads, 32 rows of seven
# qubits with five pure, save half the check)
_DROP_MIN_READS = 1 << 16
# amplitudes per slice of branch rows an operator is applied to, which
# bounds the transient copies a step makes
_CHUNK_AMPS = 1 << 12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class ProtocolError(RuntimeError):
    """A protocol step could not be applied as specified."""


class EntropyMonotonicityError(ProtocolError):
    """A run increased some probability-weighted partial entropy."""

    def __init__(self, partition_label: str, before: float, after: float):
        super().__init__(
            f"partial entropy of partition {partition_label} grew from "
            f"{before:.12g} to expected {after:.12g} across the run"
        )
        self.partition_label = partition_label
        self.before = before
        self.after = after


@functools.cache
def _step_fields(cls: type) -> tuple[tuple[str, bool], ...]:
    """(name, required) for each dataclass field of a step class, in order."""
    return tuple((f.name, f.default is MISSING) for f in fields(cls))


def _check_party(party: int) -> int:
    """The party as a Python int (see `_integer`); a negative party is
    refused. `run` checks that the party exists."""
    party = _integer(party)
    if party < 0:
        raise ValueError(f"party must be nonnegative, not {party}")
    return party


def _place(step, ops: Sequence[np.ndarray]) -> None:
    """Normalize an operator step's placement fields to ints, work out where
    the step acts and check every operator's shape against it. The layout is
    kept as `step.layout`, outside the dataclass fields, so a protocol file
    does not hold it. Without `factor_dims` a step acts on the whole party,
    one factor of its first operator's input dimension, and the other
    placement fields must be unset."""
    object.__setattr__(step, "party", _check_party(step.party))
    if not ops:
        raise ValueError("a step needs at least one operator")
    placement = [name for name in ("on", "out_dims", "insert_at") if hasattr(step, name)]
    if step.factor_dims is None:
        if any(getattr(step, n) is not None for n in placement):
            raise ValueError(f"{', '.join(map(repr, placement))} need 'factor_dims'")
        shape = ops[0].shape
        factors, out_dims = shape[-1:], shape[:1] if isinstance(step, LocalUnitary) else None
    else:
        for name in ("factor_dims", *placement):
            value = getattr(step, name)
            if value is not None:
                value = _integer(value) if name == "insert_at" else tuple(map(_integer, value))
                object.__setattr__(step, name, value)
        factors, out_dims = step.factor_dims, getattr(step, "out_dims", None)
    layout = _factor_layout(factors, step.on, out_dims, getattr(step, "insert_at", None), ops)
    object.__setattr__(step, "layout", layout)


def _off(deviations: np.ndarray, layout: _FactorLayout) -> list[bool]:
    """Whether each of a stack of deviations of operators on a step's
    factors exceeds the tolerance in Frobenius norm. Tensoring with the
    identity on the untouched factors (dimension u) multiplies the norm by
    sqrt(u), so dividing the tolerance by sqrt(u) makes the check on the
    small operator exactly as strict as the same check on the party-space
    matrix. A deviation that is not finite is beyond it too."""
    return (~(_squared_norms(deviations) <= _OPERATOR_TOL**2 / layout.untouched)).tolist()


def _check_isometries(ops: Sequence[np.ndarray], layout: _FactorLayout) -> None:
    """Check operators of one shape for being isometries, as one stack."""
    stack = np.array(ops)
    if any(_off(stack.conj().swapaxes(1, 2) @ stack - np.eye(stack.shape[2]), layout)):
        raise ValueError("matrix is not an isometry within tolerance")


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """Unitary or isometry on one party; (d_out, d_in) with d_out >= d_in.

    By default the matrix acts on the party's whole local space. With
    `factor_dims` (the party's current factorization, most significant
    first) it acts only on the factors listed in `on`, in the matrix's own
    input order, and emits factors of `out_dims` (default: the consumed
    ones); `expand_factor_op` says where the emitted factors land. Every
    operator step keeps its placement as `layout` (see `_place`).
    """

    party: int
    matrix: np.ndarray
    factor_dims: tuple[int, ...] | None = None
    on: tuple[int, ...] | None = None
    out_dims: tuple[int, ...] | None = None
    insert_at: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        _place(self, (self.matrix,))
        _check_isometries((self.matrix,), self.layout)


@dataclass(frozen=True, eq=False)
class LocalMeasurement:
    """Complete projective measurement on one party.

    Projectors must be Hermitian, idempotent, and sum to the identity on
    the space they act on: the party's whole local space, or the factors
    `on` of `factor_dims` as for `LocalUnitary`. The outcome labels join
    the transcript.
    """

    party: int
    projectors: tuple[np.ndarray, ...]
    outcomes: tuple[str, ...]
    factor_dims: tuple[int, ...] | None = None
    on: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "projectors", tuple(np.asarray(p, dtype=complex) for p in self.projectors))
        object.__setattr__(self, "outcomes", tuple(str(o) for o in self.outcomes))
        if len(self.projectors) != len(self.outcomes):
            raise ValueError("need exactly one outcome label per projector")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("outcome labels must be distinct")
        for label in self.outcomes:
            # a protocol file joins a transcript's labels with ',' (see `_field_to_json`)
            if not label or "," in label:
                raise ValueError(f"outcome label {label!r} must be nonempty and free of ','")
        _place(self, self.projectors)
        # one stack of deviations: each P - P^dag, each P^2 - P, then sum(P) - I
        p = np.array(self.projectors)
        complete = p.sum(axis=0, keepdims=True) - np.eye(p.shape[1])
        off = _off(np.concatenate([p - p.conj().swapaxes(1, 2), p @ p - p, complete]), self.layout)
        for outcome, not_hermitian, not_idempotent in zip(self.outcomes, off, off[len(p) :]):
            if not_hermitian:
                raise ValueError(f"projector for outcome {outcome!r} is not Hermitian")
            if not_idempotent:
                raise ValueError(f"projector for outcome {outcome!r} is not idempotent")
        if off[-1]:
            raise ValueError("measurement projectors do not sum to the identity")


@dataclass(frozen=True, eq=False)
class ConditionedUnitary:
    """Unitary on one party chosen by the full classical transcript so far.

    Placement as for `LocalMeasurement`. Equal matrices in the table share
    one array, so each distinct one is checked once, and `run` applies it
    once to all the branches it serves.
    """

    party: int
    table: Mapping[tuple[str, ...], np.ndarray]
    factor_dims: tuple[int, ...] | None = None
    on: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        distinct: dict[tuple, np.ndarray] = {}
        frozen = {}
        for key, mat in dict(self.table).items():
            mat = np.asarray(mat, dtype=complex)
            mat = distinct.setdefault((mat.shape, mat.tobytes()), mat)
            frozen[tuple(map(str, key))] = mat
        object.__setattr__(self, "table", frozen)
        _place(self, tuple(distinct.values()))
        _check_isometries(tuple(distinct.values()), self.layout)


@dataclass(frozen=True, eq=False)
class DiscardSubsystem:
    """Drop factors of one party's local space.

    `factor_dims` declares the factorization of the party's current local
    dimension (most significant first); `discard` lists the factor indices
    to drop, stored sorted. Its `layout` places it as an operator that
    consumes them and emits none. The dropped factors must be in a product
    state with the rest of the system on every branch; otherwise the step
    fails.
    """

    party: int
    factor_dims: tuple[int, ...]
    discard: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "party", _check_party(self.party))
        discard = tuple(sorted(map(_integer, self.discard)))
        if not discard:
            raise ValueError("discard list must be nonempty")
        layout = _factor_layout(self.factor_dims, discard, out_dims=())
        object.__setattr__(self, "factor_dims", layout.factors)
        object.__setattr__(self, "discard", discard)
        object.__setattr__(self, "layout", layout)


ProtocolStep = Union[LocalUnitary, LocalMeasurement, ConditionedUnitary, DiscardSubsystem]

# each step class under its protocol-file "type"; its dataclass fields, in
# order, are the keys of that type's entries
_STEP_TYPES = {
    "unitary": LocalUnitary,
    "measurement": LocalMeasurement,
    "conditioned": ConditionedUnitary,
    "discard": DiscardSubsystem,
}
_TYPE_NAMES = {cls: kind for kind, cls in _STEP_TYPES.items()}


@dataclass(frozen=True)
class Branch:
    probability: float
    state: PureState
    transcript: tuple[str, ...]


@dataclass(frozen=True)
class StepStats:
    """Where one protocol step left the branch set."""

    branches: int  # branches after the step
    pruned: int  # branches dropped below the pruning threshold
    pruned_mass: float  # their probability, before the final renormalization


@dataclass(frozen=True, eq=False)
class ProtocolRun:
    """All branches of a protocol applied to an input state, as the
    simulator's arrays: branch i has probability `probabilities[i]`,
    transcript `transcripts[i]` and, on `dims`, the normalized state in row
    i of the read-only (B, dim) `rows`. Branches are sorted by transcript.
    One `StepStats` per step. `branches` views the same branches as
    `Branch` objects."""

    input_state: PureState
    dims: tuple[int, ...]
    rows: np.ndarray
    probabilities: tuple[float, ...]
    transcripts: tuple[tuple[str, ...], ...]
    probability_drift: float
    step_stats: tuple[StepStats, ...] = ()

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=complex).view()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @functools.cached_property
    def branches(self) -> Sequence[Branch]:
        return _BranchView(self.dims, self.rows, self.probabilities, self.transcripts)

    def branch_fidelities(self, target: PureState) -> list[float]:
        """|<branch|target>|^2 for each branch, as `fidelity` gives it."""
        if self.dims != target.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {target.dims}")
        return [float(abs(complex(np.vdot(row, target.amplitudes))) ** 2) for row in self.rows]


class _BranchView(collections.abc.Sequence):
    """A run's branches as `Branch` objects. Each is built on first access,
    its state a `PureState` of its row, and kept; `len` builds none. The
    view holds the run's arrays, not the run, so a run that has built its
    view is still freed as soon as it is dropped."""

    def __init__(self, dims, rows, probabilities, transcripts):
        self._dims, self._rows = dims, rows
        self._probabilities, self._transcripts = probabilities, transcripts
        self._built: list[Branch | None] = [None] * len(rows)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(*index.indices(len(self)))))
        branch = self._built[index]
        if branch is None:
            state = PureState(self._dims, self._rows[index])
            branch = self._built[index] = Branch(self._probabilities[index], state, self._transcripts[index])
        return branch


def _expected(probabilities: Sequence[float], values: Sequence[float]) -> float:
    """The probability-weighted sum of one value per branch."""
    return sum(p * v for p, v in zip(probabilities, values))


def _row_chunks(num_rows: int, dim: int) -> list[slice]:
    """Slices of branch rows holding about `_CHUNK_AMPS` amplitudes each."""
    per = max(1, _CHUNK_AMPS // dim)
    return [slice(start, start + per) for start in range(0, num_rows, per)]


def _apply_to_rows(op, layout: _FactorLayout, party: int, dims, amps, out, rows=None) -> None:
    """Write a checked operator on a party's factors, applied to the branch
    rows `rows` of `amps` (default: all), into the same rows of `out`."""
    # each row as (parties before, the party, parties after)
    before, after = math.prod(dims[:party]), math.prod(dims[party + 1 :])
    d_out = math.prod(layout.new_factors)
    for chunk in _row_chunks(len(amps) if rows is None else len(rows), amps.shape[1]):
        take = chunk if rows is None else rows[chunk]
        block = amps[take]
        n = len(block)
        t = block.reshape(n, before, dims[party], after).transpose(2, 0, 1, 3)
        t = _apply_factor_op(op, t.reshape(layout.factors + (-1,)), layout)
        out[take] = t.reshape(d_out, n, before, after).transpose(1, 2, 0, 3).reshape(n, -1)


def _empty_rows(lead: tuple[int, ...], size: int) -> np.ndarray:
    """Uninitialized branch rows of `size` amplitudes; refuses, as
    `PureState` does, a total dimension beyond the dense limit."""
    _check_dense(size)
    return np.empty(lead + (size,), dtype=complex)


def _condition(step: ConditionedUnitary, transcripts, where: str) -> list:
    """Each distinct table matrix with the branch rows it acts on (None for
    all of them)."""
    groups: dict[int, tuple[np.ndarray, list[int]]] = {}
    for row, transcript in enumerate(transcripts):
        mat = step.table.get(transcript)
        if mat is None:
            raise ProtocolError(
                f"{where}: incomplete conditioning table, no entry for "
                f"transcript {transcript!r}"
            )
        groups.setdefault(id(mat), (mat, []))[1].append(row)
    return [(mat, None if len(groups) == 1 else np.array(rows)) for mat, rows in groups.values()]


def _contract_pure(split: Callable[[slice], np.ndarray], count: int, d: int, n: int, tol: float) -> np.ndarray | float:
    """Contract a factor of dimension d out of `count` rows, where
    `split(rows)` views a slice of them as (rows, d, n) matrices M, the
    factor's axis first: one stacked Gram M M^dag per row, a purity test
    against 1 - `tol`, and one stacked eigensystem call, whose principal
    eigenvector v gives the row v^dag M. Returns the (count, n) contracted
    rows, or the purity of the first row that fails. `_discard` and the
    monotonicity check (`_drop_pure_parties`) both contract here."""
    chunks = _row_chunks(count, d * n)
    grams = np.empty((count, d, d), dtype=complex)
    for chunk in chunks:
        m = split(chunk)
        grams[chunk] = m @ m.conj().swapaxes(-1, -2)
    purities = _squared_norms(grams)
    mixed = ~(purities >= 1.0 - tol)
    if mixed.any():
        return float(purities[mixed.argmax()])
    principal = _unchecked_eigensystem(grams)[1][:, None, :, 0].conj()
    out = np.empty((count, n), dtype=complex)
    for chunk in chunks:
        out[chunk] = (principal[chunk] @ split(chunk))[:, 0]
    return out


def _discard(step: DiscardSubsystem, dims: tuple[int, ...], amps: np.ndarray) -> np.ndarray:
    """Drop product factors from every branch row through `_contract_pure`.
    Returns the new rows."""
    party, layout = step.party, step.layout
    d_disc = layout.shape[1]
    # each row as (parties before, the party's factors, parties after); the
    # discarded factors move to the front and everything else keeps its
    # order, which is the layout after the step
    n = len(layout.factors)
    shape = (math.prod(dims[:party]),) + layout.factors + (math.prod(dims[party + 1 :]),)
    kept = [i for i in range(n) if i not in layout.on]
    axes = (0, *(2 + i for i in layout.on), 1, *(2 + i for i in kept), n + 2)

    def split(chunk: slice) -> np.ndarray:
        block = amps[chunk].reshape((-1,) + shape).transpose(axes)
        return block.reshape(len(block), d_disc, -1)

    out = _contract_pure(split, len(amps), d_disc, amps.shape[1] // d_disc, _DISCARD_PURITY_TOL)
    if isinstance(out, float):
        raise ProtocolError(
            f"discarded factors {step.discard} of party {party} are not in a "
            f"product state (purity {out:.12g})"
        )
    return out


def run(
    steps: Sequence[ProtocolStep],
    state: PureState,
    check_entropy: bool = True,
) -> ProtocolRun:
    """Apply a protocol to a state, expanding every measurement branch.

    Branches are returned sorted by transcript. Probabilities are
    renormalized at the end; the pre-normalization deficit (from pruning)
    is recorded and must stay below 1e-9. With `check_entropy`, the
    partial-entropy monotonicity assertion runs over every partition.
    """
    # the branch set: row i of `amps` is branch i's state, all on `dims`
    dims = state.dims
    amps = state.amplitudes.reshape(1, -1)
    probs = np.ones(1)
    transcripts: list[tuple[str, ...]] = [()]
    stats = []
    for index, step in enumerate(steps):
        where = f"step {index} ({type(step).__name__})"
        if not isinstance(step, tuple(_TYPE_NAMES)):
            raise ProtocolError(f"{where}: unknown protocol step {step!r}")
        if step.party >= len(dims):
            raise ProtocolError(f"{where}: step references party {step.party}, state has {len(dims)}")
        layout = step.layout
        if math.prod(layout.factors) != dims[step.party]:
            raise ProtocolError(
                f"{where}: factors {list(layout.factors)} do not multiply to the "
                f"party dimension {dims[step.party]}"
            )
        new_dims = dims[: step.party] + (math.prod(layout.new_factors),) + dims[step.party + 1 :]
        size = math.prod(new_dims)
        pruned, pruned_mass = 0, 0.0
        if isinstance(step, DiscardSubsystem):
            out = _discard(step, dims, amps)
        elif isinstance(step, LocalMeasurement):
            # row b * K + k holds branch b after outcome k
            k = len(step.projectors)
            out = _empty_rows((len(amps), k), size)
            for i, proj in enumerate(step.projectors):
                _apply_to_rows(proj, layout, step.party, dims, amps, out[:, i])
            out = out.reshape(-1, size)
            probs = (probs[:, None] * np.reshape(_squared_norms(out), (-1, k))).reshape(-1)
            transcripts = [t + (o,) for t in transcripts for o in step.outcomes]
            kept = ~(probs < _PRUNE_THRESHOLD)
            if not kept.all():
                pruned, pruned_mass = int(len(kept) - kept.sum()), float(probs[~kept].sum())
                out, probs = out[kept], probs[kept]
                transcripts = list(itertools.compress(transcripts, kept.tolist()))
        else:
            if isinstance(step, LocalUnitary):
                groups = [(step.matrix, None)]
            else:
                groups = _condition(step, transcripts, where)
            out = _empty_rows((len(amps),), size)
            for mat, rows in groups:
                _apply_to_rows(mat, layout, step.party, dims, amps, out, rows)
        dims, amps = new_dims, out
        if not len(amps):
            raise ProtocolError(f"{where}: every branch fell below the pruning threshold")
        _normalize_rows(amps, np.sqrt(_squared_norms(amps)).tolist())
        stats.append(StepStats(len(amps), pruned, pruned_mass))

    total = sum(probs.tolist())
    drift = abs(1.0 - total)
    if drift > _PROBABILITY_TOL:
        raise ProtocolError(f"branch probabilities sum to {total:.12g}")
    order = sorted(range(len(transcripts)), key=transcripts.__getitem__)
    amps = amps[order]
    probs = [p / total for p in probs[order].tolist()]
    if check_entropy and state.num_parties >= 2:
        _assert_entropy_monotone(state, amps.reshape((-1,) + dims), probs)
    transcripts = tuple(map(transcripts.__getitem__, order))
    return ProtocolRun(state, dims, amps, tuple(probs), transcripts, drift, tuple(stats))


def _assert_entropy_monotone(state: PureState, rows: np.ndarray, probs: Sequence[float]) -> None:
    """No cut's probability-weighted entropy over a (B, d1, ..., dm) stack
    of branch rows may exceed the input state's; the input is a stack of
    one. The rows are checked on the parties `_drop_pure_parties` keeps."""
    before = entropy_vector(state).values
    after = entropy_vector(_drop_pure_parties(rows), probs).values
    # both hold the canonical partitions in canonical order
    for (part, was), now in zip(before.items(), after.values()):
        if now > was + _ENTROPY_GAIN_TOL:
            raise EntropyMonotonicityError(part.label, was, now)


def _drop_pure_parties(rows: np.ndarray) -> np.ndarray:
    """A (B, d1, ..., dm) stack with each party whose marginal is pure in
    every row contracted to dimension 1 by `_contract_pure`, in party
    order, and the contracted rows normalized. A party that is product in
    every row adds nothing to any cut's entropy, and
    `entropy._cuts_by_size` folds cuts that differ only by dimension-1
    parties, so the stack's entropy vector keeps its values and costs the
    cuts of the kept parties only.

    A stack whose check reads fewer than `_DROP_MIN_READS` amplitudes
    (rows times amplitudes times canonical cuts) comes back as it is, and
    so does one with no party pure in row 0, each tested there with one
    row's Gram. Otherwise the rows are held to `entropy_vector`'s norm
    check, and the purity test runs on them divided by their norms, so
    that it reads the marginals' own purities."""
    if rows.size * (2 ** (rows.ndim - 2) - 1) < _DROP_MIN_READS:
        return rows
    count, dims = len(rows), rows.shape[1:]
    flat = rows.reshape(count, -1)
    pure = []
    for p, d in enumerate(dims):
        if d > 1:
            row = flat[0].reshape(math.prod(dims[:p]), d, -1).transpose(1, 0, 2).reshape(d, -1)
            gram = row @ row.conj().T
            if np.vdot(gram, gram).real >= 1.0 - _PURE_PARTY_TOL:
                pure.append(p)
    if not pure:
        return rows
    squared = _squared_norms(flat)
    if not np.isfinite(squared).all():  # left for `entropy_vector` to refuse
        return rows
    _check_norms(squared.tolist())
    flat = flat / np.sqrt(squared)[:, None]
    for p in pure:
        before, d, after = math.prod(dims[:p]), dims[p], math.prod(dims[p + 1 :])

        def split(chunk: slice) -> np.ndarray:
            block = flat[chunk].reshape(-1, before, d, after).transpose(0, 2, 1, 3)
            return block.reshape(len(block), d, before * after)

        out = _contract_pure(split, count, d, before * after, _PURE_PARTY_TOL)
        if not isinstance(out, float):
            flat, dims = out, dims[:p] + (1,) + dims[p + 1 :]
    if dims == rows.shape[1:]:
        return rows
    _normalize_rows(flat, np.sqrt(_squared_norms(flat)).tolist())
    return flat.reshape((count,) + dims)


# --- factor-level operator plumbing -----------------------------------------


@dataclass(frozen=True)
class _FactorLayout:
    """Where an operator on some factors of a party acts, and what it leaves.

    `_apply_factor_op` brings the axes in `in_order` to the front, contracts
    the operator over them, and transposes the result (emitted factors,
    then the untouched ones) by `out_order`.
    """

    factors: tuple[int, ...]
    on: tuple[int, ...]
    shape: tuple[int, int]  # (d_out, d_in) of the operator
    untouched: int  # dimension of the factors the operator leaves alone
    new_factors: tuple[int, ...]
    emitted: tuple[int, ...]  # slot of each emitted factor in new_factors
    in_order: tuple[int, ...]
    mid_shape: tuple[int, ...]
    out_order: tuple[int, ...]


def _positive_factors(dims: Sequence[int]) -> tuple[int, ...]:
    """A party's factor dimensions as ints (see `_integer`); refuses any below 1."""
    factors = tuple(map(_integer, dims))
    if any(d < 1 for d in factors):
        raise ValueError("factor dimensions must be positive")
    return factors


def _factor_layout(
    factor_dims: Sequence[int],
    on: Sequence[int] | None = None,
    out_dims: Sequence[int] | None = None,
    insert_at: int | None = None,
    ops: Sequence[np.ndarray] = (),
) -> _FactorLayout:
    """The placement rule of `expand_factor_op`; each of `ops` must have the
    shape it gives. The rule is cached on its arguments as ints (see
    `_integer`; a bool or float key would pass as the int it equals). An
    error is not cached, and a layout is frozen, so steps share it."""
    layout = _placement(
        _positive_factors(factor_dims),
        None if on is None else tuple(map(_integer, on)),
        None if out_dims is None else _positive_factors(out_dims),
        None if insert_at is None else _integer(insert_at),
    )
    for op in ops:
        if op.shape != layout.shape:
            raise ValueError(
                f"operator of shape {op.shape} does not act on factors "
                f"{list(layout.on)} of {list(layout.factors)}; expected {layout.shape}"
            )
    return layout


@functools.cache
def _placement(factors: tuple, on: tuple | None, out: tuple | None, insert_at: int | None) -> _FactorLayout:
    """`_factor_layout` without the operator check, on int arguments."""
    n = len(factors)
    on = tuple(range(n)) if on is None else on
    if len(set(on)) != len(on):
        raise ValueError(f"duplicate factor index in {list(on)}")
    if any(i < 0 or i >= n for i in on):
        raise ValueError(f"factor index out of range in {list(on)} for factors {list(factors)}")
    in_dims = tuple(factors[i] for i in on)
    out = in_dims if out is None else out
    rest = tuple(i for i in range(n) if i not in on)
    # axes after the contraction: the emitted factors, then the untouched ones
    axis = {slot: len(out) + j for j, slot in enumerate(rest)}
    if len(out) == len(on):
        # one emitted factor per consumed one: keep them in the same slots,
        # so square operators stay genuine operators on the party space
        axis.update((slot, k) for k, slot in enumerate(on))
        out_order = tuple(axis[slot] for slot in range(n))
        emitted = on
    else:
        if on:
            anchor = min(on)
        else:
            anchor = n if insert_at is None else insert_at
            if anchor < 0 or anchor > n:
                raise ValueError("insert_at out of range")
        before = tuple(axis[slot] for slot in rest if slot < anchor)
        after = tuple(axis[slot] for slot in rest if slot >= anchor)
        out_order = before + tuple(range(len(out))) + after
        emitted = tuple(range(len(before), len(before) + len(out)))
    mid_shape = out + tuple(factors[i] for i in rest)
    return _FactorLayout(
        factors=factors,
        on=on,
        shape=(math.prod(out), math.prod(in_dims)),
        untouched=math.prod(factors[i] for i in rest),
        new_factors=tuple(mid_shape[a] for a in out_order),
        emitted=emitted,
        in_order=on + rest,
        mid_shape=mid_shape,
        out_order=out_order,
    )


def _apply_factor_op(op: np.ndarray, tensor: np.ndarray, layout: _FactorLayout) -> np.ndarray:
    """Apply `op` to a tensor shaped as the party's factors followed by one
    trailing axis; returns the new factors followed by the same axis."""
    n = len(layout.factors)
    t = tensor.transpose(layout.in_order + (n,)).reshape(layout.shape[1], -1)
    out = (op @ t).reshape(layout.mid_shape + (-1,))
    return out.transpose(layout.out_order + (len(layout.mid_shape),))


def expand_factor_op(
    op: np.ndarray,
    factor_dims: Sequence[int],
    on: Sequence[int] | None = None,
    out_dims: Sequence[int] | None = None,
    insert_at: int | None = None,
) -> tuple[np.ndarray, list[int]]:
    """Embed an operator acting on selected factors of a party's local space.

    `factor_dims` lists the party's current subsystem dimensions (most
    significant first). `on` names the factors the operator consumes, in
    the operator's own input order; `out_dims` the factor dimensions it
    emits (defaults to the consumed dimensions, i.e. a square operator).
    When it emits as many factors as it consumes, they keep the consumed
    slots; otherwise they are inserted as one block where the first
    consumed factor sat, or, with an empty `on`, at `insert_at` (default:
    appended). Returns the full party-space matrix and the new factor list.
    """
    op = np.asarray(op, dtype=complex)
    layout = _factor_layout(factor_dims, on, out_dims, insert_at, (op,))
    d = math.prod(layout.factors)
    identity = np.eye(d, dtype=complex).reshape(layout.factors + (d,))
    full = _apply_factor_op(op, identity, layout)
    return full.reshape(-1, d), list(layout.new_factors)


def hadamard_projectors() -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 projectors onto |+> and |->."""
    plus = np.full((2, 2), 0.5, dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    return plus, minus


def bell_projectors() -> list[tuple[str, np.ndarray]]:
    """The four Bell projectors on two qubits, labeled 'xz'.

    |beta_xz> = (|0,x> + (-1)^z |1,1-x>)/sqrt(2); label digits are the bit
    flip x and phase flip z a receiver must undo after a Bell measurement.
    """
    out = []
    for x in (0, 1):
        for z in (0, 1):
            vec = np.zeros(4, dtype=complex)
            vec[0 * 2 + x] = 1.0
            vec[1 * 2 + (1 - x)] = (-1.0) ** z
            vec /= np.sqrt(2.0)
            out.append((f"{x}{z}", np.outer(vec, vec.conj())))
    return out


def _all_or_nothing(method):
    """Make a `ProtocolBuilder` method leave the builder as it found it
    when it raises, however many steps it had added by then."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        saved = list(self._steps), list(self._factors)
        try:
            return method(self, *args, **kwargs)
        except BaseException:
            self._steps, self._factors = saved
            raise

    return wrapper


class ProtocolBuilder:
    """Assemble protocol steps while tracking each party's subsystem layout.

    Each step stores the small operator together with the party's factor
    list at that point and the factors it acts on, so operators,
    measurements, and discards can be addressed to individual subsystems
    without ever forming a party-space matrix. A method that raises, for
    a bad argument or a step that fails its checks, leaves the builder
    unchanged; a party outside the builder's raises `ValueError`.
    """

    def __init__(self, factor_dims: Sequence[Sequence[int]]):
        self._factors: list[tuple[int, ...]] = [_positive_factors(group) for group in factor_dims]
        if not self._factors:
            raise ValueError("need at least one party")
        self._steps: list[ProtocolStep] = []

    def factor_dims(self, party: int) -> tuple[int, ...]:
        """The party's current factors; every method reads a party here."""
        party = _integer(party)
        if not 0 <= party < len(self._factors):
            raise ValueError(f"party {party} out of range for {len(self._factors)} parties")
        return self._factors[party]

    def party_dim(self, party: int) -> int:
        return math.prod(self.factor_dims(party))

    def steps(self) -> list[ProtocolStep]:
        return list(self._steps)

    @_all_or_nothing
    def regroup(self, party: int, new_factor_dims: Sequence[int]) -> None:
        """Re-declare a party's factor structure (no physical operation)."""
        new = _positive_factors(new_factor_dims)
        if math.prod(new) != self.party_dim(party):
            raise ValueError("regrouped factors must preserve the local dimension")
        self._factors[party] = new

    def _placement(self, party: int, on: Sequence[int] | None) -> tuple:
        """The party's current factors, and `on` with None read as all of them."""
        factors = self.factor_dims(party)
        return factors, tuple(range(len(factors))) if on is None else on

    def _add(self, step: ProtocolStep) -> None:
        """Append a built step and take the party factors it leaves."""
        self._steps.append(step)
        self._factors[step.party] = step.layout.new_factors

    def _outcome_sets(self) -> list[tuple[str, ...]]:
        """The outcome labels of each measurement so far, in order."""
        return [step.outcomes for step in self._steps if isinstance(step, LocalMeasurement)]

    @_all_or_nothing
    def unitary(
        self,
        party: int,
        matrix: np.ndarray,
        on: Sequence[int] | None = None,
        out_dims: Sequence[int] | None = None,
        insert_at: int | None = None,
    ) -> list[int]:
        """Apply an operator to some of a party's factors (see
        `expand_factor_op`); returns the slot of each factor it emits."""
        step = LocalUnitary(party, matrix, *self._placement(party, on), out_dims, insert_at)
        self._add(step)
        return list(step.layout.emitted)

    @_all_or_nothing
    def add_ancilla(
        self, party: int, vector: Sequence[complex], insert_at: int | None = None
    ) -> None:
        """Attach a fresh local subsystem prepared in `vector`."""
        column = np.asarray(vector, dtype=complex).reshape(-1, 1)
        norm = np.linalg.norm(column)
        if norm < 1e-12:
            raise ValueError("ancilla state must be nonzero")
        self.unitary(party, column / norm, on=[], out_dims=[column.shape[0]], insert_at=insert_at)

    @_all_or_nothing
    def measure(
        self,
        party: int,
        projectors: Sequence[np.ndarray],
        outcomes: Sequence[str],
        on: Sequence[int] | None = None,
    ) -> None:
        self._add(LocalMeasurement(party, tuple(projectors), tuple(outcomes), *self._placement(party, on)))

    @_all_or_nothing
    def conditioned(
        self,
        party: int,
        matrix_for: Callable[[tuple[str, ...]], np.ndarray],
        on: Sequence[int] | None = None,
    ) -> None:
        """Add a unitary chosen by the transcript, tabulated over all of them."""
        placement = self._placement(party, on)
        table = {transcript: matrix_for(transcript) for transcript in itertools.product(*self._outcome_sets())}
        self._add(ConditionedUnitary(party, table, *placement))

    @_all_or_nothing
    def discard(self, party: int, factor_indices: Sequence[int]) -> None:
        self._add(DiscardSubsystem(party, self.factor_dims(party), tuple(factor_indices)))

    @_all_or_nothing
    def move_factors(self, party: int, order: Sequence[int]) -> None:
        """Permute a party's factors into `order` (old indices, new order),
        one swap of neighbouring factors per step."""
        new_order = list(map(_integer, order))
        if sorted(new_order) != list(range(len(self.factor_dims(party)))):
            raise ValueError("order must list every factor exactly once")
        slots = list(range(len(new_order)))
        for target, factor in enumerate(new_order):
            for j in range(slots.index(factor), target, -1):
                a, b = self._factors[party][j - 1 : j + 1]
                swap = np.eye(a * b).reshape(a, b, a * b).transpose(1, 0, 2)
                swap = swap.reshape(a * b, a * b)
                self.unitary(party, swap, on=[j - 1, j], out_dims=[b, a])
                slots[j - 1], slots[j] = slots[j], slots[j - 1]

    @_all_or_nothing
    def bell_measure(self, party: int, first: int, second: int) -> None:
        """Bell-basis measurement of two qubit factors of one party."""
        labels, projs = zip(*bell_projectors())
        # the measurement checks both factor indices; a failed check below undoes it
        self.measure(party, projs, labels, on=[first, second])
        if self._factors[party][first] != 2 or self._factors[party][second] != 2:
            raise ValueError("Bell measurement needs two qubit factors")

    @_all_or_nothing
    def teleport(
        self,
        sender: int,
        payload: int,
        leg: int,
        receivers: Sequence[tuple[int, int]],
    ) -> None:
        """Teleport a qubit factor of `sender` through a shared cat state.

        `leg` is the sender's qubit of the cat; `receivers` lists
        (party, factor) pairs for every other leg. After the sender's Bell
        measurement each receiver undoes the bit flip and the first listed
        receiver also undoes the phase flip, which leaves the receivers'
        legs holding the payload (cat-encoded when there are several). The
        sender's two measured qubits are then discarded.
        """
        if not receivers:
            raise ValueError("teleport needs at least one receiver")
        self.bell_measure(sender, payload, leg)
        position = len(self._outcome_sets()) - 1

        def correction(transcript: tuple[str, ...], fix_phase: bool) -> np.ndarray:
            outcome = transcript[position]
            x, z = int(outcome[0]), int(outcome[1])
            mat = np.eye(2, dtype=complex)
            if x:
                mat = PAULI_X @ mat
            if fix_phase and z:
                mat = PAULI_Z @ mat
            return mat

        for index, (party, factor) in enumerate(receivers):
            self.conditioned(party, lambda t, fp=index == 0: correction(t, fp), on=[factor])
        self.discard(sender, [payload, leg])

    @_all_or_nothing
    def povm(
        self,
        party: int,
        kraus_ops: Sequence[np.ndarray],
        outcomes: Sequence[str] | None = None,
        on: Sequence[int] | None = None,
    ) -> None:
        """Generalized measurement via dilation.

        The Kraus operators (square, summing to identity as sum K^dag K)
        are bundled into an isometry onto an appended ancilla, the ancilla
        is measured in its computational basis, and then discarded. Each
        branch is left in the corresponding post-measurement state. The
        isometry is checked as every unitary step is, which is the check
        that the Kraus operators resolve the identity.
        """
        ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
        if not ops:
            raise ValueError("need at least one Kraus operator")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise ValueError("Kraus operators must be square and same-sized")
        n_out = len(ops)
        if outcomes is None:
            outcomes = [str(i) for i in range(n_out)]
        # isometry |psi> -> sum_i (K_i|psi>) (x) |i>, ancilla least significant
        iso = np.zeros((d * n_out, d), dtype=complex)
        for i, k in enumerate(ops):
            iso[i::n_out, :] = k
        placed = _factor_layout(self.factor_dims(party), on)
        out_dims = [placed.factors[i] for i in placed.on] + [n_out]
        ancilla = self.unitary(party, iso, placed.on, out_dims)[-1:]
        basis_projs = [np.diag(row) for row in np.eye(n_out, dtype=complex)]
        self.measure(party, basis_projs, outcomes, on=ancilla)
        self.discard(party, ancilla)


# --- named protocols ---------------------------------------------------------


def cat_to_epr(m: int, i: int, j: int) -> list[ProtocolStep]:
    """Convert an m-party cat state into an EPR pair between parties i and j.

    Every party other than i and j measures in the |+>/|-> basis and
    broadcasts; party i then applies a phase flip when the count of '-'
    outcomes is odd. Each branch holds an exact EPR pair between i and j
    (the helpers keep their measured |+>/|-> qubits).
    """
    if m < 3:
        raise ValueError("need at least three parties")
    if i == j or not (0 <= i < m and 0 <= j < m):
        raise ValueError("bad party pair")
    builder = ProtocolBuilder([[2]] * m)
    plus, minus = hadamard_projectors()
    for helper in range(m):
        if helper in (i, j):
            continue
        builder.measure(helper, [plus, minus], ["+", "-"], on=[0])

    def phase_fix(transcript: tuple[str, ...]) -> np.ndarray:
        flips = sum(1 for outcome in transcript if outcome == "-")
        return PAULI_Z if flips % 2 else np.eye(2, dtype=complex)

    builder.conditioned(i, phase_fix, on=[0])
    return builder.steps()


def _others(m: int, center: int) -> list[int]:
    """The parties besides the center of an `eprs_to_cat` protocol."""
    if m < 2:
        raise ValueError("need at least two parties")
    if not 0 <= center < m:
        raise ValueError("center out of range")
    return [p for p in range(m) if p != center]


def eprs_to_cat_input(m: int, center: int = 0) -> PureState:
    """Input for `eprs_to_cat`: EPR pairs from `center` to every other party,
    with an m-qubit cat state prepared locally at the center.

    The center's factors are its m cat qubits followed by its m-1 EPR legs
    (legs ordered by the other party's index); every other party holds one
    qubit.
    """
    others = _others(m, center)
    acc = PureState((2**m,), cat_state(m).amplitudes)
    # party 0 of `acc` is the center, 1 + i the i-th other; `perm` puts each in its slot
    perm = [0] * m
    for position, other in enumerate(others):
        acc = tensor(acc, epr_pair(), {0: 0, 1: 1 + position})
        perm[other] = 1 + position
    return permute_parties(acc, perm)


def eprs_to_cat(m: int, center: int = 0) -> list[ProtocolStep]:
    """Share an m-party cat state by teleporting a locally prepared one.

    Expects the state produced by `eprs_to_cat_input`: the center keeps cat
    qubit 0 and teleports cat qubit 1+i to the i-th other party through
    their shared EPR pair. All 4^(m-1) branches end in the exact cat state.
    """
    others = _others(m, center)
    layout: list[list[int]] = [[2] for _ in range(m)]
    layout[center] = [2] * m + [2] * (m - 1)
    builder = ProtocolBuilder(layout)
    for position, other in enumerate(others):
        # each earlier teleport dropped its cat qubit and its leg: cat qubit
        # 1 + position is factor 1, and its leg follows the m - position cats left
        builder.teleport(center, 1, m - position, receivers=[(other, 0)])
    return builder.steps()


# --- entanglement dilution, end to end ---------------------------------------


@dataclass(frozen=True)
class DilutionReport:
    """Outcome of building n copies of a cat-like target from k cat states.

    `success_fidelity` is the fidelity of the branches where the compressed
    register fit the budget; `expected_fidelity` averages over everything,
    overflow included. Exactly 2k classical bits are broadcast for the
    teleportations (the overflow flag is one more, only sent when k is
    below the exact register size).
    """

    num_copies: int
    cat_budget: int
    classical_bits: int
    num_parties: int
    run: ProtocolRun
    target: PureState
    success_probability: float
    success_fidelity: float
    expected_fidelity: float


def _ranking_permutation(probs: Sequence[float], n: int) -> np.ndarray:
    """Permutation matrix sending each n-letter string (as a basis index)
    to its rank by descending product probability, ties broken lexically."""
    # product() lists the strings in basis-index order
    strings = list(itertools.product(range(len(probs)), repeat=n))
    ranked = sorted(
        range(len(strings)),
        key=lambda i: (-math.prod(probs[x] for x in strings[i]), strings[i]),
    )
    return np.eye(len(strings), dtype=complex)[ranked]


def _dilution_args(coefficients: Sequence[float], n: int, k: int, num_parties: int) -> tuple:
    """Check the arguments every dilution function takes. Returns the
    normalized coefficients, the party count, the register size r, the
    c = n log2(r) qubits of the n-copy register, and the c - k of them that
    do not fit the cat budget."""
    coeffs = np.asarray([float(c) for c in coefficients], dtype=float)
    if len(coeffs) < 2:
        raise ValueError("need at least two coefficients")
    if np.any(coeffs < 0):
        raise ValueError("coefficients must be nonnegative")
    norm = np.linalg.norm(coeffs)
    if norm < 1e-12:
        raise ValueError("coefficients must not all vanish")
    coeffs = coeffs / norm
    if len(coeffs) & (len(coeffs) - 1):
        raise ValueError(
            "the coefficient count must be a power of two so the register "
            "splits into qubits; see dilution_retained_types or the dilute "
            "command for other ranks"
        )
    m = int(num_parties)
    if m < 2:
        raise ValueError("need at least two parties")
    if n < 1:
        raise ValueError("need at least one copy")
    r = len(coeffs)
    c = n * (r.bit_length() - 1)
    if not 0 <= k <= c:
        raise ValueError(f"cat budget must lie in 0..{c} for this target")
    return coeffs, m, r, c, c - k


def dilution_input(
    coefficients: Sequence[float], n: int, k: int, num_parties: int = 3
) -> PureState:
    """Starting state for `dilution_protocol`: the first party holds n
    local copies of the target (own share plus a to-be-shared register
    per copy) and one leg of each of k shared cat states."""
    coeffs, m, r, _, _ = _dilution_args(coefficients, n, k, num_parties)
    pair = np.zeros(r * r, dtype=complex)
    for i, c in enumerate(coeffs):
        pair[i * r + i] = c
    copy = PureState((r * r,), pair)
    acc = copy
    for _ in range(1, n):
        acc = tensor(acc, copy, {0: 0})
    for _ in range(k):
        acc = tensor(acc, cat_state(m), {p: p for p in range(m)})
    if k == 0:
        acc = PureState(acc.dims + (1,) * (m - 1), acc.amplitudes)
    return acc


def dilution_protocol(
    coefficients: Sequence[float], n: int, k: int, num_parties: int = 3
) -> list[ProtocolStep]:
    """Protocol turning k shared cat states into n copies of a cat-like
    target, applied to `dilution_input`.

    The first party ranks the n-copy register by string probability, keeps
    the k qubits that index the 2^k most probable strings, checks that the
    rest of the register reads zero (outcome "ok", else "overflow"), and
    teleports the kept qubits through the shared cats. Every other party
    pads with fresh zero qubits and inverts the ranking locally, which
    works because each receives the same bit pattern through the cats.
    """
    coeffs, m, r, c, junk = _dilution_args(coefficients, n, k, num_parties)

    layout: list[list[int]] = [[r, r] * n + [2] * k]
    layout += [[2] * k for _ in range(m - 1)]
    builder = ProtocolBuilder(layout)

    perm = _ranking_permutation(coeffs**2, n)
    bits = builder.unitary(0, perm, on=[2 * t + 1 for t in range(n)], out_dims=[2] * c)
    # name the first party's factors so positions survive the discards; the
    # factors the ranking left alone keep their order: shares, then legs
    names: list[str | None] = [None] * len(builder.factor_dims(0))
    for i, slot in enumerate(bits):
        names[slot] = f"bit{i}"
    untouched = iter([f"share{t}" for t in range(n)] + [f"leg{t}" for t in range(k)])
    names = [name or next(untouched) for name in names]

    if junk:
        d_junk = 2**junk
        keep = np.zeros((d_junk, d_junk), dtype=complex)
        keep[0, 0] = 1.0
        junk_bits = [names.index(f"bit{i}") for i in range(junk)]
        builder.measure(0, [keep, np.eye(d_junk) - keep], ["ok", "overflow"], on=junk_bits)

    for t in range(k):
        payload = names.index(f"bit{junk + t}")
        leg = names.index(f"leg{t}")
        builder.teleport(0, payload, leg, [(p, t) for p in range(1, m)])
        names.remove(f"bit{junk + t}")
        names.remove(f"leg{t}")

    for p in range(1, m):
        if junk:
            builder.add_ancilla(p, np.eye(2**junk)[0], insert_at=0)
        builder.regroup(p, [2] * c)
        builder.unitary(p, perm.conj().T)
        builder.regroup(p, [r] * n)

    if junk:
        shares = [names.index(f"share{t}") for t in range(n)]
        bits = [names.index(f"bit{i}") for i in range(junk)]
        builder.move_factors(0, shares + bits)
    return builder.steps()


def dilution_end_to_end(
    coefficients: Sequence[float], n: int, k: int, num_parties: int = 3
) -> DilutionReport:
    """Run dilution and score every branch against the exact n-copy target."""
    coeffs, m, r, _, junk = _dilution_args(coefficients, n, k, num_parties)
    state = dilution_input(coeffs, n, k, m)
    steps = dilution_protocol(coeffs, n, k, m)
    result = run(steps, state)

    target = SchmidtDecomposition(
        (r,) * m, tuple((p,) for p in range(m)), coeffs, (np.eye(r),) * m
    ).to_state()
    reference = target
    for _ in range(1, n):
        reference = tensor(reference, target, {p: p for p in range(m)})
    if junk:
        reference = tensor(reference, PureState((2**junk,), np.eye(2**junk)[0]), {0: 0})

    fidelities = result.branch_fidelities(reference)
    fit = [
        (p, f)
        for p, t, f in zip(result.probabilities, result.transcripts, fidelities)
        if junk == 0 or t[0] == "ok"
    ]
    success_p = sum(p for p, _ in fit)
    if success_p <= 0:
        raise ProtocolError("no branch fit the cat budget")
    return DilutionReport(
        num_copies=n,
        cat_budget=k,
        classical_bits=2 * k,
        num_parties=m,
        run=result,
        target=reference,
        success_probability=success_p,
        success_fidelity=sum(p * f for p, f in fit) / success_p,
        expected_fidelity=_expected(result.probabilities, fidelities),
    )


# --- protocol file format ----------------------------------------------------
#
# A protocol file is a JSON list of step objects. The step dataclasses are
# the schema: an entry is {"type": ...} (the class's name in `_STEP_TYPES`)
# followed by the class's fields in declaration order, unset ones omitted:
#   {"type": "unitary", "party": 0, "matrix": [[[re, im], ...], ...]}
#   {"type": "measurement", "party": 0, "projectors": [...], "outcomes": [...]}
#   {"type": "conditioned", "party": 0, "table": {"+,-": [[...]]}}
#   {"type": "discard", "party": 0, "factor_dims": [2, 2], "discard": [0]}
# Matrix entries are [re, im] pairs of JSON numbers (bare numbers are
# accepted as real); a field's matrices of pairs alone, all of one shape,
# are decoded in one numpy call (`_matrix_stack`). Unitary, measurement and
# conditioned entries may add "factor_dims" and "on" (and a unitary
# "out_dims" and "insert_at"); without them the step acts on the whole
# party. Parties, dimensions and factor indices are JSON integers
# (`_integer`). Keys a step type does not have are ignored, and a null
# value leaves its field unset.

# JSON numbers as `json` decodes them; types are compared exactly, since
# bool is a subclass of int
_JSON_NUMBERS = (int, float)


def _matrix_to_json(matrix: np.ndarray) -> list:
    return [
        [[float(entry.real), float(entry.imag)] for entry in row]
        for row in np.asarray(matrix, dtype=complex)
    ]


def _matrix_from_json(payload) -> np.ndarray:
    rows = []
    for row in payload:
        out_row = []
        for entry in row:
            re, im = entry if type(entry) is list and len(entry) == 2 else (entry, 0.0)
            if type(re) not in _JSON_NUMBERS or type(im) not in _JSON_NUMBERS:
                raise ValueError(f"matrix entry {entry!r} is not a number or an [re, im] pair of numbers")
            out_row.append(complex(re, im))
        rows.append(out_row)
    return np.array(rows, dtype=complex)


def _matrix_stack(payloads) -> np.ndarray | None:
    """A list of matrix payloads as one (K, rows, cols) complex array,
    decoded in one numpy call, when every matrix is a list of rows of
    [re, im] lists of JSON numbers and all have one shape; None for anything
    else, which `_matrix_from_json` then decodes or refuses entry by entry."""
    if type(payloads) is not list:
        return None
    shape, level = [len(payloads)], payloads
    for _ in range(3):  # the matrices, their rows, the rows' entries: lists of one length
        if set(map(type, level)) != {list} or len(lengths := set(map(len, level))) != 1:
            return None
        shape += lengths
        level = list(itertools.chain.from_iterable(level))
    if shape[-1] != 2 or not set(map(type, level)) <= set(_JSON_NUMBERS):
        return None
    try:
        parts = np.fromiter(level, float, len(level))
    except OverflowError:  # an int beyond the float range
        return None
    return parts.view(complex).reshape(shape[:-1])


def _field_to_json(name: str, value):
    if name == "matrix":
        return _matrix_to_json(value)
    if name == "projectors":
        return [_matrix_to_json(p) for p in value]
    if name == "table":
        return {",".join(key): _matrix_to_json(mat) for key, mat in sorted(value.items())}
    return list(value) if isinstance(value, tuple) else value


def _field_from_json(name: str, value):
    """A field's value from its file entry."""
    if name in ("party", "insert_at"):
        return _integer(value)
    if name == "matrix":
        stack = _matrix_stack([value])
        return _matrix_from_json(value) if stack is None else stack[0]
    if name == "projectors":
        stack = _matrix_stack(value)
        return tuple(_matrix_from_json(p) for p in value) if stack is None else tuple(stack)
    if name == "table":
        stack = _matrix_stack(list(value.values())) if type(value) is dict else None
        if stack is None:
            return {tuple(key.split(",")) if key else (): _matrix_from_json(mat) for key, mat in value.items()}
        return {tuple(key.split(",")) if key else (): mat for key, mat in zip(value, stack)}
    if name == "outcomes":
        if type(value) is not list or not all(type(label) is str for label in value):
            raise ValueError(f"expected a list of strings, not {value!r}")
        return tuple(value)
    if type(value) is not list:
        raise ValueError(f"expected a list of integers, not {value!r}")
    return tuple(map(_integer, value))


def protocol_to_list(steps: Sequence[ProtocolStep]) -> list[dict]:
    out = []
    for step in steps:
        kind = _TYPE_NAMES.get(type(step))
        if kind is None:
            raise ValueError(f"cannot serialize step {step!r}")
        entry = {"type": kind}
        for name, _ in _step_fields(type(step)):
            value = getattr(step, name)
            if value is not None:
                entry[name] = _field_to_json(name, value)
        out.append(entry)
    return out


def protocol_from_list(payload: Sequence[Mapping]) -> list[ProtocolStep]:
    """Steps from a parsed protocol file. A malformed payload or entry
    raises one ValueError naming the entry (numbered from 0, as in `run`)."""
    if not isinstance(payload, (list, tuple)):
        raise ValueError(f"a protocol is a list of steps, not {type(payload).__name__}")
    steps: list[ProtocolStep] = []
    for index, entry in enumerate(payload):
        if not isinstance(entry, Mapping):
            raise ValueError(f"protocol step {index}: expected an object, not {type(entry).__name__}")
        kind = entry.get("type")
        cls = _STEP_TYPES.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValueError(f"protocol step {index}: unknown step type {kind!r}")
        where = f"protocol step {index} ({kind})"
        values = {}
        for name, required in _step_fields(cls):
            if entry.get(name) is None:
                if required:
                    raise ValueError(f"{where}: missing field {name!r}")
                continue
            try:
                values[name] = _field_from_json(name, entry[name])
            except (ValueError, TypeError, AttributeError, OverflowError) as exc:
                raise ValueError(f"{where}: field {name!r}: {exc}") from exc
        try:
            steps.append(cls(**values))
        except (ValueError, TypeError, AttributeError) as exc:
            raise ValueError(f"{where}: {exc}") from exc
    return steps


def load_protocol(path: str) -> list[ProtocolStep]:
    with open(path, "r", encoding="utf-8") as fh:
        return protocol_from_list(json.load(fh))


def save_protocol(steps: Sequence[ProtocolStep], path: str) -> None:
    """Write a protocol file, one compact JSON step per line."""
    _write_json_lines(path, "[\n", protocol_to_list(steps), "\n]\n")
