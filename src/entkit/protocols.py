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

Every branch shares the same dims after every step, so the branch set is
one complex array of shape (B, dim), with a probability vector and a list
of transcripts. A local map is one contraction over all B rows; a
measurement with K outcomes turns them into B*K rows, then drops the ones
below the pruning threshold; a conditioned unitary applies each distinct
table matrix once, to the rows whose transcript selects it; a discard
checks purity and finds each row's product factor with one stacked Gram
and one stacked eigensystem call. Rows are processed in slices of about
4096 amplitudes, so the transient copies stay small. `PureState` objects
are built only for the returned branches. The monotonicity check runs
`entropy.entropy_vector` once on the branch stack and once on the input
as a stack of one; both test and diagonalize Grams in blocks of same-size
cuts. Its cost is arithmetic: forming each cut's (B, d, d) Grams, and the
flat-spectrum test, which squares each Gram, O(B d^3) per cut. With 256
branches and Grams up to 32 x 32, `cat_to_epr(10, 0, 1)` takes about 3.4 s
with the check on a shared 2-core host and a few hundredths without.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .entropy import _squared_norms, entropy_vector
from .linalg import hermitian_eigensystem
from .states import _DENSE_DIM_LIMIT, _NORM_TOL, PureState, fidelity

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
_ISOMETRY_TOL = 1e-9
_PROJECTOR_TOL = 1e-9
_DISCARD_PURITY_TOL = 1e-9
_PROBABILITY_TOL = 1e-9
_ENTROPY_GAIN_TOL = 1e-8
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


def _freeze_placement(step) -> None:
    """Normalize an operator step's placement fields, `factor_dims` and the
    fields after it, to ints. Without `factor_dims` a step acts on the
    whole party, and the other placement fields must be unset."""
    names = [name for name, _ in _step_fields(type(step))]
    placement = names[names.index("factor_dims") + 1 :]
    if step.factor_dims is None:
        if any(getattr(step, n) is not None for n in placement):
            raise ValueError(f"{', '.join(map(repr, placement))} need 'factor_dims'")
        return
    object.__setattr__(step, "factor_dims", tuple(int(d) for d in step.factor_dims))
    for name in placement:
        value = getattr(step, name)
        if value is not None:
            value = int(value) if name == "insert_at" else tuple(int(i) for i in value)
            object.__setattr__(step, name, value)


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """Unitary or isometry on one party; (d_out, d_in) with d_out >= d_in.

    By default the matrix acts on the party's whole local space. With
    `factor_dims` (the party's current factorization, most significant
    first) it acts only on the factors listed in `on`, in the matrix's own
    input order, and emits factors of `out_dims` (default: the consumed
    ones); `expand_factor_op` says where the emitted factors land.
    """

    party: int
    matrix: np.ndarray
    factor_dims: tuple[int, ...] | None = None
    on: tuple[int, ...] | None = None
    out_dims: tuple[int, ...] | None = None
    insert_at: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        _freeze_placement(self)


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
        _freeze_placement(self)


@dataclass(frozen=True, eq=False)
class ConditionedUnitary:
    """Unitary on one party chosen by the full classical transcript so far.

    Placement as for `LocalMeasurement`. Equal matrices in the table share
    one array, so each distinct one is checked once per run.
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
            frozen[tuple(str(o) for o in key)] = mat
        object.__setattr__(self, "table", frozen)
        _freeze_placement(self)


@dataclass(frozen=True, eq=False)
class DiscardSubsystem:
    """Drop factors of one party's local space.

    `factor_dims` declares the factorization of the party's current local
    dimension (most significant first); `discard` lists the factor indices
    to drop. The dropped factors must be in a product state with the rest
    of the system on every branch; otherwise the step fails.
    """

    party: int
    factor_dims: tuple[int, ...]
    discard: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor_dims", tuple(int(d) for d in self.factor_dims))
        object.__setattr__(self, "discard", tuple(sorted(int(i) for i in self.discard)))
        if not self.discard:
            raise ValueError("discard list must be nonempty")
        if len(set(self.discard)) != len(self.discard):
            raise ValueError("duplicate factor index in discard list")
        if any(i < 0 or i >= len(self.factor_dims) for i in self.discard):
            raise ValueError("discard index out of range")


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


@dataclass(frozen=True)
class ProtocolRun:
    """All branches of a protocol applied to an input state, with one
    `StepStats` per step."""

    input_state: PureState
    branches: tuple[Branch, ...]
    probability_drift: float
    step_stats: tuple[StepStats, ...] = ()

    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)

    def branch_fidelities(self, target: PureState) -> list[float]:
        return [fidelity(b.state, target) for b in self.branches]

    def expected_fidelity(self, target: PureState) -> float:
        return _expected(self.branches, self.branch_fidelities(target))


def _expected(branches: Sequence[Branch], values: Sequence[float]) -> float:
    """The probability-weighted sum of one value per branch."""
    return sum(b.probability * v for b, v in zip(branches, values))


def _step_layout(step, dims: tuple[int, ...], where: str) -> _FactorLayout:
    """Resolve where a non-discard step acts on its party's current space."""
    dim = dims[step.party]
    if step.factor_dims is None:
        out_dims = None
        if isinstance(step, LocalUnitary) and step.matrix.ndim == 2:
            out_dims = (step.matrix.shape[0],)
        return _factor_layout((dim,), None, out_dims, None)
    if math.prod(step.factor_dims) != dim:
        raise ProtocolError(
            f"{where}: declared factors {step.factor_dims} do not multiply to "
            f"the party dimension {dim}"
        )
    try:
        return _factor_layout(
            step.factor_dims, step.on, getattr(step, "out_dims", None), getattr(step, "insert_at", None)
        )
    except ValueError as exc:
        raise ProtocolError(f"{where}: {exc}") from exc


def _check_shape(op: np.ndarray, layout: _FactorLayout, where: str) -> None:
    if op.shape != layout.shape:
        raise ProtocolError(
            f"{where}: operator of shape {op.shape} does not act on factors "
            f"{list(layout.on)} of {list(layout.factors)}; expected {layout.shape}"
        )


# The checks below run on the small operator. Tensoring with the identity on
# the untouched factors (dimension u) multiplies every Frobenius norm they
# take by sqrt(u), so dividing the tolerance by sqrt(u) makes each check
# exactly as strict as the same check on the party-space matrix.


def _check_isometry(op: np.ndarray, layout: _FactorLayout, where: str) -> None:
    if op.ndim != 2 or op.shape[0] < op.shape[1]:
        raise ProtocolError(f"{where}: matrix of shape {op.shape} cannot be an isometry")
    _check_shape(op, layout, where)
    gram = op.conj().T @ op
    tol = _ISOMETRY_TOL / math.sqrt(layout.untouched)
    if np.linalg.norm(gram - np.eye(op.shape[1])) > tol:
        raise ProtocolError(f"{where}: matrix is not an isometry within tolerance")


def _validate_measurement(step: LocalMeasurement, layout: _FactorLayout, where: str) -> None:
    tol = _PROJECTOR_TOL / math.sqrt(layout.untouched)
    total = np.zeros(layout.shape, dtype=complex)
    for proj, outcome in zip(step.projectors, step.outcomes):
        _check_shape(proj, layout, f"{where}, outcome {outcome!r}")
        if np.linalg.norm(proj - proj.conj().T) > tol:
            raise ProtocolError(f"projector for outcome {outcome!r} is not Hermitian")
        if np.linalg.norm(proj @ proj - proj) > tol:
            raise ProtocolError(f"projector for outcome {outcome!r} is not idempotent")
        total += proj
    if np.linalg.norm(total - np.eye(len(total))) > tol:
        raise ProtocolError("measurement projectors do not sum to the identity")


def _row_chunks(num_rows: int, dim: int) -> list[slice]:
    """Slices of branch rows holding about `_CHUNK_AMPS` amplitudes each."""
    per = max(1, _CHUNK_AMPS // dim)
    return [slice(start, start + per) for start in range(0, num_rows, per)]


def _apply_to_rows(op, layout: _FactorLayout, party: int, dims, amps, out, rows=None) -> None:
    """Write a checked operator on a party's factors, applied to the branch
    rows `rows` of `amps` (default: all), into the same rows of `out`."""
    others = dims[:party] + dims[party + 1 :]
    d_out = math.prod(layout.new_factors)
    for chunk in _row_chunks(len(amps) if rows is None else len(rows), amps.shape[1]):
        take = chunk if rows is None else rows[chunk]
        block = amps[take]
        n = len(block)
        t = np.moveaxis(block.reshape((n,) + dims), party + 1, 0)
        t = _apply_factor_op(op, t.reshape(layout.factors + (-1,)), layout)
        out[take] = np.moveaxis(t.reshape((d_out, n) + others), 0, party + 1).reshape(n, -1)


def _empty_rows(lead: tuple[int, ...], size: int) -> np.ndarray:
    """Uninitialized branch rows of `size` amplitudes; refuses, as
    `PureState` does, a total dimension beyond the dense limit."""
    if size > _DENSE_DIM_LIMIT:
        raise ValueError(f"total dimension {size} exceeds the dense representation limit")
    return np.empty(lead + (size,), dtype=complex)


def _normalize_rows(amps: np.ndarray) -> None:
    """Rescale in place every branch row whose norm is off by more than
    the `PureState` tolerance, with `PureState`'s checks."""
    norms = np.sqrt(_squared_norms(amps))
    if not np.isfinite(norms).all():
        raise ValueError("state vector has non-finite amplitudes (NaN or infinity)")
    if (norms < _NORM_TOL).any():
        raise ValueError("state vector has (near-)zero norm")
    off = np.abs(norms - 1.0) > _NORM_TOL
    if off.any():
        amps /= np.where(off, norms, 1.0)[:, None]


def _condition(step: ConditionedUnitary, layout: _FactorLayout, transcripts, where: str) -> list:
    """Each distinct table matrix, checked once, with the branch rows it
    acts on (None for all of them)."""
    groups: dict[int, tuple[np.ndarray, list[int]]] = {}
    for row, transcript in enumerate(transcripts):
        mat = step.table.get(transcript)
        if mat is None:
            raise ProtocolError(
                f"{where}: incomplete conditioning table, no entry for "
                f"transcript {transcript!r}"
            )
        if id(mat) not in groups:
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ProtocolError(f"{where}: conditioned matrices must be square")
            _check_isometry(mat, layout, where)
            groups[id(mat)] = (mat, [])
        groups[id(mat)][1].append(row)
    if len(groups) == 1:
        return [(mat, None) for mat, _ in groups.values()]
    return [(mat, np.array(rows)) for mat, rows in groups.values()]


def _discard(step: DiscardSubsystem, dims: tuple[int, ...], amps: np.ndarray):
    """Drop product factors from every branch row: one stacked purity check
    and one stacked eigensystem call on the discarded factors' Grams.
    Returns the new dims and rows."""
    party = step.party
    if math.prod(step.factor_dims) != dims[party]:
        raise ProtocolError(
            f"declared factors {step.factor_dims} do not multiply to the "
            f"party dimension {dims[party]}"
        )
    d_disc = math.prod(step.factor_dims[i] for i in step.discard)
    # one axis per factor of the party; the discarded ones move to the front
    # and everything else keeps its order, which is the layout after the step
    shape = dims[:party] + step.factor_dims + dims[party + 1 :]
    discarded = [1 + party + i for i in step.discard]
    chunks = _row_chunks(len(amps), amps.shape[1])

    def split(chunk: slice) -> np.ndarray:
        block = amps[chunk].reshape((-1,) + shape)
        block = np.moveaxis(block, discarded, range(1, 1 + len(discarded)))
        return block.reshape(len(block), d_disc, -1)

    grams = np.empty((len(amps), d_disc, d_disc), dtype=complex)
    for chunk in chunks:
        m = split(chunk)
        grams[chunk] = m @ m.conj().swapaxes(-1, -2)
    for purity in _squared_norms(grams).tolist():
        if purity < 1.0 - _DISCARD_PURITY_TOL:
            raise ProtocolError(
                f"discarded factors {step.discard} of party {party} are not in a "
                f"product state (purity {purity:.12g})"
            )
    principal = hermitian_eigensystem(grams)[1][:, None, :, 0].conj()
    out = np.empty((len(amps), amps.shape[1] // d_disc), dtype=complex)
    for chunk in chunks:
        out[chunk] = (principal[chunk] @ split(chunk))[:, 0]
    return dims[:party] + (dims[party] // d_disc,) + dims[party + 1 :], out


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
    for step in steps:
        if not isinstance(step, tuple(_TYPE_NAMES)):
            raise ProtocolError(f"unknown protocol step {step!r}")
        if step.party < 0 or step.party >= state.num_parties:
            raise ProtocolError(f"step references party {step.party}, state has {state.num_parties}")

    # the branch set: row i of `amps` is branch i's state, all on `dims`
    dims = state.dims
    amps = state.amplitudes.reshape(1, -1)
    probs = np.ones(1)
    transcripts: list[tuple[str, ...]] = [()]
    stats = []
    for index, step in enumerate(steps):
        where = f"step {index} ({type(step).__name__})"
        pruned, pruned_mass = 0, 0.0
        if isinstance(step, DiscardSubsystem):
            dims, amps = _discard(step, dims, amps)
        else:
            layout = _step_layout(step, dims, where)
            new_dims = dims[: step.party] + (math.prod(layout.new_factors),) + dims[step.party + 1 :]
            size = math.prod(new_dims)
            if isinstance(step, LocalMeasurement):
                _validate_measurement(step, layout, where)
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
                    _check_isometry(step.matrix, layout, where)
                    groups = [(step.matrix, None)]
                else:
                    groups = _condition(step, layout, transcripts, where)
                out = _empty_rows((len(amps),), size)
                for mat, rows in groups:
                    _apply_to_rows(mat, layout, step.party, dims, amps, out, rows)
            dims, amps = new_dims, out
        if not len(amps):
            raise ProtocolError(f"{where}: every branch fell below the pruning threshold")
        _normalize_rows(amps)
        stats.append(StepStats(len(amps), pruned, pruned_mass))

    total = sum(probs.tolist())
    drift = abs(1.0 - total)
    if drift > _PROBABILITY_TOL:
        raise ProtocolError(f"branch probabilities sum to {total:.12g}")
    probs = probs.tolist()
    branches = tuple(
        Branch(probs[i] / total, PureState(dims, amps[i]), transcripts[i])
        for i in sorted(range(len(transcripts)), key=transcripts.__getitem__)
    )
    del amps  # the branches hold their own copies
    result = ProtocolRun(state, branches, drift, tuple(stats))
    if check_entropy and state.num_parties >= 2:
        _assert_entropy_monotone(result)
    return result


def _assert_entropy_monotone(result: ProtocolRun) -> None:
    """No cut's probability-weighted branch entropy may exceed the input's.
    The branches share dims, so they are one stack; the input is another."""
    before = entropy_vector(result.input_state.as_tensor()[None], [1.0])
    branches = result.branches
    stack = np.stack([b.state.as_tensor() for b in branches])
    after = entropy_vector(stack, [b.probability for b in branches])
    for part in before.partitions():
        if after.values[part] > before.values[part] + _ENTROPY_GAIN_TOL:
            raise EntropyMonotonicityError(part.label, before.values[part], after.values[part])


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


def _factor_layout(
    factor_dims: Sequence[int],
    on: Sequence[int] | None = None,
    out_dims: Sequence[int] | None = None,
    insert_at: int | None = None,
) -> _FactorLayout:
    """The placement rule of `expand_factor_op`, before any operator is seen."""
    factors = tuple(int(d) for d in factor_dims)
    n = len(factors)
    on = tuple(range(n)) if on is None else tuple(int(i) for i in on)
    if len(set(on)) != len(on):
        raise ValueError("duplicate factor index in `on`")
    if any(i < 0 or i >= n for i in on):
        raise ValueError("factor index out of range")
    in_dims = tuple(factors[i] for i in on)
    out = in_dims if out_dims is None else tuple(int(d) for d in out_dims)
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
            anchor = n if insert_at is None else int(insert_at)
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


def _as_operator(op, layout: _FactorLayout) -> np.ndarray:
    op = np.asarray(op, dtype=complex)
    if op.shape != layout.shape:
        raise ValueError(f"operator shape {op.shape} does not match {layout.shape}")
    return op


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
    layout = _factor_layout(factor_dims, on, out_dims, insert_at)
    op = _as_operator(op, layout)
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


class ProtocolBuilder:
    """Assemble protocol steps while tracking each party's subsystem layout.

    Each step stores the small operator together with the party's factor
    list at that point and the factors it acts on, so operators,
    measurements, and discards can be addressed to individual subsystems
    without ever forming a party-space matrix.
    """

    def __init__(self, factor_dims: Sequence[Sequence[int]]):
        self._factors: list[list[int]] = [[int(d) for d in group] for group in factor_dims]
        if not self._factors:
            raise ValueError("need at least one party")
        self._steps: list[ProtocolStep] = []
        self._outcome_sets: list[tuple[str, ...]] = []

    @property
    def num_parties(self) -> int:
        return len(self._factors)

    def factor_dims(self, party: int) -> tuple[int, ...]:
        return tuple(self._factors[party])

    def party_dim(self, party: int) -> int:
        return math.prod(self._factors[party])

    def steps(self) -> list[ProtocolStep]:
        return list(self._steps)

    def regroup(self, party: int, new_factor_dims: Sequence[int]) -> None:
        """Re-declare a party's factor structure (no physical operation)."""
        new = [int(d) for d in new_factor_dims]
        if math.prod(new) != self.party_dim(party):
            raise ValueError("regrouped factors must preserve the local dimension")
        self._factors[party] = new

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
        layout = _factor_layout(self._factors[party], on, out_dims, insert_at)
        op = _as_operator(matrix, layout)
        self._steps.append(
            LocalUnitary(party, op, layout.factors, layout.on, out_dims, insert_at)
        )
        self._factors[party] = list(layout.new_factors)
        return list(layout.emitted)

    def add_ancilla(
        self, party: int, vector: Sequence[complex], insert_at: int | None = None
    ) -> None:
        """Attach a fresh local subsystem prepared in `vector`."""
        column = np.asarray(vector, dtype=complex).reshape(-1, 1)
        norm = np.linalg.norm(column)
        if norm < 1e-12:
            raise ValueError("ancilla state must be nonzero")
        self.unitary(
            party,
            column / norm,
            on=[],
            out_dims=[column.shape[0]],
            insert_at=insert_at,
        )

    def measure(
        self,
        party: int,
        projectors: Sequence[np.ndarray],
        outcomes: Sequence[str],
        on: Sequence[int] | None = None,
    ) -> None:
        layout = _factor_layout(self._factors[party], on)
        projs = tuple(_as_operator(proj, layout) for proj in projectors)
        self._steps.append(
            LocalMeasurement(party, projs, tuple(outcomes), layout.factors, layout.on)
        )
        self._outcome_sets.append(tuple(str(o) for o in outcomes))

    def conditioned(
        self,
        party: int,
        matrix_for: Callable[[tuple[str, ...]], np.ndarray],
        on: Sequence[int] | None = None,
    ) -> None:
        """Add a unitary chosen by the transcript, tabulated over all of them."""
        layout = _factor_layout(self._factors[party], on)
        table = {
            transcript: _as_operator(matrix_for(transcript), layout)
            for transcript in itertools.product(*self._outcome_sets)
        }
        self._steps.append(ConditionedUnitary(party, table, layout.factors, layout.on))

    def discard(self, party: int, factor_indices: Sequence[int]) -> None:
        indices = tuple(sorted(int(i) for i in factor_indices))
        self._steps.append(
            DiscardSubsystem(party, tuple(self._factors[party]), indices)
        )
        self._factors[party] = [
            d for i, d in enumerate(self._factors[party]) if i not in indices
        ]

    def move_factors(self, party: int, order: Sequence[int]) -> None:
        """Permute a party's factors into `order` (old indices, new order),
        one swap of neighbouring factors per step."""
        new_order = [int(i) for i in order]
        if sorted(new_order) != list(range(len(self._factors[party]))):
            raise ValueError("order must list every factor exactly once")
        slots = list(range(len(new_order)))
        for target, factor in enumerate(new_order):
            for j in range(slots.index(factor), target, -1):
                a, b = self._factors[party][j - 1 : j + 1]
                swap = np.eye(a * b).reshape(a, b, a * b).transpose(1, 0, 2)
                swap = swap.reshape(a * b, a * b)
                self.unitary(party, swap, on=[j - 1, j], out_dims=[b, a])
                slots[j - 1], slots[j] = slots[j], slots[j - 1]

    def bell_measure(self, party: int, first: int, second: int) -> None:
        """Bell-basis measurement of two qubit factors of one party."""
        if self._factors[party][first] != 2 or self._factors[party][second] != 2:
            raise ValueError("Bell measurement needs two qubit factors")
        labels, projs = zip(*bell_projectors())
        self.measure(party, projs, labels, on=[first, second])

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
        position = len(self._outcome_sets) - 1

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
            fix_phase = index == 0
            self.conditioned(
                party,
                lambda t, fp=fix_phase: correction(t, fp),
                on=[factor],
            )
        self.discard(sender, [payload, leg])

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
        branch is left in the corresponding post-measurement state.
        """
        ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
        if not ops:
            raise ValueError("need at least one Kraus operator")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise ValueError("Kraus operators must be square and same-sized")
        total = sum(k.conj().T @ k for k in ops)
        if np.linalg.norm(total - np.eye(d)) > _ISOMETRY_TOL:
            raise ValueError("Kraus operators do not resolve the identity")
        n_out = len(ops)
        if outcomes is None:
            outcomes = [str(i) for i in range(n_out)]
        # isometry |psi> -> sum_i (K_i|psi>) (x) |i>, ancilla least significant
        iso = np.zeros((d * n_out, d), dtype=complex)
        for i, k in enumerate(ops):
            iso[i::n_out, :] = k
        on = list(range(len(self._factors[party]))) if on is None else list(on)
        in_dims = [self._factors[party][i] for i in on]
        if math.prod(in_dims) != d:
            raise ValueError("Kraus dimension does not match the selected factors")
        ancilla = self.unitary(party, iso, on=on, out_dims=in_dims + [n_out])[-1]
        basis_projs = [np.diag(row) for row in np.eye(n_out, dtype=complex)]
        self.measure(party, basis_projs, list(outcomes), on=[ancilla])
        self.discard(party, [ancilla])


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


def eprs_to_cat_input(m: int, center: int = 0) -> PureState:
    """Input for `eprs_to_cat`: EPR pairs from `center` to every other party,
    with an m-qubit cat state prepared locally at the center.

    The center's factors are its m cat qubits followed by its m-1 EPR legs
    (legs ordered by the other party's index); every other party holds one
    qubit.
    """
    from .builders import cat_state, epr_pair  # local import to avoid a cycle
    from .states import permute_parties, tensor

    if m < 2:
        raise ValueError("need at least two parties")
    if not 0 <= center < m:
        raise ValueError("center out of range")
    others = [p for p in range(m) if p != center]
    acc = PureState((2**m,), cat_state(m).amplitudes)
    for position, _ in enumerate(others):
        acc = tensor(acc, epr_pair(), {0: 0, 1: 1 + position})
    # party 0 of `acc` is the center; move it to its global slot
    perm = [0] * m
    perm[center] = 0
    for position, other in enumerate(others):
        perm[other] = 1 + position
    return permute_parties(acc, perm)


def eprs_to_cat(m: int, center: int = 0) -> list[ProtocolStep]:
    """Share an m-party cat state by teleporting a locally prepared one.

    Expects the state produced by `eprs_to_cat_input`: the center keeps cat
    qubit 0 and teleports cat qubit 1+i to the i-th other party through
    their shared EPR pair. All 4^(m-1) branches end in the exact cat state.
    """
    if m < 2:
        raise ValueError("need at least two parties")
    if not 0 <= center < m:
        raise ValueError("center out of range")
    others = [p for p in range(m) if p != center]
    layout: list[list[int]] = [[2] for _ in range(m)]
    layout[center] = [2] * m + [2] * (m - 1)
    builder = ProtocolBuilder(layout)
    # name the center's factors so positions survive the discards
    names = [f"cat{q}" for q in range(m)] + [f"leg{p}" for p in others]
    for position, other in enumerate(others):
        payload = names.index(f"cat{1 + position}")
        leg = names.index(f"leg{other}")
        builder.teleport(center, payload, leg, receivers=[(other, 0)])
        names = [x for x in names if x not in (f"cat{1 + position}", f"leg{other}")]
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


def _normalize_coefficients(coefficients: Sequence[float]) -> np.ndarray:
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
            "splits into qubits; see dilution_fidelity for other ranks"
        )
    return coeffs


def _replicated_target(coeffs: np.ndarray, num_parties: int) -> PureState:
    """The cat-like state sum_i c_i |i>^(x)m over `num_parties` parties."""
    r = len(coeffs)
    amps = np.zeros(r**num_parties, dtype=complex)
    step = (r**num_parties - 1) // (r - 1)
    for i, c in enumerate(coeffs):
        amps[i * step] = c
    return PureState((r,) * num_parties, amps)


def dilution_input(
    coefficients: Sequence[float], n: int, k: int, num_parties: int = 3
) -> PureState:
    """Starting state for `dilution_protocol`: the first party holds n
    local copies of the target (own share plus a to-be-shared register
    per copy) and one leg of each of k shared cat states."""
    from .builders import cat_state
    from .states import tensor

    coeffs = _normalize_coefficients(coefficients)
    m = int(num_parties)
    if m < 2:
        raise ValueError("need at least two parties")
    r = len(coeffs)
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
    coeffs = _normalize_coefficients(coefficients)
    m = int(num_parties)
    if m < 2:
        raise ValueError("need at least two parties")
    if n < 1:
        raise ValueError("need at least one copy")
    r = len(coeffs)
    c = n * (r.bit_length() - 1)
    if not 0 <= k <= c:
        raise ValueError(f"cat budget must lie in 0..{c} for this target")
    junk = c - k

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
        builder.measure(
            0,
            [keep, np.eye(d_junk) - keep],
            ["ok", "overflow"],
            on=[names.index(f"bit{i}") for i in range(junk)],
        )

    for t in range(k):
        payload = names.index(f"bit{junk + t}")
        leg = names.index(f"leg{t}")
        builder.teleport(0, payload, leg, [(p, t) for p in range(1, m)])
        names.remove(f"bit{junk + t}")
        names.remove(f"leg{t}")

    for p in range(1, m):
        if junk:
            zeros = np.zeros(2**junk)
            zeros[0] = 1.0
            builder.add_ancilla(p, zeros, insert_at=0)
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
    from .states import tensor

    coeffs = _normalize_coefficients(coefficients)
    m = int(num_parties)
    state = dilution_input(coeffs, n, k, m)
    steps = dilution_protocol(coeffs, n, k, m)
    result = run(steps, state)

    r = len(coeffs)
    c = n * (r.bit_length() - 1)
    junk = c - k
    target = _replicated_target(coeffs, m)
    reference = target
    for _ in range(1, n):
        reference = tensor(reference, target, {p: p for p in range(m)})
    if junk:
        pad = np.zeros(2**junk, dtype=complex)
        pad[0] = 1.0
        reference = tensor(reference, PureState((2**junk,), pad), {0: 0})

    fidelities = result.branch_fidelities(reference)
    fit = [(b, f) for b, f in zip(result.branches, fidelities) if junk == 0 or b.transcript[0] == "ok"]
    success_p = sum(b.probability for b, _ in fit)
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
        success_fidelity=sum(b.probability * f for b, f in fit) / success_p,
        expected_fidelity=_expected(result.branches, fidelities),
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
# accepted as real). Unitary, measurement and conditioned entries may add
# "factor_dims" and "on" (and a unitary "out_dims" and "insert_at"); without
# them the step acts on the whole party. Parties, dimensions and factor
# indices are JSON integers. Keys a step type does not have are ignored,
# and a null value leaves its field unset.

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


def _json_int(value) -> int:
    if type(value) is not int:
        raise ValueError(f"expected an integer, not {value!r}")
    return value


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
        return _json_int(value)
    if name == "matrix":
        return _matrix_from_json(value)
    if name == "projectors":
        return tuple(_matrix_from_json(p) for p in value)
    if name == "table":
        return {tuple(key.split(",")) if key else (): _matrix_from_json(mat) for key, mat in value.items()}
    if name == "outcomes":
        if type(value) is not list or not all(type(label) is str for label in value):
            raise ValueError(f"expected a list of strings, not {value!r}")
        return tuple(value)
    if type(value) is not list:
        raise ValueError(f"expected a list of integers, not {value!r}")
    return tuple(map(_json_int, value))


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
    entries = [json.dumps(entry) for entry in protocol_to_list(steps)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(entries) + "\n]\n")
