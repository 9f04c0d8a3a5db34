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
partial-entropy bookkeeping exact. Unless disabled, every run asserts the
monotonicity law for partial entropies: for each partition, the
probability-weighted entropy of the branch states never exceeds the
input's. A violation raises EntropyMonotonicityError naming the partition,
since no sequence of local operations and broadcasts can increase any
partial entropy.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .entropy import entropy_vector
from .linalg import hermitian_eigensystem
from .states import PureState, fidelity

__all__ = [
    "LocalUnitary",
    "LocalMeasurement",
    "ConditionedUnitary",
    "DiscardSubsystem",
    "ProtocolStep",
    "Branch",
    "ProtocolRun",
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


@dataclass(frozen=True, eq=False)
class LocalUnitary:
    """Unitary or isometry on one party; (d_out, d_in) with d_out >= d_in."""

    party: int
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class LocalMeasurement:
    """Complete projective measurement on one party.

    Projectors must be Hermitian, idempotent, and sum to the identity on
    the party's current local space; the outcome labels join the transcript.
    """

    party: int
    projectors: tuple[np.ndarray, ...]
    outcomes: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "projectors", tuple(np.asarray(p, dtype=complex) for p in self.projectors))
        object.__setattr__(self, "outcomes", tuple(str(o) for o in self.outcomes))
        if len(self.projectors) != len(self.outcomes):
            raise ValueError("need exactly one outcome label per projector")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("outcome labels must be distinct")


@dataclass(frozen=True, eq=False)
class ConditionedUnitary:
    """Unitary on one party chosen by the full classical transcript so far."""

    party: int
    table: Mapping[tuple[str, ...], np.ndarray]

    def __post_init__(self) -> None:
        frozen = {
            tuple(str(o) for o in key): np.asarray(mat, dtype=complex)
            for key, mat in dict(self.table).items()
        }
        object.__setattr__(self, "table", frozen)


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


@dataclass(frozen=True)
class Branch:
    probability: float
    state: PureState
    transcript: tuple[str, ...]


@dataclass(frozen=True)
class ProtocolRun:
    """All branches of a protocol applied to an input state."""

    input_state: PureState
    branches: tuple[Branch, ...]
    probability_drift: float

    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)

    def branch_fidelities(self, target: PureState) -> list[float]:
        return [fidelity(b.state, target) for b in self.branches]

    def expected_fidelity(self, target: PureState) -> float:
        return sum(b.probability * fidelity(b.state, target) for b in self.branches)


def _check_isometry(matrix: np.ndarray, where: str) -> np.ndarray:
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] < mat.shape[1]:
        raise ProtocolError(f"{where}: matrix of shape {mat.shape} cannot be an isometry")
    gram = mat.conj().T @ mat
    if np.linalg.norm(gram - np.eye(mat.shape[1])) > _ISOMETRY_TOL:
        raise ProtocolError(f"{where}: matrix is not an isometry within tolerance")
    return mat


def _apply_local(state: PureState, party: int, matrix: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Apply a party-local matrix; returns (new_dims, unnormalized vector)."""
    dims = state.dims
    d_in = dims[party]
    if matrix.shape[1] != d_in:
        raise ProtocolError(
            f"matrix expects local dimension {matrix.shape[1]}, party has {d_in}"
        )
    t = np.moveaxis(state.as_tensor(), party, 0).reshape(d_in, -1)
    out = matrix @ t
    d_out = matrix.shape[0]
    rest_dims = tuple(d for i, d in enumerate(dims) if i != party)
    out = np.moveaxis(out.reshape((d_out,) + rest_dims), 0, party)
    new_dims = list(dims)
    new_dims[party] = d_out
    return tuple(new_dims), out.reshape(-1)


def _validate_measurement(step: LocalMeasurement, dim: int) -> None:
    total = np.zeros((dim, dim), dtype=complex)
    for proj, outcome in zip(step.projectors, step.outcomes):
        if proj.shape != (dim, dim):
            raise ProtocolError(
                f"projector for outcome {outcome!r} has shape {proj.shape}, "
                f"party dimension is {dim}"
            )
        if np.linalg.norm(proj - proj.conj().T) > _PROJECTOR_TOL:
            raise ProtocolError(f"projector for outcome {outcome!r} is not Hermitian")
        if np.linalg.norm(proj @ proj - proj) > _PROJECTOR_TOL:
            raise ProtocolError(f"projector for outcome {outcome!r} is not idempotent")
        total += proj
    if np.linalg.norm(total - np.eye(dim)) > _PROJECTOR_TOL:
        raise ProtocolError("measurement projectors do not sum to the identity")


def _discard_branch(state: PureState, step: DiscardSubsystem) -> PureState:
    party = step.party
    dims = state.dims
    if math.prod(step.factor_dims) != dims[party]:
        raise ProtocolError(
            f"declared factors {step.factor_dims} do not multiply to the "
            f"party dimension {dims[party]}"
        )
    n_factors = len(step.factor_dims)
    keep = tuple(i for i in range(n_factors) if i not in step.discard)
    # expand the party axis into factor axes, pull discarded ones to front
    t = state.as_tensor()
    t = np.moveaxis(t, party, 0)
    t = t.reshape(step.factor_dims + t.shape[1:])
    order = step.discard + keep + tuple(range(n_factors, t.ndim))
    t = np.transpose(t, order)
    d_disc = math.prod(step.factor_dims[i] for i in step.discard)
    m = t.reshape(d_disc, -1)
    gram = m @ m.conj().T
    purity = float(np.vdot(gram, gram).real)
    if purity < 1.0 - _DISCARD_PURITY_TOL:
        raise ProtocolError(
            f"discarded factors {step.discard} of party {party} are not in a "
            f"product state (purity {purity:.12g})"
        )
    eigenvalues, vectors = hermitian_eigensystem(gram)
    principal = vectors[:, 0]
    remainder = principal.conj() @ m
    d_keep = math.prod(step.factor_dims[i] for i in keep)
    rest_dims = tuple(d for i, d in enumerate(dims) if i != party)
    out = np.moveaxis(remainder.reshape((d_keep,) + rest_dims), 0, party)
    new_dims = list(dims)
    new_dims[party] = d_keep
    return PureState(tuple(new_dims), out.reshape(-1))


def run(
    steps: Sequence[ProtocolStep],
    state: PureState,
    check_entropy: bool = True,
    prune_threshold: float = _PRUNE_THRESHOLD,
) -> ProtocolRun:
    """Apply a protocol to a state, expanding every measurement branch.

    Branches are returned sorted by transcript. Probabilities are
    renormalized at the end; the pre-normalization deficit (from pruning)
    is recorded and must stay below 1e-9. With `check_entropy`, the
    partial-entropy monotonicity assertion runs over every partition.
    """
    for step in steps:
        if not isinstance(step, (LocalUnitary, LocalMeasurement, ConditionedUnitary, DiscardSubsystem)):
            raise ProtocolError(f"unknown protocol step {step!r}")
        if step.party < 0 or step.party >= state.num_parties:
            raise ProtocolError(f"step references party {step.party}, state has {state.num_parties}")

    branches: list[tuple[float, PureState, tuple[str, ...]]] = [(1.0, state, ())]
    for index, step in enumerate(steps):
        where = f"step {index} ({type(step).__name__})"
        new_branches: list[tuple[float, PureState, tuple[str, ...]]] = []
        if isinstance(step, LocalUnitary):
            mat = _check_isometry(step.matrix, where)
            for prob, psi, transcript in branches:
                dims, vec = _apply_local(psi, step.party, mat)
                new_branches.append((prob, PureState(dims, vec), transcript))
        elif isinstance(step, LocalMeasurement):
            dim = branches[0][1].dims[step.party]
            _validate_measurement(step, dim)
            for prob, psi, transcript in branches:
                for proj, outcome in zip(step.projectors, step.outcomes):
                    dims, vec = _apply_local(psi, step.party, proj)
                    weight = float(np.vdot(vec, vec).real)
                    p_new = prob * weight
                    if p_new < prune_threshold:
                        continue
                    new_branches.append(
                        (p_new, PureState(dims, vec), transcript + (outcome,))
                    )
        elif isinstance(step, ConditionedUnitary):
            for prob, psi, transcript in branches:
                if transcript not in step.table:
                    raise ProtocolError(
                        f"{where}: incomplete conditioning table, no entry for "
                        f"transcript {transcript!r}"
                    )
                mat = _check_isometry(step.table[transcript], where)
                if mat.shape[0] != mat.shape[1]:
                    raise ProtocolError(f"{where}: conditioned matrices must be square")
                dims, vec = _apply_local(psi, step.party, mat)
                new_branches.append((prob, PureState(dims, vec), transcript))
        else:  # DiscardSubsystem
            for prob, psi, transcript in branches:
                new_branches.append((prob, _discard_branch(psi, step), transcript))
        if not new_branches:
            raise ProtocolError(f"{where}: every branch fell below the pruning threshold")
        branches = new_branches

    total = sum(prob for prob, _, _ in branches)
    drift = abs(1.0 - total)
    if drift > _PROBABILITY_TOL:
        raise ProtocolError(f"branch probabilities sum to {total:.12g}")
    branches = [(prob / total, psi, transcript) for prob, psi, transcript in branches]
    branches.sort(key=lambda b: b[2])
    result = ProtocolRun(
        input_state=state,
        branches=tuple(Branch(p, s, t) for p, s, t in branches),
        probability_drift=drift,
    )
    if check_entropy and state.num_parties >= 2:
        _assert_entropy_monotone(result)
    return result


def _assert_entropy_monotone(result: ProtocolRun) -> None:
    before = entropy_vector(result.input_state)
    branch_vectors = [
        (b.probability, entropy_vector(b.state)) for b in result.branches
    ]
    for part in before.partitions():
        expected_after = sum(p * vec.values[part] for p, vec in branch_vectors)
        if expected_after > before.values[part] + _ENTROPY_GAIN_TOL:
            raise EntropyMonotonicityError(part.label, before.values[part], expected_after)


# --- factor-level operator plumbing -----------------------------------------


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
    The emitted factors are inserted where the first consumed factor sat;
    with an empty `on`, `insert_at` places them (default: appended).
    Returns the full party-space matrix and the new factor list.
    """
    full, new_factors, _ = _expand_factor_op(op, factor_dims, on, out_dims, insert_at)
    return full, new_factors


def _expand_factor_op(
    op: np.ndarray,
    factor_dims: Sequence[int],
    on: Sequence[int] | None,
    out_dims: Sequence[int] | None,
    insert_at: int | None,
) -> tuple[np.ndarray, list[int], list[int]]:
    """`expand_factor_op`, plus the new slot of each emitted factor."""
    factors = [int(d) for d in factor_dims]
    n = len(factors)
    on = list(range(n)) if on is None else [int(i) for i in on]
    on_set = set(on)
    if len(on_set) != len(on):
        raise ValueError("duplicate factor index in `on`")
    if any(i < 0 or i >= n for i in on):
        raise ValueError("factor index out of range")
    in_dims = [factors[i] for i in on]
    out = [int(d) for d in out_dims] if out_dims is not None else list(in_dims)
    d_in = math.prod(in_dims) if in_dims else 1
    d_out = math.prod(out) if out else 1
    op = np.asarray(op, dtype=complex)
    if op.shape != (d_out, d_in):
        raise ValueError(f"operator shape {op.shape} does not match ({d_out}, {d_in})")
    rest = [i for i in range(n) if i not in on_set]
    rest_dims = [factors[i] for i in rest]
    d_rest = math.prod(rest_dims) if rest_dims else 1
    big = np.kron(op, np.eye(d_rest, dtype=complex))
    big = big.reshape(out + rest_dims + in_dims + rest_dims)

    out_axes = list(range(len(out)))
    rest_axes_out = [len(out) + j for j in range(len(rest))]
    order: list[int] = []
    new_factors: list[int] = []
    if len(out) == len(on):
        # one emitted factor per consumed one: keep them in the same slots,
        # so square operators stay genuine operators on the party space
        emitted = list(on)
        for slot in range(n):
            if slot in on_set:
                k = on.index(slot)
                order.append(out_axes[k])
                new_factors.append(out[k])
            else:
                j = rest.index(slot)
                order.append(rest_axes_out[j])
                new_factors.append(factors[slot])
    else:
        if on:
            anchor = min(on)
        else:
            anchor = n if insert_at is None else int(insert_at)
            if anchor < 0 or anchor > n:
                raise ValueError("insert_at out of range")
        for slot in range(n + 1):
            if slot == anchor:
                emitted = list(range(len(new_factors), len(new_factors) + len(out)))
                order.extend(out_axes)
                new_factors.extend(out)
            if slot == n:
                break
            if slot in on_set:
                continue
            j = rest.index(slot)
            order.append(rest_axes_out[j])
            new_factors.append(factors[slot])

    in_offset = len(out) + len(rest)
    in_order: list[int] = []
    for slot in range(n):
        if slot in on_set:
            in_order.append(in_offset + on.index(slot))
        else:
            in_order.append(in_offset + len(in_dims) + rest.index(slot))

    big = big.transpose(order + in_order)
    new_total = math.prod(new_factors) if new_factors else 1
    total_in = math.prod(factors) if factors else 1
    return big.reshape(new_total, total_in), new_factors, emitted


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

    The simulator itself only sees party-local matrices; this helper keeps
    the per-party factor lists so operators, measurements, and discards can
    be addressed to individual subsystems.
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
        full, new_factors, emitted = _expand_factor_op(
            matrix, self._factors[party], on, out_dims, insert_at
        )
        self._steps.append(LocalUnitary(party, full))
        self._factors[party] = new_factors
        return emitted

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
        expanded = []
        for proj in projectors:
            full, new_factors = expand_factor_op(proj, self._factors[party], on)
            if new_factors != self._factors[party]:
                raise ValueError("measurement projectors must be square")
            expanded.append(full)
        self._steps.append(LocalMeasurement(party, tuple(expanded), tuple(outcomes)))
        self._outcome_sets.append(tuple(str(o) for o in outcomes))

    def conditioned(
        self,
        party: int,
        matrix_for: Callable[[tuple[str, ...]], np.ndarray],
        on: Sequence[int] | None = None,
    ) -> None:
        """Add a unitary chosen by the transcript, tabulated over all of them."""
        table = {}
        for transcript in itertools.product(*self._outcome_sets):
            full, new_factors = expand_factor_op(
                matrix_for(transcript), self._factors[party], on
            )
            if new_factors != self._factors[party]:
                raise ValueError("conditioned matrices must be square")
            table[transcript] = full
        self._steps.append(ConditionedUnitary(party, table))

    def discard(self, party: int, factor_indices: Sequence[int]) -> None:
        indices = tuple(sorted(int(i) for i in factor_indices))
        self._steps.append(
            DiscardSubsystem(party, tuple(self._factors[party]), indices)
        )
        self._factors[party] = [
            d for i, d in enumerate(self._factors[party]) if i not in indices
        ]

    def move_factors(self, party: int, order: Sequence[int]) -> None:
        """Permute a party's factors with the corresponding local unitary."""
        factors = self._factors[party]
        new_order = [int(i) for i in order]
        if sorted(new_order) != list(range(len(factors))):
            raise ValueError("order must list every factor exactly once")
        d = math.prod(factors)
        identity = np.eye(d, dtype=complex).reshape(factors + factors)
        n = len(factors)
        axes = new_order + list(range(n, 2 * n))
        matrix = identity.transpose(axes).reshape(d, d)
        self._steps.append(LocalUnitary(party, matrix))
        self._factors[party] = [factors[i] for i in new_order]

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
        discard_measured: bool = True,
    ) -> None:
        """Teleport a qubit factor of `sender` through a shared cat state.

        `leg` is the sender's qubit of the cat; `receivers` lists
        (party, factor) pairs for every other leg. After the sender's Bell
        measurement each receiver undoes the bit flip and the first listed
        receiver also undoes the phase flip, which leaves the receivers'
        legs holding the payload (cat-encoded when there are several).
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
        if discard_measured:
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
        basis_projs = []
        for i in range(n_out):
            p = np.zeros((n_out, n_out), dtype=complex)
            p[i, i] = 1.0
            basis_projs.append(p)
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


def _cat_amplitudes(m: int) -> np.ndarray:
    vec = np.zeros(2**m, dtype=complex)
    vec[0] = 1.0
    vec[-1] = 1.0
    return vec / np.sqrt(2.0)


def eprs_to_cat_input(m: int, center: int = 0) -> PureState:
    """Input for `eprs_to_cat`: EPR pairs from `center` to every other party,
    with an m-qubit cat state prepared locally at the center.

    The center's factors are its m cat qubits followed by its m-1 EPR legs
    (legs ordered by the other party's index); every other party holds one
    qubit.
    """
    from .builders import epr_pair  # local import to avoid a cycle
    from .states import PureState as _PureState, tensor, permute_parties

    if m < 2:
        raise ValueError("need at least two parties")
    if not 0 <= center < m:
        raise ValueError("center out of range")
    others = [p for p in range(m) if p != center]
    acc = _PureState((2**m,), _cat_amplitudes(m))
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
    r = len(probs)
    strings = list(itertools.product(range(r), repeat=n))
    ranked = sorted(
        strings, key=lambda s: (-math.prod(probs[x] for x in s), s)
    )
    d = r**n
    perm = np.zeros((d, d), dtype=complex)
    for rank, s in enumerate(ranked):
        index = 0
        for x in s:
            index = index * r + x
        perm[rank, index] = 1.0
    return perm


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

    expected = 0.0
    success_p = 0.0
    success_f = 0.0
    for branch in result.branches:
        f = fidelity(branch.state, reference)
        expected += branch.probability * f
        if junk == 0 or branch.transcript[0] == "ok":
            success_p += branch.probability
            success_f += branch.probability * f
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
        success_fidelity=success_f / success_p,
        expected_fidelity=expected,
    )


# --- protocol file format ----------------------------------------------------
#
# A protocol file is a JSON list of step objects:
#   {"type": "unitary", "party": 0, "matrix": [[[re, im], ...], ...]}
#   {"type": "measurement", "party": 0, "projectors": [...], "outcomes": [...]}
#   {"type": "conditioned", "party": 0, "table": {"+,-": [[...]]}}
#   {"type": "discard", "party": 0, "factor_dims": [2, 2], "discard": [0]}
# Matrix entries are [re, im] pairs (bare numbers are accepted as real).


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
            if isinstance(entry, (int, float)):
                out_row.append(complex(entry))
            else:
                re, im = entry
                out_row.append(complex(float(re), float(im)))
        rows.append(out_row)
    return np.array(rows, dtype=complex)


def protocol_to_list(steps: Sequence[ProtocolStep]) -> list[dict]:
    out = []
    for step in steps:
        if isinstance(step, LocalUnitary):
            out.append(
                {"type": "unitary", "party": step.party, "matrix": _matrix_to_json(step.matrix)}
            )
        elif isinstance(step, LocalMeasurement):
            out.append(
                {
                    "type": "measurement",
                    "party": step.party,
                    "projectors": [_matrix_to_json(p) for p in step.projectors],
                    "outcomes": list(step.outcomes),
                }
            )
        elif isinstance(step, ConditionedUnitary):
            out.append(
                {
                    "type": "conditioned",
                    "party": step.party,
                    "table": {
                        ",".join(key): _matrix_to_json(mat)
                        for key, mat in sorted(step.table.items())
                    },
                }
            )
        elif isinstance(step, DiscardSubsystem):
            out.append(
                {
                    "type": "discard",
                    "party": step.party,
                    "factor_dims": list(step.factor_dims),
                    "discard": list(step.discard),
                }
            )
        else:
            raise ValueError(f"cannot serialize step {step!r}")
    return out


def protocol_from_list(payload: Sequence[Mapping]) -> list[ProtocolStep]:
    steps: list[ProtocolStep] = []
    for entry in payload:
        kind = entry.get("type")
        party = int(entry["party"])
        if kind == "unitary":
            steps.append(LocalUnitary(party, _matrix_from_json(entry["matrix"])))
        elif kind == "measurement":
            steps.append(
                LocalMeasurement(
                    party,
                    tuple(_matrix_from_json(p) for p in entry["projectors"]),
                    tuple(entry["outcomes"]),
                )
            )
        elif kind == "conditioned":
            table = {
                tuple(key.split(",")) if key else (): _matrix_from_json(mat)
                for key, mat in entry["table"].items()
            }
            steps.append(ConditionedUnitary(party, table))
        elif kind == "discard":
            steps.append(
                DiscardSubsystem(
                    party,
                    tuple(int(d) for d in entry["factor_dims"]),
                    tuple(int(i) for i in entry["discard"]),
                )
            )
        else:
            raise ValueError(f"unknown protocol step type {kind!r}")
    return steps


def load_protocol(path: str) -> list[ProtocolStep]:
    with open(path, "r", encoding="utf-8") as fh:
        return protocol_from_list(json.load(fh))


def save_protocol(steps: Sequence[ProtocolStep], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(protocol_to_list(steps), fh, indent=1)
        fh.write("\n")
