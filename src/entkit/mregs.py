"""Exact-rational linear algebra over partial-entropy vectors.

Whether n copies of one state can asymptotically stand in for a tensor
combination of others is constrained by additivity: the combination's
entropy vector must equal the nonnegative rational mix of the generators'
vectors, partition by partition. For the standard families (EPR pairs, cat
states, the five-qubit codeword) every entry is an exact integer, so the
whole question reduces to exact linear algebra: solve for the mix, decide
uniqueness, or produce a separating certificate, a partition weighting
that is nonnegative against every generator yet negative against the
target. Counting certified-independent states gives lower bounds on how
many states a reversible generating set must contain.

Inputs and results are exact `fractions.Fraction`s; float inputs are
accepted only when they are within 1e-9 of a small rational. One core,
`_feasible`, decides x >= 0 with A x = b over plain int or `Fraction`
columns of either sign, and hands back either the mix or a separating
weighting it has re-checked exactly; `solve_coefficients` is its adapter
for labeled entropy rows. Inside the core, elimination scales each
equation to Python ints and runs fraction-free, so the one solver
`_solve_exact` serves the equality system, the left-kernel certificate of
an inconsistent system and the lift of Farkas multipliers to a weighting.
The inequality half, x >= 0 over the solutions of the equality system, is
one exact dictionary simplex (`_lexmin_mix`): it finds the mix, decides
uniqueness and yields the Farkas multipliers.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence, Union

from .entropy import (
    EntropyVector,
    entropy_vector,
    exact_entropy_ratio_r21,
    exact_entropy_vector,
    exact_entropy_vector_of_factors,
)
from .errors import InternalError
from .states import PureState, canonical_partitions, party_letters

__all__ = [
    "EntropyMatrix",
    "CoefficientSolution",
    "Infeasible",
    "solve_coefficients",
    "MregsBound",
    "ProbeResult",
    "mregs_lower_bound",
    "R21Row",
    "r21_table",
    "egs_check",
]

_FLOAT_SNAP_TOL = 1e-9
_EGS_FLOOR = 1e-8


def _snap(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    fr = Fraction(float(value)).limit_denominator(1_000_000)
    if abs(fr - Fraction(float(value))) > _FLOAT_SNAP_TOL:
        raise ValueError(f"entry {value!r} is not rational within tolerance")
    return fr


def _as_row(num_parties: int, vector) -> tuple[Fraction, ...]:
    """Normalize a state / mapping / sequence to an exact partition row."""
    parts = canonical_partitions(num_parties)
    if isinstance(vector, PureState):
        if vector.num_parties != num_parties:
            raise ValueError(
                f"a {vector.num_parties}-party state where {num_parties} "
                "parties are expected"
            )
        exact = exact_entropy_vector(vector)
        return tuple(exact[p] for p in parts)
    if isinstance(vector, Mapping):
        row = []
        for p in parts:
            if p in vector:
                row.append(_snap(vector[p]))
            elif p.members in vector:
                row.append(_snap(vector[p.members]))
            else:
                raise ValueError(f"vector is missing partition {p.label}")
        return tuple(row)
    row = tuple(_snap(x) for x in vector)
    if len(row) != len(parts):
        raise ValueError(
            f"expected {len(parts)} entries for {num_parties} parties, got {len(row)}"
        )
    return row


@dataclass(frozen=True)
class EntropyMatrix:
    """Labeled generators with one exact entropy row each.

    Rows are ordered by the canonical partitions of `num_parties`; all
    entries must be nonnegative.
    """

    num_parties: int
    labels: tuple[str, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        width = len(canonical_partitions(self.num_parties))
        if len(self.labels) != len(self.rows):
            raise ValueError("need exactly one label per row")
        for label, row in zip(self.labels, self.rows):
            if len(row) != width:
                raise ValueError(f"row {label!r} has {len(row)} entries, expected {width}")
            if any(x < 0 for x in row):
                raise ValueError(f"row {label!r} has a negative entropy entry")

    @classmethod
    def from_states(
        cls, num_parties: int, entries: Sequence[tuple[str, object]]
    ) -> "EntropyMatrix":
        labels = tuple(label for label, _ in entries)
        rows = tuple(_as_row(num_parties, vec) for _, vec in entries)
        return cls(num_parties, labels, rows)

    def with_generator(self, label: str, vector) -> "EntropyMatrix":
        return EntropyMatrix(
            self.num_parties,
            self.labels + (label,),
            self.rows + (_as_row(self.num_parties, vector),),
        )

    @property
    def num_generators(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class CoefficientSolution:
    """Exact nonnegative mix reproducing the target entropy vector.

    When the equality system has a kernel the mix is not unique;
    `kernel_direction` then holds a primitive integer direction of it
    (first nonzero entry positive) and `unique` reports whether the
    feasible set is nevertheless a single point.
    """

    labels: tuple[str, ...]
    coefficients: tuple[Fraction, ...]
    unique: bool
    kernel_direction: tuple[int, ...] | None
    residual: Fraction


@dataclass(frozen=True)
class Infeasible:
    """Certificate that no nonnegative mix reproduces the target.

    `certificate` weights the canonical partitions: its inner product with
    every generator row is nonnegative, with the target strictly negative,
    so no nonnegative combination of generators can equal the target.
    `verified` records an independent exact re-check of both properties.
    """

    labels: tuple[str, ...]
    certificate: tuple[Fraction, ...]
    verified: bool
    reason: str


def _solve_exact(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], n_cols: int
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve matrix x = rhs over the rationals, for `n_cols` unknowns.

    Each equation is scaled to Python ints and reduced Gauss-Jordan style
    with the fraction-free row operation a*row - f*pivot_row, every new row
    divided by the gcd of its entries. Each pivot row is then a multiple of
    its row in the reduced row echelon form, so the results are those of
    rational elimination. Returns (particular solution, kernel basis), or
    None when the system is inconsistent.
    """
    rows: list[list[int]] = []
    for coeffs, b in zip(matrix, rhs):
        entries = [*coeffs, b]
        scale = lcm(*(x.denominator for x in entries))
        rows.append([x.numerator * (scale // x.denominator) for x in entries])
    pivots: list[int] = []
    for col in range(n_cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        a = top[col]
        for r, row in enumerate(rows):
            f = row[col]
            if r != rank and f:
                new = [a * x - f * y for x, y in zip(row, top)]
                common = gcd(*new)
                rows[r] = [x // common for x in new] if common > 1 else new
        pivots.append(col)
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    particular = [Fraction(0)] * n_cols
    for row, col in zip(rows, pivots):
        particular[col] = Fraction(row[-1], row[col])
    kernel: list[list[Fraction]] = []
    for f_col in (c for c in range(n_cols) if c not in pivots):
        direction = [Fraction(0)] * n_cols
        direction[f_col] = Fraction(1)
        for row, col in zip(rows, pivots):
            direction[col] = Fraction(-row[f_col], row[col])
        kernel.append(direction)
    return particular, kernel


def _primitive_direction(direction: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational direction to coprime integers, first nonzero > 0."""
    scale = lcm(*(x.denominator for x in direction))
    ints = [int(x * scale) for x in direction]
    common = gcd(*ints)
    if common:
        ints = [x // common for x in ints]
    first = next((x for x in ints if x != 0), 0)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def _lexmin_mix(
    x0: list[Fraction], kernel: list[list[Fraction]]
) -> tuple[list[Fraction] | None, bool, list[Fraction] | None]:
    """The nonnegative point of x0 + K y picked coordinate by coordinate.

    `x0` and `kernel` are as `_solve_exact` returns them, so each kernel
    vector is zero past its free column and 1 there: y_j is the free
    generator's own coefficient, hence y >= 0. That is a simplex
    dictionary: the free generators are nonbasic, the others basic at x0.
    For j = f-1 down to 0 it minimizes y_j with the later y fixed, then
    fixes y_j there by deleting the nonbasic columns of positive reduced
    cost. `unique` holds when every y_j, on the face the later ones leave,
    has its maximum equal to its minimum.
    Pivots follow Bland's rule; phase 1 is Chvatal's single artificial
    variable, whose optimal row on infeasibility holds the Farkas
    multipliers lam >= 0 with lam . x0 < 0 and lam . K = 0.

    Returns (point, unique, None), or (None, False, lam) when x0 + K y >= 0
    has no solution.
    """
    n = len(x0)
    free = [max(g for g in range(n) if d[g]) for d in kernel]
    nonbasic = list(free)
    basis = [g for g in range(n) if g not in nonbasic]
    # rows[i] reads basis[i] = rows[i][-1] + sum_c rows[i][c] * nonbasic[c]
    rows = [[*(d[b] for d in kernel), x0[b]] for b in basis]

    def pivot(r: int, c: int) -> None:
        a = rows[r][c]
        new = [-x / a for x in rows[r]]
        new[c] = 1 / a
        rows[r] = new
        basis[r], nonbasic[c] = nonbasic[c], basis[r]
        support = [k for k, x in enumerate(new) if x]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                row[c] = 0
                for k in support:
                    row[k] += f * new[k]

    def objective(var: int) -> list[Fraction]:
        if var in basis:
            return rows[basis.index(var)]
        return [Fraction(int(v == var)) for v in nonbasic] + [Fraction(0)]

    def minimize(var: int, sign: int) -> Fraction | None:
        """Minimize sign * var; return var at the optimum, None if unbounded."""
        while True:
            obj = objective(var)
            entering = [c for c in range(len(nonbasic)) if sign * obj[c] < 0]
            if not entering:
                return obj[-1]
            c = min(entering, key=nonbasic.__getitem__)
            leaving = [i for i, row in enumerate(rows) if row[c] < 0]
            if not leaving:
                return None
            r = min(leaving, key=lambda i: (rows[i][-1] / -rows[i][c], basis[i]))
            pivot(r, c)

    def drop_columns(dropped: list[int]) -> None:
        for row in rows:
            for c in reversed(dropped):
                del row[c]
        for c in reversed(dropped):
            del nonbasic[c]

    if any(row[-1] < 0 for row in rows):
        artificial = n
        for row in rows:
            row.insert(-1, Fraction(1))
        nonbasic.append(artificial)
        pivot(min(range(len(rows)), key=lambda i: rows[i][-1]), len(nonbasic) - 1)
        if minimize(artificial, 1) > 0:
            row = rows[basis.index(artificial)]
            lam = [Fraction(0)] * n
            for c, g in enumerate(nonbasic):
                lam[g] = row[c]
            return None, False, lam
        if artificial in basis:
            r = basis.index(artificial)
            pivot(r, next(c for c, x in enumerate(rows[r][:-1]) if x))
        drop_columns([nonbasic.index(artificial)])
    unique = True
    for var in reversed(free):
        if unique:
            highest = minimize(var, -1)
        lowest = minimize(var, 1)
        unique = unique and lowest == highest
        obj = objective(var)
        drop_columns([c for c in range(len(nonbasic)) if obj[c] > 0])
    point = [Fraction(0)] * n
    for b, row in zip(basis, rows):
        point[b] = row[-1]
    return point, unique, None


def _feasible(
    columns: Sequence[Sequence], b: Sequence
) -> tuple[tuple | None, tuple | None]:
    """Decide whether x >= 0 with A x = b, exactly; A's columns are `columns`.

    Entries are ints or `Fraction`s of either sign; a free variable is the
    pair of columns c and -c. Returns (mix, None) or (None, certificate).
    The mix is (point, unique, kernel basis) from `_lexmin_mix` over the
    solutions of the equality system. The certificate is (w, reason,
    verified): a weighting of the equations, the left-kernel vector of an
    inconsistent system or the Farkas multipliers lifted through A's
    transpose, oriented so that w . b < 0; `verified` is an exact re-check
    of that and of w . c >= 0 for every column c.
    """
    n = len(columns)
    outcome = _solve_exact([[c[p] for c in columns] for p in range(len(b))], b, n)
    if outcome is None:
        # a left-kernel vector that does not vanish on b
        _, left_kernel = _solve_exact(columns, [0] * n, len(b))
        w = next(w for w in left_kernel if _dot(w, b) != 0)
        reason = "the equality system itself is inconsistent"
    else:
        x0, kernel = outcome
        point, unique, lam = _lexmin_mix(x0, kernel)
        if point is not None:
            return (point, unique, kernel), None
        lifted = _solve_exact(columns, lam, len(b))
        if lifted is None:
            raise InternalError("multipliers failed to lift; this is a bug")
        w = lifted[0]
        reason = "the equality system is solvable only with negative coefficients"
    if _dot(w, b) > 0:
        w = [-x for x in w]
    verified = _dot(w, b) < 0 and all(_dot(w, c) >= 0 for c in columns)
    return None, (w, reason, verified)


def _dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def solve_coefficients(
    gens: EntropyMatrix, target
) -> Union[CoefficientSolution, Infeasible]:
    """Express a target entropy vector as a nonnegative mix of generators.

    Solves the per-partition equality system exactly, then runs an exact
    simplex over its solution set: the particular solution is the starting
    point and each kernel direction one nonnegative variable. The mix
    returned minimizes the last kernel coordinate first, then the one
    before it, and so on; `unique` is set when every coordinate's range is
    a single value along the way. Infeasibility of either kind
    (inconsistent equalities, or consistency only with some negative
    coefficient) is returned with a separating partition weighting, checked
    exactly before being handed back.
    """
    t = _as_row(gens.num_parties, target)
    mix, certificate = _feasible(gens.rows, t)
    if certificate is not None:
        w, reason, verified = certificate
        return Infeasible(gens.labels, tuple(w), verified, reason)
    point, unique, kernel = mix
    residual = Fraction(0)
    for p in range(len(t)):
        acc = sum(row[p] * x for row, x in zip(gens.rows, point))
        residual = max(residual, abs(acc - t[p]))
    return CoefficientSolution(
        labels=gens.labels,
        coefficients=tuple(point),
        unique=unique,
        kernel_direction=_primitive_direction(kernel[0]) if kernel else None,
        residual=residual,
    )


# --- lower bounds on reversible generating sets -------------------------------


def _epr_generators(m: int) -> list[tuple[str, PureState]]:
    from .builders import epr_between

    out = []
    for i, j in itertools.combinations(range(m), 2):
        label = "epr:" + party_letters([i, j])
        out.append((label, epr_between(m, i, j)))
    return out


def _default_probes(m: int) -> list[tuple[str, PureState]]:
    from .builders import cat_state, codeword5, embedded_cat

    if m == 5:
        return [("cat5", cat_state(5)), ("codeword5", codeword5())]
    if m == 6:
        probes: list[tuple[str, PureState]] = []
        for members in itertools.combinations(range(6), 4):
            label = "cat4:" + party_letters(members)
            probes.append((label, embedded_cat(6, members)))
        probes.append(("cat6", cat_state(6)))
        return probes
    return [(f"cat{m}", cat_state(m))]


@dataclass(frozen=True)
class ProbeResult:
    label: str
    infeasible: bool
    certificate: tuple[Fraction, ...] | None
    reason: str


@dataclass(frozen=True)
class MregsBound:
    """Lower bound on the size of a reversible generating set.

    Every bipartite cut needs its EPR pair, giving the m(m-1)/2 baseline;
    each probe whose entropy vector cannot be written as a nonnegative mix
    of the accumulated generators adds one to the count.
    """

    num_parties: int
    bound: int
    baseline: int
    probes: tuple[ProbeResult, ...]
    trace: tuple[str, ...]
    note: str = ""

    def render(self) -> str:
        lines = list(self.trace)
        if self.note:
            lines.append(f"note: {self.note}")
        lines.append(f"lower bound for {self.num_parties} parties: {self.bound}")
        return "\n".join(lines)


def mregs_lower_bound(m: int) -> MregsBound:
    """Count how many states a reversible generating set must contain.

    Starts from the complete EPR graph and adds each probe in turn. What
    the count certifies is that each counted probe's entropy vector is not
    a nonnegative mix of the generators accumulated before it, so it cannot
    be bought from them at any exchange rate; the probe then joins the
    pool. The trace records the entropy-ratio comparison that drives the
    standard probes: symmetric EPR mixes have ratio 2(m-2)/(m-1), cats sit
    at 1, the five-qubit codeword at 2.
    """
    if m < 2:
        raise ValueError("need at least two parties")
    eprs = _epr_generators(m)
    gens = EntropyMatrix.from_states(m, eprs)
    baseline = len(eprs)
    trace = [
        f"baseline: the {baseline} EPR pairs are mutually independent "
        "(each is the only generator entangling its pair of parties)"
    ]
    if m >= 3:
        epr_ratio = Fraction(2 * (m - 2), m - 1)
        comparison = (
            "symmetric EPR mixes cannot imitate them"
            if epr_ratio != 1
            else "at three parties the ratios coincide"
        )
        trace.append(
            f"complete EPR graph entropy ratio r21 = {epr_ratio}; "
            f"cat states have r21 = 1, so {comparison}"
        )
    bound = baseline
    results: list[ProbeResult] = []
    for label, state in _default_probes(m):
        verdict = solve_coefficients(gens, state)
        if isinstance(verdict, Infeasible):
            if not verdict.verified:
                raise InternalError(
                    f"certificate for probe {label!r} failed verification"
                )
            bound += 1
            gens = gens.with_generator(label, state)
            results.append(
                ProbeResult(label, True, verdict.certificate, verdict.reason)
            )
            trace.append(
                f"probe {label}: infeasible over the accumulated set "
                f"({verdict.reason}); bound rises to {bound}"
            )
        else:
            mix = ", ".join(
                f"{lab}={coef}"
                for lab, coef in zip(verdict.labels, verdict.coefficients)
                if coef != 0
            )
            results.append(
                ProbeResult(label, False, None, f"feasible: {mix or '0'}")
            )
            trace.append(
                f"probe {label}: entropy-feasible over the accumulated set "
                f"({mix or 'zero mix'}); no increase"
            )
    note = ""
    if m == 3:
        note = (
            "entropy vectors alone cannot separate the 3-cat from EPR mixes "
            "(two cats match three pairs exactly); finer arguments are known "
            "to push the true minimum to 4"
        )
    return MregsBound(
        num_parties=m,
        bound=bound,
        baseline=baseline,
        probes=tuple(results),
        trace=tuple(trace),
        note=note,
    )


# --- the entropy-ratio table ---------------------------------------------------


@dataclass(frozen=True)
class R21Row:
    num_parties: int
    label: str
    ratio: Fraction


def r21_table() -> list[R21Row]:
    """Exact two-set versus one-set entropy ratios for the standard states.

    Cat states sit at 1 for every m; complete EPR graphs at 2(m-2)/(m-1);
    the five-qubit codeword at 2. All ratios are computed from the states
    in exact arithmetic: cats and the codeword densely, each complete EPR
    graph through entropy additivity over its pair factors, so no graph
    state is ever built.
    """
    from .builders import cat_state, codeword5, complete_graph_edges, epr_pair

    rows: list[R21Row] = []
    for m in (3, 4, 5, 6):
        cat_vec = exact_entropy_vector(cat_state(m))
        rows.append(
            R21Row(m, f"cat{m}", exact_entropy_ratio_r21(cat_vec, m))
        )
        edges = complete_graph_edges(m)
        epr_vec = exact_entropy_vector_of_factors(
            m, [(epr_pair(), edge) for edge in edges]
        )
        rows.append(
            R21Row(
                m,
                f"{len(edges)} eprs",
                exact_entropy_ratio_r21(epr_vec, m),
            )
        )
        if m == 5:
            code_vec = exact_entropy_vector(codeword5())
            rows.append(
                R21Row(5, "codeword5", exact_entropy_ratio_r21(code_vec, 5))
            )
    return rows


def egs_check(state: PureState | EntropyVector) -> bool:
    """Whether every nontrivial partition of the state carries more than
    1e-8 bits of entropy.

    States passing this can, in principle, buy any entanglement pattern
    among their parties asymptotically; a zero anywhere means some cut can
    never be crossed. Takes the state or its already computed entropy
    vector.
    """
    vec = state if isinstance(state, EntropyVector) else entropy_vector(state)
    return all(value > _EGS_FLOOR for _, value in vec.entries())
