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
accepted only when they are finite and within 1e-9 of a small rational,
and bools and strings are refused. One core, `_feasible`, decides x >= 0
with A x = b over plain int or `Fraction` columns of either sign, and
hands back either the mix or a separating weighting it has re-checked
exactly; `solve_coefficients` is its adapter for labeled entropy rows.
Inside the core, every elimination is one routine, `_Echelon`: equations
scaled to Python ints are inserted one at a time and reduced fraction-free
against the rows already held. `_solve_exact` reads one for the equality
system and for the lift of Farkas multipliers to a weighting; the
left-kernel certificate of an inconsistent system is read from an echelon
of the generator rows, which `mregs_lower_bound` keeps across its probes
with the rows scaled to ints (`_Columns`), adding each counted probe's row
once; the exact re-check of a certificate reads those scaled rows. Every
exact inner product (`_dot`: picking and re-checking a certificate, the
residual of a mix) likewise sums Python ints over one common denominator,
each vector scaled once, and builds one `Fraction` at the end.
The inequality half, x >= 0 over the solutions of the equality system, is
one exact dictionary simplex (`_lexmin_mix`): it finds the mix, decides
uniqueness and yields the Farkas multipliers.
"""
from __future__ import annotations

import bisect
import itertools
import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isfinite, lcm
from typing import Iterator, Sequence, Union

from .builders import cat_state, codeword5, embedded_cat, epr_between
from .entropy import (
    EntropyVector,
    _exact_rows,
    entropy_vector,
    exact_entropy_ratio_r21,
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
    """One entry as an exact `Fraction`: an int or a `Fraction` as it is, a
    finite float only within 1e-9 of a fraction with denominator at most
    10^6. A bool, a string, a non-finite float or anything else that is not
    a real number raises a ValueError naming the entry."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"entry {value!r} is not a real number")
    if isinstance(value, numbers.Rational):
        return Fraction(value)
    real = float(value)
    if not isfinite(real):
        raise ValueError(f"entry {value!r} is not finite")
    fr = Fraction(real).limit_denominator(1_000_000)
    if abs(fr - Fraction(real)) > _FLOAT_SNAP_TOL:
        raise ValueError(f"entry {value!r} is not rational within tolerance")
    return fr


def _as_rows(num_parties: int, vectors: Sequence) -> list[tuple[Fraction, ...]]:
    """Each state's exact entropy vector, or sequence of entries in canonical
    partition order, as an exact partition row; the first bad entry raises.
    The states' rows come from one `_exact_rows` call, made at the first
    state so that a party count below 2 faults where one state alone would."""
    states = [v for v in vectors if isinstance(v, PureState) and v.num_parties == num_parties]
    rows, exact = [], None
    for vector in vectors:
        if isinstance(vector, PureState):
            if vector.num_parties != num_parties:
                raise ValueError(f"a {vector.num_parties}-party state where {num_parties} parties are expected")
            exact = exact or iter(_exact_rows(states))
            row = next(exact)
            if isinstance(row, ValueError):
                raise row
        else:
            row, width = tuple(_snap(x) for x in vector), len(canonical_partitions(num_parties))
            if len(row) != width:
                raise ValueError(f"expected {width} entries for {num_parties} parties, got {len(row)}")
        rows.append(row)
    return rows


@dataclass(frozen=True)
class EntropyMatrix:
    """Labeled generators with one exact entropy row each.

    Rows are ordered by the canonical partitions of `num_parties`; all
    entries must be nonnegative ints or Fractions.
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
            try:
                negative = any(x.numerator < 0 for x in row)
            except AttributeError:
                raise ValueError(f"row {label!r}: entries must be ints or Fractions") from None
            if negative:
                raise ValueError(f"row {label!r} has a negative entropy entry")

    @classmethod
    def from_states(
        cls, num_parties: int, entries: Sequence[tuple[str, object]]
    ) -> "EntropyMatrix":
        labels = tuple(label for label, _ in entries)
        rows = tuple(_as_rows(num_parties, [vec for _, vec in entries]))
        return cls(num_parties, labels, rows)

    def with_generator(self, label: str, vector) -> "EntropyMatrix":
        return EntropyMatrix(
            self.num_parties,
            self.labels + (label,),
            self.rows + tuple(_as_rows(self.num_parties, [vector])),
        )


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


def _primitive(row: list[int]) -> list[int]:
    """A row of ints divided by the gcd of its entries."""
    common = gcd(*row)
    return [x // common for x in row] if common > 1 else row


def _eliminate(row: list[int], pivot_row: list[int], col: int, support: list[int]) -> list[int]:
    """The fraction-free a*row - f*pivot_row that clears column `col`, where
    a = pivot_row[col] > 0, f = row[col] and `support` lists the columns
    where pivot_row is nonzero: `row` is scaled by a when a != 1, then
    updated in place on the support alone."""
    a, f = pivot_row[col], row[col]
    if a != 1:
        row = [a * x for x in row]
    for k in support:
        row[k] -= f * pivot_row[k]
    return row


class _Echelon:
    """Exact rows over `n_cols` unknowns and a right-hand side, inserted one
    at a time and held in row echelon form.

    Every held row is Python ints with gcd 1 and a positive pivot, its
    first nonzero entry; `supports` lists each held row's nonzero columns,
    the only ones an elimination by it touches. `insert` reduces a new row
    against the held rows in pivot order, so what is left is zero on every
    pivot column, and keeps it as a new pivot row. The first read
    (`solution`, `kernel`) back-substitutes the held rows once; from then
    on each insert also clears its pivot column from the rows above it, so
    the form stays reduced. A reduced held row is then the unique primitive
    integer multiple of its row in the reduced row echelon form, whatever
    the order of the inserts, so every reading is that of rational
    elimination.
    """

    def __init__(self, n_cols: int) -> None:
        self.n_cols = n_cols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self.supports: list[list[int]] = []
        self._reduced = False

    def reduce(self, row: Sequence[int]) -> list[int]:
        """A copy of `row` less its part in the span of the held rows (up to
        a nonzero factor): zero on every pivot column, and divided by the gcd
        of its entries only at the end."""
        row = list(row)
        for col, held, support in zip(self.pivots, self.rows, self.supports):
            if row[col]:
                row = _eliminate(row, held, col, support)
        return _primitive(row)

    def _clear(self, r: int, col: int, row: list[int], support: list[int]) -> None:
        """Clear column `col` from held row r by the pivot row `row`."""
        held = _primitive(_eliminate(self.rows[r], row, col, support))
        self.rows[r], self.supports[r] = held, [k for k, x in enumerate(held) if x]

    def insert(self, row: Sequence[int]) -> int | None:
        """Hold a row of `n_cols` + 1 ints. Returns its pivot column,
        `n_cols` when it makes the system inconsistent, or None when it
        depends on the held rows and is dropped."""
        row = self.reduce(row)
        support = [k for k, x in enumerate(row) if x]
        if not support:
            return None
        col = support[0]
        if row[col] < 0:
            row = [-x for x in row]
        at = bisect.bisect(self.pivots, col)
        if self._reduced:
            for r in range(at):
                if self.rows[r][col]:
                    self._clear(r, col, row, support)
        self.rows.insert(at, row)
        self.pivots.insert(at, col)
        self.supports.insert(at, support)
        return col

    def _back_substitute(self) -> None:
        if not self._reduced:
            for k in range(len(self.rows) - 1, 0, -1):
                col = self.pivots[k]
                for r in range(k):
                    if self.rows[r][col]:
                        self._clear(r, col, self.rows[k], self.supports[k])
            self._reduced = True

    def kernel(self) -> Iterator[list[Fraction]]:
        """The kernel basis of the held coefficients, one direction per free
        column in increasing order: 1 there, 0 at the other free columns."""
        self._back_substitute()
        pivots = set(self.pivots)
        for free in range(self.n_cols):
            if free not in pivots:
                direction = [Fraction(0)] * self.n_cols
                direction[free] = Fraction(1)
                for row, col in zip(self.rows, self.pivots):
                    direction[col] = Fraction(-row[free], row[col])
                yield direction

    def solution(self) -> tuple[list[Fraction], list[list[Fraction]]]:
        """(particular solution, kernel basis) of a consistent held system;
        the particular solution is 0 on every free column."""
        kernel = list(self.kernel())
        particular = [Fraction(0)] * self.n_cols
        for row, col in zip(self.rows, self.pivots):
            particular[col] = Fraction(row[-1], row[col])
        return particular, kernel


def _solve_exact(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], n_cols: int
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve matrix x = rhs over the rationals, for `n_cols` unknowns.

    Each equation is scaled to Python ints and inserted into an `_Echelon`;
    returns None at the first whose pivot is the right-hand side, as the
    system is then inconsistent, and otherwise the echelon's (particular
    solution, kernel basis).
    """
    echelon = _Echelon(n_cols)
    for coeffs, b in zip(matrix, rhs):
        if echelon.insert(_integer_scaled([*coeffs, b])[1]) == n_cols:
            return None
    return echelon.solution()


def _primitive_direction(direction: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational direction to coprime integers, first nonzero > 0."""
    ints = _primitive(_integer_scaled(direction)[1])
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


class _Columns:
    """A's columns, each scaled to ints once (`_integer_scaled`), and the
    `_Echelon` of them as rows with zero right-hand sides, whose kernel is
    A's left kernel. A caller that solves against one A many times keeps
    one and `add`s each column it appends to A."""

    def __init__(self, columns: Sequence[Sequence], n_rows: int) -> None:
        self.scaled: list[tuple[int, list[int]]] = []
        self.echelon = _Echelon(n_rows)
        for column in columns:
            self.add(column)

    def add(self, column: Sequence) -> None:
        scaled = _integer_scaled(column)
        self.scaled.append(scaled)
        self.echelon.insert([*scaled[1], 0])


def _feasible(
    columns: Sequence[Sequence], b: Sequence, left: _Columns | None = None
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

    `left`, when given, is the caller's `_Columns(columns, len(b))`,
    kept across calls: b is reduced against its echelon first, and a b
    outside the span of the columns skips the equality elimination; the
    re-check reads its scaled columns.
    """
    n = len(columns)
    b_scaled = _integer_scaled(b)
    if left is not None and any(left.echelon.reduce([*b_scaled[1], 0])):
        outcome = None
    else:
        outcome = _solve_exact([[c[p] for c in columns] for p in range(len(b))], b, n)
    if outcome is None:
        # the first left-kernel vector that does not vanish on b
        left = _Columns(columns, len(b)) if left is None else left
        w = next(w for w in left.echelon.kernel() if _dot(_integer_scaled(w), b_scaled) != 0)
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
    w_scaled = _integer_scaled(w)
    if _dot(w_scaled, b_scaled) > 0:
        w, w_scaled = [-x for x in w], (w_scaled[0], [-x for x in w_scaled[1]])
    scaled = left.scaled if left is not None else map(_integer_scaled, columns)
    verified = _dot(w_scaled, b_scaled) < 0 and all(_dot(w_scaled, c) >= 0 for c in scaled)
    return None, (w, reason, verified)


def _integer_scaled(values: Sequence) -> tuple[int, list[int]]:
    """A vector of ints or `Fraction`s as (s, n) with n = s * values in ints,
    s the least common denominator (1 for an empty vector)."""
    scale = lcm(*(x.denominator for x in values))
    if scale == 1:
        return 1, [x.numerator for x in values]
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def _dot(a: tuple[int, list[int]], b: tuple[int, list[int]]) -> Fraction:
    """The exact inner product of two vectors of ints or `Fraction`s, each
    given as its `_integer_scaled` pair, so that a vector in several
    products is scaled once: the products are summed as ints, and one
    `Fraction` is built at the end (0 for empty vectors)."""
    return Fraction(sum(map(operator.mul, a[1], b[1])), a[0] * b[0])


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
    (t,) = _as_rows(gens.num_parties, [target])
    return _coefficients(gens, t)


def _coefficients(
    gens: EntropyMatrix, t: Sequence[Fraction], left: _Columns | None = None
) -> Union[CoefficientSolution, Infeasible]:
    """`solve_coefficients` for an exact target row `t`; `left` is the
    `_Columns` of the generator rows the caller keeps, as `_feasible` takes
    it."""
    mix, certificate = _feasible(gens.rows, t, left)
    if certificate is not None:
        w, reason, verified = certificate
        return Infeasible(gens.labels, tuple(w), verified, reason)
    point, unique, kernel = mix
    scaled = _integer_scaled(point)
    residual = max(abs(_dot(_integer_scaled([row[p] for row in gens.rows]), scaled) - x) for p, x in enumerate(t))
    return CoefficientSolution(
        labels=gens.labels,
        coefficients=tuple(point),
        unique=unique,
        kernel_direction=_primitive_direction(kernel[0]) if kernel else None,
        residual=residual,
    )


# --- lower bounds on reversible generating sets -------------------------------


def _epr_generators(m: int) -> list[tuple[str, PureState]]:
    out = []
    for i, j in itertools.combinations(range(m), 2):
        label = "epr:" + party_letters([i, j])
        out.append((label, epr_between(m, i, j)))
    return out


def _default_probes(m: int) -> list[tuple[str, PureState]]:
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
    pool. The pool's rows are held in one `_Echelon` across the probes, so
    each counted probe's row is eliminated once, when it joins, and a probe
    outside their span needs no other elimination. The trace records the
    entropy-ratio comparison that drives the standard probes: symmetric EPR
    mixes have ratio 2(m-2)/(m-1), cats sit at 1, the five-qubit codeword
    at 2.
    """
    if m < 2:
        raise ValueError("need at least two parties")
    eprs, probes = _epr_generators(m), _default_probes(m)
    rows = _as_rows(m, [state for _, state in eprs + probes])
    baseline = len(eprs)
    gens = EntropyMatrix(m, tuple(label for label, _ in eprs), tuple(rows[:baseline]))
    left = _Columns(gens.rows, len(rows[0]))
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
    for (label, _), row in zip(probes, rows[baseline:]):
        verdict = _coefficients(gens, row, left)
        if isinstance(verdict, Infeasible):
            if not verdict.verified:
                raise InternalError(
                    f"certificate for probe {label!r} failed verification"
                )
            bound += 1
            gens = gens.with_generator(label, row)
            left.add(row)
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
    in exact arithmetic, from one `_exact_rows` call per m: cats and the
    codeword densely, each complete EPR graph as the sum of the exact rows
    of its embedded pairs (`epr_between`), since partial entropy is
    additive over tensor factors, so no graph state is ever built.
    """
    rows: list[R21Row] = []
    for m in (3, 4, 5, 6):
        pairs = [state for _, state in _epr_generators(m)]
        cat, *exact = _as_rows(m, [cat_state(m), *pairs, *([codeword5()] if m == 5 else [])])
        vectors = {f"cat{m}": cat, f"{len(pairs)} eprs": [sum(cut) for cut in zip(*exact[: len(pairs)])]}
        if m == 5:
            vectors["codeword5"] = exact[-1]
        for label, row in vectors.items():
            rows.append(R21Row(m, label, exact_entropy_ratio_r21(dict(zip(canonical_partitions(m), row)), m)))
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
