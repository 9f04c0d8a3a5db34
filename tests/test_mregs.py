"""Exact feasibility over entropy vectors: recovery, kernels, certificates,
and the generating-set lower bounds."""
import importlib.util
import itertools
import random
import re
import time
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entkit import entropy, mregs
from entkit.builders import (
    cat_state,
    codeword5,
    complete_graph_edges,
    embedded_cat,
    epr_between,
    eprs_chain,
    eprs_complete,
)
from entkit.entropy import entropy_vector, exact_entropy_ratio_r21, exact_entropy_vector
from entkit.mregs import (
    CoefficientSolution,
    EntropyMatrix,
    Infeasible,
    ProbeResult,
    _Columns,
    _Echelon,
    _dot,
    _feasible,
    _integer_scaled,
    _lexmin_mix,
    _solve_exact,
    egs_check,
    mregs_lower_bound,
    r21_table,
    solve_coefficients,
)
from entkit.states import canonical_partitions, make_state, random_pure_state, tensor


def epr_matrix(m):
    return EntropyMatrix.from_states(
        m,
        [
            (f"epr{i}{j}", epr_between(m, i, j))
            for i, j in complete_graph_edges(m)
        ],
    )


def verify_certificate(gens, target_row, w):
    assert sum(wi * ti for wi, ti in zip(w, target_row)) < 0
    for row in gens.rows:
        assert sum(wi * ri for wi, ri in zip(w, row)) >= 0


def test_recover_random_rational_triples():
    rng = random.Random(2024)
    gens = epr_matrix(3)
    for _ in range(100):
        triple = tuple(
            Fraction(rng.randrange(0, 50), rng.randrange(1, 13)) for _ in range(3)
        )
        target = [
            sum(t * gens.rows[g][p] for g, t in enumerate(triple))
            for p in range(3)
        ]
        sol = solve_coefficients(gens, target)
        assert isinstance(sol, CoefficientSolution)
        assert sol.coefficients == triple
        assert sol.unique
        assert sol.kernel_direction is None
        assert sol.residual == 0


def test_ghz_extension_kernel_direction():
    gens = epr_matrix(3).with_generator("cat3", cat_state(3))
    sol = solve_coefficients(gens, [Fraction(2)] * 3)
    assert isinstance(sol, CoefficientSolution)
    assert sol.kernel_direction == (1, 1, 1, -2)
    assert not sol.unique
    assert all(c >= 0 for c in sol.coefficients)
    # the reported mix really hits the target
    for p in range(3):
        acc = sum(c * gens.rows[g][p] for g, c in enumerate(sol.coefficients))
        assert acc == Fraction(2)


def test_cat_over_three_eprs_is_feasible():
    gens = epr_matrix(3)
    sol = solve_coefficients(gens, cat_state(3))
    assert isinstance(sol, CoefficientSolution)
    assert sol.coefficients == (Fraction(1, 2),) * 3


def test_cat4_over_six_eprs_infeasible_with_certificate():
    gens = epr_matrix(4)
    target_row = [Fraction(1)] * len(canonical_partitions(4))
    outcome = solve_coefficients(gens, cat_state(4))
    assert isinstance(outcome, Infeasible)
    assert outcome.verified
    verify_certificate(gens, target_row, outcome.certificate)


def test_codeword_over_eprs_and_cat_infeasible():
    # equality-consistent but needs a negative cat coefficient
    gens = epr_matrix(5).with_generator("cat5", cat_state(5))
    outcome = solve_coefficients(gens, codeword5())
    assert isinstance(outcome, Infeasible)
    assert outcome.verified
    target_row = [
        Fraction(min(len(p.members), 5 - len(p.members)))
        for p in canonical_partitions(5)
    ]
    verify_certificate(gens, target_row, outcome.certificate)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: EntropyMatrix.from_states(3, [("x", cat_state(4))]), "a 4-party state where 3"),
        (lambda: solve_coefficients(epr_matrix(3), cat_state(4)), "a 4-party state where 3"),
        (lambda: solve_coefficients(epr_matrix(4), epr_between(2, 0, 1)), "a 2-party state where 4"),
    ],
)
def test_state_on_other_parties_is_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


W4 = make_state((2, 2, 2, 2), [("1000", 1), ("0100", 1), ("0010", 1), ("0001", 1)])
# an EPR pair on A, B and a Haar pair on C, D: the first inexact cut is C
HAAR_CD = tensor(epr_between(2, 0, 1), random_pure_state((2, 2), 9))


@pytest.mark.parametrize(
    "vectors, message",
    [
        ([epr_between(4, 0, 1), W4, cat_state(3)], "partition A has no exact"),
        ([epr_between(4, 0, 1), cat_state(3), W4], "a 3-party state where 4"),
        ([HAAR_CD, cat_state(3)], "partition C has no exact"),
        ([cat_state(3), HAAR_CD], "a 3-party state where 4"),
        ([HAAR_CD, W4], "partition C has no exact"),
        ([W4, HAAR_CD], "partition A has no exact"),
        ([W4, [1, 2]], "partition A has no exact"),
        ([[1, 2], W4], "expected 7 entries for 4 parties, got 2"),
        ([[1.5e-7] * 7, W4], "entry 1.5e-07 is not rational"),
        ([cat_state(4), HAAR_CD, [1, 2]], "partition C has no exact"),
    ],
)
def test_the_first_bad_entry_in_order_raises(vectors, message):
    # every state's row comes from one call, but the fault reported is the
    # one the entries give one at a time
    entries = [(f"g{i}", vector) for i, vector in enumerate(vectors)]
    with pytest.raises(ValueError, match=message):
        EntropyMatrix.from_states(4, entries)


def test_one_pair_gives_a_feasible_one_third_mix():
    gens = EntropyMatrix.from_states(2, [("epr", epr_between(2, 0, 1))])
    outcome = solve_coefficients(gens, [Fraction(1, 3)])
    assert isinstance(outcome, CoefficientSolution)
    assert outcome.coefficients == (Fraction(1, 3),)


@pytest.mark.parametrize(
    "entry, message",
    [
        (float("inf"), "entry inf is not finite"),
        (float("-inf"), "entry -inf is not finite"),
        (float("nan"), "entry nan is not finite"),
        (np.float64("inf"), "entry np.float64(inf) is not finite"),
        (True, "entry True is not a real number"),
        (np.True_, "entry np.True_ is not a real number"),
        ("1", "entry '1' is not a real number"),
        (None, "entry None is not a real number"),
        (1j, "entry 1j is not a real number"),
    ],
)
def test_bad_entries_raise_a_value_error_naming_them(entry, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        EntropyMatrix.from_states(2, [("x", [entry])])
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_coefficients(epr_matrix(3), [1, entry, 1])


def test_numeric_entries_of_any_real_type_are_read_exactly():
    sol = solve_coefficients(epr_matrix(3), [np.int64(1), np.float64(1.0), Fraction(2, 2)])
    assert isinstance(sol, CoefficientSolution)
    assert sol.coefficients == (Fraction(1, 2),) * 3
    (row,) = EntropyMatrix.from_states(2, [("x", [np.int64(2**62 + 1)])]).rows
    assert row == (Fraction(2**62 + 1),)


@pytest.mark.parametrize("m,expected", [(3, 3), (4, 7), (5, 12), (6, 31), (7, 22), (8, 29)])
def test_lower_bounds(m, expected):
    result = mregs_lower_bound(m)
    assert result.bound == expected
    assert result.baseline == m * (m - 1) // 2
    # each probe's verdict is that of a from-scratch solve over the generators
    # accumulated before it, and each certificate separates them exactly
    gens = EntropyMatrix.from_states(m, mregs._epr_generators(m))
    for (label, state), probe in zip(mregs._default_probes(m), result.probes, strict=True):
        verdict = solve_coefficients(gens, state)
        if isinstance(verdict, Infeasible):
            assert verdict.verified
            assert probe == ProbeResult(label, True, verdict.certificate, verdict.reason)
            (target,) = EntropyMatrix.from_states(m, [(label, state)]).rows
            verify_certificate(gens, target, probe.certificate)
            gens = gens.with_generator(label, state)
        else:
            mix = ", ".join(f"{g}={c}" for g, c in zip(verdict.labels, verdict.coefficients) if c != 0)
            assert probe == ProbeResult(label, False, None, f"feasible: {mix or '0'}")
    assert len(gens.labels) == result.bound


def test_lower_bound_computes_each_exact_entropy_row_once(monkeypatch):
    # one block pass per distinct shape on the parties of dimension > 1:
    # the 15 EPR pairs, the 15 embedded 4-cats and cat6; a counted probe's
    # row is not computed again when it joins the generators
    passes = []
    blocks = entropy._cut_blocks
    monkeypatch.setattr(entropy, "_cut_blocks", lambda stack: passes.append(stack.shape) or blocks(stack))
    result = mregs_lower_bound(6)
    assert result.baseline + len(result.probes) == 31
    assert sorted(passes) == [(1,) + (2,) * 6, (15, 2, 2), (15, 2, 2, 2, 2)]


def test_lower_bound_keeps_one_echelon_across_its_probes(monkeypatch):
    # the 15 EPR rows and the 16 counted probes are inserted once each; every
    # probe lies outside the span of the generators, so no equality system is
    # eliminated
    inserts, solves = [], []
    insert = _Echelon.insert
    monkeypatch.setattr(_Echelon, "insert", lambda self, row: inserts.append(row) or insert(self, row))
    monkeypatch.setattr(mregs, "_solve_exact", lambda *args: solves.append(args))
    result = mregs_lower_bound(6)
    assert result.bound == 31
    assert len(inserts) == 31
    assert solves == []


def test_lower_bound_trace_mentions_ratio():
    result = mregs_lower_bound(4)
    assert any("4/3" in line for line in result.trace)


def test_three_party_note_present():
    result = mregs_lower_bound(3)
    assert result.note
    assert result.probes[0].infeasible is False


def test_r21_table_exact():
    rows = r21_table()
    got = {(r.num_parties, r.label): r.ratio for r in rows}
    assert got[(3, "cat3")] == 1
    assert got[(3, "3 eprs")] == 1
    assert got[(4, "cat4")] == 1
    assert got[(4, "6 eprs")] == Fraction(4, 3)
    assert got[(5, "cat5")] == 1
    assert got[(5, "10 eprs")] == Fraction(3, 2)
    assert got[(5, "codeword5")] == 2
    assert got[(6, "cat6")] == 1
    assert got[(6, "15 eprs")] == Fraction(8, 5)
    assert len(rows) == 9


def test_r21_epr_rows_match_the_dense_graphs_and_the_closed_form():
    # the rows sum the embedded pairs' vectors; the dense graph state is the oracle
    rows = {r.num_parties: r.ratio for r in r21_table() if r.label.endswith(" eprs")}
    assert rows == {m: Fraction(2 * (m - 2), m - 1) for m in (3, 4, 5, 6)}
    for m in (3, 4):
        assert rows[m] == exact_entropy_ratio_r21(exact_entropy_vector(eprs_complete(m)), m)


def test_egs_check():
    assert egs_check(cat_state(4))
    assert egs_check(eprs_chain(3))
    lonely = make_state((2, 2, 2), [("000", 1.0), ("110", 1.0)])
    assert not egs_check(lonely)
    # an entropy vector already in hand gives the same verdicts
    assert egs_check(entropy_vector(cat_state(4)))
    assert not egs_check(entropy_vector(lonely))


def test_entropy_matrix_rejects_width_mismatch():
    with pytest.raises(ValueError):
        EntropyMatrix(3, ("x",), ((Fraction(1), Fraction(1)),))


def test_entropy_matrix_rejects_negative_entries():
    with pytest.raises(ValueError):
        EntropyMatrix(
            2, ("x",), ((Fraction(-1),),)
        )


def test_entropy_matrix_rejects_float_entries():
    with pytest.raises(ValueError, match="row 'x': entries must be ints or Fractions"):
        EntropyMatrix(2, ("x",), ((0.5,),))


def test_solver_snaps_close_floats():
    gens = epr_matrix(3)
    sol = solve_coefficients(gens, [1.0, 1.0, 1.0])
    assert isinstance(sol, CoefficientSolution)
    assert sol.coefficients == (Fraction(1, 2),) * 3


def test_solver_rejects_irrational_floats():
    gens = epr_matrix(3)
    with pytest.raises(ValueError):
        solve_coefficients(gens, [0.123456789012345, 1.0, 1.0])


def test_empty_generator_set():
    gens = EntropyMatrix(3, (), ())
    outcome = solve_coefficients(gens, [1, 1, 1])
    assert isinstance(outcome, Infeasible)
    assert outcome.verified
    assert outcome.reason == "the equality system itself is inconsistent"
    verify_certificate(gens, [Fraction(1)] * 3, outcome.certificate)
    assert solve_coefficients(gens, [0, 0, 0]) == CoefficientSolution(
        labels=(),
        coefficients=(),
        unique=True,
        kernel_direction=None,
        residual=Fraction(0),
    )


def test_inconsistent_with_wide_left_kernel():
    gens = EntropyMatrix.from_states(
        4, [("ab", epr_between(4, 0, 1)), ("cd", epr_between(4, 2, 3))]
    )
    width = len(canonical_partitions(4))
    _, left_kernel = _solve_exact(gens.rows, [Fraction(0)] * 2, width)
    assert len(left_kernel) == 5
    outcome = solve_coefficients(gens, cat_state(4))
    assert isinstance(outcome, Infeasible)
    assert outcome.verified
    assert outcome.reason == "the equality system itself is inconsistent"
    w = outcome.certificate
    for row in gens.rows:
        assert sum(wi * ri for wi, ri in zip(w, row)) == 0
    assert sum(w) < 0  # the cat's row is all ones


def reference_solve(matrix, rhs, n_cols):
    """Gauss-Jordan elimination on Fractions, the solver's former
    arithmetic without its row-operation record."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    b = [Fraction(x) for x in rhs]
    pivots = []
    for col in range(n_cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        b[rank], b[pivot] = b[pivot], b[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        b[rank] *= inv
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
                b[r] -= factor * b[rank]
        pivots.append(col)
    if any(b[r] != 0 for r in range(len(pivots), len(rows))):
        return None
    particular = [Fraction(0)] * n_cols
    for i, col in enumerate(pivots):
        particular[col] = b[i]
    kernel = []
    for free in (c for c in range(n_cols) if c not in pivots):
        direction = [Fraction(0)] * n_cols
        direction[free] = Fraction(1)
        for i, col in enumerate(pivots):
            direction[col] = -rows[i][free]
        kernel.append(direction)
    return particular, kernel


def random_system(rng):
    n_rows, n_cols = rng.randrange(0, 7), rng.randrange(0, 7)

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))

    matrix = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows >= 3 and rng.random() < 0.4:
        a, c = entry(), entry()
        matrix[-1] = [a * x + c * y for x, y in zip(matrix[0], matrix[1])]
    if n_rows and rng.random() < 0.2:
        matrix[rng.randrange(n_rows)] = [Fraction(0)] * n_cols
    if n_cols and rng.random() < 0.2:
        col = rng.randrange(n_cols)
        for row in matrix:
            row[col] = Fraction(0)
    if rng.random() < 0.5:
        x = [entry() for _ in range(n_cols)]
        rhs = [sum((a * xi for a, xi in zip(row, x)), Fraction(0)) for row in matrix]
    else:
        rhs = [entry() for _ in range(n_rows)]
    return matrix, rhs, n_cols


def test_solve_exact_matches_rational_elimination():
    rng = random.Random(1968)
    seen = dict.fromkeys(
        ["inconsistent", "full rank", "rank deficient", "zero row", "zero column"], 0
    )
    for _ in range(600):
        matrix, rhs, n_cols = random_system(rng)
        expected = reference_solve(matrix, rhs, n_cols)
        assert _solve_exact(matrix, rhs, n_cols) == expected
        if expected is None:
            seen["inconsistent"] += 1
        elif n_cols - len(expected[1]) == min(len(matrix), n_cols):
            seen["full rank"] += 1
        else:
            seen["rank deficient"] += 1
        seen["zero row"] += any(not any(row) for row in matrix)
        seen["zero column"] += any(
            not any(row[c] for row in matrix) for c in range(n_cols)
        ) and bool(matrix)
    assert min(seen.values()) >= 20, seen


@st.composite
def signed_rows(draw):
    """Up to 8 rows of small signed ints, some zero, some combinations of
    two earlier rows."""
    width = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random", "random", "zero", "combination"]))
        if kind == "zero" or (kind == "combination" and not rows):
            rows.append([0] * width)
        elif kind == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(st.integers(-4, 4), min_size=width, max_size=width)))
    return width, rows


def primitive_rref_row(kernel, pivot, width):
    """The RREF row of `pivot` that a kernel basis as `_solve_exact` returns
    it determines, as coprime ints with a zero right-hand side appended."""
    row = [Fraction(int(c == pivot)) for c in range(width)]
    for direction in kernel:
        free = max(c for c, x in enumerate(direction) if x)
        row[free] = -direction[pivot]
    scale = lcm(*(x.denominator for x in row))
    ints = [int(x * scale) for x in row]
    return [x // gcd(*ints) for x in ints] + [0]


@settings(max_examples=300, deadline=None)
@given(signed_rows())
def test_kept_echelon_matches_a_fresh_solve_after_every_insert(case):
    width, rows = case
    kept, lazy = _Echelon(width), _Echelon(width)
    for k, row in enumerate(rows, 1):
        rank = len(kept.pivots)
        pivot = kept.insert([*row, 0])
        lazy.insert([*row, 0])
        fresh = _solve_exact(rows[:k], [0] * k, width)
        assert fresh == reference_solve(rows[:k], [0] * k, width)
        assert kept.solution() == fresh
        _, kernel = fresh
        assert len(kept.pivots) == width - len(kernel)
        assert (pivot is None) == (len(kept.pivots) == rank)
        assert pivot is None or pivot in kept.pivots
        assert kept.rows == [primitive_rref_row(kernel, p, width) for p in kept.pivots]
        assert kept.supports == [[c for c, x in enumerate(held) if x] for held in kept.rows]
    # an echelon first read after all its inserts back-substitutes to the same rows
    assert lazy.solution() == kept.solution()
    assert (lazy.rows, lazy.pivots) == (kept.rows, kept.pivots)


def eprs_and_embedded_cats(m):
    """Every EPR pair and every embedded k-cat (k >= 3) on m parties."""
    entries = [(f"epr{i}{j}", epr_between(m, i, j)) for i, j in complete_graph_edges(m)]
    for k in range(3, m + 1):
        for members in itertools.combinations(range(m), k):
            entries.append(("cat" + "".join(map(str, members)), embedded_cat(m, members)))
    return EntropyMatrix.from_states(m, entries)


def test_wide_kernel_mix_over_eprs_and_embedded_cats():
    gens = eprs_and_embedded_cats(5)
    assert len(gens.labels) == 26
    target = [sum(column) for column in zip(*gens.rows)]
    _, kernel = _solve_exact(list(zip(*gens.rows)), target, 26)
    assert len(kernel) == 11
    sol = solve_coefficients(gens, target)
    assert isinstance(sol, CoefficientSolution)
    assert not sol.unique
    assert sol.kernel_direction is not None
    assert all(c >= 0 for c in sol.coefficients)
    assert sol.residual == 0
    for p, t in enumerate(target):
        assert sum(c * gens.rows[g][p] for g, c in enumerate(sol.coefficients)) == t


def test_scale_mixes_over_eprs_and_embedded_cats():
    for m, size, budget in ((6, 57, 1.0), (7, 120, 10.0)):
        gens = eprs_and_embedded_cats(m)
        assert len(gens.labels) == size
        target = [sum(column) for column in zip(*gens.rows)]
        start = time.perf_counter()
        sol = solve_coefficients(gens, target)
        elapsed = time.perf_counter() - start
        assert isinstance(sol, CoefficientSolution)
        assert not sol.unique
        assert sol.residual == 0
        assert all(c >= 0 for c in sol.coefficients)
        assert elapsed < budget, (m, elapsed)


def test_linear_cluster_needs_negative_cat_coefficient():
    gens = epr_matrix(4).with_generator("cat4", cat_state(4))
    target_row = [Fraction(x) for x in (1, 1, 1, 1, 1, 2, 2)]
    outcome = solve_coefficients(gens, target_row)
    assert isinstance(outcome, Infeasible)
    assert outcome.verified
    assert outcome.reason == (
        "the equality system is solvable only with negative coefficients"
    )
    verify_certificate(gens, target_row, outcome.certificate)


# The Fourier-Motzkin routines the solver used before the simplex, kept as
# the oracle for `_lexmin_mix`. `fm_range` is the body of the former
# `_coordinate_pinned`, returning the range it tested for a single value.
def fm_eliminate(inequalities, keep=None):
    system = [(c, list(coeffs), list(lam)) for c, coeffs, lam in inequalities]
    n_vars = len(system[0][1]) if system else 0
    stages = []
    order = [v for v in range(n_vars) if v != keep]
    for var in order:
        stages.append([(c, list(k), list(l)) for c, k, l in system])
        positive = [q for q in system if q[1][var] > 0]
        negative = [q for q in system if q[1][var] < 0]
        neutral = [q for q in system if q[1][var] == 0]
        merged = list(neutral)
        for cp, kp, lp in positive:
            for cn, kn, ln in negative:
                a = kp[var]
                b = -kn[var]
                const = b * cp + a * cn
                coeffs = [b * x + a * y for x, y in zip(kp, kn)]
                lam = [b * x + a * y for x, y in zip(lp, ln)]
                merged.append((const, coeffs, lam))
        system = merged
    return system, stages


def fm_feasible_point(x0, kernel):
    n_gens = len(x0)
    f = len(kernel)
    inequalities = []
    for g in range(n_gens):
        coeffs = [kernel[j][g] for j in range(f)]
        lam = [Fraction(int(i == g)) for i in range(n_gens)]
        inequalities.append((x0[g], coeffs, lam))
    final, stages = fm_eliminate(inequalities)
    for const, _, lam in final:
        if const < 0:
            return None, list(lam)
    order = list(range(f))
    y = [Fraction(0)] * f
    for stage_index in range(f - 1, -1, -1):
        var = order[stage_index]
        system = stages[stage_index]
        lower = None
        upper = None
        for const, coeffs, _ in system:
            a = coeffs[var]
            if a == 0:
                continue
            rest = const + sum(
                coeffs[v] * y[v] for v in range(f) if v != var and coeffs[v] != 0
            )
            bound = -rest / a
            if a > 0:
                lower = bound if lower is None else max(lower, bound)
            else:
                upper = bound if upper is None else min(upper, bound)
        if lower is not None:
            y[var] = lower
        elif upper is not None:
            y[var] = min(upper, Fraction(0))
    return y, None


def fm_range(x0, kernel, var):
    n_gens = len(x0)
    f = len(kernel)
    inequalities = []
    for g in range(n_gens):
        coeffs = [kernel[j][g] for j in range(f)]
        inequalities.append((x0[g], coeffs, []))
    final, _ = fm_eliminate(inequalities, keep=var)
    lower = None
    upper = None
    for const, coeffs, _ in final:
        a = coeffs[var]
        if a == 0:
            continue
        bound = -const / a
        if a > 0:
            lower = bound if lower is None else max(lower, bound)
        else:
            upper = bound if upper is None else min(upper, bound)
    return lower, upper


def fm_unique(x0, kernel):
    ranges = [fm_range(x0, kernel, j) for j in range(len(kernel))]
    return all(lo is not None and lo == hi for lo, hi in ranges), ranges


def random_cone_system(rng):
    """A consistent system A x = A x_true whose nonnegative solutions are
    sought. x_true is signed, nonnegative or nonnegative with mostly zero
    entries; the last often leaves it the only nonnegative solution."""
    n_cols = rng.randrange(1, 7)
    n_rows = rng.randrange(0, n_cols + 1)

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))

    matrix = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
    mode = rng.randrange(4)
    if mode == 0:
        x_true = [entry() for _ in range(n_cols)]
    elif mode == 1:
        x_true = [abs(entry()) for _ in range(n_cols)]
    else:
        x_true = [abs(entry()) * (rng.random() < 0.3) for _ in range(n_cols)]
    rhs = [sum((a * x for a, x in zip(row, x_true)), Fraction(0)) for row in matrix]
    return matrix, rhs, n_cols


def reparametrize(x0, kernel, rng):
    """The same solution set x0 + K y written over y = T z + s for a random
    invertible lower-triangular T, so that z carries no sign constraint."""
    f = len(kernel)
    T = [[Fraction(0)] * f for _ in range(f)]
    for i in range(f):
        T[i][i] = Fraction(rng.choice((-1, 1)))
        for j in range(i):
            T[i][j] = Fraction(rng.randrange(-3, 4))
    s = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)) for _ in range(f)]
    shifted = [x + sum(sj * d[g] for sj, d in zip(s, kernel)) for g, x in enumerate(x0)]
    directions = [
        [sum(T[j][i] * kernel[j][g] for j in range(f)) for g in range(len(x0))]
        for i in range(f)
    ]
    return shifted, directions


def test_lexmin_mix_matches_fourier_motzkin():
    rng = random.Random(1977)
    seen = dict.fromkeys(
        [
            "pinned",
            "unpinned",
            "unbounded below",
            "unbounded above",
            "infeasible",
            "x0 >= 0",
            "x0 negative",
        ],
        0,
    )
    systems = 0
    while systems < 420:
        matrix, rhs, n_cols = random_cone_system(rng)
        x0, kernel = _solve_exact(matrix, rhs, n_cols)
        systems += 1
        seen["x0 >= 0" if min(x0) >= 0 else "x0 negative"] += 1
        y, lam = fm_feasible_point(x0, kernel)
        point, unique, certificate = _lexmin_mix(x0, kernel)
        if y is None:
            seen["infeasible"] += 1
            assert point is None
            assert all(x >= 0 for x in certificate)
            assert sum(c * x for c, x in zip(certificate, x0)) < 0
            for d in kernel:
                assert sum(c * x for c, x in zip(certificate, d)) == 0
        else:
            expected = list(x0)
            for yj, d in zip(y, kernel):
                expected = [e + yj * dg for e, dg in zip(expected, d)]
            assert point == expected
            assert certificate is None
            pinned, _ = fm_unique(x0, kernel)
            assert unique == pinned
            if kernel:
                seen["pinned" if pinned else "unpinned"] += 1
        # the verdicts do not depend on the parametrization of the kernel
        shifted, directions = reparametrize(x0, kernel, rng)
        z, _ = fm_feasible_point(shifted, directions)
        assert (z is None) == (point is None)
        if z is not None:
            pinned, ranges = fm_unique(shifted, directions)
            assert pinned == unique
            seen["unbounded below"] += any(lo is None for lo, _ in ranges)
            seen["unbounded above"] += any(hi is None for _, hi in ranges)
    assert min(seen.values()) >= 20, seen


def highs_feasible(matrix, rhs, n_cols):
    """Whether A x = b, x >= 0 has a solution, by scipy's HiGHS in floats."""
    import numpy as np
    from scipy.optimize import linprog

    if not matrix:
        return True
    result = linprog(
        np.zeros(n_cols),
        A_eq=np.array(matrix, dtype=float),
        b_eq=np.array(rhs, dtype=float),
        bounds=(0, None),
        method="highs",
    )
    assert result.status in (0, 2), result.message
    return result.status == 0


def test_feasibility_matches_highs_on_random_systems():
    """`_feasible` on signed `random_cone_system` systems and on copies with a
    random integer right-hand side, many of them inconsistent: mixes solve the
    system, certificates pass a fresh exact re-check, and with scipy present
    every verdict matches HiGHS."""
    have_scipy = importlib.util.find_spec("scipy") is not None
    rng = random.Random(1947)
    seen = dict.fromkeys(
        [
            "feasible",
            "the equality system itself is inconsistent",
            "the equality system is solvable only with negative coefficients",
        ],
        0,
    )
    for _ in range(400):
        matrix, rhs, n_cols = random_cone_system(rng)
        columns = [[row[c] for row in matrix] for c in range(n_cols)]
        for b in (rhs, [rng.randrange(-6, 7) for _ in rhs]):
            mix, certificate = _feasible(columns, b)
            # a kept echelon of the columns changes nothing in the verdict
            assert _feasible(columns, b, _Columns(columns, len(b))) == (mix, certificate)
            if mix is not None:
                assert certificate is None
                point = mix[0]
                assert len(point) == n_cols and min(point) >= 0
                for row, bp in zip(matrix, b):
                    assert sum(a * x for a, x in zip(row, point)) == bp
                seen["feasible"] += 1
            else:
                w, reason, verified = certificate
                assert verified
                assert sum(wp * bp for wp, bp in zip(w, b)) < 0
                for column in columns:
                    assert sum(wp * cp for wp, cp in zip(w, column)) >= 0
                seen[reason] += 1
            if have_scipy:
                assert (mix is not None) == highs_feasible(matrix, b, n_cols), (matrix, b)
    assert min(seen.values()) >= 20, seen


def test_core_recheck_rejects_a_bad_weighting(monkeypatch):
    # x = (-1, 1) is the only solution; a wrong multiplier (1, -1) lifts to
    # w = (1, -1), negative on b but also on the second column
    monkeypatch.setattr(mregs, "_lexmin_mix", lambda x0, kernel: (None, False, [1, -1]))
    mix, (w, reason, verified) = _feasible([[1, 0], [0, 1]], [-1, 1])
    assert mix is None and w == [1, -1] and not verified
    assert reason == "the equality system is solvable only with negative coefficients"


def test_kept_columns_are_scaled_once_and_still_re_checked(record_calls):
    # x1 (1, 0, 1) + x2 (0, 1, 1) = (1, 1, 3) is inconsistent: the certificate
    # w = (1, 1, -1) comes from the kept echelon, and the re-check reads the
    # kept scaled columns without scaling a column again
    columns, b = [[1, 0, 1], [0, 1, 1]], [1, 1, 3]
    kept = _Columns(columns, len(b))
    scaled = record_calls("_integer_scaled", "entkit.mregs", record=lambda values: list(values))
    mix, (w, reason, verified) = _feasible(columns, b, kept)
    assert mix is None and w == [1, 1, -1] and verified
    assert reason == "the equality system itself is inconsistent"
    assert not any(values in columns for values in scaled)
    # the flag is that exact re-check: a kept column w is negative on fails it
    kept.scaled[0] = _integer_scaled([-1, 0, 0])
    assert _feasible(columns, b, kept)[1] == (w, reason, False)


# ints and fractions of either sign; denominators reach past 2^64
exact_entries = st.integers(-(2**70), 2**70) | st.fractions(max_denominator=2**80)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 12))
def test_integer_dot_is_the_fraction_sum(data, size):
    a = data.draw(st.lists(exact_entries, min_size=size, max_size=size))
    b = data.draw(st.lists(exact_entries, min_size=size, max_size=size))
    got = _dot(_integer_scaled(a), _integer_scaled(b))
    assert type(got) is Fraction
    assert got == sum((x * y for x, y in zip(a, b)), Fraction(0))


def test_integer_dot_past_64_bit_denominators():
    a = [Fraction(1, 2**64 + 1), Fraction(-3, 2**65), 7]
    b = [Fraction(2**64 + 1, 5), 2**65, Fraction(-1, 3**41)]
    assert _dot(_integer_scaled(a), _integer_scaled(b)) == Fraction(1, 5) - 3 - Fraction(7, 3**41)
    empty = _dot(_integer_scaled([]), _integer_scaled([]))
    assert empty == Fraction(0) and type(empty) is Fraction


@pytest.mark.parametrize("m", [5, 6, 7])
def test_feasibility_matches_highs_on_mixes(m):
    pytest.importorskip("scipy")
    gens = eprs_and_embedded_cats(m)
    total = [sum(column) for column in zip(*gens.rows)]
    full_cat = gens.rows[-1]
    verdicts = set()
    for k in (0, 2, 4):
        target = [a - k * b for a, b in zip(total, full_cat)]
        outcome = solve_coefficients(gens, target)
        feasible = isinstance(outcome, CoefficientSolution)
        assert feasible or outcome.verified
        assert feasible == highs_feasible(list(zip(*gens.rows)), target, len(gens.labels))
        verdicts.add(feasible)
    assert verdicts == {True, False}
