"""Command-line front end.

Every subcommand reads states either by name (epr, ghz, 3epr, cat4,
eprs5, chain4, 2ghz, codeword5, ...) or from a JSON state file, computes
with the library, and prints a report. Output is deterministic for fixed
flags: tables come out in canonical partition order, floats with 12
significant digits, exact rationals as p/q. `--format csv` swaps the
human-readable text for machine-friendly CSV on stdout, quoted as Python's
`csv` module quotes by default (minimal quoting: a cell is quoted when it
holds a comma, a quote or a newline, or is the only cell of its row and
empty), each row ending in a newline.

Exit codes: 0 on success, 1 when the inputs are well-formed but the
computation rejects them (bad state file, impossible request), 2 on usage
errors, 3 when an internal invariant fails (a bug in entkit).

The argument parser is built once per process, on the first `main` call,
and shared by every later call; no argument has a mutable default.
"""
from __future__ import annotations

import argparse
import csv
import functools
import sys
from fractions import Fraction

from .builders import parse_named_state
from .entropy import entropy_vector
from .errors import InternalError
from .mregs import (
    EntropyMatrix,
    Infeasible,
    egs_check,
    mregs_lower_bound,
    r21_table,
    solve_coefficients,
)
from .protocols import _expected, load_protocol, run
from .reducibility import classify_states, ghz_epr_witness
from .schmidt import (
    _mean_yield,
    _retained_fidelity,
    concentration_yield_distribution,
    dilution_retained_types,
    is_m_orthogonal,
    schmidt_decompose,
)
from .states import canonical_partitions

__all__ = ["main"]


# cell text by exact type; `_fmt` sends every other type to the branches below
_CELL_TEXT = {
    bool: {True: "yes", False: "no"}.__getitem__,
    float: "{:.12g}".format,
    int: str,
    str: str,
}
# body rows formatted and written per CSV block, so peak memory stays flat
_CSV_BLOCK = 1024


def _fmt(value) -> str:
    plain = _CELL_TEXT.get(type(value))
    if plain is not None:
        return plain(value)
    if isinstance(value, float):  # numpy.float64 and other float subclasses
        return f"{value:.12g}"
    # `Fraction`'s isinstance goes through its ABC metaclass, so it comes late
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _text_columns(columns) -> list[list[str]]:
    """Cell text of equal-length `columns`, column by column.

    A column whose cells share one exact type from `_CELL_TEXT` maps that
    type's formatter over itself (a `float` column is one "%.12g" `%` call);
    any other column goes through `_fmt` cell by cell. Either way a cell
    reads as `_fmt` would write it; skipping `_fmt` saves about a fifth of
    the time a long CSV table takes to write.
    """
    text = []
    for column in columns:
        kinds = set(map(type, column))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind is float:
            text.append(("%.12g\n" * len(column) % tuple(column)).split("\n")[:-1])
        else:
            text.append(list(map(_CELL_TEXT.get(kind) or _fmt, column)))
    return text


def _write_csv(cells: list[list[str]]) -> None:
    """Write rows of cell text, given column by column, as CSV lines.

    The rows are joined with "," and "\\n" when no cell holds a comma, a
    quote, "\\r" or "\\n" (the join's counts of "," and "\\n" show any) and
    no row is one empty cell, which csv.writer writes as "". csv.writer's
    minimal quoting leaves such a block as the join writes it; any other
    block goes through csv.writer.
    """
    rows = len(cells[0])
    block = "\n".join(map(",".join, zip(*cells)))
    if (
        block.count(",") == (len(cells) - 1) * rows
        and block.count("\n") == rows - 1
        and '"' not in block
        and "\r" not in block
        and (len(cells) > 1 or "" not in cells[0])
    ):
        sys.stdout.write(block + "\n")
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows(zip(*cells))


def _emit_csv(header: list, columns) -> None:
    _write_csv([[_fmt(cell)] for cell in header])
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        _write_csv(_text_columns([c[start : start + _CSV_BLOCK] for c in columns]))


def _emit_text_table(header: list, columns) -> None:
    padded = []
    for name, body in zip(header, _text_columns(columns)):
        column = [_fmt(name), *body]
        width = max(map(len, column))
        padded.append([cell.ljust(width) for cell in column])
    print("\n".join("  ".join(row).rstrip() for row in zip(*padded)))


def _emit_columns(args, header: list, columns) -> None:
    """Write a table given as a header and one sequence of cells per column."""
    if args.format == "csv":
        _emit_csv(header, columns)
    else:
        _emit_text_table(header, columns)


def _emit(args, rows: list[list]) -> None:
    """Write a table given as a header row and body rows of its width."""
    _emit_columns(args, rows[0], [list(c) for c in zip(*rows[1:])] or [[] for _ in rows[0]])


def _count_labels(counts, n: int) -> list[str]:
    """The "c1:c2:..." label of each row, from one column of counts per letter."""
    text = [str(c) for c in range(n + 1)]
    return list(map(":".join, zip(*(map(text.__getitem__, column) for column in counts))))


def _parse_weights(text: str) -> list[float]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(Fraction(piece)))
        except ZeroDivisionError:
            raise ValueError(f"coefficient {piece!r} divides by zero") from None
        except OverflowError:
            raise ValueError(f"coefficient {piece!r} is beyond the float range") from None
    if not out:
        raise ValueError("no coefficients given")
    return out


# --- subcommand handlers --------------------------------------------------


def _cmd_entropy_table(args) -> int:
    state = parse_named_state(args.state)
    vec = entropy_vector(state)
    rows: list[list] = [["partition", "entropy_bits"]]
    for part, value in vec.entries():
        rows.append([part.label, float(value)])
    _emit(args, rows)
    return 0


def _cmd_r21_table(args) -> int:
    rows: list[list] = [["num_parties", "state", "r21"]]
    for row in r21_table():
        rows.append([row.num_parties, row.label, row.ratio])
    _emit(args, rows)
    return 0


def _coefficient_rows(coefficients) -> list[list]:
    rows: list[list] = [["index", "coefficient", "weight"]]
    for i, c in enumerate(coefficients):
        rows.append([i, float(c), float(c) ** 2])
    return rows


def _cmd_schmidt(args) -> int:
    state = parse_named_state(args.state)
    if state.num_parties == 2:
        _emit(args, _coefficient_rows(schmidt_decompose(state, (0,)).coefficients))
        return 0
    result = is_m_orthogonal(state)
    status = "yes" if result.decomposable else "no"
    rows = None if result.form is None else _coefficient_rows(result.form.coefficients)
    if args.format == "csv":
        _emit(args, [["decomposable", status], ["reason", result.reason]])
        if rows is not None:
            print()
    else:
        print(f"decomposable: {status}")
        print(f"reason: {result.reason}")
    if rows is not None:
        _emit(args, rows)
    return 0


def _cmd_classify(args) -> int:
    a = parse_named_state(args.a)
    b = parse_named_state(args.b)
    result = classify_states(a, b)
    rows: list[list] = [
        ["verdict", str(result.verdict)],
        ["reason", result.reason],
    ]
    if result.witness_partition is not None:
        rows.append(["witness_partition", result.witness_partition.label])
    _emit(args, rows)
    return 0


def _cmd_ghz_epr_witness(args) -> int:
    report = ghz_epr_witness()
    if args.format == "text":
        print(report.render())
        return 0
    rows: list[list] = [
        ["field", "value"],
        ["verdict", str(report.verdict)],
    ]
    for label, value in report.entropy_vector_cats:
        rows.append([f"S_{label}(2ghz)", float(value)])
    for label, value in report.entropy_vector_eprs:
        rows.append([f"S_{label}(3epr)", float(value)])
    rows.append(["cats_bc_offdiagonal_max", report.cats_bc_offdiagonal_max])
    for i, value in enumerate(report.cats_bc_nonzero_spectrum):
        rows.append([f"cats_bc_spectrum_{i}", value])
    rows.append(["cats_b_marginal_deviation", report.cats_b_marginal_deviation])
    rows.append(["cats_c_marginal_deviation", report.cats_c_marginal_deviation])
    rows.append(
        ["cats_marginal_product_deviation", report.cats_marginal_product_deviation]
    )
    rows.append(["eprs_bc_ppt_eigenvalue", report.eprs_bc_ppt_eigenvalue])
    _emit(args, rows)
    return 0


def _cmd_run_protocol(args) -> int:
    state = parse_named_state(args.state)
    steps = load_protocol(args.protocol)
    outcome = run(steps, state)
    target = parse_named_state(args.target) if args.target else None
    header = ["transcript", "probability"]
    if target is not None:
        header.append("fidelity")
        fidelities = outcome.branch_fidelities(target)
    rows: list[list] = [header]
    for i, (transcript, probability) in enumerate(zip(outcome.transcripts, outcome.probabilities)):
        row: list = [";".join(transcript), probability]
        if target is not None:
            row.append(fidelities[i])
        rows.append(row)
    _emit(args, rows)
    if args.format == "text" and target is not None:
        print(f"expected fidelity: {_fmt(_expected(outcome.probabilities, fidelities))}")
    return 0


def _cmd_concentrate(args) -> int:
    probs = _parse_weights(args.coeffs)
    table = concentration_yield_distribution(probs, args.n)
    columns = table.columns
    _emit_columns(
        args,
        ["counts", "probability", "yield_bits", "cats_extracted"],
        [
            _count_labels(columns.counts, args.n),
            columns.probability,
            columns.yield_bits,
            columns.yield_floor,
        ],
    )
    if args.format == "text":
        expected = _mean_yield(table)
        print(f"expected yield: {_fmt(expected)} bits ({_fmt(expected / args.n)} per copy)")
    return 0


def _cmd_dilute(args) -> int:
    probs = _parse_weights(args.coeffs)
    retained = dilution_retained_types(probs, args.n, args.k)
    summary: list[list] = [
        ["n", "k", "classical_bits", "fidelity"],
        [args.n, args.k, 2 * args.k, _retained_fidelity(retained)],
    ]
    _emit(args, summary)
    print()
    counts, per_string, sizes, kept = retained.columns
    _emit_columns(
        args,
        ["counts", "per_string_probability", "class_size", "strings_kept"],
        [_count_labels(counts, args.n), per_string, sizes, kept],
    )
    return 0


def _cmd_coeffs(args) -> int:
    targets = [parse_named_state(g) for g in args.gens]
    parties = {s.num_parties for s in targets}
    if len(parties) != 1:
        raise ValueError("generators must share one party count")
    m = parties.pop()
    gens = EntropyMatrix.from_states(m, list(zip(args.gens, targets)))
    target = parse_named_state(args.target)
    result = solve_coefficients(gens, target)
    if isinstance(result, Infeasible):
        if not result.verified:
            raise InternalError("infeasibility certificate failed verification")
        meta: list[list] = [["status", "infeasible"], ["reason", result.reason]]
        _emit(args, meta)
        print()
        rows: list[list] = [["partition", "weight"]]
        for part, w in zip(canonical_partitions(m), result.certificate):
            rows.append([part.label, w])
        _emit(args, rows)
        return 0
    rows = [["generator", "coefficient"]]
    for label, coefficient in zip(result.labels, result.coefficients):
        rows.append([label, coefficient])
    _emit(args, rows)
    print()
    meta = [["unique", result.unique], ["residual", result.residual]]
    if result.kernel_direction is not None:
        meta.append(
            ["kernel_direction", " ".join(str(x) for x in result.kernel_direction)]
        )
    _emit(args, meta)
    return 0


def _cmd_mregs_bounds(args) -> int:
    result = mregs_lower_bound(args.m)
    if args.format == "text":
        print(result.render())
        return 0
    rows: list[list] = [
        ["kind", "label", "value"],
        ["baseline", "", result.baseline],
    ]
    for probe in result.probes:
        rows.append(["probe", probe.label, "infeasible" if probe.infeasible else "feasible"])
    rows.append(["bound", "", result.bound])
    _emit(args, rows)
    return 0


def _cmd_egs_check(args) -> int:
    state = parse_named_state(args.state)
    vec = entropy_vector(state)
    minimum = min(value for _, value in vec.entries())
    passes = egs_check(vec)
    rows: list[list] = [
        ["entangled_across_every_partition", passes],
        ["min_partition_entropy", minimum],
    ]
    _emit(args, rows)
    return 0


# --- parser ----------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", choices=("text", "csv"), default="text", help="output style"
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entkit",
        description="entanglement invariants of multipartite pure states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy-table", help="partial entropy of every partition")
    p.add_argument("--state", required=True, help="named state or JSON file")
    _add_common(p)
    p.set_defaults(handler=_cmd_entropy_table)

    p = sub.add_parser("r21-table", help="two-set/one-set entropy ratios, exact")
    _add_common(p)
    p.set_defaults(handler=_cmd_r21_table)

    p = sub.add_parser("schmidt", help="Schmidt / m-orthogonal decomposition")
    p.add_argument("--state", required=True, help="named state or JSON file")
    _add_common(p)
    p.set_defaults(handler=_cmd_schmidt)

    p = sub.add_parser("classify", help="exact convertibility relation of two states")
    p.add_argument("--a", required=True, help="named state or JSON file")
    p.add_argument("--b", required=True, help="named state or JSON file")
    _add_common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "ghz-epr-witness",
        help="incomparability evidence for two GHZ copies versus three EPR pairs",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_ghz_epr_witness)

    p = sub.add_parser("run-protocol", help="expand a protocol over all branches")
    p.add_argument("--state", required=True, help="named state or JSON file")
    p.add_argument("--protocol", required=True, help="protocol JSON file")
    p.add_argument("--target", help="score branch fidelity against this state")
    _add_common(p)
    p.set_defaults(handler=_cmd_run_protocol)

    p = sub.add_parser("concentrate", help="type-class yields from n shared copies")
    p.add_argument("--n", type=int, required=True, help="number of copies")
    p.add_argument(
        "--coeffs", required=True, help="Schmidt weights, comma separated (e.g. 3/4,1/4)"
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_concentrate)

    p = sub.add_parser("dilute", help="fidelity of diluting k cats into n copies")
    p.add_argument("--n", type=int, required=True, help="number of copies")
    p.add_argument("--k", type=int, required=True, help="cat states spent")
    p.add_argument(
        "--coeffs", required=True, help="Schmidt weights, comma separated (e.g. 3/4,1/4)"
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_dilute)

    p = sub.add_parser(
        "coeffs", help="express a target entropy vector over generator states"
    )
    p.add_argument(
        "--gens", nargs="+", required=True, help="generator states (names or files)"
    )
    p.add_argument("--target", required=True, help="target state (name or file)")
    _add_common(p)
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser(
        "mregs-bounds", help="lower bound on a reversible generating set"
    )
    p.add_argument("--m", type=int, required=True, help="number of parties")
    _add_common(p)
    p.set_defaults(handler=_cmd_mregs_bounds)

    p = sub.add_parser(
        "egs-check", help="whether every nontrivial partition carries entropy"
    )
    p.add_argument("--state", required=True, help="named state or JSON file")
    _add_common(p)
    p.set_defaults(handler=_cmd_egs_check)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
