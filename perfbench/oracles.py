"""Output checks that share no numerics with entkit.

Every check takes the text a job printed (or, for library jobs, the object
it returned) and returns None when it is right, or a one-line reason. The
checks use numpy's SVD, `fractions.Fraction` and `math.comb` only: states
are read back from their JSON files with the standard `json` module, and
entropy vectors of the exact families come from their combinatorial
formulas.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np

SPECTRUM_TOL = 1e-9
FIDELITY_TOL = 1e-9
FLOAT_REL_TOL = 1e-9


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# --- reading outputs ----------------------------------------------------------


def csv_blocks(text: str) -> list[list[list[str]]]:
    """CSV output split at blank lines into blocks of rows."""
    blocks: list[list[list[str]]] = [[]]
    for row in csv.reader(io.StringIO(text)):
        if row:
            blocks[-1].append(row)
        elif blocks[-1]:
            blocks.append([])
    return [b for b in blocks if b]


def key_values(rows: list[list[str]]) -> dict[str, str]:
    return {row[0]: row[1] for row in rows if len(row) >= 2}


# --- cuts and the combinatorial entropy vectors -----------------------------


def party_label(members) -> str:
    return "".join(chr(ord("A") + p) for p in sorted(members))


def label_members(label: str) -> tuple[int, ...]:
    return tuple(ord(ch) - ord("A") for ch in label)


def canonical_cuts(m: int) -> list[tuple[int, ...]]:
    """One side per bipartition: the smaller side, or on a tie the side
    without party 0; sorted by (size, members)."""
    out = set()
    for size in range(1, m):
        for side in itertools.combinations(range(m), size):
            rest = tuple(p for p in range(m) if p not in side)
            if len(side) < len(rest) or (len(side) == len(rest) and 0 not in side):
                out.add(side)
            else:
                out.add(rest)
    return sorted(out, key=lambda s: (len(s), s))


def cut_entropy(spec: tuple, cut) -> Fraction:
    """Entropy in bits of one exact family member across a cut.

    spec is ("cat", members), ("epr", i, j), ("codeword5",) or
    ("product", spec, spec, ...).
    """
    inside = set(cut)
    kind = spec[0]
    if kind == "cat":
        members = set(spec[1])
        return Fraction(1 if members & inside and members - inside else 0)
    if kind == "epr":
        return Fraction(1 if (spec[1] in inside) != (spec[2] in inside) else 0)
    if kind == "codeword5":
        return Fraction(min(len(inside), 5 - len(inside)))
    if kind == "product":
        return sum((cut_entropy(part, cut) for part in spec[1:]), Fraction(0))
    raise ValueError(f"unknown family {kind!r}")


def entropy_row(spec: tuple, m: int) -> list[Fraction]:
    return [cut_entropy(spec, cut) for cut in canonical_cuts(m)]


def spec_from_probe_label(label: str, m: int) -> tuple:
    """Generator labels used by `mregs_lower_bound`: epr:AB, cat4:ABCD, catM, codeword5."""
    if label.startswith("epr:"):
        i, j = label_members(label[4:])
        return ("epr", i, j)
    if label.startswith("cat") and ":" in label:
        return ("cat", label_members(label.split(":", 1)[1]))
    if label == "codeword5":
        return ("codeword5",)
    if label == f"cat{m}":
        return ("cat", tuple(range(m)))
    raise Mismatch(f"unexpected probe label {label!r}")


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def rank(rows: list[list[Fraction]]) -> int:
    """Rank over the rationals by plain Gauss elimination."""
    mat = [list(r) for r in rows]
    r = 0
    width = len(mat[0]) if mat else 0
    for c in range(width):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c] / mat[r][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def check_certificate(weights, gen_rows, target_row) -> None:
    """A separating weighting: >= 0 on every generator, < 0 on the target."""
    for row in gen_rows:
        _expect(_dot(weights, row) >= 0, "certificate is negative on a generator")
    _expect(_dot(weights, target_row) < 0, "certificate does not separate the target")


def check_mix(coefficients, gen_rows, target_row) -> None:
    _expect(all(c >= 0 for c in coefficients), "negative coefficient in a feasible mix")
    for p, value in enumerate(target_row):
        got = sum((c * row[p] for c, row in zip(coefficients, gen_rows)), Fraction(0))
        _expect(got == value, "mix does not reproduce the target entropy vector")


# --- states read back from their files ---------------------------------------


def load_amplitudes(path: str) -> tuple[tuple[int, ...], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    dims = tuple(int(d) for d in payload["dims"])
    vec = np.zeros(math.prod(dims), dtype=complex)
    for term in payload["terms"]:
        idx = 0
        for digit, d in zip(term["basis"], dims):
            idx = idx * d + int(digit)
        vec[idx] += complex(term.get("re", 0.0), term.get("im", 0.0))
    return dims, vec / np.linalg.norm(vec)


def cut_spectrum(dims, vec: np.ndarray, cut) -> np.ndarray:
    """Squared singular values of the amplitude matrix across a cut."""
    rest = tuple(p for p in range(len(dims)) if p not in cut)
    mat = vec.reshape(dims).transpose(tuple(cut) + rest)
    mat = mat.reshape(math.prod(dims[p] for p in cut), -1)
    return np.linalg.svd(mat, compute_uv=False) ** 2


def shannon_bits(probs: np.ndarray) -> float:
    p = probs[probs > 1e-15]
    return float(-(p * np.log2(p)).sum())


def entropies(path: str) -> dict[str, float]:
    dims, vec = load_amplitudes(path)
    return {
        party_label(cut): shannon_bits(cut_spectrum(dims, vec, cut))
        for cut in canonical_cuts(len(dims))
    }


# --- spectra workload ----------------------------------------------------------


def check_entropy_table(out: str, path: str) -> None:
    (rows,) = csv_blocks(out)
    _expect(rows[0] == ["partition", "entropy_bits"], "bad entropy-table header")
    want = entropies(path)
    _expect([r[0] for r in rows[1:]] == list(want), "partition rows differ from the canonical cuts")
    for label, value in rows[1:]:
        _expect(
            abs(float(value) - want[label]) <= SPECTRUM_TOL,
            f"S_{label} = {value}, SVD gives {want[label]!r}",
        )


def check_egs(out: str, path: str) -> None:
    (rows,) = csv_blocks(out)
    got = key_values(rows)
    lowest = min(entropies(path).values())
    _expect(
        abs(float(got["min_partition_entropy"]) - lowest) <= SPECTRUM_TOL,
        f"min entropy {got['min_partition_entropy']}, SVD gives {lowest!r}",
    )
    verdict = "yes" if lowest > 1e-8 else "no"
    _expect(got["entangled_across_every_partition"] == verdict, "egs verdict disagrees")


def check_schmidt(out: str, path: str) -> None:
    """Generic states have no m-orthogonal form: a form would give every cut
    one common spectrum, and the SVD shows two cuts that differ."""
    blocks = csv_blocks(out)
    got = key_values(blocks[0])
    dims, vec = load_amplitudes(path)
    spectra = []
    for cut in canonical_cuts(len(dims)):
        s = np.sort(cut_spectrum(dims, vec, cut))[::-1]
        spectra.append(s[s > 1e-12])
    first = spectra[0]
    differ = any(
        len(s) != len(first) or np.max(np.abs(s - first)) > 1e-6 for s in spectra[1:]
    )
    _expect(differ, "cut spectra coincide; the benchmark expects a generic state")
    _expect(got.get("decomposable") == "no", f"decomposable={got.get('decomposable')}, cut spectra differ")


def check_classify(out: str, path_a: str, path_b: str, rotated: bool) -> None:
    (rows,) = csv_blocks(out)
    got = key_values(rows)
    verdict = got.get("verdict")
    if rotated:
        # b is a by local unitaries, so only these two answers are true
        _expect(verdict in ("LUEquivalent", "Unknown"), f"verdict {verdict} for an LU-equivalent pair")
        return
    sa, sb = entropies(path_a), entropies(path_b)
    a_higher = any(sa[c] > sb[c] + 1e-8 for c in sa)
    b_higher = any(sb[c] > sa[c] + 1e-8 for c in sa)
    if a_higher and b_higher:
        _expect(verdict == "Incomparable", f"verdict {verdict}, entropies cross")
        witness = got.get("witness_partition")
        _expect(witness in sa and sa[witness] < sb[witness] - 1e-8, "witness partition is wrong")
    else:
        _expect(verdict == "Unknown", f"verdict {verdict}, one entropy vector dominates")


# --- branches workload -----------------------------------------------------


def _protocol_rows(out: str) -> list[tuple[str, float, float]]:
    (rows,) = csv_blocks(out)
    _expect(rows[0] == ["transcript", "probability", "fidelity"], "bad run-protocol header")
    return [(r[0], float(r[1]), float(r[2])) for r in rows[1:]]


def check_cat_to_epr(out: str, m: int, pattern: str) -> None:
    """Helpers end in |+> or |-> as they measured; the target carries the
    pattern `pattern`, so exactly that branch has fidelity 1, the rest 0."""
    rows = _protocol_rows(out)
    _expect(len(rows) == 2 ** (m - 2), f"{len(rows)} branches, expected {2 ** (m - 2)}")
    expected = sorted(";".join(t) for t in itertools.product("+-", repeat=m - 2))
    _expect([r[0] for r in rows] == expected, "transcripts differ from every +/- string")
    _expect(abs(sum(r[1] for r in rows) - 1.0) <= 1e-9, "probabilities do not sum to 1")
    for transcript, prob, fid in rows:
        _expect(abs(prob - 2.0 ** (2 - m)) <= 1e-9, "branch probability is not uniform")
        want = 1.0 if transcript.replace(";", "") == pattern else 0.0
        _expect(abs(fid - want) <= FIDELITY_TOL, f"fidelity {fid} on branch {transcript}")


def check_eprs_to_cat_cli(out: str, m: int) -> None:
    rows = _protocol_rows(out)
    _expect(len(rows) == 4 ** (m - 1), f"{len(rows)} branches, expected {4 ** (m - 1)}")
    _expect(abs(sum(r[1] for r in rows) - 1.0) <= 1e-9, "probabilities do not sum to 1")
    _expect(all(r[2] >= 1.0 - FIDELITY_TOL for r in rows), "a branch misses the cat state")


def check_eprs_to_cat_run(outcome, m: int) -> None:
    cat = np.zeros(2**m, dtype=complex)
    cat[0] = cat[-1] = 2**-0.5
    branches = outcome.branches
    _expect(len(branches) == 4 ** (m - 1), f"{len(branches)} branches, expected {4 ** (m - 1)}")
    _expect(abs(sum(b.probability for b in branches) - 1.0) <= 1e-9, "probabilities do not sum to 1")
    for b in branches:
        amps = np.asarray(b.state.amplitudes).reshape(-1)
        _expect(amps.shape == cat.shape, "branch state has the wrong dimension")
        fid = abs(np.vdot(cat, amps)) ** 2 / np.vdot(amps, amps).real
        _expect(fid >= 1.0 - FIDELITY_TOL, "a branch misses the cat state")


def run_digest(outcome) -> tuple:
    """Exact fingerprint of a library run, for the repeat check."""
    return tuple(
        (b.transcript, b.probability, np.asarray(b.state.amplitudes).tobytes())
        for b in outcome.branches
    )


# --- exact workload ------------------------------------------------------------

_EXPECTED_PROBES = {
    3: ["cat3"],
    4: ["cat4"],
    5: ["cat5", "codeword5"],
    6: ["cat4:" + party_label(s) for s in itertools.combinations(range(6), 4)] + ["cat6"],
    7: ["cat7"],
}


def check_mregs(out: str, m: int, bound_result) -> None:
    """CSV structure, then every verdict of the same computation re-proved.

    `bound_result` is `mregs_lower_bound(m)`, taken outside the timed
    region for its certificates only: each infeasible probe's certificate
    and each feasible probe's mix is re-checked in Fraction arithmetic
    against the combinatorial vectors of the accumulated generators.
    """
    (rows,) = csv_blocks(out)
    _expect(rows[0] == ["kind", "label", "value"], "bad mregs-bounds header")
    baseline = math.comb(m, 2)
    _expect(rows[1] == ["baseline", "", str(baseline)], "baseline is not m(m-1)/2")
    probes = [(r[1], r[2]) for r in rows if r[0] == "probe"]
    _expect([p[0] for p in probes] == _EXPECTED_PROBES.get(m, [f"cat{m}"]), "unexpected probe list")
    infeasible = sum(1 for _, v in probes if v == "infeasible")
    _expect(rows[-1] == ["bound", "", str(baseline + infeasible)], "bound is not baseline plus infeasible probes")
    _expect(len(bound_result.probes) == len(probes), "library and CLI disagree on the probes")
    pool = [("epr", i, j) for i, j in itertools.combinations(range(m), 2)]
    pool_labels = ["epr:" + party_label((i, j)) for i, j in itertools.combinations(range(m), 2)]
    for (label, verdict), probe in zip(probes, bound_result.probes):
        _expect(probe.label == label, "library and CLI disagree on probe order")
        _expect(probe.infeasible == (verdict == "infeasible"), f"library and CLI disagree on {label}")
        spec = spec_from_probe_label(label, m)
        gen_rows = [entropy_row(s, m) for s in pool]
        target = entropy_row(spec, m)
        if probe.infeasible:
            check_certificate([Fraction(w) for w in probe.certificate], gen_rows, target)
            pool.append(spec)
            pool_labels.append(label)
        else:
            mix = dict.fromkeys(pool_labels, Fraction(0))
            text = probe.reason.split("feasible:", 1)[1].strip()
            if text != "0":
                for item in text.split(", "):
                    name, value = item.rsplit("=", 1)
                    _expect(name in mix, f"mix names unknown generator {name}")
                    mix[name] = Fraction(value)
            check_mix([mix[n] for n in pool_labels], gen_rows, target)


def check_r21(out: str) -> None:
    (rows,) = csv_blocks(out)
    _expect(rows[0] == ["num_parties", "state", "r21"], "bad r21-table header")
    want = [["num_parties", "state", "r21"]]
    for m in (3, 4, 5, 6):
        want.append([str(m), f"cat{m}", "1"])
        want.append([str(m), f"{math.comb(m, 2)} eprs", _frac(Fraction(2 * (m - 2), m - 1))])
        if m == 5:
            want.append(["5", "codeword5", "2"])
    _expect(rows == want, "r21 table differs from the combinatorial ratios")


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def check_coeffs(out: str, m: int, gens: list[tuple[str, tuple]], target: tuple, feasible: bool) -> None:
    """Re-prove the answer. Generator sets hold one 3-cat, so their rows have
    a one-dimensional kernel, which makes uniqueness decidable from the
    printed kernel direction."""
    blocks = csv_blocks(out)
    gen_rows = [entropy_row(spec, m) for _, spec in gens]
    target_row = entropy_row(target, m)
    head = key_values(blocks[0])
    if head.get("status") == "infeasible":
        _expect(not feasible, "reported infeasible, but the target is a product of generators")
        weights = key_values(blocks[1][1:])
        cuts = [party_label(c) for c in canonical_cuts(m)]
        _expect(list(weights) == cuts, "certificate partitions differ from the canonical cuts")
        check_certificate([Fraction(weights[c]) for c in cuts], gen_rows, target_row)
        return
    _expect(feasible, "reported feasible for a target outside the cone")
    coefficients = blocks[0][1:]
    _expect([c[0] for c in coefficients] == [path for path, _ in gens], "generator rows out of order")
    mix = [Fraction(c[1]) for c in coefficients]
    check_mix(mix, gen_rows, target_row)
    meta = key_values(blocks[1])
    _expect(meta.get("residual") == "0", "nonzero residual")
    kernel_dim = len(gens) - rank(gen_rows)
    _expect(kernel_dim <= 1, "generator set has a kernel wider than one direction")
    if kernel_dim == 0:
        _expect("kernel_direction" not in meta and meta.get("unique") == "yes", "independent generators must give a unique mix")
        return
    direction = [Fraction(int(x)) for x in meta["kernel_direction"].split()]
    _expect(any(direction), "zero kernel direction")
    for p in range(len(target_row)):
        _expect(sum(d * row[p] for d, row in zip(direction, gen_rows)) == 0, "kernel direction is not in the kernel")
    movable = any(
        all(c > 0 or s * d >= 0 for c, d in zip(mix, direction)) for s in (1, -1)
    )
    _expect(meta.get("unique") == ("no" if movable else "yes"), "uniqueness verdict is wrong")


def _compositions(total: int, bins: int):
    if bins == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, bins - 1):
            yield (head,) + tail


def _multinomial(counts) -> int:
    out, seen = 1, 0
    for c in counts:
        seen += c
        out *= math.comb(seen, c)
    return out


def _per_string(probs: list[Fraction], counts) -> Fraction:
    out = Fraction(1)
    for p, c in zip(probs, counts):
        out *= p**c
    return out


def check_concentrate(out: str, probs: list[Fraction], n: int) -> None:
    (rows,) = csv_blocks(out)
    _expect(rows[0] == ["counts", "probability", "yield_bits", "cats_extracted"], "bad concentrate header")
    want = list(_compositions(n, len(probs)))
    _expect(len(rows) - 1 == len(want), "type classes missing or extra")
    for row, counts in zip(rows[1:], want):
        size = _multinomial(counts)
        _expect(row[0] == ":".join(map(str, counts)), "type classes out of order")
        prob = float(size * _per_string(probs, counts))
        _expect(_close(float(row[1]), prob, FLOAT_REL_TOL), f"probability of {row[0]}")
        _expect(_close(float(row[2]), math.log2(size), FLOAT_REL_TOL), f"yield of {row[0]}")
        _expect(int(row[3]) == size.bit_length() - 1, f"whole cats of {row[0]}")


def check_dilute(out: str, probs: list[Fraction], n: int, k: int) -> None:
    """Greedy keep of the 2^k likeliest strings, in exact arithmetic."""
    summary, detail = csv_blocks(out)
    _expect(summary[1][:3] == [str(n), str(k), str(2 * k)], "bad dilute summary")
    types = sorted(
        ((_per_string(probs, c), c, _multinomial(c)) for c in _compositions(n, len(probs))),
        key=lambda t: (-t[0], t[1]),
    )
    budget = 1 << k
    kept: list[tuple] = []
    for per_string, counts, size in types:
        take = min(size, budget)
        kept.append((counts, per_string, size, take))
        budget -= take
        if budget == 0:
            break
    _expect(len(detail) - 1 == len(kept), "retained type count differs")
    for row, (counts, per_string, size, take) in zip(detail[1:], kept):
        _expect(row[0] == ":".join(map(str, counts)), "retained types out of order")
        _expect(_close(float(row[1]), float(per_string), FLOAT_REL_TOL), "per-string probability")
        _expect(int(row[2]) == size and int(row[3]) == take, "class size or kept count")
    fidelity = min(sum((p * t for _, p, _, t in kept), Fraction(0)), Fraction(1))
    _expect(_close(float(summary[1][3]), float(fidelity), FLOAT_REL_TOL), "dilution fidelity")
