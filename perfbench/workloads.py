"""Seeded inputs and the job list of one round, for each workload.

`setup(ek, workdir, seed)` writes the workload's state and protocol files
with entkit and returns the jobs of one round in table order. A job is
one user request: a CLI argument list run through `entkit.cli.main`, or a
library call where no subcommand does the same thing. Its `check` is the
oracle from `oracles.py` bound to the inputs the job was given.

Each table below fixes how many jobs of each class one round holds, the
cheaper classes first. With whole rounds of N jobs, the median falls at
rank N/2 and the 90th percentile at rank N/10 from the top. The counts put
both inside a group of jobs of one class, or of classes with near-equal
latency, instead of on the edge between a fast and a slow class, so the
percentiles do not jump from run to run. `branches` and `exact` have 105
jobs a round, so that their few heavy jobs (the 40 MB protocol file,
`mregs-bounds --m 6`) weigh less against the rest. The table is the same for
every seed; the seed only draws the states, party pairs and coefficients.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles


@dataclass
class Job:
    label: str  # job class, the same for every seed
    argv: list[str] | None  # entkit CLI arguments, or None for a library call
    call: Callable | None  # library call, given the entkit package
    check: Callable  # (output, entkit package) -> None, raises oracles.Mismatch


def _cli(label: str, argv: list[str], check: Callable) -> Job:
    return Job(label, argv + ["--format", "csv"], None, lambda out, ek: check(out))


# --- spectra: Haar-random states, every cut through the eigensolver ----------

SHAPES = {
    "q6": (2,) * 6,
    "q7": (2,) * 7,
    "q8": (2,) * 8,
    "mix": (3, 3, 4, 2, 2),
    "t5": (3,) * 5,
}

# (subcommand, shape, jobs per round); classify-rand pairs two Haar states,
# classify-rot pairs a state with a copy rotated by random local unitaries
SPECTRA = [
    ("entropy-table", "mix", 6),
    ("schmidt", "mix", 5),
    ("entropy-table", "t5", 6),
    ("schmidt", "t5", 6),
    ("entropy-table", "q6", 6),
    ("schmidt", "q6", 5),
    ("egs-check", "mix", 3),
    ("egs-check", "t5", 3),
    ("egs-check", "q6", 2),
    ("schmidt", "q7", 2),
    ("entropy-table", "q7", 2),
    ("classify-rand", "t5", 7),
    ("classify-rot", "q6", 1),
    ("entropy-table", "q8", 1),
]


def _rotated(ek, state, rng: np.random.Generator):
    tensor = state.as_tensor()
    for axis, d in enumerate(state.dims):
        u = ek.random_unitary(d, rng)
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [axis])), 0, axis)
    return ek.PureState(state.dims, tensor.reshape(-1))


def setup_spectra(ek, workdir: str, seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    pool_size: dict[str, int] = {}
    for command, shape, count in SPECTRA:
        need = count + 1 if command == "classify-rand" else count
        pool_size[shape] = max(pool_size.get(shape, 0), need)
    states: dict[str, list] = {}
    paths: dict[str, list[str]] = {}
    for shape in sorted(pool_size):
        states[shape] = [ek.random_pure_state(SHAPES[shape], rng) for _ in range(pool_size[shape])]
        paths[shape] = []
        for i, state in enumerate(states[shape]):
            path = os.path.join(workdir, f"{shape}_{i}.json")
            ek.save_state(state, path)
            paths[shape].append(path)
    jobs = []
    for command, shape, count in SPECTRA:
        for i in range(count):
            a = paths[shape][i]
            label = f"{command} {shape}"
            if command == "entropy-table":
                jobs.append(_cli(label, [command, "--state", a], lambda o, a=a: oracles.check_entropy_table(o, a)))
            elif command == "egs-check":
                jobs.append(_cli(label, [command, "--state", a], lambda o, a=a: oracles.check_egs(o, a)))
            elif command == "schmidt":
                jobs.append(_cli(label, [command, "--state", a], lambda o, a=a: oracles.check_schmidt(o, a)))
            else:
                rotated = command == "classify-rot"
                if rotated:
                    b = os.path.join(workdir, f"{shape}_{i}_rot.json")
                    ek.save_state(_rotated(ek, states[shape][i], rng), b)
                else:
                    b = paths[shape][i + 1]
                jobs.append(
                    _cli(
                        label,
                        ["classify", "--a", a, "--b", b],
                        lambda o, a=a, b=b, r=rotated: oracles.check_classify(o, a, b, r),
                    )
                )
    return jobs


# --- branches: protocol runs where every branch has a flat spectrum ----------

# (job kind, parties, jobs per round)
BRANCHES = [
    ("eprs_to_cat", 3, 16),
    ("cat_to_epr", 5, 24),
    ("cat_to_epr", 6, 25),
    ("eprs_to_cat", 4, 22),
    ("cat_to_epr", 7, 15),
    ("eprs_to_cat-run", 5, 1),
    ("cat_to_epr", 8, 1),
    ("eprs_to_cat", 5, 1),
]

_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
_MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)


def _epr_with_helpers(m: int, i: int, j: int, pattern: str) -> np.ndarray:
    """EPR pair on (i, j), helpers in |+>/|-> by `pattern`, party 0 most significant."""
    helpers = [p for p in range(m) if p not in (i, j)]
    vec = np.zeros(2**m)
    for index in range(2**m):
        bits = [(index >> (m - 1 - p)) & 1 for p in range(m)]
        if bits[i] != bits[j]:
            continue
        amp = 2**-0.5
        for p, sign in zip(helpers, pattern):
            amp *= (_PLUS if sign == "+" else _MINUS)[bits[p]]
        vec[index] = amp
    return vec


def setup_branches(ek, workdir: str, seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 2])
    cats: dict[int, str] = {}

    def cat_file(m: int) -> str:
        if m not in cats:
            cats[m] = os.path.join(workdir, f"cat{m}.json")
            ek.save_state(ek.cat_state(m), cats[m])
        return cats[m]

    jobs = []
    for kind, m, count in BRANCHES:
        label = f"{kind} {m}"
        for _ in range(count):
            if kind == "cat_to_epr":
                i, j = sorted(int(p) for p in rng.choice(m, 2, replace=False))
                pattern = "".join(rng.choice(["+", "-"], m - 2))
                proto = os.path.join(workdir, f"c2e_{m}_{i}{j}.json")
                if not os.path.exists(proto):
                    ek.save_protocol(ek.cat_to_epr(m, i, j), proto)
                target = os.path.join(workdir, f"epr_{m}_{i}{j}_{pattern}.json")
                ek.save_state(ek.PureState((2,) * m, _epr_with_helpers(m, i, j, pattern)), target)
                argv = ["run-protocol", "--state", cat_file(m), "--protocol", proto, "--target", target]
                jobs.append(_cli(label, argv, lambda o, m=m, s=pattern: oracles.check_cat_to_epr(o, m, s)))
            elif kind == "eprs_to_cat":
                center = int(rng.integers(m))
                proto = os.path.join(workdir, f"e2c_{m}_{center}.json")
                start = os.path.join(workdir, f"e2c_in_{m}_{center}.json")
                if not os.path.exists(proto):
                    ek.save_protocol(ek.eprs_to_cat(m, center), proto)
                    ek.save_state(ek.eprs_to_cat_input(m, center), start)
                argv = ["run-protocol", "--state", start, "--protocol", proto, "--target", cat_file(m)]
                jobs.append(_cli(label, argv, lambda o, m=m: oracles.check_eprs_to_cat_cli(o, m)))
            else:
                center = int(rng.integers(m))
                jobs.append(
                    Job(
                        label,
                        None,
                        lambda ek, m=m, c=center: ek.run(ek.eprs_to_cat(m, c), ek.eprs_to_cat_input(m, c)),
                        lambda out, ek, m=m: oracles.check_eprs_to_cat_run(out, m),
                    )
                )
    return jobs


# --- exact: Fraction elimination, feasibility and type-class counting --------

# (job kind, size, jobs per round)
EXACT = [
    ("concentrate", 2, 14),
    ("dilute", 2, 14),
    ("mregs-bounds", 3, 1),
    ("mregs-bounds", 4, 1),
    ("coeffs-feasible", 5, 23),
    ("coeffs-infeasible", 5, 22),
    ("mregs-bounds", 5, 1),
    ("concentrate", 3, 11),
    ("coeffs-feasible", 6, 8),
    ("coeffs-infeasible", 6, 6),
    ("mregs-bounds", 7, 1),
    ("concentrate-large", 3, 1),
    ("r21-table", 0, 1),
    ("mregs-bounds", 6, 1),
]

# copies per size class; large n is where type-class counting costs
_COPIES = {("concentrate", 2): 200, ("dilute", 2): 200, ("concentrate", 3): 100, ("concentrate-large", 3): 200}
_TWO_WAY = ["3/4,1/4", "2/3,1/3", "3/5,2/5", "4/5,1/5", "5/8,3/8", "7/10,3/10"]
_THREE_WAY = ["1/2,1/3,1/6", "1/2,1/4,1/4", "3/5,1/5,1/5", "2/5,2/5,1/5", "1/3,1/3,1/3"]


def _generator_set(ek, workdir: str, m: int, rng: np.random.Generator) -> list[tuple[str, tuple]]:
    """All EPR pairs, one 3-cat and one 4-cat, each saved as a state file.

    A single 3-cat gives the rows a one-dimensional kernel (two copies of a
    3-cat carry the entropy of its three EPR pairs)."""
    gens = []
    for i, j in itertools.combinations(range(m), 2):
        path = os.path.join(workdir, f"gen{m}_epr_{i}{j}.json")
        ek.save_state(ek.epr_between(m, i, j), path)
        gens.append((path, ("epr", i, j)))
    for k in (3, 4):
        members = tuple(sorted(int(p) for p in rng.choice(m, k, replace=False)))
        path = os.path.join(workdir, f"gen{m}_cat_{''.join(map(str, members))}.json")
        ek.save_state(ek.embedded_cat(m, members), path)
        gens.append((path, ("cat", members)))
    return gens


def _family_state(ek, m: int, spec: tuple):
    if spec[0] == "epr":
        return ek.epr_between(m, spec[1], spec[2])
    if spec[0] == "cat":
        return ek.embedded_cat(m, spec[1])
    return ek.codeword5()


def setup_exact(ek, workdir: str, seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 3])
    gen_sets = {m: _generator_set(ek, workdir, m, rng) for m in (5, 6)}
    jobs = []
    for kind, size, count in EXACT:
        label = f"{kind} {size}"
        for n_job in range(count):
            if kind == "mregs-bounds":
                jobs.append(
                    Job(
                        label,
                        [kind, "--m", str(size), "--format", "csv"],
                        None,
                        lambda out, ek, m=size: oracles.check_mregs(out, m, ek.mregs_lower_bound(m)),
                    )
                )
            elif kind == "r21-table":
                jobs.append(_cli(label, [kind], oracles.check_r21))
            elif kind.startswith("coeffs"):
                m, gens = size, gen_sets[size]
                feasible = kind == "coeffs-feasible"
                if feasible:
                    picks = rng.choice(len(gens), 2, replace=False)
                    target = ("product",) + tuple(gens[int(p)][1] for p in picks)
                    state = _family_state(ek, m, target[1])
                    state = ek.tensor(state, _family_state(ek, m, target[2]), list(range(m)))
                else:
                    # a k-cat on parties no generator cat covers exactly,
                    # or the 5-party codeword
                    held = {spec[1] for _, spec in gens if spec[0] == "cat"}
                    options = [
                        ("cat", c)
                        for k in range(4, m + 1)
                        for c in itertools.combinations(range(m), k)
                        if c not in held
                    ]
                    if m == 5:
                        options.append(("codeword5",))
                    target = options[int(rng.integers(len(options)))]
                    state = _family_state(ek, m, target)
                path = os.path.join(workdir, f"target{m}_{kind}_{n_job}.json")
                ek.save_state(state, path)
                argv = ["coeffs", "--gens", *[p for p, _ in gens], "--target", path]
                jobs.append(
                    _cli(label, argv, lambda o, m=m, g=gens, t=target, f=feasible: oracles.check_coeffs(o, m, g, t, f))
                )
            else:
                n = _COPIES[(kind, size)]
                choices = _TWO_WAY if size == 2 else _THREE_WAY
                text = choices[int(rng.integers(len(choices)))]
                probs = [Fraction(x) for x in text.split(",")]
                if kind == "dilute":
                    k = int(rng.integers(n // 4, n // 2))
                    argv = ["dilute", "--n", str(n), "--k", str(k), "--coeffs", text]
                    jobs.append(_cli(label, argv, lambda o, p=probs, n=n, k=k: oracles.check_dilute(o, p, n, k)))
                else:
                    argv = ["concentrate", "--n", str(n), "--coeffs", text]
                    jobs.append(_cli(label, argv, lambda o, p=probs, n=n: oracles.check_concentrate(o, p, n)))
    return jobs


# timed set-ups per run; cheap ones repeat more for a steadier median, and
# a fixed count keeps peak RSS (each repeat re-imports entkit) the same
SETUP_REPEATS = {"spectra": 9, "branches": 3, "exact": 9}

WORKLOADS = {
    "spectra": setup_spectra,
    "branches": setup_branches,
    "exact": setup_exact,
}
