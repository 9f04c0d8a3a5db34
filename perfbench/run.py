#!/usr/bin/env python3
"""Benchmark entkit end to end on seeded jobs, one workload per process.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from its
`src/` directory. One client sends jobs in a closed loop: each job starts
when the previous one has finished. The loop repeats whole rounds of the
workload's job list until `--seconds` of job time have passed, at least
MIN_JOBS jobs have run and every job has run twice. Every output is
checked by an oracle that shares no numerics with entkit, outside the
timed region, and each job's output must be byte-identical on every
repeat. Times are scaled to a reference speed; see calibration_block().

`--trace 0` reports the end-to-end metrics. `--trace 1` runs some rounds
untraced, the same number again with spans around every public entkit
function, and reports per-layer metrics per round. The last line of
standard output is one JSON object; a fuller record, with versions, thread
pins, seed and input hash, goes to `.perfbench_work/results/`.
"""
import os

# BLAS and OpenMP read these once, when numpy loads
THREAD_PINS = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
MIN_JOBS = 100  # so the 90th percentile has at least ten samples beyond it
CAL_PER_SETUP = 10
# median seconds of calibration_block() on the reference host (2 cores,
# Python 3.11, numpy 2.4); times are reported at that speed
CAL_REF_S = 3.0e-3

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "cpu_per_job_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_entkit():
    """Import entkit afresh, so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "entkit" or n.startswith("entkit.")]:
        del sys.modules[name]
    importlib.import_module("entkit.cli")
    return importlib.import_module("entkit")


def tree_hash(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def set_up(workload: str, seed: int, workdir: Path):
    """Run the timed set-up the workload's number of times; every repeat
    must write the same bytes. Returns the package, the jobs, set-up times
    at reference speed and raw, and the hash of each repeat's files."""
    times, raw, hashes = [], [], []
    for _ in range(workloads.SETUP_REPEATS[workload]):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        before = [calibration_block() for _ in range(CAL_PER_SETUP)]
        start = time.perf_counter()
        ek = import_entkit()
        jobs = workloads.WORKLOADS[workload](ek, str(workdir), seed)
        elapsed = time.perf_counter() - start
        after = [calibration_block() for _ in range(CAL_PER_SETUP)]
        raw.append(elapsed)
        times.append(elapsed * CAL_REF_S / statistics.median(before + after))
        hashes.append(tree_hash(workdir))
    return ek, jobs, times, raw, hashes


_CAL_MATRIX = np.linspace(-1.0, 1.0, 64).reshape(8, 8)


def calibration_block() -> float:
    """Seconds taken by a fixed mix of the work entkit does: Fraction sums,
    small numpy row updates, JSON round trips, plain integer loops.

    On a shared host the same job can take half as long again for seconds
    at a time, while another tenant loads the core. Blocks timed just
    before and after a job see the same slowdown, so the job's time is
    divided by their median over CAL_REF_S: figures are reported at the
    reference speed, and the raw ones go to the result file."""
    start = time.perf_counter()
    for _ in range(2):
        acc = Fraction(0)
        for i in range(1, 120):
            acc += Fraction(1, i)
        a = _CAL_MATRIX + _CAL_MATRIX.T
        for p in range(7):
            for q in range(p + 1, 8):
                row = a[p, :].copy()
                a[p, :] = 0.8 * row - 0.6 * a[q, :]
                a[q, :] = 0.6 * row + 0.8 * a[q, :]
        json.loads(json.dumps([[[float(x), -float(x)] for x in a.ravel()]] * 4))
        total = 0
        for i in range(5000):
            total += i * i
    return time.perf_counter() - start


def execute(job, ek, cli):
    """Run one job; returns (output, error text or None)."""
    try:
        if job.argv is None:
            return job.call(ek), None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv)
        if code != 0:
            return None, f"exit status {code}: {err.getvalue().strip()}"
        return out.getvalue(), None
    except Exception:  # a job that raises is a failed job, not a failed run
        return None, traceback.format_exc(limit=3)


def run_rounds(jobs, ek, rounds=None, seconds=0.0, min_jobs=MIN_JOBS, min_rounds=2):
    """Closed loop over whole rounds: a fixed number, or until `seconds` of
    job time have passed, `min_jobs` have run and every job has run
    `min_rounds` times. A calibration block runs after each job, outside
    its timing.

    Returns (records, slowdowns); a record is (job index, wall seconds, CPU
    seconds, output, error), and slowdown k is the median of the two
    calibration blocks on each side of job k over CAL_REF_S."""
    cli = sys.modules["entkit.cli"]
    records, calibration = [], [calibration_block()]
    first: dict[int, object] = {}
    busy = 0.0
    done = 0
    while True:
        for index, job in enumerate(jobs):
            c0, t0 = time.process_time(), time.perf_counter()
            output, error = execute(job, ek, cli)
            t1, c1 = time.perf_counter(), time.process_time()
            if error is None:
                # keep one copy of a repeated output, so memory does not grow with rounds
                kept = first.setdefault(index, output)
                if kept is not output and _fingerprint(job, kept) == _fingerprint(job, output):
                    output = kept
            records.append((index, t1 - t0, c1 - c0, output, error))
            busy += t1 - t0
            calibration.append(calibration_block())
        done += 1
        if rounds is not None and done >= rounds:
            break
        if rounds is None and busy >= seconds and len(records) >= min_jobs and done >= min_rounds:
            break
    slowdowns = [
        statistics.median(calibration[max(0, k - 1) : k + 3]) / CAL_REF_S
        for k in range(len(records))
    ]
    return records, slowdowns


def _fingerprint(job, output):
    """What must repeat exactly: stdout text, or a library run's branches."""
    return output if job.argv is not None else oracles.run_digest(output)


def check_records(records, jobs, ek):
    """Oracle on each job's first output; repeats must match it exactly.

    Returns a list of (job label, reason) for every failed job."""
    first: dict[int, tuple] = {}
    failures = []
    for index, _, _, output, error in records:
        job = jobs[index]
        if error is not None:
            failures.append((job.label, error.strip().splitlines()[-1]))
            continue
        key = _fingerprint(job, output)
        if index not in first:
            try:
                job.check(output, ek)
                reason = None
            except oracles.Mismatch as exc:
                reason = f"oracle: {exc}"
            except Exception as exc:  # malformed output the oracle cannot parse
                reason = f"oracle could not read the output: {exc!r}"
            first[index] = (key, reason)
        elif key != first[index][0]:
            failures.append((job.label, "output differs from an earlier repeat"))
            continue
        if first[index][1] is not None:
            failures.append((job.label, first[index][1]))
    return failures


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def job_metrics(records, slowdowns) -> dict:
    """Throughput, latency percentiles and CPU per job, each job's times
    divided by its slowdown."""
    latencies = sorted(r[1] / f for r, f in zip(records, slowdowns))
    return {
        "jobs_per_s": len(records) / sum(latencies),
        "job_p50_ms": 1000 * percentile(latencies, 0.5),
        "job_p90_ms": 1000 * percentile(latencies, 0.9),
        "cpu_per_job_ms": 1000 * sum(r[2] / f for r, f in zip(records, slowdowns)) / len(records),
    }


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "thread_pins": THREAD_PINS,
        "seed": seed,
    }


def run_workload(args) -> int:
    if not (ROOT / "src" / "entkit" / "__init__.py").is_file():
        print(f"error: no entkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        ek, jobs, setup_times, setup_raw, hashes = set_up(args.workload, args.seed, workdir)
        gc.collect()
        gc.freeze()
        warm = {}
        for job in jobs:  # untimed: lazy imports and first calls, on the cheapest job per kind
            warm.setdefault(job.argv[0] if job.argv else "library", job)
        run_rounds(list(warm.values()), ek, rounds=1)

        if args.trace:
            records, _ = run_rounds(jobs, ek, seconds=args.seconds / 2, min_jobs=1, min_rounds=1)
            n_rounds = len(records) // len(jobs)
            spans = tracer.Tracer()
            spans.install()
            try:
                traced, _ = run_rounds(jobs, ek, rounds=n_rounds)
            finally:
                spans.uninstall()
            stdout_bytes = sum(len(r[3].encode()) for r in traced if isinstance(r[3], str))
            wall = sum(r[1] for r in traced)
            metrics = spans.metrics(wall, sum(r[1] for r in records), n_rounds, stdout_bytes)
            records += traced
            extra = {
                "wrapped": spans.wrapped,
                "missing": spans.missing,
                "rounds": n_rounds,
                "traced_job_s_per_round": wall / n_rounds,
            }
        else:
            records, slowdowns = run_rounds(jobs, ek, seconds=args.seconds)
            values = {
                "setup_s": statistics.median(setup_times),
                **job_metrics(records, slowdowns),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
            extra = {
                "rounds": len(records) // len(jobs),
                "samples": {"setup_s": len(setup_times), "jobs": len(records)},
                "raw": {
                    "setup_s": statistics.median(setup_raw),
                    **job_metrics(records, [1.0] * len(records)),
                },
                "slowdown_median": statistics.median(slowdowns),
                "class_ms": {
                    label: sorted(
                        round(1000 * r[1] / f, 3)
                        for r, f in zip(records, slowdowns)
                        if jobs[r[0]].label == label
                    )
                    for label in sorted({j.label for j in jobs})
                },
            }
        failures = check_records(records, jobs, ek)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not failures and len(set(hashes)) == 1
    result = {"correct": correct, "attempted": len(records), "failed": len(failures), "metrics": metrics}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "input_sha256": hashes[0],
        "setup_repeats_identical": len(set(hashes)) == 1,
        "setup_s_each": setup_times,
        "setup_s_each_raw": setup_raw,
        "jobs_per_round": len(jobs),
        "failures": failures[:20],
        **extra,
        **result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    for label, reason in failures[:10]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    if args.trace and extra["missing"]:
        print(f"trace: not found, metrics left out: {', '.join(extra['missing'])}", file=sys.stderr)
    if args.trace:
        print(f"{args.workload:9s} traced job time per round {extra['traced_job_s_per_round']:.6g} s"
              " = layer self times + trace.unattributed_s")
        samples = f"per round of {len(jobs)} jobs, {extra['rounds']} traced"
    else:
        samples = f"n={len(records)} jobs"
    for name, metric in metrics.items():
        n = f"n={len(setup_times)} set-ups" if name == "setup_s" else samples
        print(f"{args.workload:9s} {name:36s} {metric['value']:14.6g} {metric['unit']:6s} ({n})")
    print(f"{args.workload:9s} {'jobs_failed':36s} {len(failures):14d} {'count':6s} (of {len(records)} attempted)")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
        status = max(status, proc.returncode)
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
