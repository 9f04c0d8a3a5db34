"""Tests of the benchmark itself: failure counting, seeded inputs, tracing.

    python3 -m pytest perfbench/test_perfbench.py
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def exact_jobs(tmp_path_factory):
    ek = run.import_entkit()
    workdir = tmp_path_factory.mktemp("exact")
    jobs = workloads.setup_exact(ek, str(workdir), 7)
    return ek, jobs


def _first(jobs, label):
    return next(i for i, job in enumerate(jobs) if job.label == label)


def test_corrupted_output_is_a_failed_job(exact_jobs):
    ek, jobs = exact_jobs
    cli = sys.modules["entkit.cli"]
    index = _first(jobs, "concentrate 2")
    good, error = run.execute(jobs[index], ek, cli)
    assert error is None
    changed = good.replace("0.", "0.9", 1)
    records = [
        (index, 0.01, 0.01, good, None),
        (index, 0.01, 0.01, good, None),
        (index, 0.01, 0.01, changed, None),  # repeat that differs from the first
        (index, 0.01, 0.01, None, "exit status 1: error: boom"),
    ]
    failures = run.check_records(records, jobs, ek)
    assert [reason for _, reason in failures] == [
        "output differs from an earlier repeat",
        "exit status 1: error: boom",
    ]
    # a wrong first output fails its oracle, and so does every identical repeat
    failures = run.check_records([(index, 0.01, 0.01, changed, None)] * 2, jobs, ek)
    assert len(failures) == 2 and failures[0][1].startswith("oracle:")
    # output the oracle cannot even parse is counted, not raised
    failures = run.check_records([(index, 0.01, 0.01, "garbage\n", None)], jobs, ek)
    assert len(failures) == 1


def test_a_raising_job_is_counted(exact_jobs):
    ek, jobs = exact_jobs
    job = workloads.Job("broken", None, lambda ek: 1 / 0, lambda out, ek: None)
    records, _ = run.run_rounds([job], ek, rounds=2)
    failures = run.check_records(records, [job], ek)
    assert len(failures) == 2 and "ZeroDivisionError" in failures[0][1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(workload, tmp_path):
    ek = run.import_entkit()
    hashes = {}
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        directory = tmp_path / name
        directory.mkdir()
        workloads.WORKLOADS[workload](ek, str(directory), seed)
        hashes[name] = run.tree_hash(directory)
    assert hashes["a"] == hashes["b"]
    assert hashes["a"] != hashes["c"]


def test_tracer_reports_names_it_cannot_find(monkeypatch):
    ek = run.import_entkit()
    linalg = sys.modules["entkit.linalg"]
    monkeypatch.delattr(linalg, "hermitian_eigenvalues")
    monkeypatch.setattr(linalg, "__all__", ["hermitian_eigensystem"])
    spans = tracer.Tracer()
    spans.install()
    try:
        assert ek.entropy_vector(ek.cat_state(3)) is not None
    finally:
        spans.uninstall()
    assert "linalg.hermitian_eigenvalues" in spans.missing
    metrics = spans.metrics(1.0, 1.0, 1, 0)
    assert "linalg.calls" not in metrics
    assert "linalg.self_s" in metrics and "entropy.cuts" in metrics


def test_self_times_add_up_to_the_traced_wall():
    run.import_entkit()
    job = workloads.Job("table", ["entropy-table", "--state", "cat4", "--format", "csv"], None, None)
    spans = tracer.Tracer()
    spans.install()
    try:
        records, _ = run.run_rounds([job], None, rounds=3)
    finally:
        spans.uninstall()
    assert all(error is None for *_, error in records)
    wall = sum(r[1] for r in records)
    metrics = spans.metrics(wall, wall, 3, 0)
    layers = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracer.LAYERS)
    assert metrics["trace.unattributed_s"]["value"] >= 0
    assert layers + metrics["trace.unattributed_s"]["value"] == pytest.approx(wall / 3)
    assert metrics["entropy.vector.calls"]["value"] == 1
    assert metrics["builders.parse.calls"]["value"] == 1
