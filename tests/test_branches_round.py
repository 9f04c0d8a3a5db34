"""One round of perfbench's `branches` jobs at a fixed seed: every protocol
file the round writes is loaded, checked and run the way the benchmark runs
it, and each output goes through the benchmark's own oracle."""
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import entkit
from entkit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # `workloads` imports `oracles` by its bare name
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_one_branches_round(tmp_path, monkeypatch):
    _load("oracles", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    jobs = workloads.setup_branches(entkit, str(tmp_path), 7)
    assert {job.label for job in jobs} == {f"{kind} {m}" for kind, m, _ in workloads.BRANCHES}
    for job in jobs:
        if job.argv is None:
            output = job.call(entkit)
        else:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert cli.main(job.argv) == 0, (job.label, err.getvalue())
            output = out.getvalue()
        job.check(output, entkit)
