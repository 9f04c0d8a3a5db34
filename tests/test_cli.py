"""The command-line surface: every subcommand, both formats, exit codes,
and byte-identical reruns."""
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import MALFORMED_PROTOCOLS, MALFORMED_STATES

from entkit.cli import _fmt, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(3), "3"),
        (Fraction(-6, 4), "-3/2"),
        (True, "yes"),
        (False, "no"),
        (7, "7"),
        (0.1, "0.1"),
        (1 / 3, "0.333333333333"),
        (np.float64(2 / 3), "0.666666666667"),
        (np.float64(1e-20), "1e-20"),
        ("A;B", "A;B"),
    ],
)
def test_fmt_cells(value, text):
    assert _fmt(value) == text


def test_entropy_table_ghz(capsys):
    code, out, _ = run_cli(capsys, "entropy-table", "--state", "ghz", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "partition,entropy_bits"
    assert lines[1:] == ["A,1", "B,1", "C,1"]


def test_r21_table_exact_rows(capsys):
    code, out, _ = run_cli(capsys, "r21-table", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "num_parties,state,r21"
    assert "4,6 eprs,4/3" in lines
    assert "5,codeword5,2" in lines
    assert "6,15 eprs,8/5" in lines
    assert len(lines) == 10


def test_schmidt_bipartite(capsys):
    code, out, _ = run_cli(capsys, "schmidt", "--state", "epr", "--format", "csv")
    assert code == 0
    assert "0,0.707106781187,0.5" in out


def test_schmidt_multiparty(capsys):
    code, out, _ = run_cli(capsys, "schmidt", "--state", "cat4")
    assert code == 0
    assert "decomposable: yes" in out


def test_classify_verdict(capsys):
    code, out, _ = run_cli(capsys, "classify", "--a", "2ghz", "--b", "3epr")
    assert code == 0
    assert "Incomparable" in out


def test_witness_text(capsys):
    code, out, _ = run_cli(capsys, "ghz-epr-witness")
    assert code == 0
    assert "verdict: Incomparable" in out


def test_witness_csv(capsys):
    code, out, _ = run_cli(capsys, "ghz-epr-witness", "--format", "csv")
    assert code == 0
    assert "eprs_bc_ppt_eigenvalue,-0.5" in out


def test_run_protocol(capsys, tmp_path):
    from entkit.protocols import cat_to_epr, save_protocol

    path = str(tmp_path / "p.json")
    save_protocol(cat_to_epr(3, 0, 1), path)
    code, out, _ = run_cli(
        capsys, "run-protocol", "--state", "cat3", "--protocol", path, "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "transcript,probability"
    assert len(lines) == 3


def test_invalid_protocol_is_domain_error(capsys, tmp_path):
    from entkit.protocols import hadamard_projectors, protocol_to_list, LocalMeasurement

    plus, _ = hadamard_projectors()
    path = tmp_path / "p.json"
    path.write_text(json.dumps(protocol_to_list([LocalMeasurement(0, (plus,), ("+",))])))
    code, out, err = run_cli(capsys, "run-protocol", "--state", "epr", "--protocol", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_internal_fault_exits_3(capsys, monkeypatch):
    import sys

    monkeypatch.setattr(sys.modules["entkit.reducibility"], "_npt_cross_pair", lambda *a: None)
    code, out, err = run_cli(capsys, "ghz-epr-witness")
    assert code == 3
    assert out == ""
    assert "expected a distillable pair" in err


def test_run_protocol_with_target(capsys, tmp_path):
    from entkit.protocols import eprs_to_cat, eprs_to_cat_input, save_protocol
    from entkit.states import save_state

    proto = str(tmp_path / "p.json")
    start = str(tmp_path / "in.json")
    save_protocol(eprs_to_cat(3, 0), proto)
    save_state(eprs_to_cat_input(3, 0), start)
    code, out, _ = run_cli(
        capsys,
        "run-protocol",
        "--state",
        start,
        "--protocol",
        proto,
        "--target",
        "cat3",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "transcript,probability,fidelity"
    assert len(lines) == 17
    assert all(line.endswith(",1") for line in lines[1:])


def test_run_protocol_text_scores_each_branch_once(capsys, monkeypatch, tmp_path):
    import entkit.protocols
    from entkit.protocols import cat_to_epr, save_protocol

    calls = []
    original = entkit.protocols.fidelity

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(entkit.protocols, "fidelity", counting)
    path = str(tmp_path / "p.json")
    save_protocol(cat_to_epr(5, 0, 1), path)
    code, out, _ = run_cli(
        capsys, "run-protocol", "--state", "cat5", "--protocol", path, "--target", "cat5"
    )
    assert code == 0
    assert "expected fidelity:" in out
    assert len(calls) == 8  # one per branch


def assert_one_error_line(code, out, err, message):
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("payload, message", MALFORMED_PROTOCOLS)
def test_malformed_protocol_file_is_one_error_line(capsys, tmp_path, payload, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload))
    result = run_cli(capsys, "run-protocol", "--state", "epr", "--protocol", str(path))
    assert_one_error_line(*result, message)


@pytest.mark.parametrize("payload, message", MALFORMED_STATES)
def test_malformed_state_file_is_one_error_line(capsys, tmp_path, payload, message):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(payload))
    result = run_cli(capsys, "entropy-table", "--state", str(path))
    assert_one_error_line(*result, message)


def test_malformed_files_exit_1_from_the_console(tmp_path):
    proto = tmp_path / "p.json"
    proto.write_text(json.dumps([{"type": "discard", "party": 0, "factor_dims": [2]}]))
    state = tmp_path / "s.json"
    state.write_text(json.dumps({"dims": [2, 2], "terms": [{"re": 1.0}]}))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, message in (
        (["run-protocol", "--state", "epr", "--protocol", str(proto)], "protocol step 0 (discard): missing field 'discard'"),
        (["entropy-table", "--state", str(state)], "state term 0: missing field 'basis'"),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "entkit.cli", *argv], capture_output=True, text=True, env=env
        )
        assert_one_error_line(done.returncode, done.stdout, done.stderr, message)


def test_concentrate(capsys):
    code, out, _ = run_cli(
        capsys, "concentrate", "--n", "2", "--coeffs", "3/4,1/4", "--format", "csv"
    )
    assert code == 0
    assert "1:1,0.375,1,1" in out


def test_dilute(capsys):
    code, out, _ = run_cli(
        capsys, "dilute", "--n", "2", "--k", "1", "--coeffs", "3/4,1/4", "--format", "csv"
    )
    assert code == 0
    assert "2,1,2,0.75" in out


def test_dilute_enumerates_type_classes_once(capsys, monkeypatch):
    import sys

    calls = []
    original = sys.modules["entkit.schmidt"].dilution_retained_types

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in ("entkit.schmidt", "entkit.cli"):
        monkeypatch.setattr(sys.modules[module], "dilution_retained_types", counting)
    code, out, _ = run_cli(capsys, "dilute", "--n", "6", "--k", "3", "--coeffs", "2/3,1/3")
    assert code == 0
    assert len(calls) == 1


def test_concentrate_enumerates_type_classes_once(capsys, monkeypatch):
    import sys

    calls = []
    original = sys.modules["entkit.schmidt"].concentration_yield_distribution

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in ("entkit.schmidt", "entkit.cli"):
        monkeypatch.setattr(
            sys.modules[module], "concentration_yield_distribution", counting
        )
    code, out, _ = run_cli(capsys, "concentrate", "--n", "6", "--coeffs", "2/3,1/3")
    assert code == 0
    assert "expected yield:" in out
    assert len(calls) == 1


def test_coeffs_feasible(capsys):
    code, out, _ = run_cli(
        capsys,
        "coeffs",
        "--gens",
        "epr(a,b,3)",
        "epr(b,c,3)",
        "epr(a,c,3)",
        "--target",
        "ghz",
        "--format",
        "csv",
    )
    assert code == 0
    assert '"epr(a,b,3)",1/2' in out
    assert "unique,yes" in out


def test_coeffs_kernel(capsys):
    code, out, _ = run_cli(
        capsys,
        "coeffs",
        "--gens",
        "epr(a,b,3)",
        "epr(b,c,3)",
        "epr(a,c,3)",
        "ghz",
        "--target",
        "3epr",
        "--format",
        "csv",
    )
    assert code == 0
    assert "unique,no" in out
    assert "kernel_direction,1 1 1 -2" in out


def test_coeffs_infeasible(capsys):
    gens = [f"epr({i},{j},4)" for i in range(4) for j in range(i + 1, 4)]
    code, out, _ = run_cli(
        capsys, "coeffs", "--gens", *gens, "--target", "cat4", "--format", "csv"
    )
    assert code == 0
    assert "status,infeasible" in out
    assert "partition,weight" in out


def test_mregs_bounds(capsys):
    code, out, _ = run_cli(capsys, "mregs-bounds", "--m", "4", "--format", "csv")
    assert code == 0
    assert "bound,,7" in out


def test_egs_check(capsys):
    code, out, _ = run_cli(capsys, "egs-check", "--state", "cat3", "--format", "csv")
    assert code == 0
    assert "entangled_across_every_partition,yes" in out


def test_unknown_state_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "entropy-table", "--state", "no-such-state")
    assert code == 1
    assert "error:" in err


def test_non_finite_state_file_is_domain_error(capsys, tmp_path):
    path = tmp_path / "nan.json"
    terms = [
        {"basis": [0, 0], "re": float("nan"), "im": 0.0},
        {"basis": [1, 1], "re": 1.0, "im": 0.0},
    ]
    path.write_text(json.dumps({"dims": [2, 2], "terms": terms}))
    code, out, err = run_cli(capsys, "entropy-table", "--state", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: state vector has non-finite amplitudes (NaN or infinity)\n"


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert run_cli(capsys, "entropy-table")[0] == 2


def test_seed_flag_accepted_everywhere(capsys):
    code, out, _ = run_cli(
        capsys, "r21-table", "--seed", "7", "--format", "csv"
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("r21-table", "--format", "csv"),
        ("entropy-table", "--state", "codeword5", "--format", "csv"),
        ("ghz-epr-witness", "--format", "csv"),
        ("mregs-bounds", "--m", "5", "--format", "csv"),
        ("concentrate", "--n", "10", "--coeffs", "3/4,1/4", "--format", "csv"),
        ("classify", "--a", "ghz", "--b", "epr(a,b,3)", "--format", "csv"),
    ],
)
def test_reruns_byte_identical(capsys, argv):
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
