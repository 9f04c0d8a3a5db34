"""The command-line surface: every subcommand, both formats, exit codes,
and byte-identical reruns."""
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import MALFORMED_PROTOCOLS, MALFORMED_STATES

from entkit.cli import _emit_csv, _emit_text_table, _fmt, main


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


def _reference_fmt(value):
    """The isinstance-chain cell formatter that the type table replaced."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _reference_emit_csv(rows):
    """The per-cell CSV emitter that the column-wise one replaced."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for row in rows:
        writer.writerow([_reference_fmt(x) for x in row])


def _reference_emit_text_table(rows):
    """The per-cell text emitter that the column-wise one replaced."""
    text = [[_reference_fmt(x) for x in row] for row in rows]
    widths = [
        max(len(row[c]) for row in text if c < len(row))
        for c in range(max(len(r) for r in text))
    ]
    for row in text:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _mixed_table(body_rows):
    """A header and `body_rows` rows whose columns are each of one plain
    type, of numpy floats, of mixed types, or of text that CSV must quote."""
    rows = [["flag", "x", "n", "np", "frac", "mixed", "text", "", "last"]]
    for i in range(body_rows):
        rows.append(
            [
                i % 3 == 0,
                1 / (i + 3),
                i - 5,
                np.float64(i / 7),
                Fraction(i, 4),
                (Fraction(i, 6), i, i / 9, True, "x", np.float64(i))[i % 6],
                ("", "a,b", 'say "hi"', "two words", "x\ny")[i % 5],
                "",
                "" if i % 2 else "end ",
            ]
        )
    # past the first CSV block the float column turns into Fractions
    for i, row in enumerate(rows[1030:], 1030):
        row[1] = Fraction(1, i)
    return rows


@pytest.mark.parametrize("body_rows", [0, 1, 2, 7, 1023, 1024, 1025, 2500])
@pytest.mark.parametrize(
    "emit, reference",
    [(_emit_csv, _reference_emit_csv), (_emit_text_table, _reference_emit_text_table)],
)
def test_column_wise_emitters_match_the_per_cell_ones(capsys, emit, reference, body_rows):
    rows = _mixed_table(body_rows)
    reference(rows)
    want = capsys.readouterr().out.split("\n")
    emit(rows)
    got = capsys.readouterr().out.split("\n")
    # the first differing line, not a diff of thousands
    assert next(((i, a, b) for i, (a, b) in enumerate(zip(got, want)) if a != b), None) is None
    assert len(got) == len(want)


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


# SHA-256 of stdout before the column-wise formatter; the coefficient sets
# are perfbench's two- and three-letter sets
STDOUT_SHA256 = {
    "concentrate --n 100 --coeffs 3/4,1/4 --format csv": "b69fcf932998dcee1e6beb7061c42e91e5a65f2fcc823d4da3377923d28b66c0",
    "concentrate --n 100 --coeffs 3/4,1/4 --format text": "b22610a012a5c68fe64f1e2048e5be47bdf1bca77ad5ebd174e418fc31faa1f1",
    "concentrate --n 200 --coeffs 3/4,1/4 --format csv": "20c46e66ed15af9ca2b7b93a3c3d856f728b27191cead5321b96752842485205",
    "concentrate --n 200 --coeffs 3/4,1/4 --format text": "4fe319c466323bedc4a527b0eed3a517d3fce1ddba9d7ff5d18bbf17387828dc",
    "dilute --n 200 --k 60 --coeffs 3/4,1/4 --format csv": "cb5024e7ce0e23407cc2d06dab57ba746d2ddd25a4709cf6176f39f9aba631d7",
    "dilute --n 200 --k 60 --coeffs 3/4,1/4 --format text": "3f312a1d27c6eebd5052fdc5be71a0adf2304a6cdfdbac2a2e196edcd569c6d4",
    "concentrate --n 100 --coeffs 2/3,1/3 --format csv": "ef37dec285509e3554fd374328e351d83f6a292c1befd90108e0dcd9abb5cc34",
    "concentrate --n 100 --coeffs 2/3,1/3 --format text": "ac69a93fbc086bcc7787c490e4eb77684c177b7c42e31bbe40248c7147d1a2df",
    "concentrate --n 200 --coeffs 2/3,1/3 --format csv": "8aa7d7c2634956ef15a1cce37c46234a162e35680e9b2906e07d2cf2ce112d55",
    "concentrate --n 200 --coeffs 2/3,1/3 --format text": "be5720429edb3d4f08fd93cd9704193d400e4e1767f5f2324ca1749c501132aa",
    "dilute --n 200 --k 60 --coeffs 2/3,1/3 --format csv": "c56b649314e830db8561912e793c74d7db07856c1a8c715baa4bb091a9605248",
    "dilute --n 200 --k 60 --coeffs 2/3,1/3 --format text": "09ce3b2bc4e4819118db237a61d96673bc3c950793c786c7191c0aad95dcf8f7",
    "concentrate --n 100 --coeffs 3/5,2/5 --format csv": "85e8a1160110493e2575569172348795d062cd5fe63d171e1126fe199cb8a78e",
    "concentrate --n 100 --coeffs 3/5,2/5 --format text": "4074bddfd94069ee23f7f30c9b83b79cb3a7ef2a882c6ac3c3a7ef11c542f3e6",
    "concentrate --n 200 --coeffs 3/5,2/5 --format csv": "e29ca866f508395a9abc5d6d29a8cfc314a3d93788fecf714ffed8b5dd477886",
    "concentrate --n 200 --coeffs 3/5,2/5 --format text": "63f34f694cd767db25117950178c4e9d93a213b7b7f361366d6914ef5afee903",
    "dilute --n 200 --k 60 --coeffs 3/5,2/5 --format csv": "fd9243079dc4b5a79823908b3ff8539f0800008352d14b0d117a7158eb16445a",
    "dilute --n 200 --k 60 --coeffs 3/5,2/5 --format text": "c7f3b40d6135f0c1906251558ef6a94e243790183805a13e8cbc287ccfe4c8a5",
    "concentrate --n 100 --coeffs 4/5,1/5 --format csv": "c6a8349bec6d46430f7be821d30b6307be07b9677d1753651964157533b7e1b5",
    "concentrate --n 100 --coeffs 4/5,1/5 --format text": "0e519f1276ef75a7f0d6306b7e49843cfe0cc7140a6d47fe91344e27ea939905",
    "concentrate --n 200 --coeffs 4/5,1/5 --format csv": "953cb92080f870b308b86f32334d97dccb354422e1724176700a99c40af1149f",
    "concentrate --n 200 --coeffs 4/5,1/5 --format text": "350cb719aa432eefa857d611b02b62608b4cd65ad12105765d6456b66262475d",
    "dilute --n 200 --k 60 --coeffs 4/5,1/5 --format csv": "f0a26a5c6eaf7f44d56d9f2152d02872061a2ce74afc54b004b9c18676fa09ed",
    "dilute --n 200 --k 60 --coeffs 4/5,1/5 --format text": "462d38a47b9d4e5d3fccf0a2584be46a12020aee43d0cd588994a59f60e39f2f",
    "concentrate --n 100 --coeffs 5/8,3/8 --format csv": "e0773baa79861ca9d93fc34387c6c52f3a06dc82008c6989ed227e97be316d24",
    "concentrate --n 100 --coeffs 5/8,3/8 --format text": "864c82444a1f3fa65952363b4dad4591a2582d32a61471f2f47afc5fc23f332e",
    "concentrate --n 200 --coeffs 5/8,3/8 --format csv": "aca10fc71ef7eee6fae493843b93f66edbb46055db4c238b9a26b9ad48584b28",
    "concentrate --n 200 --coeffs 5/8,3/8 --format text": "bf4c8c12a5071d5525d4f94d85bca08a6b7f56b14047a3a21bccc9fb18404529",
    "dilute --n 200 --k 60 --coeffs 5/8,3/8 --format csv": "3f1e16604281ce50ba39df29d6dba0a3aca4c9476652def997780df7ce53a638",
    "dilute --n 200 --k 60 --coeffs 5/8,3/8 --format text": "8d53916d9983668b7d3c56d84120c3130e814b7a18f31c3d523655e32f4db315",
    "concentrate --n 100 --coeffs 7/10,3/10 --format csv": "8f351fc72e9303f58ea9177efb88333b569664a360a0b166dac6e203321075fa",
    "concentrate --n 100 --coeffs 7/10,3/10 --format text": "9526df1c331e7f69e9ebed5d39748ca30c3ac3744481a70b01aef3601fd6a70e",
    "concentrate --n 200 --coeffs 7/10,3/10 --format csv": "8b41afcd8cb7299050a639f83cc84776184be16f7b89dc97b2ab3bdcd7aca299",
    "concentrate --n 200 --coeffs 7/10,3/10 --format text": "a59a0f66116b2a4869cc1c85cc1c127d268c36c07732fdb4ad27f2138597823a",
    "dilute --n 200 --k 60 --coeffs 7/10,3/10 --format csv": "38dce2949a808bb93b6f69123ff9ef84ec40fa4e3dccbd60f5f3f91c1fee4650",
    "dilute --n 200 --k 60 --coeffs 7/10,3/10 --format text": "d9b975c0b8fafc998d0cc7da926a503203c6b5b3aee7ca55dd46b26f849aeba9",
    "concentrate --n 100 --coeffs 1/2,1/3,1/6 --format csv": "462ccc677d49f64cfc7b626d0f322f4132c1c59b68fdb115fc8b86810c3be673",
    "concentrate --n 100 --coeffs 1/2,1/3,1/6 --format text": "5b9c246fd7d1cf8a71b9f6767308af90df20eec7755c932d913cf50ad002e834",
    "concentrate --n 200 --coeffs 1/2,1/3,1/6 --format csv": "b56c37ba0968f88036194bed92c7e9f2810505e6d945696182ad9984e317fdb9",
    "concentrate --n 200 --coeffs 1/2,1/3,1/6 --format text": "56b766fbe2bcc736dae4d154cc2dc7e491d31bb69a474011d7bb6796f6b98ac4",
    "dilute --n 200 --k 60 --coeffs 1/2,1/3,1/6 --format csv": "3b0e0c6bb9e9baa86e8094d619a5e96226427879d3a008a34e317b8c438594a9",
    "dilute --n 200 --k 60 --coeffs 1/2,1/3,1/6 --format text": "462d47052191736f87cd89a91cf7b037275eac89ea0cd40ef9d7562c7b32ee37",
    "concentrate --n 100 --coeffs 1/2,1/4,1/4 --format csv": "3417d33cdda10af8dcc9c3f60aba563d9c9595aaec26840cb64f892bb2695dc9",
    "concentrate --n 100 --coeffs 1/2,1/4,1/4 --format text": "3f694de607aaf28b8e198fad2941036146e5cf8e28fbfab1198fa87073a1eeb6",
    "concentrate --n 200 --coeffs 1/2,1/4,1/4 --format csv": "fcc21feb47933a2a3174ffb735e4c78a81095604b350aeacd572f7decf82031b",
    "concentrate --n 200 --coeffs 1/2,1/4,1/4 --format text": "8dc3169ff956e1babe94d54e2e4276e7b2f2937a770e7a5cead3636689cd0ce0",
    "dilute --n 200 --k 60 --coeffs 1/2,1/4,1/4 --format csv": "25c829fd7ebfce73bf20621abf88efa432d76fa02328b4f6c2ffa1d8f48c3f76",
    "dilute --n 200 --k 60 --coeffs 1/2,1/4,1/4 --format text": "8b1fb56a2e352958ed3a001ee7f7f686c1e03cde466bbeec488aaebcf355673e",
    "concentrate --n 100 --coeffs 3/5,1/5,1/5 --format csv": "189cddd68103b615815f174bfa5231202222578dd45c95e7b7d6d04e50beb32d",
    "concentrate --n 100 --coeffs 3/5,1/5,1/5 --format text": "5f42c367c45f6e122039e1dd406c94ed07e57ab03ba712842d7bf92caa304952",
    "concentrate --n 200 --coeffs 3/5,1/5,1/5 --format csv": "9dd44810b30eb0513c9c49041b987b11ca6b7ec01e2f4616677c221359725a1a",
    "concentrate --n 200 --coeffs 3/5,1/5,1/5 --format text": "a58ddd2eca9b706b5c7b742eb5c634efec09045d9364b3bdb6058d2e651f7d65",
    "dilute --n 200 --k 60 --coeffs 3/5,1/5,1/5 --format csv": "2b30e312f8097d19c8b8f198445a1c3882486e5a75a99b206c5eb70473c40df1",
    "dilute --n 200 --k 60 --coeffs 3/5,1/5,1/5 --format text": "34856f3cde06284adf128d70aac64df3f9bdf39aca43517b9a3b23e5b584ca7f",
    "concentrate --n 100 --coeffs 2/5,2/5,1/5 --format csv": "096bc25f3800a78a86daf62c13d2bc07c0ec7c233c1505676714cacdc69c6333",
    "concentrate --n 100 --coeffs 2/5,2/5,1/5 --format text": "60fb352d483c026f552e44ff64413dd4aa12a12d19af577f813fcc7c21c5bb93",
    "concentrate --n 200 --coeffs 2/5,2/5,1/5 --format csv": "6ad7c4b4fb252a66cf34dd991a97c1fbe701e04bbff6dd079bcf506fe12a18f8",
    "concentrate --n 200 --coeffs 2/5,2/5,1/5 --format text": "64b6b24be10bb86a1c0062bc95e64649279d3b055b20716b6221b1718a1352e4",
    "dilute --n 200 --k 60 --coeffs 2/5,2/5,1/5 --format csv": "ddf4acc1740f89dcecffea0e37c473831edec0ce9ab9033541e07f78f07297c8",
    "dilute --n 200 --k 60 --coeffs 2/5,2/5,1/5 --format text": "863d17ff9d709a128bc021e5398f963eea105e139dc5afe1886e8c3f96ad45bb",
    "concentrate --n 100 --coeffs 1/3,1/3,1/3 --format csv": "f34979f3c00ee988067aa1a126608144da66be1eb8d0ea9995e7ab3238c52c07",
    "concentrate --n 100 --coeffs 1/3,1/3,1/3 --format text": "bd769819d1a7a2259f1d1b830d1e8009d5ec2c929b5c987ad48314cc9ee5738b",
    "concentrate --n 200 --coeffs 1/3,1/3,1/3 --format csv": "37983a1183a454808c1250b5c5e4f9bcc3102838e053070dae3c9f01890b78cc",
    "concentrate --n 200 --coeffs 1/3,1/3,1/3 --format text": "cde43b1fa25c36eb7e48309387ef4cb0749d7fdd604ac5114ee270e93bbb9616",
    "dilute --n 200 --k 60 --coeffs 1/3,1/3,1/3 --format csv": "51ca6b90ef399414263aa5c5b1e05d1bf66488adcf13cc506b81eedd093a49af",
    "dilute --n 200 --k 60 --coeffs 1/3,1/3,1/3 --format text": "8fbaaf93be230770a9a44a7ab6da35b5c016587c21e740b54c4783fac0140a95",
    "concentrate --n 400 --coeffs 9/10,1/10 --format csv": "96de77c845492f485c1bd6d513ff9d890157d1c0d4d008418c2671dee71be7dc",
    "concentrate --n 400 --coeffs 9/10,1/10 --format text": "07ddb186dbf4d38c149925304a02656df9d735595cc374dd8b4f7b8042c1955c",
}


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256))
def test_type_class_tables_are_byte_identical(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


@pytest.mark.parametrize(
    "argv",
    [
        ("concentrate", "--n", "1050", "--coeffs", "1/2,1/2"),
        ("concentrate", "--n", "3000", "--coeffs", "9/10,1/10"),
        ("concentrate", "--n", "1100", "--coeffs", "1/2,1/2"),
        ("dilute", "--n", "1050", "--k", "1049", "--coeffs", "1/2,1/2"),
        ("dilute", "--n", "1100", "--k", "1099", "--coeffs", "1/2,1/2", "--format", "csv"),
    ],
)
def test_copies_past_the_float_range_are_one_error_line(capsys, argv):
    result = run_cli(capsys, *argv)
    assert_one_error_line(*result, f"n = {argv[2]} is past the float range")


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ("1/0,1", "coefficient '1/0' divides by zero"),
        ("1e400,1", "coefficient '1e400' is beyond the float range"),
        ("1/2,half", "Invalid literal for Fraction: 'half'"),
    ],
)
@pytest.mark.parametrize("command", [("concentrate",), ("dilute", "--k", "2")])
def test_bad_coefficients_are_one_error_line(capsys, command, coeffs, message):
    result = run_cli(capsys, *command, "--n", "4", "--coeffs", coeffs)
    assert_one_error_line(*result, message)


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


@pytest.mark.parametrize(
    "gens, target, message",
    [
        (["epr(a,b,3)", "epr(a,c,3)"], "cat4", "a 4-party state where 3 parties"),
        (["cat4"], "epr", "a 2-party state where 4 parties"),
    ],
)
def test_coeffs_target_on_other_parties_is_one_error_line(capsys, gens, target, message):
    result = run_cli(capsys, "coeffs", "--gens", *gens, "--target", target)
    assert_one_error_line(*result, message)


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


def test_one_parser_per_process(capsys, monkeypatch, tmp_path):
    import entkit.cli as cli
    from entkit.protocols import cat_to_epr, save_protocol

    proto = str(tmp_path / "p.json")
    save_protocol(cat_to_epr(3, 0, 1), proto)
    runs = [
        ("entropy-table", "--state", "ghz", "--format", "csv"),
        ("r21-table",),
        ("frobnicate",),  # usage error, exit 2
        ("schmidt", "--state", "cat4"),
        ("classify", "--a", "2ghz", "--b", "3epr"),
        ("--help",),  # exit 0
        ("ghz-epr-witness", "--format", "csv"),
        ("run-protocol", "--state", "cat3", "--protocol", proto, "--target", "cat3"),
        ("entropy-table",),  # missing flag, exit 2
        ("concentrate", "--n", "4", "--coeffs", "3/4,1/4"),
        ("dilute", "--n", "2", "--k", "1", "--coeffs", "3/4,1/4", "--format", "csv"),
        ("schmidt", "--help"),
        ("coeffs", "--gens", "epr(a,b,3)", "epr(b,c,3)", "epr(a,c,3)", "--target", "ghz"),
        ("mregs-bounds", "--m", "4", "--format", "csv"),
        ("egs-check", "--state", "cat3"),
    ]
    cli._build_parser.cache_clear()
    shared = [run_cli(capsys, *argv) for argv in runs]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared].count(2) == 2
    assert [code for code, _, _ in shared].count(0) == len(runs) - 2

    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [run_cli(capsys, *argv) for argv in runs]
    for argv, got, want in zip(runs, shared, fresh):
        assert got == want, argv
