import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coxanc
from coxanc import canonical_reduced_word
from coxanc.cli import EXIT_COUNTEREXAMPLE, EXIT_ERROR, EXIT_PASS, exit_code_for, main
from coxanc.verifier import ConjectureReport


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--spec", "A3", "--quiet")
    assert code == EXIT_PASS
    assert "A3: order 24" in out
    assert "conjecture1 PASS" in out and "conjecture2 PASS" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--spec", "A2", "--format", "json", "--quiet")
    assert code == EXIT_PASS
    data = json.loads(out)
    assert data["reports"][0]["spec"] == "A2"


def test_verify_csv_out_file(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "verify", "--spec", "B2", "--format", "csv", "--quiet", "--out", str(target)
    )
    assert code == EXIT_PASS
    assert target.read_text().splitlines()[0].startswith("spec,order")


def test_verify_not_finite_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--spec", "U2", "--quiet", "--root-cap", "100")
    assert code == EXIT_ERROR


def test_verify_root_cap_below_rank_is_exit_2(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--spec", "A3", "--root-cap", "1", "--format", "json", "--quiet"
    )
    assert code == EXIT_ERROR
    assert json.loads(out)["reports"][0]["error"].startswith("InvalidLimit")


def test_verify_finite_group_past_root_cap_is_invalid_limit(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--spec", "I2(7)", "--root-cap", "10", "--format", "json", "--quiet"
    )
    assert code == EXIT_ERROR
    error = json.loads(out)["reports"][0]["error"]
    assert error.startswith("InvalidLimit") and "finite" in error


@pytest.mark.parametrize("spec", ["U3", "I2(inf)", "triangle"])
def test_verify_infinite_group_is_not_finite(capsys, tmp_path, spec):
    if spec == "triangle":  # affine A2: a triangle of 3-bonds
        path = tmp_path / "triangle.cox"
        path.write_text("3\n3 3\n3\n")
        spec = f"file:{path}"
    code, out, _ = run_cli(capsys, "verify", "--spec", spec, "--format", "json", "--quiet")
    assert code == EXIT_ERROR
    assert json.loads(out)["reports"][0]["error"].startswith("NotFinite")


def test_verify_malformed_order_guard_env_is_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("COXANC_ORDER_GUARD", "abc")
    code, out, _ = run_cli(capsys, "verify", "--spec", "A2", "--format", "json", "--quiet")
    assert code == EXIT_ERROR
    assert json.loads(out)["reports"][0]["error"].startswith("InvalidLimit")


@pytest.mark.parametrize("command", ["verify", "element"])
def test_negative_order_guard_is_invalid_limit(capsys, command):
    args = ["--spec", "A3", "--order-guard", "-5"]
    if command == "verify":
        code, out, _ = run_cli(capsys, "verify", *args, "--format", "json", "--quiet")
        error = json.loads(out)["reports"][0]["error"]
    else:
        code, _, error = run_cli(capsys, "element", *args, "--word", "1,2")
    assert code == EXIT_ERROR
    assert "InvalidLimit" in error and "OrderGuardExceeded" not in error


def test_zero_order_guard_env_is_invalid_limit(capsys, monkeypatch):
    monkeypatch.setenv("COXANC_ORDER_GUARD", "0")
    code, out, _ = run_cli(capsys, "verify", "--spec", "A2", "--format", "json", "--quiet")
    assert code == EXIT_ERROR
    assert json.loads(out)["reports"][0]["error"].startswith("InvalidLimit")


def test_verify_missing_matrix_file_is_recorded(capsys, tmp_path):
    missing = tmp_path / "missing.cox"
    code, out, _ = run_cli(
        capsys, "verify", "--spec", f"file:{missing}", "--spec", "A2",
        "--format", "json", "--quiet",
    )
    assert code == EXIT_ERROR
    first, second = json.loads(out)["reports"]
    assert first["error"].startswith("InvalidMatrix")
    assert second["spec"] == "A2" and second["error"] is None
    assert second["conjecture1_holds"] is True


def test_verify_unwritable_out_is_exit_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", "--spec", "A2", "--quiet", "--out", str(tmp_path))
    assert code == EXIT_ERROR
    assert out == ""
    assert len(err.splitlines()) == 1 and "OutputError" in err


def test_python_dash_m_coxanc():
    env = dict(os.environ, PYTHONPATH=str(Path(coxanc.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "coxanc", "verify", "--spec", "A2", "--quiet"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_PASS, done.stderr
    assert "verified 1 group(s): 1 pass" in done.stdout


def test_verify_counterexample_exit_code():
    # the F4/E6/H3/H4 rank-bound failures surface as exit code 1
    reports = [ConjectureReport(spec="X", conjecture1_holds=True, conjecture2_holds=False)]
    assert exit_code_for(reports) == EXIT_COUNTEREXAMPLE
    reports = [ConjectureReport(spec="X", error="NotFinite: ...")]
    assert exit_code_for(reports) == EXIT_ERROR
    reports = [ConjectureReport(spec="X", conjecture1_holds=True, conjecture2_holds=True)]
    assert exit_code_for(reports) == EXIT_PASS


def test_element_worked_example(capsys):
    code, out, _ = run_cli(capsys, "element", "--spec", "A6", "--word", "6,3,2,1,4,5")
    assert code == EXIT_PASS
    assert "ancestor decomposition: (r3 r6)(r2 r4)(r1 r5)" in out
    assert "suffix ancestor decomposition: (r3)(r2 r4 r6)(r1 r5)" in out
    assert "involution length: 3" in out
    assert "left descents: {r3, r6}" in out


def test_element_involution(capsys):
    code, out, _ = run_cli(capsys, "element", "--spec", "A2", "--word", "1,2,1")
    assert code == EXIT_PASS
    assert "ancestors: (r1 r2 r1)" in out
    assert "involution length: 1" in out


def test_element_identity(capsys):
    code, out, _ = run_cli(capsys, "element", "--spec", "A2", "--word", "")
    assert code == EXIT_PASS
    assert "length: 0" in out
    assert "involution length: 0" in out


def test_element_bad_word(capsys):
    code, _, err = run_cli(capsys, "element", "--spec", "A2", "--word", "1,7")
    assert code == EXIT_ERROR
    assert "BadLetter" in err


def test_element_json(capsys):
    code, out, _ = run_cli(
        capsys, "element", "--spec", "A6", "--word", "6,3,2,1,4,5", "--format", "json"
    )
    data = json.loads(out)
    assert data["ancestor_decomposition"] == [[3, 6], [2, 4], [1, 5]]
    assert data["suffix_ancestor_decomposition"] == [[3], [2, 4, 6], [1, 5]]


def test_element_longest_d6_counts_every_involution(capsys, group):
    # every one of D6's 23,040 elements is a prefix of its longest element
    table = group("D6")
    w0 = int(np.argmax(table.length))
    word = ",".join(str(g) for g in canonical_reduced_word(table, w0))
    code, out, _ = run_cli(capsys, "element", "--spec", "D6", "--word", word, "--format", "json")
    assert code == EXIT_PASS
    data = json.loads(out)
    involutions = int((table.inverse == np.arange(table.order)).sum()) - 1
    assert data["involution_prefix_count"] == involutions
    assert data["ancestors"] == [list(canonical_reduced_word(table, w0))]


def test_coxelems_spec(capsys):
    code, out, _ = run_cli(capsys, "coxelems", "--spec", "A5")
    assert code == EXIT_PASS
    assert "chromatic number: 2" in out
    assert "longest path order: 5" in out


def test_coxelems_triangle_file(capsys, tmp_path):
    path = tmp_path / "triangle.cox"
    path.write_text("3\n0 0\n0\n")
    code, out, _ = run_cli(capsys, "coxelems", "--file", str(path), "--show-orderings")
    assert code == EXIT_PASS
    assert "chromatic number: 3" in out
    assert "involution length 3" in out  # min-ilen witness


def test_coxelems_rank_guard(capsys):
    code, _, err = run_cli(capsys, "coxelems", "--spec", "A10")
    assert code == EXIT_ERROR


def test_universal_rank3(capsys):
    code, out, _ = run_cli(capsys, "universal", "--n", "3", "--k", "2")
    assert code == EXIT_PASS
    assert "involution length: 6" in out
    assert "rank bound violated" in out


def test_universal_rank3_k1(capsys):
    code, out, _ = run_cli(capsys, "universal", "--n", "3", "--k", "1")
    assert code == EXIT_PASS
    assert "involution length: 3" in out
    assert "equals rank 3" in out


def test_universal_trivial(capsys):
    code, out, _ = run_cli(capsys, "universal", "--n", "1", "--k", "1")
    assert code == EXIT_PASS
    assert "involution length: 1" in out


def test_universal_guard(capsys):
    code, _, err = run_cli(capsys, "universal", "--n", "200", "--k", "200")
    assert code == EXIT_ERROR


def test_universal_guard_edge(capsys):
    # 9,999 letters, the longest power word the word guard allows for n = 3
    code, out, _ = run_cli(capsys, "universal", "--n", "3", "--k", "3333", "--format", "json")
    assert code == EXIT_PASS
    data = json.loads(out)
    assert data["length"] == 9999 and data["involution_length"] == 9999


def test_usage_error(capsys):
    assert main(["element", "--spec", "A2"]) == EXIT_ERROR  # missing --word
