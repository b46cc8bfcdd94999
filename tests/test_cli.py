"""End-to-end checks of the command-line interface.

Everything runs through main(argv) so exit codes and printed text are
exercised exactly as a shell user sees them.  Exit-code contract:
0 success, 1 verification failure, 2 usage or domain error.
"""

import json
import platform
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import srbb.cli as cli
from srbb.circuit import from_json_dict, to_json_dict, unitary_of
from srbb.cli import main
from srbb.compiler import GateCounts, count_from_circuit, naive_circuit, synthesize_circuit
from srbb.targets import named_target

# small optimizer budget for synthesize smoke tests: quality of the fit is
# covered elsewhere, here we only care about plumbing
FAST = ("--max-iter", "300", "--restarts", "0")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compile


def test_compile_n2_prints_counts(capsys):
    code, out, err = run_cli(capsys, "compile", "-n", "2")
    assert code == 0
    assert out == "n_cnot=18 n_rot=21\n"
    assert err == ""


def test_compile_rejects_n1(capsys):
    code, out, err = run_cli(capsys, "compile", "-n", "1")
    assert code == 2
    assert "n must be >= 2" in err
    assert out == ""


def test_compile_naive_n2_prints_counts(capsys):
    code, out, _ = run_cli(capsys, "compile", "-n", "2", "--naive")
    assert code == 0
    assert out.strip() == "n_cnot=22 n_rot=21"


def test_compile_naive_counts(capsys):
    code, out, _ = run_cli(capsys, "compile", "-n", "3", "--naive")
    assert code == 0
    tally = count_from_circuit(naive_circuit(3))
    assert tally.n_cnot == 120
    assert out == f"n_cnot={tally.n_cnot} n_rot={tally.n_rot}\n"


def test_compile_writes_artifacts(tmp_path, capsys):
    qasm = tmp_path / "layer.qasm"
    doc = tmp_path / "layer.json"
    code, _, _ = run_cli(capsys, "compile", "-n", "2",
                         "--qasm", str(qasm), "--json", str(doc))
    assert code == 0
    text = qasm.read_text()
    assert text.startswith("OPENQASM 2.0;")
    assert "qreg q[2];" in text
    circuit = from_json_dict(json.loads(doc.read_text()))
    assert circuit.n == 2
    assert len(circuit.gates) == 18 + 21
    # stored parameter values are zeros, so the instance is the identity
    assert np.allclose(unitary_of(circuit), np.eye(4), atol=1e-12)


def test_compile_json_is_the_circuit_dict_without_indent(tmp_path, capsys):
    doc = tmp_path / "layer.json"
    code, _, _ = run_cli(capsys, "compile", "-n", "3", "--json", str(doc))
    assert code == 0
    assert doc.read_text() == json.dumps(to_json_dict(synthesize_circuit(3)))


def test_compile_writes_both_outputs_or_neither(tmp_path, capsys):
    # the QASM path is fine, the JSON path is not: no QASM file may be left
    qasm = tmp_path / "layer.qasm"
    code, out, err = run_cli(capsys, "compile", "-n", "2", "--qasm", str(qasm),
                             "--json", str(tmp_path / "missing" / "layer.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno 2]")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("json_path", ["same.out", "./sub/../same.out"])
def test_compile_refuses_one_file_for_both_outputs(tmp_path, capsys, monkeypatch, json_path):
    # the JSON would overwrite the QASM in the same file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code, out, err = run_cli(capsys, "compile", "-n", "2", "--qasm", "same.out",
                             "--json", json_path)
    assert code == 2
    assert out == ""
    assert err == f"error: --qasm and --json name the same file {json_path}\n"
    assert not (tmp_path / "same.out").exists()


# ---------------------------------------------------------------------------
# counts


def test_counts_json(capsys):
    code, out, _ = run_cli(capsys, "counts", "-n", "3")
    assert code == 0
    assert json.loads(out) == {"n_cnot": 110, "n_rot": 109, "cnot_reduction": 10}


def test_counts_n2_json(capsys):
    code, out, _ = run_cli(capsys, "counts", "-n", "2")
    assert code == 0
    assert json.loads(out) == {"n_cnot": 18, "n_rot": 21, "cnot_reduction": 4}


def test_counts_rejects_small_n(capsys):
    code, _, err = run_cli(capsys, "counts", "-n", "0")
    assert code == 2
    assert "n must be >= 2" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_basis(capsys):
    code, out, _ = run_cli(capsys, "verify", "-n", "2", "--suite", "basis")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["suites"]["basis"]["failures"] == []


def test_verify_counts(capsys):
    code, out, _ = run_cli(capsys, "verify", "-n", "3", "--suite", "counts")
    assert code == 0
    doc = json.loads(out)["suites"]["counts"]
    assert doc["pass"] is True
    assert doc["naive_cnot"] == 120
    assert doc["formula"]["n_cnot"] == doc["tally"]["n_cnot"] == 110


def test_verify_equivalence(capsys):
    code, out, _ = run_cli(capsys, "verify", "-n", "3", "--suite", "equivalence")
    assert code == 0
    doc = json.loads(out)["suites"]["equivalence"]
    assert doc["pass"] is True
    assert doc["max_frobenius"] < 1e-10


def test_verify_all_shape(capsys):
    code, out, _ = run_cli(capsys, "verify", "-n", "2")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"n", "pass", "suites"}
    assert set(doc["suites"]) == {"basis", "counts", "equivalence"}
    assert doc["pass"] is True


def test_verify_n2_checks_the_naive_oracle(capsys):
    code, out, _ = run_cli(capsys, "verify", "-n", "2", "--suite", "all")
    assert code == 0
    suites = json.loads(out)["suites"]
    assert suites["counts"]["naive_cnot"] == 22
    assert suites["equivalence"]["max_frobenius"] < 1e-10


def test_verify_equivalence_capped_at_n6(capsys):
    code, _, err = run_cli(capsys, "verify", "-n", "7", "--suite", "equivalence")
    assert code == 2
    assert "n <= 6" in err


def test_verify_basis_capped_at_n6(capsys, monkeypatch):
    # the n = 7 basis alone would be a 4 GiB stack: refuse before building it
    def build_srbb(n):
        raise AssertionError(f"built the n = {n} basis")

    monkeypatch.setattr(cli, "build_srbb", build_srbb)
    code, out, err = run_cli(capsys, "verify", "-n", "7", "--suite", "basis")
    assert code == 2
    assert out == ""
    assert "n <= 6" in err


def test_verify_equivalence_n6_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "-n", "6", "--suite", "equivalence")
    assert code == 0
    assert json.loads(out)["suites"]["equivalence"]["max_frobenius"] < 1e-10


def test_verify_rejects_n1(capsys):
    code, _, err = run_cli(capsys, "verify", "-n", "1")
    assert code == 2
    assert "n must be >= 2" in err


def test_verify_failure_exits_1(capsys, monkeypatch):
    # force a formula/tally mismatch to exercise the failing exit path
    monkeypatch.setattr(cli, "gate_counts", lambda n: GateCounts(0, 0, 0))
    code, out, _ = run_cli(capsys, "verify", "-n", "2", "--suite", "counts")
    assert code == 1
    assert json.loads(out)["pass"] is False


# ---------------------------------------------------------------------------
# targets


def test_targets_list_filters_by_n(capsys):
    code, out, _ = run_cli(capsys, "targets", "list", "-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("3 ") for line in lines)
    assert "3 toffoli" in lines


def test_targets_list_all_includes_every_n(capsys):
    code, out, _ = run_cli(capsys, "targets", "list")
    assert code == 0
    seen = {line.split()[0] for line in out.strip().splitlines()}
    assert seen == {"2", "3", "4", "5", "6"}


def test_targets_emit_round_trip(tmp_path, capsys):
    path = tmp_path / "toffoli.json"
    code, _, _ = run_cli(capsys, "targets", "emit", "toffoli", "3",
                         "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    u = np.array([[complex(re_, im) for re_, im in row] for row in doc])
    assert np.array_equal(u, named_target("toffoli", 3).unitary)


def test_targets_emit_stdout(capsys):
    code, out, _ = run_cli(capsys, "targets", "emit", "cnot", "2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 4 and len(doc[0]) == 4


def test_targets_emit_unknown(capsys):
    code, _, err = run_cli(capsys, "targets", "emit", "nosuch", "3")
    assert code == 2
    assert "unknown target" in err


@pytest.mark.parametrize("argv", [
    ("compile", "-n", "2", "--qasm", "{tmp}/missing/x.qasm"),
    ("targets", "emit", "cnot", "2", "--out", "{tmp}/missing/t.json"),
], ids=["compile", "targets-emit"])
def test_an_output_in_a_missing_directory_exits_2(argv, tmp_path, capsys):
    code, out, err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno 2]")


# ---------------------------------------------------------------------------
# synthesize


def test_synthesize_prints_loss_triple(capsys):
    code, out, err = run_cli(capsys, "synthesize", "cnot", "-n", "2",
                             "--seed", "5", *FAST)
    assert code == 0
    assert err == ""
    tokens = out.split()
    assert [t.split("=")[0] for t in tokens] == ["frobenius", "trace", "fidelity"]
    for t in tokens:
        value = t.split("=")[1]
        assert re.fullmatch(r"-?\d\.\d{6}e[+-]\d{2,3}", value)
        assert np.isfinite(float(value))


def test_synthesize_out_writes_report_and_manifest(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "synthesize", "cnot", "-n", "2",
                         "--seed", "5", "--out", str(out_path), *FAST)
    assert code == 0
    report = json.loads(out_path.read_text())
    assert set(report) == {"loss", "params", "unitary", "wall_ms", "trace_of_loss"}
    assert set(report["loss"]) == {"frobenius", "trace", "fidelity"}
    assert len(report["params"]) == 21
    assert len(report["unitary"]) == 4
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert manifest["command"] == "synthesize"
    assert manifest["n"] == 2
    assert manifest["target"] == "cnot"
    assert manifest["seed"] == 5
    assert manifest["outputs"] == [str(out_path)]
    assert manifest["cfg"]["optimizer"] == "nm"
    assert manifest["cfg"]["max_iter"] == 300
    assert manifest["numpy"] == np.__version__
    assert manifest["python"] == platform.python_version()


def test_synthesize_reports_reproduce(tmp_path, capsys):
    reports = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run_cli(capsys, "synthesize", "swap", "-n", "2",
                             "--seed", "9", "--out", str(path), *FAST)
        assert code == 0
        doc = json.loads(path.read_text())
        doc.pop("wall_ms")  # the one field allowed to differ between runs
        reports.append(doc)
    assert reports[0] == reports[1]


def test_manifest_regenerates_identical_report(tmp_path, capsys):
    first = tmp_path / "first.json"
    run_cli(capsys, "synthesize", "iswap", "-n", "2", "--seed", "3",
            "--out", str(first), *FAST)
    manifest = json.loads((tmp_path / "first.json.manifest.json").read_text())
    cfg = manifest["cfg"]
    second = tmp_path / "second.json"
    code, _, _ = run_cli(
        capsys, "synthesize", manifest["target"], "-n", str(manifest["n"]),
        "--seed", str(manifest["seed"]),
        "--loss", cfg["loss"], "--optimizer", cfg["optimizer"],
        "--max-iter", str(cfg["max_iter"]), "--restarts", str(cfg["restarts"]),
        "--tol", str(cfg["tol"]), "--target-loss", str(cfg["target_loss"]),
        "--out", str(second))
    assert code == 0
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    a.pop("wall_ms")
    b.pop("wall_ms")
    assert a == b


def test_synthesize_file_target(tmp_path, capsys):
    path = tmp_path / "cx.json"
    run_cli(capsys, "targets", "emit", "cnot", "2", "--out", str(path))
    code, out, _ = run_cli(capsys, "synthesize", f"file:{path}", "-n", "2",
                           "--seed", "5", *FAST)
    assert code == 0
    assert out.startswith("frobenius=")


def test_synthesize_rejects_wrong_shape_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[[1, 0], [0, 0]], [[0, 0], [1, 0]]]))
    code, _, err = run_cli(capsys, "synthesize", f"file:{path}", "-n", "2")
    assert code == 2
    assert err == f"error: matrix in {path} is (2, 2), expected 4x4\n"


def test_synthesize_rejects_non_unitary_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[[1.0, 0.0]] * 4] * 4))
    code, _, err = run_cli(capsys, "synthesize", f"file:{path}", "-n", "2")
    assert code == 2
    assert "not unitary" in err


@pytest.mark.parametrize("doc, problem", [
    ([[["a", "b"]]], "not an [re, im] number pair"),
    ([[1]], "not an [re, im] number pair"),
    (5, "must be a list of rows"),
    ({"a": 1}, "must be a list of rows"),
    ([[[1, 0], [0, 0]], [[0, 0]]], "rows differ in length"),
], ids=["string-pair", "bare-number", "number", "object", "ragged"])
def test_synthesize_rejects_malformed_file(tmp_path, capsys, doc, problem):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "synthesize", f"file:{path}", "-n", "2")
    assert code == 2
    assert err.startswith("error: matrix JSON") and problem in err


def test_synthesize_rejects_non_finite_file(tmp_path, capsys):
    path = tmp_path / "nan.json"
    rows = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
    rows[0][1][0] = float("nan")
    path.write_text(json.dumps(rows))
    code, _, err = run_cli(capsys, "synthesize", f"file:{path}", "-n", "2")
    assert code == 2
    assert err == "error: matrix has non-finite entries\n"


def test_synthesize_rejects_an_integer_beyond_the_float_range(tmp_path, capsys):
    # complex() of such an integer raises OverflowError, not ValueError
    path = tmp_path / "big.json"
    rows = [[[int(i == j), 0] for j in range(4)] for i in range(4)]
    rows[2][2][0] = 10**400
    path.write_text(json.dumps(rows))
    code, _, err = run_cli(capsys, "synthesize", f"file:{path}", "-n", "2")
    assert code == 2
    assert err == "error: matrix JSON entry [2][2] is too large for a float\n"


@pytest.mark.parametrize("argv", [
    ("verify", "-n", "5"),
    ("synthesize", "cnot", "-n", "2"),
], ids=["verify", "synthesize"])
def test_a_negative_seed_exits_2_before_any_work(argv, capsys, monkeypatch):
    # argparse refuses the seed: the basis suite (2 s at n = 5) and the
    # training are stubbed out, so any work before the check would raise
    monkeypatch.setattr(cli, "_verify_basis", None)
    monkeypatch.setattr(cli, "train", None)
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--seed", "-1"])
    captured = capsys.readouterr()
    assert exit_.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(
        "error: argument --seed: expected a non-negative integer, got '-1'\n")


def test_synthesize_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "synthesize",
                           f"file:{tmp_path}/none.json", "-n", "2")
    assert code == 2
    assert err.startswith("error:")


def test_synthesize_unknown_target(capsys):
    code, _, err = run_cli(capsys, "synthesize", "nosuch", "-n", "2")
    assert code == 2
    assert "unknown target" in err


def test_synthesize_rejects_n1(capsys):
    code, _, err = run_cli(capsys, "synthesize", "cnot", "-n", "1")
    assert code == 2
    assert "n must be >= 2" in err


@pytest.mark.parametrize("flags, problem", [
    (("--restarts", "-1"), "restarts must be >= 0, not -1"),
    (("--max-iter", "-3", "--restarts", "0"), "max_iter must be >= 1, not -3"),
    (("--optimizer", "adam", "--lr", "nan"), "lr must be finite and > 0, not nan"),
    (("--optimizer", "adam", "--lr", "inf"), "lr must be finite and > 0, not inf"),
    (("--tol", "inf"), "tol must be finite and >= 0, not inf"),
    (("--tol", "nan"), "tol must be finite and >= 0, not nan"),
    (("--tol", "-0.5"), "tol must be finite and >= 0, not -0.5"),
    (("--target-loss", "inf"), "target_loss must be finite and >= 0, not inf"),
    (("--target-loss", "nan"), "target_loss must be finite and >= 0, not nan"),
    (("--target-loss", "-1"), "target_loss must be finite and >= 0, not -1.0"),
], ids=["restarts", "max-iter", "lr-nan", "lr-inf", "tol-inf", "tol-nan", "tol-negative",
        "target-loss-inf", "target-loss-nan", "target-loss-negative"])
def test_synthesize_rejects_budgets_that_cannot_train(capsys, flags, problem):
    # refused before any optimisation: a negative budget, or an infinite
    # tolerance or target loss, would report the random start, and a
    # non-finite rate would fail inside simulation
    code, out, err = run_cli(capsys, "synthesize", "cnot", "-n", "2", *flags)
    assert code == 2
    assert out == ""
    assert err == f"error: {problem}\n"


def test_synthesize_refuses_nelder_mead_at_n6(capsys):
    code, out, err = run_cli(capsys, "synthesize", "qft6", "-n", "6")
    assert code == 2
    assert out == ""
    assert err.startswith("error: Nelder-Mead is limited to n <= 5")


def test_synthesize_random_su_smoke(capsys):
    code, out, _ = run_cli(capsys, "synthesize", "random-su", "-n", "2",
                           "--seed", "1", *FAST)
    assert code == 0
    assert out.startswith("frobenius=")


def test_synthesize_adam_smoke(capsys):
    code, out, _ = run_cli(capsys, "synthesize", "cnot", "-n", "2",
                           "--optimizer", "adam", "--epochs", "1",
                           "--dataset-size", "8", "--batch", "4", "--seed", "2")
    assert code == 0
    assert "fidelity=" in out


def test_synthesize_adam_at_six_qubits(tmp_path, capsys):
    # the paper's largest layer: 8033 angles, one exact gradient a step;
    # the default dataset of 1000 states in batches of 64 gives 16 steps
    out_path = tmp_path / "qft6.json"
    code, out, _ = run_cli(capsys, "synthesize", "qft6", "-n", "6", "--optimizer", "adam",
                           "--epochs", "1", "--out", str(out_path))
    assert code == 0
    assert out.startswith("frobenius=")
    doc = json.loads(out_path.read_text())
    assert len(doc["trace_of_loss"]) == 16
    assert len(doc["params"]) == 8033


def test_synthesize_refuses_the_nelder_mead_name(tmp_path, capsys):
    # argparse rejects a choice outside OPTIMIZERS with its usage exit code
    out_path = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", "cnot", "-n", "2", "--optimizer", "nelder_mead",
              "--seed", "5", *FAST, "--out", str(out_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'nelder_mead'" in capsys.readouterr().err
    assert not out_path.exists()


def test_synthesize_checks_its_outputs_before_training(tmp_path, capsys):
    # a report path in a missing directory fails before a 30000-iteration
    # budget is spent, and leaves nothing behind
    out_path = tmp_path / "missing" / "r.json"
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "synthesize", "qft3", "-n", "3",
                             "--max-iter", "30000", "--restarts", "0",
                             "--out", str(out_path))
    elapsed = time.perf_counter() - t0
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno 2]")
    assert elapsed < 1.0


def test_synthesize_leaves_no_report_when_training_fails(tmp_path, capsys):
    # Nelder-Mead at n = 6 is refused inside train, after the outputs were
    # opened: neither the report nor the manifest may stay behind empty
    out_path = tmp_path / "r.json"
    code, _, err = run_cli(capsys, "synthesize", "qft6", "-n", "6",
                           "--out", str(out_path))
    assert code == 2
    assert err.startswith("error: Nelder-Mead is limited to n <= 5")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# invocation plumbing


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point(srbb_env):
    proc = subprocess.run(
        [sys.executable, "-m", "srbb.cli", "compile", "-n", "2"],
        capture_output=True, text=True, env=srbb_env)
    assert proc.returncode == 0
    assert proc.stdout == "n_cnot=18 n_rot=21\n"


def test_reports_do_not_depend_on_blas_threads(tmp_path, srbb_env):
    # simulation multiplies through BLAS, whose thread count a run manifest
    # does not record; a report must therefore not depend on it
    docs = []
    for threads in ("1", "2"):
        out = tmp_path / f"report-{threads}.json"
        subprocess.run([sys.executable, "-m", "srbb.cli", "synthesize", "qft4", "-n", "4",
                        "--max-iter", "200", "--restarts", "0", "--tol", "0",
                        "--out", str(out)], check=True, capture_output=True,
                       env={**srbb_env, "OPENBLAS_NUM_THREADS": threads})
        doc = json.loads(out.read_text())
        del doc["wall_ms"]
        docs.append(doc)
    assert docs[0] == docs[1]


def test_runtime_needs_numpy_only(srbb_env):
    # the test-only dependencies must not leak into the package
    code = ("import sys\n"
            "for name in ('scipy', 'hypothesis', 'pytest'):\n"
            "    sys.modules[name] = None\n"
            "import srbb, srbb.cli\n"
            "sys.exit(srbb.cli.main(['counts', '-n', '2']))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=srbb_env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_cnot"] == 18


def test_console_script():
    exe = shutil.which("srbb")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "counts", "-n", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n_cnot"] == 18
