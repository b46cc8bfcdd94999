"""Tests of the benchmark's oracle and checks.

    python3 -m pytest perfbench

Each check must pass on the program's real output and fail when that
output is corrupted: an RZ with its sign flipped, the qubit order reversed,
a wrong target, or a gate dropped.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import env  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

env.use_checkout_source()
import srbb  # noqa: E402
import srbb.cli  # noqa: E402,F401
from srbb.circuit import Circuit, Gate, unitary_of  # noqa: E402


# ---------------------------------------------------------------------------
# the reference simulator against dense Kronecker products


def _kron_gate(n, kind, qubits, phi):
    """Full 2^n matrix of one gate, built from Kronecker products."""
    eye, x = np.eye(2), np.array([[0, 1], [1, 0]])
    p0, p1 = np.diag([1, 0]), np.diag([0, 1])

    def embed(ops):
        m = np.eye(1)
        for q in range(n):
            m = np.kron(m, ops.get(q, eye))
        return m
    if kind == "CNOT":
        c, t = qubits
        return embed({c: p0}) + embed({c: p1, t: x})
    (q,) = qubits
    if kind == "RZ":
        return embed({q: np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)])})
    c, s = np.cos(phi / 2), np.sin(phi / 2)
    return embed({q: np.array([[c, -s], [s, c]])})


def _random_gates(n, count, rng):
    gates = []
    for i in range(count):
        kind = rng.choice(["CNOT", "RZ", "RY"])
        if kind == "CNOT":
            c, t = rng.choice(n, size=2, replace=False)
            gates.append(("CNOT", (int(c), int(t)), None))
        else:
            gates.append((kind, (int(rng.integers(n)),), f"p{i}"))
    return gates


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reference_simulator_matches_kronecker_products(n):
    rng = np.random.default_rng(n)
    gates = _random_gates(n, 30, rng) if n > 1 else [("RZ", (0,), "a"), ("RY", (0,), "b")]
    values = {p: rng.uniform(-np.pi, np.pi) for _, _, p in gates if p}
    dense = np.eye(2**n)
    for kind, qubits, p in gates:
        dense = _kron_gate(n, kind, qubits, values.get(p)) @ dense
    assert np.abs(oracle.simulate(n, gates, values) - dense).max() < 1e-12
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    assert np.abs(oracle.evolve(n, gates, values, psi) - dense @ psi).max() < 1e-12


def test_targets_follow_their_definitions():
    for name in workloads.SYNTH_TARGETS + ("toffoli", "qft3", "qft4"):
        u = oracle.target(name)
        assert oracle.unitarity_error(u) < 1e-12
    assert oracle.target("cnot")[3, 2] == 1 and oracle.target("swap")[2, 1] == 1
    assert oracle.target("toffoli")[7, 6] == 1
    bell = oracle.target("bell")
    assert np.allclose(bell[:, 0], [2**-0.5, 0, 0, 2**-0.5])


def test_closed_forms_give_the_paper_counts():
    assert [oracle.layer_counts(n) for n in (3, 4, 5, 6)] == [
        (110, 109), (476, 473), (1974, 1969), (8040, 8033)]


# ---------------------------------------------------------------------------
# corrupted results fail the checks


def _flip_rz(circuit):
    gates = [Gate("RZ", g.qubits, f"-{g.param}") if g.kind == "RZ" else g
             for g in circuit.gates]
    return gates


def _flipped_unitary(circuit, values):
    """The circuit's unitary with every RZ sign flipped."""
    flipped = {f"-{k}": -v for k, v in values.items()}
    flipped.update(values)
    c = Circuit(circuit.n, tuple(_flip_rz(circuit)))
    return unitary_of(c, flipped)


def _reverse_qubits(u, n):
    """Relabel qubit q as n-1-q on both sides of u."""
    perm = [int(format(i, f"0{n}b")[::-1], 2) for i in range(2**n)]
    return u[np.ix_(perm, perm)]


@pytest.fixture(scope="module")
def unitary_state():
    state = workloads._unitary_setup(srbb, 5, None)
    outputs = [op.run()[1] for op in workloads._unitary_ops(srbb, state)]
    return state, outputs


def test_unitary_check_passes_on_real_output(unitary_state):
    state, outputs = unitary_state
    assert workloads._unitary_check(srbb, state, outputs) == []


@pytest.mark.parametrize("corrupt", ["flip_rz", "reverse_qubits", "drop_gate"])
def test_unitary_check_fails_on_corrupted_output(unitary_state, corrupt):
    state, outputs = unitary_state
    circuit, values = state["circuit"], state["draws"][0]
    if corrupt == "flip_rz":
        bad = _flipped_unitary(circuit, values)
    elif corrupt == "reverse_qubits":
        bad = _reverse_qubits(outputs[0], circuit.n)
    else:
        bad = unitary_of(Circuit(circuit.n, circuit.gates[1:]), values)
    problems = workloads._unitary_check(srbb, state, [bad] + outputs[1:])
    assert any(p.startswith("draw 0:") for p in problems)


def test_sample_check_passes_and_fails_on_reversed_qubits():
    state = workloads._sample_setup(srbb, 3, None)
    outputs = [op.run()[1] for op in workloads._sample_ops(srbb, state)]
    assert workloads._sample_check(srbb, state, outputs) == []
    perm = [int(format(i, "06b")[::-1], 2) for i in range(64)]
    bad = [outputs[0][perm]] + outputs[1:]
    assert any(p.startswith("state 0:") for p in workloads._sample_check(srbb, state, bad))
    short = [outputs[0] - (np.arange(64) == 0)] + outputs[1:]
    assert any("shots" in p for p in workloads._sample_check(srbb, state, short))


@pytest.fixture(scope="module")
def compile_output(tmp_path_factory):
    state = workloads._compile_setup(srbb, 0, str(tmp_path_factory.mktemp("compile")))
    (op,) = workloads._compile_ops(srbb, state)
    return state, op.run()[1]


def test_compile_check_passes_on_real_output(compile_output):
    state, out = compile_output
    assert workloads._compile_check(srbb, state, [out]) == []


def test_compile_check_fails_on_dropped_gate(compile_output):
    state, out = compile_output
    lines = out["qasm"].splitlines()
    qasm = "\n".join(lines[:3] + lines[4:]) + "\n"
    doc = json.loads(out["json"])
    doc["gates"] = doc["gates"][1:]
    bad = dict(out, qasm=qasm)
    assert workloads._compile_check(srbb, state, [bad])
    bad = dict(out, json=json.dumps(doc))
    assert workloads._compile_check(srbb, state, [bad])


def test_compile_check_fails_on_swapped_qubits(compile_output):
    state, out = compile_output
    bad = dict(out, qasm=out["qasm"].replace("cx q[0],q[1];", "cx q[1],q[0];"))
    assert workloads._compile_check(srbb, state, [bad])


def _synth_report(name, seed, tmp_path):
    state = workloads._synth_setup(srbb, 0, str(tmp_path))
    state["runs"] = [(name, seed)]
    (op,) = workloads._synth_ops(srbb, state)
    return state, op.run()[1]


def test_synth_check_passes_and_fails_on_a_wrong_target(tmp_path):
    state, report = _synth_report("cnot", 4, tmp_path)
    assert workloads._synth_check(srbb, state, [report]) == []
    state["runs"] = [("swap", 4)]
    assert any("from the target" in p
               for p in workloads._synth_check(srbb, state, [report]))


def test_synth_check_fails_on_corrupted_params_or_dropped_gate(tmp_path):
    state, report = _synth_report("iswap", 2, tmp_path)
    bad = copy.deepcopy(report)
    bad["params"][0] += 1e-3                     # params no longer give the unitary
    assert any("from its params" in p for p in workloads._synth_check(srbb, state, [bad]))
    n, gates, names = state["layer"]
    dropped = oracle.simulate(n, gates[1:], dict(zip(names, report["params"])))
    bad = dict(report, unitary=[[[z.real, z.imag] for z in row] for row in dropped])
    assert any("from its params" in p for p in workloads._synth_check(srbb, state, [bad]))


def test_synth_check_fails_on_flipped_rz(tmp_path):
    state, report = _synth_report("sqrt-iswap", 1, tmp_path)
    n, gates, names = state["layer"]
    flipped = {name: v for name, v in zip(names, report["params"])}
    rz_names = {p for k, _, p in gates if k == "RZ"}
    u = oracle.simulate(n, gates, {k: (-v if k in rz_names else v)
                                   for k, v in flipped.items()})
    bad = dict(report, unitary=[[[z.real, z.imag] for z in row] for row in u])
    assert workloads._synth_check(srbb, state, [bad])


def test_fixed_budget_check_fails_on_a_wrong_loss(tmp_path):
    state = workloads._adam_setup(srbb, 0, str(tmp_path))
    state["runs"] = state["runs"][:1]
    (op,) = workloads._adam_ops(srbb, state)[:1]
    report = op.run()[1]
    assert workloads._adam_check(srbb, state, [report]) == []
    state["runs"] = [("qft3", state["runs"][0][1])]   # checked against a wrong target
    assert workloads._check_fixed_budget(state, [report], workloads.ADAM_STEPS)
    bad = dict(report, trace_of_loss=report["trace_of_loss"][:1] * workloads.ADAM_STEPS)
    state["runs"] = [("toffoli", 0)]
    assert any("lowered" in p for p in workloads._adam_check(srbb, state, [bad]))


def test_verify_check_fails_when_a_suite_fails():
    doc = {"pass": True, "suites": {
        "basis": {"pass": True}, "counts": {"pass": True, "formula": {
            "n_cnot": 1974, "n_rot": 1969}},
        "equivalence": {"pass": True, "max_frobenius": 1e-13}}}
    assert workloads._verify_check(srbb, {}, [doc]) == []
    bad = copy.deepcopy(doc)
    bad["suites"]["counts"]["formula"]["n_cnot"] = 1973
    assert workloads._verify_check(srbb, {}, [bad])
    bad = copy.deepcopy(doc)
    bad["suites"]["equivalence"]["max_frobenius"] = 1e-3
    assert workloads._verify_check(srbb, {}, [bad])


def test_tracer_restores_every_wrapped_name():
    import tracing

    before = srbb.varopt.unitary_of, srbb.cli.main, srbb.circuit.apply
    tracer = tracing.Tracer(srbb)
    tracer.install()
    tracer.phase("round")
    try:
        assert srbb.varopt.unitary_of is not before[0]
        circuit = srbb.compiler.synthesize_circuit(2)
        srbb.circuit.sample(circuit, None, np.eye(4)[0], 10, 0)
    finally:
        tracer.uninstall()
    assert (srbb.varopt.unitary_of, srbb.cli.main, srbb.circuit.apply) == before
    summary = tracer.summary("round")
    assert summary["circuit.apply"]["calls"] == 1
    assert summary["compiler.synthesize_circuit"]["calls"] == 1
