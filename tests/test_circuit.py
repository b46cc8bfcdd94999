"""Gate IR, dense simulation, sampling, peephole pass, serialization."""
import json
import math

import numpy as np
import pytest

from metrics import hellinger
from srbb.circuit import (
    Circuit,
    Gate,
    apply,
    cancel_cnot_pairs,
    cnot,
    from_json_dict,
    ry,
    rz,
    sample,
    to_json_dict,
    to_qasm,
    unitary_of,
)
from srbb.compiler import synthesize_circuit


def _basis_state(n, index):
    e = np.zeros(2**n, dtype=complex)
    e[index] = 1.0
    return e


def _random_circuit(rng, n, depth=12):
    pool = ["RZ", "RY"] + (["CNOT"] if n > 1 else [])
    gates = []
    for _ in range(depth):
        kind = rng.choice(pool)
        if kind == "CNOT":
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(cnot(int(a), int(b)))
        else:
            gates.append(Gate(kind, (int(rng.integers(n)),),
                              float(rng.uniform(-np.pi, np.pi))))
    return Circuit(n, gates)


# ---------------------------------------------------------------------------
# conventions

def test_empty_circuit_is_identity():
    assert np.array_equal(unitary_of(Circuit(2, ())), np.eye(4))


def test_rotation_matrices():
    phi = 0.7
    u = unitary_of(Circuit(1, [rz(0, phi)]))
    assert np.allclose(u, np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)]), atol=1e-15)
    u = unitary_of(Circuit(1, [ry(0, phi)]))
    c, s = math.cos(phi / 2), math.sin(phi / 2)
    assert np.allclose(u, [[c, -s], [s, c]], atol=1e-15)


def test_cnot_bottom_control_is_p24():
    # qubit 0 is the most significant bit, so control-on-last swaps |01>,|11>
    p24 = np.eye(4)[:, [0, 3, 2, 1]]
    assert np.array_equal(unitary_of(Circuit(2, [cnot(1, 0)])), p24)


def test_cnot_top_control():
    u = unitary_of(Circuit(2, [cnot(0, 1)]))
    assert np.array_equal(u, np.eye(4)[:, [0, 1, 3, 2]])


def test_z_string_conjugation_identity():
    # CNOT(0,1) RZ(q1, -2t) CNOT(0,1) = exp(i t Z x Z)
    t = 0.37
    circ = Circuit(2, [cnot(0, 1), rz(1, -2 * t), cnot(0, 1)])
    want = np.diag(np.exp(1j * t * np.array([1, -1, -1, 1])))
    assert np.abs(unitary_of(circ) - want).max() < 1e-12


def test_x_on_top_qubit():
    # RY(pi) takes |0> to |1>; on qubit 0 that flips the most significant bit
    circ = Circuit(2, [ry(0, math.pi)])
    assert np.abs(apply(circ, None, _basis_state(2, 0)) - _basis_state(2, 2)).max() < 1e-15


def test_swap_gate():
    # three alternating CNOTs exchange the two qubits
    circ = Circuit(2, [cnot(0, 1), cnot(1, 0), cnot(0, 1)])
    assert np.array_equal(unitary_of(circ), np.eye(4)[:, [0, 2, 1, 3]])


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))
    with pytest.raises(ValueError):
        Gate("RZ", (0,))  # rotation without parameter
    with pytest.raises(ValueError):
        Circuit(2, (cnot(0, 2),))  # qubit out of range


def _one_gate_doc(entry):
    return {"n": 2, "gates": [entry], "params": {}}


def test_json_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown gate kind 'H'"):
        from_json_dict(_one_gate_doc({"kind": "H", "qubits": [0], "param": None}))


def test_json_rejects_two_qubit_rotation():
    with pytest.raises(ValueError, match="RZ gate acts on 1 qubit"):
        from_json_dict(_one_gate_doc({"kind": "RZ", "qubits": [0, 1], "param": 0.3}))


def test_json_rejects_one_qubit_cnot():
    with pytest.raises(ValueError, match="CNOT gate acts on 2 qubit"):
        from_json_dict(_one_gate_doc({"kind": "CNOT", "qubits": [0], "param": None}))


def test_json_rejects_non_integer_qubit():
    with pytest.raises(ValueError, match="qubits must be integers"):
        from_json_dict(_one_gate_doc({"kind": "RZ", "qubits": [0.5], "param": 0.1}))


def test_json_rejects_cnot_with_param():
    with pytest.raises(ValueError, match="CNOT gate takes no parameter"):
        from_json_dict(_one_gate_doc({"kind": "CNOT", "qubits": [0, 1], "param": 0.7}))


def test_json_rejects_non_finite_angle():
    with pytest.raises(ValueError, match="finite number"):
        from_json_dict(_one_gate_doc({"kind": "RZ", "qubits": [0], "param": math.nan}))


def test_missing_parameter_is_a_domain_error():
    circ = Circuit(1, (rz(0, "theta"),))
    with pytest.raises(ValueError, match="theta"):
        unitary_of(circ, {})


def test_circuit_collects_names_in_first_use_order():
    circ = Circuit(2, [rz(0, "b"), ry(1, "a"), rz(1, "b")])
    assert circ.free_parameters == ("b", "a")
    assert circ.gates == (rz(0, "b"), ry(1, "a"), rz(1, "b"))
    assert Circuit(1, (rz(0, "theta"),)).free_parameters == ("theta",)


def test_none_sets_every_named_angle_to_zero():
    circ = synthesize_circuit(2)
    zeros = dict.fromkeys(circ.free_parameters, 0.0)
    state = _basis_state(2, 1)
    assert np.array_equal(sample(circ, None, state, 1000, seed=4),
                          sample(circ, zeros, state, 1000, seed=4))
    assert np.array_equal(unitary_of(circ), unitary_of(circ, zeros))
    assert to_qasm(circ) == to_qasm(circ, zeros)


# ---------------------------------------------------------------------------
# simulation consistency

def test_apply_matches_unitary_on_random_circuits():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        circ = _random_circuit(rng, n)
        vals = dict(zip(circ.free_parameters,
                        rng.uniform(-np.pi, np.pi, len(circ.free_parameters))))
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state /= np.linalg.norm(state)
        direct = apply(circ, vals, state)
        assert np.abs(direct - unitary_of(circ, vals) @ state).max() < 1e-10
        assert abs(np.linalg.norm(direct) - 1.0) < 1e-10


def test_apply_rejects_wrong_length():
    with pytest.raises(ValueError):
        apply(Circuit(2, ()), None, np.ones(3))


def test_unitary_of_is_unitary():
    rng = np.random.default_rng(3)
    circ = _random_circuit(rng, 3, depth=30)
    vals = rng.uniform(-np.pi, np.pi, len(circ.free_parameters))
    u = unitary_of(circ, dict(zip(circ.free_parameters, vals)))
    assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-10


# ---------------------------------------------------------------------------
# sampling

def test_sample_identity_circuit():
    hist = sample(Circuit(2, ()), None, _basis_state(2, 0), 1024, seed=0)
    assert hist[0] == 1024 and hist.sum() == 1024


def test_sample_hadamard_balance():
    circ = Circuit(1, [ry(0, math.pi / 2)])
    hist = sample(circ, None, _basis_state(1, 0), 10**5, seed=1)
    sigma = math.sqrt(10**5 * 0.25)
    assert abs(hist[0] - 50_000) < 5 * sigma


def test_sample_deterministic_given_seed():
    rng = np.random.default_rng(8)
    circ = _random_circuit(rng, 2)
    vals = dict(zip(circ.free_parameters, rng.uniform(-1, 1, len(circ.free_parameters))))
    a = sample(circ, vals, _basis_state(2, 0), 500, seed=42)
    b = sample(circ, vals, _basis_state(2, 0), 500, seed=42)
    assert np.array_equal(a, b)


def test_sample_histogram_close_to_exact():
    circ = Circuit(2, [ry(0, math.pi / 2), cnot(0, 1), ry(1, 1.1)])
    amp = apply(circ, None, _basis_state(2, 0))
    exact = np.abs(amp) ** 2
    hist = sample(circ, None, _basis_state(2, 0), 10_000, seed=5)
    assert hellinger(hist / 10_000, exact) < 0.05


def test_sample_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample(Circuit(1, ()), None, _basis_state(1, 0), 0, seed=0)


# ---------------------------------------------------------------------------
# peephole pass

def test_cancel_adjacent_pair():
    out, removed = cancel_cnot_pairs([cnot(0, 1), cnot(0, 1)])
    assert removed == 2 and out == []


def test_cancel_blocked_by_control_wire():
    out, removed = cancel_cnot_pairs([cnot(0, 1), rz(0, 0.3), cnot(0, 1)])
    assert removed == 0 and len(out) == 3


def test_cancel_skips_spectator_wires():
    # a gate on an untouched wire does not block the cancellation
    out, removed = cancel_cnot_pairs([cnot(0, 1), rz(2, 0.3), cnot(0, 1)])
    assert removed == 2
    assert [g.kind for g in out] == ["RZ"]


def test_cancel_cascades():
    out, removed = cancel_cnot_pairs([cnot(0, 1), cnot(1, 0), cnot(1, 0), cnot(0, 1)])
    assert removed == 4 and out == []


def test_cancel_preserves_unitary():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        circ = _random_circuit(rng, n, depth=20)
        vals = dict(zip(circ.free_parameters,
                        rng.uniform(-np.pi, np.pi, len(circ.free_parameters))))
        out, _ = cancel_cnot_pairs(circ.gates)
        out = Circuit(n, out)
        assert np.abs(unitary_of(circ, vals) - unitary_of(out, vals)).max() < 1e-10


# ---------------------------------------------------------------------------
# serialization

def test_json_round_trip():
    rng = np.random.default_rng(23)
    circ = _random_circuit(rng, 3)
    text = json.dumps(to_json_dict(circ))
    assert set(json.loads(text)) == {"n", "gates", "params"}
    assert from_json_dict(json.loads(text)) == circ


@pytest.mark.parametrize("params", [
    {"a": 0.0},
    {"a": 0.0, "b": 0.0, "c": 0.0},
    {"b": 0.0, "a": 0.0},
    {"a": 0.0, "b": 0.5},
], ids=["missing", "unused", "out-of-order", "non-zero"])
def test_json_rejects_params_that_differ_from_the_gates(params):
    doc = to_json_dict(Circuit(2, [rz(0, "a"), cnot(0, 1), ry(1, "b")]))
    assert doc["params"] == {"a": 0.0, "b": 0.0}
    assert from_json_dict(doc).free_parameters == ("a", "b")
    with pytest.raises(ValueError, match="params must name the gates' angles"):
        from_json_dict({**doc, "params": params})


_RZ_A = {"kind": "RZ", "qubits": [0], "param": "a"}


@pytest.mark.parametrize("doc", [
    {"n": "2", "gates": [], "params": {}},
    {"n": True, "gates": [], "params": {}},
    {"n": 0, "gates": [], "params": {}},
    _one_gate_doc({"kind": "RZ", "qubits": [0], "param": True}),
    {"n": 2, "gates": [_RZ_A], "params": [["a", 0.0]]},
    {"n": 2, "gates": [{**_RZ_A, "qubits": 0}], "params": {"a": 0.0}},
    {"n": 2, "gates": _RZ_A, "params": {"a": 0.0}},
    {"n": 2, "gates": [["RZ", [0], "a"]], "params": {"a": 0.0}},
], ids=["string-n", "bool-n", "zero-n", "bool-angle", "list-params",
        "scalar-qubits", "scalar-gates", "list-gate"])
def test_json_rejects_a_malformed_document(doc):
    with pytest.raises(ValueError):
        from_json_dict(doc)


def test_qasm_output():
    circ = Circuit(2, [ry(0, 0.5), cnot(0, 1), rz(1, "t")])
    text = to_qasm(circ, {"t": 0.25})
    lines = text.strip().splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert lines[2] == "qreg q[2];"
    assert lines[3] == "ry(0.5) q[0];"
    assert lines[4] == "cx q[0],q[1];"
    assert lines[5] == "rz(0.25) q[1];"

