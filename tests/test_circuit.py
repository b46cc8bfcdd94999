"""Gate IR, dense simulation, sampling, peephole pass, serialization."""
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gate_kernel
from metrics import hellinger
from srbb.circuit import (
    Circuit,
    Gate,
    _plan,
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
    value_and_gradient,
)
from srbb.compiler import naive_circuit, synthesize_circuit
from srbb.varopt import fd_gradient


def _basis_state(n, index):
    e = np.zeros(2**n, dtype=complex)
    e[index] = 1.0
    return e


def _random_circuit(rng, n, depth=12):
    """A random circuit whose k-th rotation has the angle name t<k>, and the
    angle drawn for each name."""
    pool = ["RZ", "RY"] + (["CNOT"] if n > 1 else [])
    gates, vals = [], {}
    for _ in range(depth):
        kind = rng.choice(pool)
        if kind == "CNOT":
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(cnot(int(a), int(b)))
        else:
            name = f"t{len(vals)}"
            gates.append(Gate(kind, (int(rng.integers(n)),), name))
            vals[name] = float(rng.uniform(-np.pi, np.pi))
    return Circuit(n, gates), vals


# ---------------------------------------------------------------------------
# conventions

def test_empty_circuit_is_identity():
    assert np.array_equal(unitary_of(Circuit(2, ())), np.eye(4))


def test_rotation_matrices():
    phi = 0.7
    u = unitary_of(Circuit(1, [rz(0, "phi")]), {"phi": phi})
    assert np.allclose(u, np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)]), atol=1e-15)
    u = unitary_of(Circuit(1, [ry(0, "phi")]), {"phi": phi})
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
    circ = Circuit(2, [cnot(0, 1), rz(1, "phi"), cnot(0, 1)])
    want = np.diag(np.exp(1j * t * np.array([1, -1, -1, 1])))
    assert np.abs(unitary_of(circ, {"phi": -2 * t}) - want).max() < 1e-12


def test_x_on_top_qubit():
    # RY(pi) takes |0> to |1>; on qubit 0 that flips the most significant bit
    circ = Circuit(2, [ry(0, "a")])
    out = apply(circ, {"a": math.pi}, _basis_state(2, 0))
    assert np.abs(out - _basis_state(2, 2)).max() < 1e-15


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


@pytest.mark.parametrize("param", [math.nan, 0.3, True], ids=["nan", "number", "bool"])
def test_json_rejects_an_angle_that_is_not_a_name(param):
    with pytest.raises(ValueError, match="must be a name"):
        from_json_dict(_one_gate_doc({"kind": "RZ", "qubits": [0], "param": param}))


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
        circ, vals = _random_circuit(rng, n)
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state /= np.linalg.norm(state)
        direct = apply(circ, vals, state)
        assert np.abs(direct - unitary_of(circ, vals) @ state).max() < 1e-10
        assert abs(np.linalg.norm(direct) - 1.0) < 1e-10


def _random_state(rng, n):
    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return state / np.linalg.norm(state)


@pytest.mark.parametrize("naive, n, layers",
                         [(False, n, 1) for n in range(2, 6)]
                         + [(True, n, 1) for n in range(2, 6)] + [(False, 3, 2)])
def test_plan_matches_the_gate_kernel_on_layers(naive, n, layers):
    # layers > 1 stacks copies of the layer with fresh `L<i>/`-prefixed angles
    circ = naive_circuit(n) if naive else Circuit(n, [
        Gate(g.kind, g.qubits, f"L{i}/{g.param}" if isinstance(g.param, str) else g.param)
        for i in range(1, layers + 1) for g in synthesize_circuit(n).gates])
    rng = np.random.default_rng([n, layers, naive])
    x = rng.uniform(-np.pi, np.pi, len(circ.free_parameters))
    vals = dict(zip(circ.free_parameters, x))
    u = unitary_of(circ, x)
    assert np.abs(u - gate_kernel.unitary(circ, vals)).max() < 1e-12
    assert np.array_equal(u, unitary_of(circ, vals))
    state = _random_state(rng, n)
    want = gate_kernel.apply(circ, vals, state)
    got = apply(circ, x, state)
    assert np.abs(got - want).max() < 1e-12
    # the probabilities sample draws from
    assert np.abs(np.abs(got) ** 2 - np.abs(want) ** 2).max() < 1e-12


@st.composite
def _gate_lists(draw):
    n = draw(st.integers(1, 4))
    kinds = ("RZ", "RY", "CNOT") if n > 1 else ("RZ", "RY")
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(kinds))
        if kind == "CNOT":
            c, t = draw(st.permutations(range(n)))[:2]
            gates.append(cnot(c, t))
        else:
            # few names, so names repeat, or a name of this gate's own
            angle = draw(st.sampled_from(("a", "b", "c")) | st.just(f"k{len(gates)}"))
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),), angle))
    return Circuit(n, gates)


@settings(max_examples=200, deadline=None)
@given(_gate_lists(), st.integers(0, 2**32 - 1))
@example(Circuit(1, ()), 0)
@example(Circuit(2, [ry(1, "a"), cnot(0, 1), rz(1, "b"), ry(1, "a"), cnot(0, 1)]), 1)
@example(Circuit(3, [ry(2, "a"), cnot(0, 2), cnot(2, 1), ry(2, "k"), cnot(1, 2),
                     ry(2, "b"), cnot(0, 2)]), 2)
@example(Circuit(3, [rz(0, "a"), cnot(0, 2), cnot(2, 1), rz(1, "b"), cnot(1, 0)]), 3)
@example(Circuit(1, [ry(0, "a"), ry(0, "k")]), 4)
@example(Circuit(2, [ry(1, "a"), cnot(0, 1), ry(1, "b"), rz(0, "c"), cnot(1, 0), rz(0, "a")]), 5)
@example(Circuit(3, [rz(2, "a"), cnot(0, 2), ry(2, "b"), cnot(1, 2), cnot(2, 0), rz(0, "c"),
                     cnot(0, 1)]), 6)
@example(Circuit(3, [ry(0, "a"), cnot(1, 0), ry(1, "b"), cnot(2, 1), ry(1, "k"), cnot(0, 1)]), 7)
def test_plan_matches_the_gate_kernel(circ, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-np.pi, np.pi, len(circ.free_parameters))
    vals = dict(zip(circ.free_parameters, x))
    assert np.abs(unitary_of(circ, x) - gate_kernel.unitary(circ, vals)).max() < 1e-12
    state = _random_state(rng, circ.n)
    assert np.abs(apply(circ, x, state) - gate_kernel.apply(circ, vals, state)).max() < 1e-12


@pytest.mark.parametrize("n", range(2, 7))
def test_the_layer_runs_one_step_per_ry_run(n):
    # every CNOT/RZ run folds into an RY step beside it
    assert len(_plan(synthesize_circuit(n)).sources) == 2**n - 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_angles_that_share_a_slot_enter_only_through_their_sum(n):
    # rotations in one (run, parity mask) slot of the plan add their angles,
    # so moving each slot's total onto its first angle keeps the unitary;
    # the gate kernel, which knows no slots, must agree
    circ = synthesize_circuit(n)
    plan = _plan(circ)
    assert sorted(plan.idx) == list(range(len(circ.free_parameters)))  # one gate an angle
    x = np.random.default_rng(n).uniform(-np.pi, np.pi, len(circ.free_parameters))
    moved = x.copy()
    shared = 0
    for slot in np.unique(plan.slots):
        ks = plan.idx[plan.slots == slot]
        if len(ks) > 1:
            shared += len(ks) - 1
            moved[ks] = 0.0
            moved[ks[0]] = x[ks].sum()
    assert shared == {2: 4, 3: 28, 4: 134}[n]
    assert np.abs(unitary_of(circ, moved) - unitary_of(circ, x)).max() < 1e-13
    named = dict(zip(circ.free_parameters, moved))
    assert np.abs(gate_kernel.unitary(circ, named) - unitary_of(circ, x)).max() < 1e-13


def _gradient_error(circ, x, rng):
    """Largest gap between the adjoint gradient and finite differences of
    L(U) = Re <C, U> for a random C, whose adjoint is C itself."""
    d = 2**circ.n
    c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    def loss(u):
        return float(np.vdot(c, u).real), lambda: c

    value, grad = value_and_gradient(circ, x, loss)
    assert value == loss(unitary_of(circ, x))[0]
    return np.abs(grad - fd_gradient(lambda y: loss(unitary_of(circ, y))[0], x)).max(initial=0.0)


def test_gradient_matches_finite_differences_on_random_circuits():
    rng = np.random.default_rng(23)
    for _ in range(40):
        circ, vals = _random_circuit(rng, int(rng.integers(1, 5)))
        assert _gradient_error(circ, np.array(list(vals.values())), rng) < 1e-6


@pytest.mark.parametrize("circ, steps", [
    (Circuit(2, ()), 1),
    (Circuit(3, [rz(0, "a"), cnot(0, 2), rz(2, "b"), cnot(1, 0), rz(0, "a")]), 1),
    (Circuit(2, [ry(1, "a"), cnot(0, 1), rz(1, "b"), cnot(1, 0), rz(0, "c")]), 1),
    (Circuit(3, [rz(1, "c"), cnot(1, 2), ry(2, "a"), cnot(0, 2), ry(0, "b"), cnot(2, 1),
                 rz(1, "c"), cnot(1, 0)]), 2),
], ids=["empty", "no-ry", "trailing-phase-run", "leading-and-trailing-runs"])
def test_gradient_matches_finite_differences_on_every_step_shape(circ, steps):
    # no RY is the one step with B = 0; a closing CNOT/RZ run folds into the
    # step before it, a leading one into the step after it
    assert len(_plan(circ).sources) == steps
    rng = np.random.default_rng(steps)
    x = rng.uniform(-np.pi, np.pi, len(circ.free_parameters))
    assert _gradient_error(circ, x, rng) < 1e-6


@settings(max_examples=60, deadline=None)
@given(_gate_lists(), st.integers(0, 2**32 - 1))
def test_gradient_matches_finite_differences_on_shared_names(circ, seed):
    # names repeat across gates and kinds, so components sum over gates
    rng = np.random.default_rng(seed)
    x = rng.uniform(-np.pi, np.pi, len(circ.free_parameters))
    assert _gradient_error(circ, x, rng) < 1e-6


def test_a_wide_shallow_plan_grows_with_the_circuit():
    # the plan keeps the Walsh-Hadamard rows of the masks in use only: at
    # n = 12 the full matrix alone would be 128 MB
    circ = Circuit(12, [rz(0, "a"), cnot(0, 1), rz(1, "b")])
    vals = {"a": 0.3, "b": -1.1}
    state = _random_state(np.random.default_rng(12), 12)
    tracemalloc.start()
    try:
        got = apply(circ, vals, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert np.abs(got - gate_kernel.apply(circ, vals, state)).max() < 1e-12


@pytest.mark.parametrize("circ", [
    Circuit(2, ()),
    Circuit(2, [cnot(0, 1)]),
    Circuit(2, [cnot(0, 1), cnot(0, 1)]),
], ids=["empty", "cnot", "cnot-pair"])
def test_apply_returns_a_fresh_array(circ):
    state = np.array([0.5, 0.5j, -0.5, 0.5])
    before = state.copy()
    out = apply(circ, None, state)
    assert not np.shares_memory(out, state)
    assert np.array_equal(state, before)


@pytest.mark.parametrize("params, match", [
    ({"a": math.nan, "b": 0.1}, "'a'"),
    ({"a": math.inf, "b": 0.1}, "'a'"),
    ({"a": 0.1, "b": -math.inf}, "'b'"),
    (np.array([0.1, math.nan]), "'b'"),
    (np.array([0.1]), "shape"),
    (np.zeros((1, 2)), "shape"),
    ({"a": 0.1}, "missing parameter 'b'"),
], ids=["nan", "inf", "minus-inf", "vector-nan", "vector-length", "vector-rank", "missing"])
def test_angles_are_checked_at_the_edge(params, match):
    circ = Circuit(2, [rz(0, "a"), cnot(0, 1), ry(1, "b")])
    state = _basis_state(2, 0)
    with pytest.raises(ValueError, match=match):
        unitary_of(circ, params)
    with pytest.raises(ValueError, match=match):
        apply(circ, params, state)
    with pytest.raises(ValueError, match=match):
        sample(circ, params, state, 10, seed=0)
    with pytest.raises(ValueError, match=match):
        to_qasm(circ, params)


def test_apply_rejects_wrong_length():
    with pytest.raises(ValueError):
        apply(Circuit(2, ()), None, np.ones(3))


def test_unitary_of_is_unitary():
    rng = np.random.default_rng(3)
    circ, vals = _random_circuit(rng, 3, depth=30)
    u = unitary_of(circ, vals)
    assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-10


# ---------------------------------------------------------------------------
# sampling

def test_sample_identity_circuit():
    hist = sample(Circuit(2, ()), None, _basis_state(2, 0), 1024, seed=0)
    assert hist[0] == 1024 and hist.sum() == 1024


def test_sample_hadamard_balance():
    circ = Circuit(1, [ry(0, "a")])
    hist = sample(circ, {"a": math.pi / 2}, _basis_state(1, 0), 10**5, seed=1)
    sigma = math.sqrt(10**5 * 0.25)
    assert abs(hist[0] - 50_000) < 5 * sigma


def test_sample_deterministic_given_seed():
    rng = np.random.default_rng(8)
    circ, vals = _random_circuit(rng, 2)
    a = sample(circ, vals, _basis_state(2, 0), 500, seed=42)
    b = sample(circ, vals, _basis_state(2, 0), 500, seed=42)
    assert np.array_equal(a, b)


def test_sample_histogram_close_to_exact():
    circ = Circuit(2, [ry(0, "a"), cnot(0, 1), ry(1, "b")])
    vals = {"a": math.pi / 2, "b": 1.1}
    amp = apply(circ, vals, _basis_state(2, 0))
    exact = np.abs(amp) ** 2
    hist = sample(circ, vals, _basis_state(2, 0), 10_000, seed=5)
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
    out, removed = cancel_cnot_pairs([cnot(0, 1), rz(0, "a"), cnot(0, 1)])
    assert removed == 0 and len(out) == 3


def test_cancel_skips_spectator_wires():
    # a gate on an untouched wire does not block the cancellation
    out, removed = cancel_cnot_pairs([cnot(0, 1), rz(2, "a"), cnot(0, 1)])
    assert removed == 2
    assert [g.kind for g in out] == ["RZ"]


def test_cancel_cascades():
    out, removed = cancel_cnot_pairs([cnot(0, 1), cnot(1, 0), cnot(1, 0), cnot(0, 1)])
    assert removed == 4 and out == []


def test_cancel_preserves_unitary():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        circ, vals = _random_circuit(rng, n, depth=20)
        out, _ = cancel_cnot_pairs(circ.gates)
        out = Circuit(n, out)
        assert np.abs(unitary_of(circ, vals) - unitary_of(out, vals)).max() < 1e-10


# ---------------------------------------------------------------------------
# serialization

def test_json_round_trip():
    rng = np.random.default_rng(23)
    circ, _ = _random_circuit(rng, 3)
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
    circ = Circuit(2, [ry(0, "s"), cnot(0, 1), rz(1, "t")])
    text = to_qasm(circ, {"s": 0.5, "t": 0.25})
    lines = text.strip().splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert lines[2] == "qreg q[2];"
    assert lines[3] == "ry(0.5) q[0];"
    assert lines[4] == "cx q[0],q[1];"
    assert lines[5] == "rz(0.25) q[1];"
    # a vector in free_parameters order binds as in simulation
    assert to_qasm(circ, np.array([0.5, 0.25])) == text
