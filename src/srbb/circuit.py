"""Gate-level circuit representation and dense simulation.

A Circuit is an ordered list of Gates over n qubits.  Its free parameters
are derived from the gates: the angle names in first-use order.  No angle
values are stored; simulation and export take a name -> angle mapping, or
None for every named angle at 0.0.  The gate set is exactly the layer's:
CNOT, RZ and RY; any other kind, a gate on the wrong number of qubits or on
a non-integer qubit, a CNOT with an angle, or a rotation whose angle is
neither a name nor a finite number (a bool is not one), is rejected when
the Gate is built, and a Circuit needs an integer n >= 1.
Qubit 0 is the most significant bit of a state index, so
|0...0> = (1, 0, ..., 0)^T, and the leftmost gate of a diagram is the first
one applied to the state.

Rotation conventions (these fix all circuit identities downstream):

    RZ(phi) = diag(e^{-i phi/2}, e^{+i phi/2})
    RY(phi) = [[cos(phi/2), -sin(phi/2)], [sin(phi/2), cos(phi/2)]]

so a Z-string rotation exp(i theta Z...Z) is an RZ with phi = -2 theta
conjugated by CNOTs.

Simulation never materializes per-gate matrices: the state (or the column
stack of a unitary under construction) is reshaped to one axis per qubit and
gates act in place on axis slices: a CNOT swaps the two target slices of its
control's |1> slice, and a rotation mixes or phases the two slices of its
qubit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# qubits each gate kind acts on; the one-qubit kinds are the rotations
_ARITY = {"CNOT": 2, "RZ": 1, "RY": 1}


@dataclass(frozen=True)
class Gate:
    """One gate: RZ or RY with qubits = (target,) and an angle, or CNOT
    with qubits = (control, target)."""

    kind: str
    qubits: tuple[int, ...]
    param: str | float | None = None

    def __post_init__(self):
        arity = _ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {self.kind!r} (expected CNOT, RZ or RY)")
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} gate acts on {arity} qubit(s), got {self.qubits}")
        for q in self.qubits:
            # exactly int: JSON export writes qubits as they are
            if type(q) is not int:
                raise ValueError(f"{self.kind} gate qubits must be integers, got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in {self.kind} gate: {self.qubits}")
        p = self.param
        if arity == 2:
            if p is not None:
                raise ValueError(f"CNOT gate takes no parameter, got {p!r}")
        elif p is None:
            raise ValueError(f"{self.kind} gate needs a parameter")
        elif isinstance(p, bool) or not (
                isinstance(p, str) or isinstance(p, (int, float)) and math.isfinite(p)):
            raise ValueError(f"{self.kind} angle must be a name or a finite number, got {p!r}")


def rz(q: int, param: str | float) -> Gate:
    return Gate("RZ", (q,), param)


def ry(q: int, param: str | float) -> Gate:
    return Gate("RY", (q,), param)


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


@dataclass(frozen=True)
class Circuit:
    """n qubits and gates in application order.  free_parameters holds the
    gates' angle names in first-use order; a circuit stores no angle values."""

    n: int
    gates: tuple[Gate, ...]
    free_parameters: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"qubit count must be an integer >= 1, got {self.n!r}")
        object.__setattr__(self, "gates", tuple(self.gates))
        names: dict[str, None] = {}
        for g in self.gates:
            if any(q < 0 or q >= self.n for q in g.qubits):
                raise ValueError(f"gate {g.kind}{g.qubits} outside {self.n} qubits")
            if isinstance(g.param, str):
                names[g.param] = None
        object.__setattr__(self, "free_parameters", tuple(names))


# ---------------------------------------------------------------------------
# simulation kernels


def _resolve(circuit: Circuit, params) -> dict:
    """params as a name -> angle mapping; None sets every named angle to 0.0."""
    return dict.fromkeys(circuit.free_parameters, 0.0) if params is None else params


def _param_value(g: Gate, table: dict) -> float:
    p = g.param
    if isinstance(p, str):
        try:
            return table[p]
        except KeyError:
            raise ValueError(f"missing parameter {p!r}") from None
    return float(p)


def _axis_views(arr: np.ndarray, q: int):
    pre = (slice(None),) * q
    return arr[pre + (0,)], arr[pre + (1,)]


def _apply_gate(arr: np.ndarray, g: Gate, table: dict) -> None:
    """Apply one gate in place; arr has one axis per qubit plus a trailing
    axis that broadcasts."""
    if g.kind == "CNOT":
        c, t = g.qubits
        view = arr[(slice(None),) * c + (1,)]
        a0, a1 = _axis_views(view, t - 1 if t > c else t)
        t0 = a0.copy()
        a0[...] = a1
        a1[...] = t0
        return
    a0, a1 = _axis_views(arr, g.qubits[0])
    value = _param_value(g, table)
    if g.kind == "RZ":
        half = 0.5 * value
        a0 *= complex(math.cos(half), -math.sin(half))
        a1 *= complex(math.cos(half), math.sin(half))
    else:
        c, s = math.cos(0.5 * value), math.sin(0.5 * value)
        t0 = a0.copy()
        a0 *= c
        a0 -= s * a1
        a1 *= c
        a1 += s * t0


def _evolve(circuit: Circuit, params, cols: np.ndarray) -> None:
    """Run the gates in place on cols, a (2^n, m) stack of column vectors."""
    table = _resolve(circuit, params)
    arr = cols.reshape((2,) * circuit.n + (cols.shape[1],))
    for g in circuit.gates:
        _apply_gate(arr, g, table)


def unitary_of(circuit: Circuit, params=None) -> np.ndarray:
    """Dense unitary of the circuit: product of gate matrices in application
    order (the first gate acts first, i.e. sits rightmost in the product)."""
    u = np.eye(2**circuit.n, dtype=complex)
    _evolve(circuit, params, u)
    return u


def apply(circuit: Circuit, params, state: np.ndarray) -> np.ndarray:
    """Run the circuit on a state vector, gate by gate."""
    state = np.asarray(state, dtype=complex)
    d = 2**circuit.n
    if state.shape != (d,):
        raise ValueError(f"state must have length {d}")
    out = state.copy()
    # a trailing singleton axis keeps every sub-view at least 1-D
    _evolve(circuit, params, out.reshape(d, 1))
    return out


def sample(circuit: Circuit, params, state: np.ndarray, shots: int,
           seed: int | np.random.Generator) -> np.ndarray:
    """Multinomial shot histogram over the 2^n basis states."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    amp = apply(circuit, params, state)
    probs = np.abs(amp) ** 2
    probs /= probs.sum()
    return rng.multinomial(shots, probs)


# ---------------------------------------------------------------------------
# peephole pass: the CNOT-reduced layer is its fixpoint on the unreduced chain


def cancel_cnot_pairs(gates) -> tuple[list[Gate], int]:
    """Remove pairs of identical CNOTs with no intervening gate on either
    wire, cascading until none is left.  Returns (kept gates, number of
    gates removed)."""
    out: list[Gate] = []
    removed = 0
    for g in gates:
        if g.kind == "CNOT":
            wires = set(g.qubits)
            for i in range(len(out) - 1, -1, -1):
                prev = out[i]
                if wires & set(prev.qubits):
                    if prev.kind == "CNOT" and prev.qubits == g.qubits:
                        del out[i]
                        removed += 2
                    else:
                        out.append(g)
                    break
            else:
                out.append(g)
        else:
            out.append(g)
    return out, removed


# ---------------------------------------------------------------------------
# serialization


def to_json_dict(circuit: Circuit) -> dict:
    gates = [{"kind": g.kind, "qubits": list(g.qubits), "param": g.param}
             for g in circuit.gates]
    return {"n": circuit.n, "gates": gates, "params": _resolve(circuit, None)}


def from_json_dict(doc: dict) -> Circuit:
    """Inverse of to_json_dict; the "params" table must be the one it writes."""
    if not isinstance(doc.get("gates"), list) or not all(
            isinstance(entry, dict) and isinstance(entry.get("qubits"), list)
            for entry in doc["gates"]):
        raise ValueError("gates must be a list of objects, each with a list of qubits")
    if not isinstance(doc.get("params", {}), dict):
        raise ValueError("params must be an object")
    gates = tuple(Gate(entry["kind"], tuple(entry["qubits"]), entry.get("param"))
                  for entry in doc["gates"])
    circuit = Circuit(doc["n"], gates)
    if list(doc.get("params", {}).items()) != list(_resolve(circuit, None).items()):
        raise ValueError("params must name the gates' angles in first-use order, each at 0.0")
    return circuit


def to_qasm(circuit: Circuit, params=None) -> str:
    """OpenQASM 2.0 text with parameters substituted numerically."""
    table = _resolve(circuit, params)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.n}];"]
    for g in circuit.gates:
        if g.kind == "CNOT":
            lines.append(f"cx q[{g.qubits[0]}],q[{g.qubits[1]}];")
        else:
            lines.append(f"{g.kind.lower()}({_param_value(g, table)!r}) q[{g.qubits[0]}];")
    return "\n".join(lines) + "\n"
