"""Gate-level circuit representation and dense simulation.

A Circuit is an ordered list of Gates over n qubits plus a table of named
free angles.  Qubit 0 is the most significant bit of a state index, so
|0...0> = (1, 0, ..., 0)^T, and the leftmost gate of a diagram is the first
one applied to the state.

Rotation conventions (these fix all circuit identities downstream):

    RZ(phi) = diag(e^{-i phi/2}, e^{+i phi/2})
    RY(phi) = [[cos(phi/2), -sin(phi/2)], [sin(phi/2), cos(phi/2)]]

so a Z-string rotation exp(i theta Z...Z) is an RZ with phi = -2 theta
conjugated by CNOTs.

Simulation never materializes per-gate matrices: the state (or the column
stack of a unitary under construction) is reshaped to one axis per qubit and
gates act in place on axis slices.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# fixed single-qubit matrices (generic fallback path)
FIXED_GATES = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "SX": np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2,
}

ROTATION_KINDS = {"RZ", "RY"}


@dataclass(frozen=True)
class Gate:
    """One gate. qubits = (target,), (control, target), or for CONTROLLED
    (controls..., targets...) with polarity aligned to the controls
    (1 = filled/active-on-|1>, 0 = open)."""

    kind: str
    qubits: tuple[int, ...]
    param: str | float | None = None
    base: str | None = None           # CONTROLLED only
    polarity: tuple[int, ...] | None = None  # CONTROLLED only

    def __post_init__(self):
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubit in {self.kind} gate: {self.qubits}")
        if self.kind in ROTATION_KINDS and self.param is None:
            raise ValueError(f"{self.kind} gate needs a parameter")
        if self.kind == "CONTROLLED" and (self.base is None or self.polarity is None):
            raise ValueError("CONTROLLED gate needs base kind and polarity")


def rz(q: int, param: str | float) -> Gate:
    return Gate("RZ", (q,), param)


def ry(q: int, param: str | float) -> Gate:
    return Gate("RY", (q,), param)


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def controlled(base: str, controls: tuple[int, ...], targets: tuple[int, ...],
               polarity: tuple[int, ...] | None = None,
               param: str | float | None = None) -> Gate:
    if polarity is None:
        polarity = (1,) * len(controls)
    return Gate("CONTROLLED", tuple(controls) + tuple(targets),
                param=param, base=base, polarity=tuple(polarity))


@dataclass(frozen=True)
class ParamTable:
    """Ordered named angles (radians)."""

    names: tuple[str, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate parameter names")
        if len(self.names) != len(self.values):
            raise ValueError("names/values length mismatch")

    @classmethod
    def zeros(cls, names) -> "ParamTable":
        names = tuple(names)
        return cls(names, (0.0,) * len(names))

    @classmethod
    def from_dict(cls, d: dict) -> "ParamTable":
        return cls(tuple(d.keys()), tuple(float(v) for v in d.values()))

    def with_values(self, values) -> "ParamTable":
        return ParamTable(self.names, tuple(float(v) for v in values))

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, self.values))

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class Circuit:
    """n qubits, gates in application order, canonical free-parameter table."""

    n: int
    gates: tuple[Gate, ...]
    params: ParamTable = field(default_factory=lambda: ParamTable((), ()))

    def __post_init__(self):
        for g in self.gates:
            if any(q < 0 or q >= self.n for q in g.qubits):
                raise ValueError(f"gate {g.kind}{g.qubits} outside {self.n} qubits")

    @property
    def free_parameters(self) -> tuple[str, ...]:
        return self.params.names


def circuit_from_gates(n: int, gates) -> Circuit:
    """Build a circuit, collecting named parameters in first-use order."""
    gates = tuple(gates)
    names: list[str] = []
    seen = set()
    for g in gates:
        if isinstance(g.param, str) and g.param not in seen:
            seen.add(g.param)
            names.append(g.param)
    return Circuit(n, gates, ParamTable.zeros(names))


# ---------------------------------------------------------------------------
# simulation kernels


def _resolve(circuit: "Circuit", params) -> dict:
    if params is None:
        params = circuit.params
    if isinstance(params, ParamTable):
        return params.as_dict()
    return dict(params)


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


def _apply_1q(arr: np.ndarray, q: int, kind: str, value: float | None) -> None:
    """Apply a single-qubit gate in place on axis q (extra axes broadcast)."""
    a0, a1 = _axis_views(arr, q)
    if kind == "RZ":
        half = 0.5 * value
        a0 *= complex(math.cos(half), -math.sin(half))
        a1 *= complex(math.cos(half), math.sin(half))
    elif kind == "RY":
        c, s = math.cos(0.5 * value), math.sin(0.5 * value)
        t0 = a0.copy()
        a0 *= c
        a0 -= s * a1
        a1 *= c
        a1 += s * t0
    elif kind == "X":
        t0 = a0.copy()
        a0[...] = a1
        a1[...] = t0
    elif kind == "Z":
        a1 *= -1.0
    elif kind == "S":
        a1 *= 1j
    elif kind == "T":
        a1 *= FIXED_GATES["T"][1, 1]
    else:
        m = FIXED_GATES[kind]
        t0 = a0.copy()
        a0 *= m[0, 0]
        a0 += m[0, 1] * a1
        a1 *= m[1, 1]
        a1 += m[1, 0] * t0


def _apply_gate(arr: np.ndarray, g: Gate, table: dict) -> None:
    kind = g.kind
    if kind == "CNOT":
        c, t = g.qubits
        view = arr[(slice(None),) * c + (1,)]
        _apply_1q(view, t - 1 if t > c else t, "X", None)
    elif kind == "SWAP":
        a, b = g.qubits
        arr[...] = arr.swapaxes(a, b).copy()
    elif kind == "CONTROLLED":
        ncontrols = len(g.polarity)
        controls, targets = g.qubits[:ncontrols], g.qubits[ncontrols:]
        idx = [slice(None)] * arr.ndim
        for c, pol in zip(controls, g.polarity):
            idx[c] = pol
        view = arr[tuple(idx)]
        shift = lambda t: t - sum(1 for c in controls if c < t)
        if g.base == "SWAP":
            a, b = (shift(t) for t in targets)
            view[...] = view.swapaxes(a, b).copy()
        elif g.base == "CNOT":
            c, t = (shift(t) for t in targets)
            inner = view[(slice(None),) * c + (1,)]
            _apply_1q(inner, t - 1 if t > c else t, "X", None)
        else:
            value = _param_value(g, table) if g.base in ROTATION_KINDS else None
            _apply_1q(view, shift(targets[0]), g.base, value)
    else:
        value = _param_value(g, table) if kind in ROTATION_KINDS else None
        _apply_1q(arr, g.qubits[0], kind, value)


def unitary_of(circuit: Circuit, params=None) -> np.ndarray:
    """Dense unitary of the circuit: product of gate matrices in application
    order (the first gate acts first, i.e. sits rightmost in the product)."""
    table = _resolve(circuit, params)
    d = 2**circuit.n
    u = np.eye(d, dtype=complex)
    arr = u.reshape((2,) * circuit.n + (d,))
    for g in circuit.gates:
        _apply_gate(arr, g, table)
    return u


def apply(circuit: Circuit, params, state: np.ndarray) -> np.ndarray:
    """Run the circuit on a state vector, gate by gate."""
    state = np.asarray(state, dtype=complex)
    d = 2**circuit.n
    if state.shape != (d,):
        raise ValueError(f"state must have length {d}")
    table = _resolve(circuit, params)
    out = state.copy()
    # trailing singleton axis keeps every sub-view at least 1-D
    arr = out.reshape((2,) * circuit.n + (1,))
    for g in circuit.gates:
        _apply_gate(arr, g, table)
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


def cancel_adjacent_cnots(circuit: Circuit) -> tuple[Circuit, int]:
    """`cancel_cnot_pairs` on a circuit.  Returns (new circuit, number of
    gates removed)."""
    out, removed = cancel_cnot_pairs(circuit.gates)
    return Circuit(circuit.n, tuple(out), circuit.params), removed


# ---------------------------------------------------------------------------
# serialization


def to_json_dict(circuit: Circuit) -> dict:
    gates = []
    for g in circuit.gates:
        entry: dict = {"kind": g.kind, "qubits": list(g.qubits), "param": g.param}
        if g.kind == "CONTROLLED":
            entry["base"] = g.base
            entry["polarity"] = list(g.polarity)
        gates.append(entry)
    return {"n": circuit.n, "gates": gates, "params": circuit.params.as_dict()}


def to_json(circuit: Circuit) -> str:
    return json.dumps(to_json_dict(circuit))


def from_json_dict(doc: dict) -> Circuit:
    gates = []
    for entry in doc["gates"]:
        gates.append(Gate(
            entry["kind"], tuple(entry["qubits"]), entry.get("param"),
            base=entry.get("base"),
            polarity=tuple(entry["polarity"]) if entry.get("polarity") else None,
        ))
    params = ParamTable.from_dict(doc.get("params", {}))
    return Circuit(doc["n"], tuple(gates), params)


def from_json(text: str) -> Circuit:
    return from_json_dict(json.loads(text))


_QASM_SIMPLE = {"H": "h", "X": "x", "Y": "y", "Z": "z", "S": "s", "T": "t", "SX": "sx"}


def to_qasm(circuit: Circuit, params=None) -> str:
    """OpenQASM 2.0 text with parameters substituted numerically."""
    table = _resolve(circuit, params)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.n}];"]
    for g in circuit.gates:
        lines.append(_qasm_line(g, table))
    return "\n".join(lines) + "\n"


def _qasm_line(g: Gate, table: dict) -> str:
    if g.kind in ("RZ", "RY"):
        return f"{g.kind.lower()}({_param_value(g, table)!r}) q[{g.qubits[0]}];"
    if g.kind == "CNOT":
        return f"cx q[{g.qubits[0]}],q[{g.qubits[1]}];"
    if g.kind == "SWAP":
        return f"swap q[{g.qubits[0]}],q[{g.qubits[1]}];"
    if g.kind in _QASM_SIMPLE:
        return f"{_QASM_SIMPLE[g.kind]} q[{g.qubits[0]}];"
    if g.kind == "CONTROLLED":
        return _qasm_controlled(g, table)
    raise ValueError(f"no OpenQASM 2.0 encoding for {g.kind}")


def _qasm_controlled(g: Gate, table: dict) -> str:
    ncontrols = len(g.polarity)
    controls, targets = g.qubits[:ncontrols], g.qubits[ncontrols:]
    flips = [f"x q[{c}];" for c, pol in zip(controls, g.polarity) if pol == 0]
    if g.base == "X" and ncontrols == 1:
        core = f"cx q[{controls[0]}],q[{targets[0]}];"
    elif g.base == "X" and ncontrols == 2:
        core = f"ccx q[{controls[0]}],q[{controls[1]}],q[{targets[0]}];"
    elif g.base == "S" and ncontrols == 1:
        core = f"cu1({math.pi / 2!r}) q[{controls[0]}],q[{targets[0]}];"
    elif g.base == "T" and ncontrols == 1:
        core = f"cu1({math.pi / 4!r}) q[{controls[0]}],q[{targets[0]}];"
    elif g.base == "RY" and ncontrols == 1:
        core = f"cu3({_param_value(g, table)!r},0,0) q[{controls[0]}],q[{targets[0]}];"
    elif g.base == "SWAP" and ncontrols == 1:
        a, b = targets
        core = (f"cx q[{b}],q[{a}]; ccx q[{controls[0]}],q[{a}],q[{b}]; "
                f"cx q[{b}],q[{a}];")
    else:
        raise ValueError(f"no OpenQASM 2.0 encoding for CONTROLLED({g.base}) "
                         f"with {ncontrols} controls")
    return " ".join(flips + [core] + flips)
