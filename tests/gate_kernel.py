"""Gate-by-gate simulation: the oracle for srbb.circuit's fused plan.

The state (or the column stack of a unitary) is reshaped to one axis per
qubit and each gate acts in place on axis slices: a CNOT swaps the two target
slices of its control's |1> slice, and a rotation mixes or phases the two
slices of its qubit.  Angles come from a name -> angle mapping.
"""
import math

import numpy as np


def _axis_views(arr, q):
    pre = (slice(None),) * q
    return arr[pre + (0,)], arr[pre + (1,)]


def _apply_gate(arr, gate, params) -> None:
    """Apply one gate in place; arr has one axis per qubit plus a trailing
    axis that broadcasts."""
    if gate.kind == "CNOT":
        c, t = gate.qubits
        view = arr[(slice(None),) * c + (1,)]
        a0, a1 = _axis_views(view, t - 1 if t > c else t)
        t0 = a0.copy()
        a0[...] = a1
        a1[...] = t0
        return
    a0, a1 = _axis_views(arr, gate.qubits[0])
    half = 0.5 * params[gate.param]
    if gate.kind == "RZ":
        a0 *= complex(math.cos(half), -math.sin(half))
        a1 *= complex(math.cos(half), math.sin(half))
    else:
        c, s = math.cos(half), math.sin(half)
        t0 = a0.copy()
        a0 *= c
        a0 -= s * a1
        a1 *= c
        a1 += s * t0


def evolve(circuit, params, cols) -> np.ndarray:
    """cols, a (2^n, m) stack of columns, after the circuit's gates."""
    out = np.array(cols, dtype=complex)
    arr = out.reshape((2,) * circuit.n + (out.shape[1],))
    for gate in circuit.gates:
        _apply_gate(arr, gate, params)
    return out


def unitary(circuit, params) -> np.ndarray:
    return evolve(circuit, params, np.eye(2**circuit.n))


def apply(circuit, params, state) -> np.ndarray:
    return evolve(circuit, params, np.reshape(state, (-1, 1)))[:, 0]
