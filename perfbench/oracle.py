"""Reference computations the benchmark checks the program against.

Nothing here imports ``srbb``.  The simulator rebuilds every gate from the
conventions that ``srbb.circuit`` documents, by explicit basis-index
arithmetic:

* qubit 0 is the most significant bit of a basis index;
* ``RZ(phi) = diag(exp(-i phi/2), exp(+i phi/2))``;
* ``RY(phi) = [[cos(phi/2), -sin(phi/2)], [sin(phi/2), cos(phi/2)]]``;
* gates act in list order (the first gate sits rightmost in the product).

Target matrices are written out from their definitions, and the layer's
gate counts come from the paper's closed forms.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# reference simulator


def gate_list(gates) -> list[tuple[str, tuple[int, ...], object]]:
    """(kind, qubits, param) triples from circuit JSON entries, from objects
    with ``kind``, ``qubits`` and ``param`` attributes, or from triples."""
    out = []
    for g in gates:
        if isinstance(g, tuple):
            out.append(g)
        elif isinstance(g, dict):
            out.append((g["kind"], tuple(g["qubits"]), g.get("param")))
        else:
            out.append((g.kind, tuple(g.qubits), g.param))
    return out


def simulate(n: int, gates, values, columns=None) -> np.ndarray:
    """Columns of the circuit's unitary (all of them by default)."""
    d = 1 << n
    cols = np.arange(d) if columns is None else np.asarray(columns, dtype=int)
    start = np.zeros((d, cols.size), dtype=complex)
    start[cols, np.arange(cols.size)] = 1.0
    return evolve(n, gates, values, start)


def evolve(n: int, gates, values, amplitudes: np.ndarray) -> np.ndarray:
    """Apply the gates to a state vector, or to each column of a (2^n, k)
    array, and return the result; the input is not modified."""
    d = 1 << n
    m = np.array(amplitudes, dtype=complex)
    vector = m.ndim == 1
    if vector:
        m = m[:, None]
    if m.shape[0] != d:
        raise ValueError(f"expected {d} rows, got {m.shape[0]}")
    index = np.arange(d)
    bit = [(index >> (n - 1 - q)) & 1 for q in range(n)]
    cnot_source: dict[tuple[int, int], np.ndarray] = {}
    for kind, qubits, param in gate_list(gates):
        if kind == "CNOT":
            c, t = qubits
            src = cnot_source.get((c, t))
            if src is None:
                src = np.where(bit[c] == 1, index ^ (1 << (n - 1 - t)), index)
                cnot_source[(c, t)] = src
            m = m[src]
        elif kind == "RZ":
            (q,) = qubits
            half = 0.5 * _angle(param, values)
            phase = np.where(bit[q] == 0, np.exp(-1j * half), np.exp(1j * half))
            m = phase[:, None] * m
        elif kind == "RY":
            (q,) = qubits
            half = 0.5 * _angle(param, values)
            c, s = math.cos(half), math.sin(half)
            lo = index[bit[q] == 0]
            hi = lo | (1 << (n - 1 - q))
            a, b = m[lo], m[hi]
            m = m.copy()
            m[lo] = c * a - s * b
            m[hi] = s * a + c * b
        else:
            raise ValueError(f"reference simulator has no gate {kind}")
    return m[:, 0] if vector else m


def _angle(param, values) -> float:
    if isinstance(param, str):
        return float(values[param])
    return float(param)


# ---------------------------------------------------------------------------
# target matrices


def _permutation(d: int, pairs) -> np.ndarray:
    order = list(range(d))
    for i, j in pairs:
        order[i], order[j] = order[j], order[i]
    return np.eye(d, dtype=complex)[order]


def dft(n: int) -> np.ndarray:
    """Discrete Fourier transform on 2^n amplitudes: w^(jk)/sqrt(d)."""
    d = 1 << n
    jk = np.outer(np.arange(d), np.arange(d))
    return np.exp(2j * np.pi * jk / d) / math.sqrt(d)


def target(name: str) -> np.ndarray:
    """The matrix of a named gate, from its definition."""
    r = 1 / math.sqrt(2)
    if name == "cnot":          # control qubit 0: |10> <-> |11>
        return _permutation(4, [(2, 3)])
    if name == "swap":          # |01> <-> |10>
        return _permutation(4, [(1, 2)])
    if name == "iswap":
        return np.array([[1, 0, 0, 0], [0, 0, 1j, 0],
                         [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)
    if name == "sqrt-iswap":
        return np.array([[1, 0, 0, 0], [0, r, 1j * r, 0],
                         [0, 1j * r, r, 0], [0, 0, 0, 1]], dtype=complex)
    if name == "bell":          # H on qubit 0, then CNOT(0, 1)
        h = np.array([[r, r], [r, -r]], dtype=complex)
        return target("cnot") @ np.kron(h, np.eye(2))
    if name == "toffoli":       # controls 0 and 1: |110> <-> |111>
        return _permutation(8, [(6, 7)])
    if name.startswith("qft"):
        return dft(int(name[3:]))
    raise ValueError(f"no reference for target {name!r}")


# ---------------------------------------------------------------------------
# closed forms and distances


def layer_counts(n: int) -> tuple[int, int]:
    """(CNOTs, rotations) of the reduced single layer, n >= 3:
    2^(2n+1) - 5*2^(n-1) + 2n - 4 and 2^(2n+1) - 5*2^(n-1) + 1."""
    if n < 3:
        raise ValueError("the closed forms hold for n >= 3")
    base = 2 ** (2 * n + 1) - 5 * 2 ** (n - 1)
    return base + 2 * n - 4, base + 1


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over real phi of ||a exp(i phi) - b||_F."""
    a = np.asarray(a)
    b = np.asarray(b)
    overlap = np.vdot(a, b)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return float(np.linalg.norm(a * phase - b))


def recovered_frobenius(u: np.ndarray, t: np.ndarray) -> float:
    """min over the d-th roots r of det(t) of ||u - t / r||_F: the distance
    after the determinant phase that SU training discards is put back."""
    d = t.shape[0]
    theta = np.angle(np.linalg.det(t))
    roots = np.exp(1j * (theta + 2 * np.pi * np.arange(d)) / d)
    return min(float(np.linalg.norm(u - t / r)) for r in roots)


def unitarity_error(u: np.ndarray) -> float:
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def histogram_outliers(counts, probs, shots: int, sigmas: float = 6.0) -> list[int]:
    """Basis states whose count sits further from shots * p than the
    binomial standard deviation allows (plus two counts of slack)."""
    counts = np.asarray(counts, dtype=float)
    mean = shots * np.asarray(probs, dtype=float)
    spread = sigmas * np.sqrt(mean * np.clip(1.0 - probs, 0.0, None)) + 2.0
    return [int(i) for i in np.nonzero(np.abs(counts - mean) > spread)[0]]
