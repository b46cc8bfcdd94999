"""Registry of ideal target unitaries for synthesis benchmarks.

Composite entries are named by their circuit layers, leftmost layer applied
first: gates within a layer are joined by ``+`` (they act on disjoint
qubits), layers are joined by ``-``.  So ``x0+cx12-cx01+y2`` is X on qubit 0
together with CNOT(1,2), followed by CNOT(0,1) together with Y on qubit 2.
Lookups are case-insensitive.  Entries are plain matrix products of the
fixed gates below (`_u`), with qubit 0 the most significant bit as in
`srbb.circuit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * (1.0 / math.sqrt(2.0))
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
SX = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
CX = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
# RY(pi/4) in the convention of srbb.circuit
RY_PI_4 = np.array([[math.cos(math.pi / 8), -math.sin(math.pi / 8)],
                    [math.sin(math.pi / 8), math.cos(math.pi / 8)]], dtype=complex)
ISWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)
SQRT_ISWAP = np.array(
    [[1, 0, 0, 0],
     [0, 1 / np.sqrt(2), 1j / np.sqrt(2), 0],
     [0, 1j / np.sqrt(2), 1 / np.sqrt(2), 0],
     [0, 0, 0, 1]], dtype=complex)


@dataclass(frozen=True)
class TargetSpec:
    name: str
    n: int
    unitary: np.ndarray


def _ctrl(m: np.ndarray, pattern: tuple[int, ...]) -> np.ndarray:
    """m where the leading control qubits read `pattern` (1 = filled control,
    0 = open control), the identity elsewhere."""
    d = len(m)
    k = int("".join(map(str, pattern)), 2) * d
    out = np.eye(d << len(pattern), dtype=complex)
    out[k:k + d, k:k + d] = m
    return out


def _op(n: int, m: np.ndarray, *qubits: int) -> np.ndarray:
    """m acting on `qubits` (its most significant bit first) of n qubits,
    the identity on the rest; qubit 0 is the most significant bit."""
    full = np.kron(m, np.eye(2 ** (n - len(qubits))))
    order = list(qubits) + [q for q in range(n) if q not in qubits]
    axes = list(np.argsort(order))
    full = full.reshape((2,) * (2 * n)).transpose(axes + [n + a for a in axes])
    return full.reshape(2**n, 2**n)


def _u(n: int, *ops) -> np.ndarray:
    """Product of (matrix, *qubits) ops in application order."""
    u = np.eye(2**n, dtype=complex)
    for m, *qubits in ops:
        u = _op(n, m, *qubits) @ u
    return u


def qft(n: int) -> TargetSpec:
    """Discrete Fourier transform on 2^n amplitudes: entries w^{jk}/sqrt(d)."""
    d = 2**n
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    m = np.exp(2j * np.pi * j * k / d) / np.sqrt(d)
    return TargetSpec(f"qft{n}", n, m)


def grover(n: int) -> TargetSpec:
    """One Grover iteration: diffusion after an oracle marking |1...1>."""
    d = 2**n
    oracle = np.eye(d)
    oracle[-1, -1] = -1.0
    diffusion = np.full((d, d), 2.0 / d) - np.eye(d)
    return TargetSpec(f"grover{n}", n, (diffusion @ oracle).astype(complex))


def random_su(n: int, seed: int) -> TargetSpec:
    """Haar-random special unitary: QR with phase-corrected diagonal, then
    divided by a d-th root of the determinant."""
    d = 2**n
    rng = np.random.default_rng(seed)
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    q = q / np.exp(np.log(np.linalg.det(q)) / d)
    return TargetSpec(f"random-su-{n}-{seed}", n, q)


_REGISTRY: dict[int, dict[str, object]] = {
    2: {
        "cnot": lambda: _u(2, (CX, 0, 1)),
        "cnot21": lambda: _u(2, (CX, 1, 0)),
        "xx": lambda: _u(2, (X, 0), (X, 1)),
        "yy": lambda: _u(2, (Y, 0), (Y, 1)),
        "zz": lambda: _u(2, (Z, 0), (Z, 1)),
        "sqrt-iswap": lambda: SQRT_ISWAP.copy(),
        "xz": lambda: _u(2, (X, 0), (Z, 1)),
        "zx": lambda: _u(2, (Z, 0), (X, 1)),
        "zy": lambda: _u(2, (Z, 0), (Y, 1)),
        "hi": lambda: _u(2, (H, 0)),
        "hh": lambda: _u(2, (H, 0), (H, 1)),
        "iswap": lambda: ISWAP.copy(),
        "cs": lambda: _u(2, (_ctrl(S, (1,)), 0, 1)),
        "ct": lambda: _u(2, (_ctrl(T, (1,)), 0, 1)),
        "sqrtx-i": lambda: _u(2, (SX, 0)),
        "xxyy": lambda: _u(2, (X, 0), (X, 1), (Y, 0), (Y, 1)),
        "swap": lambda: _u(2, (SWAP, 0, 1)),
        "bell": lambda: _u(2, (H, 0), (CX, 0, 1)),
        "qft2": lambda: qft(2).unitary,
        "grover2": lambda: grover(2).unitary,
    },
    3: {
        "cx01": lambda: _u(3, (CX, 0, 1)),
        "cx01+h2": lambda: _u(3, (CX, 0, 1), (H, 2)),
        "cx21": lambda: _u(3, (CX, 2, 1)),
        "cx02": lambda: _u(3, (CX, 0, 2)),
        "cx01+x2": lambda: _u(3, (CX, 0, 1), (X, 2)),
        "cx01+y2": lambda: _u(3, (CX, 0, 1), (Y, 2)),
        "cx01+z2": lambda: _u(3, (CX, 0, 1), (Z, 2)),
        "xxx": lambda: _u(3, (X, 0), (X, 1), (X, 2)),
        "xyx": lambda: _u(3, (X, 0), (Y, 1), (X, 2)),
        "xyz": lambda: _u(3, (X, 0), (Y, 1), (Z, 2)),
        "hhh": lambda: _u(3, (H, 0), (H, 1), (H, 2)),
        "cx12-cx01": lambda: _u(3, (CX, 1, 2), (CX, 0, 1)),
        "cx21-cx10": lambda: _u(3, (CX, 2, 1), (CX, 1, 0)),
        "cx02-cx12": lambda: _u(3, (CX, 0, 2), (CX, 1, 2)),
        "toffoli": lambda: _u(3, (_ctrl(X, (1, 1)), 0, 1, 2)),
        "grover3": lambda: grover(3).unitary,
        "cx20": lambda: _u(3, (CX, 2, 0)),
        "ccry": lambda: _u(3, (_ctrl(RY_PI_4, (1, 0)), 0, 1, 2)),
        "x0+cx12-cx01+y2": lambda: _u(3, (X, 0), (CX, 1, 2), (CX, 0, 1), (Y, 2)),
        "hhh-xyx": lambda: _u(3, (H, 0), (H, 1), (H, 2), (X, 0), (Y, 1), (X, 2)),
        "hhh-xyz": lambda: _u(3, (H, 0), (H, 1), (H, 2), (X, 0), (Y, 1), (Z, 2)),
        "hhh-xxx": lambda: _u(3, (H, 0), (H, 1), (H, 2), (X, 0), (X, 1), (X, 2)),
        "h0+x1+x2-y1+z2": lambda: _u(3, (H, 0), (X, 1), (X, 2), (Y, 1), (Z, 2)),
        "ccx-open": lambda: _u(3, (_ctrl(X, (0, 0)), 0, 1, 2)),
        "sqrtx0-h1+h2-y0+cs12": lambda: _u(3, (SX, 0), (H, 1), (H, 2), (Y, 0),
                                           (_ctrl(S, (1,)), 1, 2)),
        "h0-cx01-h1-cx12": lambda: _u(3, (H, 0), (CX, 0, 1), (H, 1), (CX, 1, 2)),
        "qft3": lambda: qft(3).unitary,
        # standard three-qubit gates named in the comparison tables without
        # diagrams
        "fredkin": lambda: _u(3, (_ctrl(SWAP, (1,)), 0, 1, 2)),
        "peres": lambda: _u(3, (_ctrl(X, (1, 1)), 0, 1, 2), (CX, 0, 1)),
    },
    4: {
        "cx01+cx23": lambda: _u(4, (CX, 0, 1), (CX, 2, 3)),
        "cx01+cx32": lambda: _u(4, (CX, 0, 1), (CX, 3, 2)),
        "cx01-cx02-cx03": lambda: _u(4, (CX, 0, 1), (CX, 0, 2), (CX, 0, 3)),
        "cx10-cx02-cx23-cx31": lambda: _u(4, (CX, 1, 0), (CX, 0, 2), (CX, 2, 3),
                                          (CX, 3, 1)),
        "h0+h1-cx12-h2+h3": lambda: _u(4, (H, 0), (H, 1), (CX, 1, 2), (H, 2), (H, 3)),
        "hhhh-xyzx": lambda: _u(4, (H, 0), (H, 1), (H, 2), (H, 3),
                                (X, 0), (Y, 1), (Z, 2), (X, 3)),
        "swap01+sqrtx2-cx23": lambda: _u(4, (SWAP, 0, 1), (SX, 2), (CX, 2, 3)),
        "grover4": lambda: grover(4).unitary,
        "h0-cx01-h1-cx12-h2-cx23": lambda: _u(4, (H, 0), (CX, 0, 1), (H, 1),
                                              (CX, 1, 2), (H, 2), (CX, 2, 3)),
        "cccx": lambda: _u(4, (_ctrl(X, (1, 1, 1)), 0, 1, 2, 3)),
        "cccx-010": lambda: _u(4, (_ctrl(X, (0, 1, 0)), 0, 1, 2, 3)),
        "cccry": lambda: _u(4, (_ctrl(RY_PI_4, (0, 1, 0)), 0, 1, 2, 3)),
        "iswap01-cx12-cs23": lambda: _u(4, (ISWAP, 0, 1), (CX, 1, 2),
                                        (_ctrl(S, (1,)), 2, 3)),
        "x0+cx12+y3-cx01+y2+x3": lambda: _u(4, (X, 0), (CX, 1, 2), (Y, 3),
                                            (CX, 0, 1), (Y, 2), (X, 3)),
        "toffoli012": lambda: _u(4, (_ctrl(X, (1, 1)), 0, 1, 2)),
        "qft4": lambda: qft(4).unitary,
    },
    5: {
        "qft5": lambda: qft(5).unitary,
        "grover5": lambda: grover(5).unitary,
    },
    6: {
        "qft6": lambda: qft(6).unitary,
        "grover6": lambda: grover(6).unitary,
    },
}


def target_names(n: int | None = None) -> list[tuple[str, int]]:
    """(name, n) pairs in registry order, optionally filtered by n."""
    out = []
    for nn in sorted(_REGISTRY):
        if n is None or nn == n:
            out.extend((name, nn) for name in _REGISTRY[nn])
    return out


def named_target(name: str, n: int) -> TargetSpec:
    """Look up a registry target; raises ValueError for unknown names."""
    key = name.lower()
    table = _REGISTRY.get(n, {})
    if key not in table:
        known = ", ".join(sorted(table)) or "none"
        raise ValueError(f"unknown target {name!r} for n={n} (known: {known})")
    return TargetSpec(key, n, table[key]())
