"""Compilation of the CNOT-reduced single-layer variational circuit.

The circuit factors as Z * Psi * Phi (operator order; gate order is Phi,
Psi, Z).  Phi conjugates odd-parity multiplexed blocks by transposition
CNOT sequences, Psi does the same for even parity and appends one plain
multiplexed block, and Z realises all diagonal rotations through a cyclic
Gray-code CNOT chain per recursion level.

The unreduced Phi and Psi chains wrap every block in its full transposition
CNOT sequence, opening and (reversed) closing, and are built in one place.
The reduced layer is the fixpoint of the peephole pass
`circuit.cancel_cnot_pairs` on those chains followed by the Gray-code
diagonal factor; the naive circuit is the same chains followed by an
unreduced diagonal factor.  Free parameters are named `phi/x/slot`,
`psi/x/slot`, `psi/a/slot`, `z/j` — identical between the reduced and naive
circuits so both accept the same assignment.

Once the peephole pass drops the transposition CNOTs between two blocks,
the closing RZs of one and the opening RZs of the next share parities, so
the simulation plan binds each such pair to one angle slot: only their sum
matters.  Every seam does this; at n = 3: Phi to Phi (`phi/3/12`+`phi/2/4`),
Phi to Psi (`phi/1/12`+`psi/3/2`), Psi to `psi/a` (`psi/1/9`+`psi/a/1`) and
`psi/a` to Z (`psi/a/9`+`z/3`).  The layer keeps 17/81/339/1383/5583 slots
for its 21/109/473/1969/8033 angles at n = 2..6, above 4^n - 1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import _k_of
from .circuit import Circuit, Gate, cancel_cnot_pairs, cnot, rz


def _gray(t: int) -> int:
    return t ^ (t >> 1)


def _ntz(s: int) -> int:
    return (s & -s).bit_length() - 1


def _bits_of(x: int, n: int) -> list[int]:
    """Qubits where x's (n-1)-bit pattern has a 1; qubit j carries 2^(n-2-j)."""
    return [j for j in range(n - 1) if x & (1 << (n - 2 - j))]


# ---------------------------------------------------------------------------
# gate counts


@dataclass(frozen=True)
class GateCounts:
    n_cnot: int
    n_rot: int
    cnot_reduction: int | None = None


def gate_counts(n: int) -> GateCounts:
    """Closed-form gate counts of the reduced single-layer circuit."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n == 2:
        return GateCounts(18, 21, 4)
    base = 2 ** (2 * n + 1) - 5 * 2 ** (n - 1)
    return GateCounts(base + 2 * n - 4, base + 1, 2**n * (2 * n - 5) - 2 * n + 8)


def count_from_circuit(circuit: Circuit) -> GateCounts:
    """Tally of actual gates (cnot_reduction is not derivable from a tally)."""
    n_cnot = sum(1 for g in circuit.gates if g.kind == "CNOT")
    n_rot = sum(1 for g in circuit.gates if g.kind in ("RZ", "RY"))
    return GateCounts(n_cnot, n_rot, None)


# ---------------------------------------------------------------------------
# the diagonal factor


def _z_param(n: int, ordinal: int) -> str:
    return f"z/{(ordinal + 1) ** 2 - 1}"


def z_factor(n: int) -> Circuit:
    """CNOT-reduced diagonal factor: 2^n - 1 RZ gates, 2^n - 2 CNOTs."""
    if n < 2:
        raise ValueError("n must be >= 2")
    gates = []
    for m in range(n, 1, -1):
        # level m: a multiplexed RZ on qubit m-1; slot s rotates the Z-string
        # whose ordinal is 2*gray(s mod 2^(m-1)) + 1 shifted so that its last
        # Z sits on qubit m-1
        rows = 2 ** (m - 1)
        for s, (ctrl, _) in enumerate(_mux_rows(m - 1), start=1):
            gates.append(cnot(ctrl, m - 1))
            gates.append(rz(m - 1, _z_param(n, (2 * _gray(s % rows) + 1) << (n - m))))
    gates.append(rz(0, _z_param(n, 2 ** (n - 1))))
    if n == 2:
        # the last two (commuting) RZs swapped.  This order fixes the n = 2
        # layer's parameter order, and with it the optimiser's start point:
        # the generic order would swap z/8 and z/3 and change every 2-qubit
        # training result.
        gates[-2], gates[-1] = gates[-1], gates[-2]
    return Circuit(n, gates)


def _naive_z_gates(n: int) -> list[Gate]:
    """Unreduced diagonal factor: each Z-string rotation conjugated by its
    own parity chain onto the bottom-most support qubit, ascending order."""
    gates: list[Gate] = []
    for ordinal in range(1, 2**n):
        support = [q for q in range(n) if ordinal & (1 << (n - 1 - q))]
        t = support[-1]
        opens = [cnot(q, t) for q in support[:-1]]
        gates += opens
        gates.append(rz(t, _z_param(n, ordinal)))
        gates += reversed(opens)
    return gates


# ---------------------------------------------------------------------------
# permutation factors


def _perm_even_gates(n: int, x: int) -> list[Gate]:
    return [cnot(n - 1, j) for j in _bits_of(x, n)]


def _perm_odd_gates(n: int, x: int) -> list[Gate]:
    k = _k_of(x, n)
    return [cnot(k, n - 1)] + _perm_even_gates(n, x) + [cnot(k, n - 1)]


def permutation_factor(n: int, x: int, parity: str) -> Circuit:
    """CNOT realisation of the transposition set T_x (opening orientation)."""
    if not 1 <= x <= 2 ** (n - 1) - 1:
        raise ValueError(f"x must be in 1..{2 ** (n - 1) - 1}")
    if parity == "even":
        gates = _perm_even_gates(n, x)
    elif parity == "odd":
        gates = _perm_odd_gates(n, x)
    else:
        raise ValueError("parity must be 'even' or 'odd'")
    return Circuit(n, gates)


# ---------------------------------------------------------------------------
# multiplexed rotation blocks


def _mux_rows(q: int):
    """(control, is_closing) per slot of a full multiplexor on target q
    controlled by qubits 0..q-1."""
    rows = 2**q
    return [(0 if s == rows else q - 1 - _ntz(s), s == rows) for s in range(1, rows + 1)]


def _mzyz_gates(n: int, names) -> list[Gate]:
    """Three multiplexed rotation blocks (RZ, RY, RZ) on the last qubit.
    The first two blocks merge away their closing CNOT."""
    gates: list[Gate] = []
    t = n - 1
    for block, kind in enumerate(("RZ", "RY", "RZ")):
        for ctrl, closing in _mux_rows(t):
            gates.append(Gate(kind, (t,), next(names)))
            if not closing or block == 2:
                gates.append(cnot(ctrl, t))
    return gates


def _name_counter(prefix: str):
    slot = 0
    while True:
        slot += 1
        yield f"{prefix}/{slot}"


def _m_odd_gates(n: int, names) -> list[Gate]:
    pre: list[Gate] = [rz(0, next(names))]
    for q in range(1, n - 1):
        for ctrl, _ in _mux_rows(q):
            pre.append(rz(q, next(names)))
            pre.append(cnot(ctrl, q))
    core = _mzyz_gates(n, names)
    post: list[Gate] = []
    for g in reversed(pre):
        post.append(rz(g.qubits[0], next(names)) if g.kind == "RZ" else g)
    return pre + core + post


# ---------------------------------------------------------------------------
# the three factors and full circuits


def _wrapped_chain(n: int, perm, block, prefix: str) -> list[Gate]:
    """Every block x = 2^(n-1)-1 .. 1 conjugated by its full T_x: opening
    CNOTs, the block, then the opening reversed."""
    gates: list[Gate] = []
    for x in range(2 ** (n - 1) - 1, 0, -1):
        opening = perm(n, x)
        gates += opening
        gates += block(n, _name_counter(f"{prefix}/{x}"))
        gates += reversed(opening)
    return gates


def _odd_chain(n: int) -> list[Gate]:
    # 2-qubit operators fall outside the scaling scheme: their Phi block is
    # the plain ZYZ multiplexor
    block = _mzyz_gates if n == 2 else _m_odd_gates
    return _wrapped_chain(n, _perm_odd_gates, block, "phi")


def _even_chain(n: int) -> list[Gate]:
    return (_wrapped_chain(n, _perm_even_gates, _mzyz_gates, "psi")
            + _mzyz_gates(n, _name_counter("psi/a")))


def synthesize_circuit(n: int) -> Circuit:
    """The reduced single-layer circuit (gate order Phi, Psi, Z)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    layer = cancel_cnot_pairs(_odd_chain(n) + _even_chain(n) + list(z_factor(n).gates))
    return Circuit(n, layer)


def naive_circuit(n: int) -> Circuit:
    """Unreduced equivalence oracle: the Phi and Psi chains with every
    transposition set in full on both sides of its block, then the diagonal
    factor in ascending index order.  Shares parameter names with the
    reduced circuit."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return Circuit(n, _odd_chain(n) + _even_chain(n) + _naive_z_gates(n))
