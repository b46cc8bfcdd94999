"""Gate-level circuit representation and dense simulation.

A Circuit is an ordered list of Gates over n qubits.  Its free parameters
are derived from the gates: the angle names in first-use order.  No angle
values are stored; simulation and QASM export take a name -> angle mapping,
None for every named angle at 0.0, or a vector of angles in free_parameters
order.  The gate set is exactly the layer's: CNOT, RZ and RY; any other
kind, a gate on the wrong number of qubits or on a non-integer qubit, a CNOT
with an angle, or a rotation whose angle is not a name, is rejected when the
Gate is built, and a Circuit needs an integer n >= 1.
Qubit 0 is the most significant bit of a state index, so
|0...0> = (1, 0, ..., 0)^T, and the leftmost gate of a diagram is the first
one applied to the state.

Rotation conventions (these fix all circuit identities downstream):

    RZ(phi) = diag(e^{-i phi/2}, e^{+i phi/2})
    RY(phi) = [[cos(phi/2), -sin(phi/2)], [sin(phi/2), cos(phi/2)]]

so a Z-string rotation exp(i theta Z...Z) is an RZ with phi = -2 theta
conjugated by CNOTs.

Simulation runs a plan that the first simulation of a circuit derives from
its gates and keeps on it.  The gates split into maximal runs of two kinds: a
CNOT/RZ run is a permutation of the basis states with a phase on each, and a
run of RY on one qubit with CNOTs into that qubit is one RY per pattern of
the controls followed by a controlled X.  Each RY run is one vectorised step
on the state (or the column stack of a unitary under construction) that
takes row r to A[r] cols[a[r]] + B[r] cols[b[r]], and each CNOT/RZ run folds
into the step beside it.  value_and_gradient differentiates a loss of the
unitary through the same steps: one sweep forward, then one backward that
un-applies each step and collects the derivative in its angles.  A missing
or non-finite angle, or an angle vector of the wrong shape, is a ValueError
before any work is done.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# qubits each gate kind acts on; the one-qubit kinds are the rotations
_ARITY = {"CNOT": 2, "RZ": 1, "RY": 1}


@dataclass(frozen=True)
class Gate:
    """One gate: RZ or RY with qubits = (target,) and an angle name, or
    CNOT with qubits = (control, target)."""

    kind: str
    qubits: tuple[int, ...]
    param: str | None = None

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
        elif not isinstance(p, str):
            raise ValueError(f"{self.kind} angle must be a name, got {p!r}")


def rz(q: int, param: str) -> Gate:
    return Gate("RZ", (q,), param)


def ry(q: int, param: str) -> Gate:
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
            if g.param is not None:
                names[g.param] = None
        object.__setattr__(self, "free_parameters", tuple(names))

    @cached_property
    def plan(self) -> _Plan:
        """The simulation plan, kept where equality, hash and repr don't look."""
        return _Plan(self)


# ---------------------------------------------------------------------------
# angle binding


def _angle_vector(circuit: Circuit, params) -> np.ndarray:
    """The named angles as a float vector in free_parameters order, from a
    name -> angle mapping, None (all 0.0) or such a vector; every angle must
    be finite."""
    names = circuit.free_parameters
    if params is None:
        return np.zeros(len(names))
    if hasattr(params, "keys"):
        try:
            x = np.array([params[name] for name in names], dtype=float)
        except KeyError as e:
            raise ValueError(f"missing parameter {e.args[0]!r}") from None
    else:
        x = np.asarray(params, dtype=float)
        if x.shape != (len(names),):
            raise ValueError(f"angle vector must have shape ({len(names)},) in "
                             f"free_parameters order, got {x.shape}")
    finite = np.isfinite(x)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"parameter {names[k]!r} is {x[k]}, not a finite angle")
    return x


# ---------------------------------------------------------------------------
# simulation plan


def _parity(v: np.ndarray) -> np.ndarray:
    """popcount(v) mod 2 of each integer 0 <= v < 2^64, by folding halves."""
    for shift in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1


class _Plan:
    """A circuit as a few fused steps of one shape.

    Every maximal gate run is a map L linear over GF(2) plus angles, tracked
    by one rule: qubit q's parity mask starts at bit q, and CNOT(c, t) XORs
    c's mask into t's.  Two kinds of run are fused:

    - a CNOT/RZ run is a phase polynomial (Amy, Maslov & Mosca,
      arXiv:1303.2042): basis state |x> goes to exp(i phi(x)) |L x>.  Each
      RZ(theta_k) on a qubit that holds the parity <m_k, x> adds
      -theta_k/2 * (-1)^<m_k, x> to phi.
    - a run of RY on one target t and CNOTs into t is a uniformly controlled
      rotation (Mottonen et al., quant-ph/0407010).  With the controls at
      pattern x it is X^<f, x> RY(alpha(x)), where f = masks[t] ^ bit[t] is
      the XOR of its controls' bits and alpha(x) = sum_k (-1)^<f_k, x>
      theta_k, f_k being f at the k-th RY, since RY(theta) X = X RY(-theta).

    Either way a run's half-angles are (1/2) W H, where W[s, m] sums the
    angles of run s that carry parity mask m and H[m, x] = (-1)^<m, x> is
    the Walsh-Hadamard matrix; so one bincount and one matrix product bind
    all angles of all runs.  H keeps only the rows of the masks that occur,
    so the plan grows with the circuit rather than with 4^n.

    Every step takes row r of the column stack to
    A[r] cols[a[r]] + B[r] cols[b[r]].  For an RY run, a = L r is the row
    whose rotated amplitude X^<f, x> moves to r, b = a ^ t its partner, and
    A, B = cos, -+sin of the pair's half-angle (minus when a has bit t
    clear).  A CNOT/RZ run, a phase and a gather by L^-1, folds into the RY
    step after it: a and b are gathered through L^-1 and A and B take the
    phases at the new sources.  One that ends the circuit folds into the
    step before it: every row is gathered through L^-1 and takes the phase
    of its output row.  A circuit without RY is one step with B = 0.  A
    and B are products of cos, sin and exp(-i .) of gathered half-angles,
    among which an appended 0 stands for "no rotation" and "no phase".
    """

    def __init__(self, circuit: Circuit):
        n = circuit.n
        d = 1 << n
        xs = np.arange(d)
        index = {name: k for k, name in enumerate(circuit.free_parameters)}
        bit = [1 << (n - 1 - q) for q in range(n)]
        # every rotation's run, parity mask, and index into the angles
        segs, rot_masks, idx = [], [], []
        runs: list[tuple[int | None, list[int]]] = []  # (RY target or None, masks)
        for g in circuit.gates:
            if g.kind == "RY":
                target = g.qubits[0]
            elif g.kind == "CNOT" and runs and runs[-1][0] == g.qubits[1]:
                target = g.qubits[1]
            else:
                target = None
            if not runs or runs[-1][0] != target:
                runs.append((target, bit[:]))
            masks = runs[-1][1]
            if g.kind == "CNOT":
                c, t = g.qubits
                masks[t] ^= masks[c]
                continue
            segs.append(len(runs) - 1)
            rot_masks.append(masks[target] ^ bit[target] if g.kind == "RY" else masks[g.qubits[0]])
            idx.append(index[g.param])
        # the bincount slot of each rotation's angle: its run and its mask
        # among the masks in use
        used, which = np.unique(np.array(rot_masks, dtype=np.intp), return_inverse=True)
        self.walsh = 1.0 - 2.0 * _parity(used[:, None] & xs)
        self.slots = np.array(segs, dtype=np.intp) * len(used) + which
        self.idx = np.array(idx, dtype=np.intp)
        self.runs = len(runs)
        # a step: its sources (a, b) row by row, the sign of the sine in B,
        # and the half-angles it reads: the rotation's, the phases at a and
        # at b, and the phase on the output row, as indices into the runs'
        # half-angles followed by one 0
        zero = len(runs) * d
        steps = []
        lead = None  # a CNOT/RZ run not folded yet: L^-1, and its phase at each row
        for s, (target, masks) in enumerate(runs):
            y = bit @ _parity(np.array(masks)[:, None] & xs)  # y[x] = L x
            if target is None:
                inv = np.empty(d, dtype=np.intp)
                inv[y] = xs
                lead = inv, s * d + inv
                continue
            t = bit[target]
            ab, reads = np.stack((y, y ^ t)), np.full((4, d), zero)
            reads[0] = s * d + (xs & ~t)
            if lead is not None:
                inv, phase = lead
                ab, reads[1:3], lead = inv[ab], phase[ab], None
            steps.append((ab, np.where(y & t, 1.0, -1.0), reads))
        if not steps:
            steps.append((np.stack((xs, xs)), np.ones(d), np.full((4, d), zero)))
        if lead is not None:
            inv, phase = lead
            ab, sign, reads = (field[..., inv] for field in steps[-1])
            reads[3] = phase
            steps[-1] = ab, sign, reads
        self.sources, self.sign, reads = map(np.array, zip(*steps))
        # the bind takes cos and sin of each half-angle the steps read once
        self.reads, at = np.unique(reads, return_inverse=True)
        self.at = at.reshape(reads.shape)

    def _bind(self, x: np.ndarray):
        """The steps' coefficients A and B for angle vector x, as one
        (steps, 2, 2^n) array, with cos, sin and exp(-i .) of the
        half-angles they read."""
        w = np.bincount(self.slots, weights=x[self.idx], minlength=self.runs * len(self.walsh))
        half = np.append(0.5 * (w.reshape(self.runs, len(self.walsh)) @ self.walsh), 0.0)
        cos, sin = np.cos(half[self.reads]), np.sin(half[self.reads])
        phase = cos - 1j * sin  # exp(-i half)
        return self._coefficients(cos, sin, phase), cos, sin, phase

    def _coefficients(self, cos, sin, phase):
        # A = cos * phase at a * phase out, B = sign * sin * phase at b *
        # phase out, with cos and sin of each step's rotation half-angle
        at = self.at
        return (np.stack((cos[at[:, 0]], self.sign * sin[at[:, 0]]), axis=1)
                * phase[at[:, 1:3]] * phase[at[:, 3:]])

    def _sweep(self, coef: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # the steps gather into one buffer and write into two in turn, all
        # made once per call: temporaries made afresh at each step page-fault
        # whenever the allocator hands them back to the system, which turns on
        # where the heap happens to place them.  The sources are in range, so
        # "clip" never clips; it lets take write into its out unbuffered.
        gathered = np.empty((2,) + cols.shape, dtype=complex)
        out = np.empty_like(cols), np.empty_like(cols)
        for k, (ab, c) in enumerate(zip(self.sources, coef[..., None])):
            cols.take(ab, axis=0, out=gathered, mode="clip")
            np.multiply(c, gathered, out=gathered)
            cols = np.add(gathered[0], gathered[1], out=out[k % 2])
        return cols

    @cached_property
    def back(self) -> np.ndarray:
        """The inverse of each step's source rows, which are permutations;
        made on the first gradient, which alone needs them."""
        return np.argsort(self.sources, axis=-1)

    def run(self, x: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """cols, a (2^n, m) stack of columns, after the circuit with angle
        vector x, as a new array."""
        return self._sweep(self._bind(x)[0], cols)

    def value_and_gradient(self, x: np.ndarray, cols: np.ndarray, loss):
        """loss(out) of the columns after the circuit, and its gradient in x.

        loss returns the value and a function that makes the adjoint
        dL/dRe(out) + i dL/dIm(out).  The forward sweep keeps no state per
        step: every step is unitary on row pairs, so the backward sweep
        un-applies it to the columns and to the adjoint alike.  Undoing
        out[r] = A[r] cols[a[r]] + B[r] cols[b[r]] is itself a step, with
        sources the inverse permutations of a and b and coefficients
        conj(A), conj(B) at those rows.  Then dL = Re sum_r (Q_A[r] dA[r] +
        Q_B[r] dB[r]), where Q_A[r] = <adjoint[r], cols[a[r]]> over the
        columns and Q_B likewise, gives the half-angle adjoints, which map
        back to x through 1/2 W H and the bincount of the bind.
        """
        coef, cos, sin, phase = self._bind(x)
        out = self._sweep(coef, cols)
        value, adjoint = loss(out)
        m = out.shape[1]
        # the columns and the adjoint side by side, un-applied together
        both = np.concatenate((out, adjoint()), axis=1)
        gathered = np.empty((2,) + both.shape, dtype=complex)
        product = np.empty_like(gathered)
        undo = np.take_along_axis(coef.conj(), self.back, axis=-1)[..., None]
        # inner[k, i, j] = <cols[j], adjoint[back[k, i, j]]> before step k,
        # the conjugate of Q at row back[k, i, j]
        inner = np.empty(coef.shape + (1, 1), dtype=complex)
        conj = np.empty_like(out)
        for k in range(len(coef) - 1, -1, -1):
            both.take(self.back[k], axis=0, out=gathered, mode="clip")
            np.multiply(undo[k], gathered, out=product)
            np.add(product[0], product[1], out=both)
            np.conjugate(both[:, :m], out=conj)
            np.matmul(gathered[:, :, None, m:], conj[:, :, None], out=inner[k])
        q = np.take_along_axis(inner[..., 0, 0], self.sources, axis=-1).conj()
        # the derivative of A and B in the rotation's half-angle; in a phase
        # half-angle it is -i A or -i B
        turned = self._coefficients(-sin, cos, phase)
        qc = q * coef
        grads = np.empty(self.at.shape)
        grads[:, 0] = (q * turned).real.sum(axis=1)
        grads[:, 1:3] = qc.imag
        grads[:, 3] = grads[:, 1] + grads[:, 2]
        half = np.bincount(self.at.ravel(), grads.ravel(), minlength=len(self.reads))
        d = self.walsh.shape[1]
        half = np.bincount(self.reads, half, minlength=self.runs * d + 1)
        w = 0.5 * (half[:-1].reshape(self.runs, d) @ self.walsh.T)
        return value, np.bincount(self.idx, w.ravel()[self.slots], minlength=len(x))


def unitary_of(circuit: Circuit, params=None) -> np.ndarray:
    """Dense unitary of the circuit: product of gate matrices in application
    order (the first gate acts first, i.e. sits rightmost in the product).
    params is a name -> angle mapping, None (every angle 0.0) or a vector of
    angles in free_parameters order."""
    x = _angle_vector(circuit, params)
    return circuit.plan.run(x, np.eye(2**circuit.n, dtype=complex))


def value_and_gradient(circuit: Circuit, params, loss) -> tuple[float, np.ndarray]:
    """loss of the circuit's unitary U, and its gradient over the angles in
    free_parameters order, from one forward and one backward sweep (the
    adjoint method, Jones & Gacon, arXiv:2009.02823).  loss(U) returns
    (value, adjoint), adjoint() making dL/dRe(U) + i dL/dIm(U); params as
    for unitary_of."""
    x = _angle_vector(circuit, params)
    return circuit.plan.value_and_gradient(x, np.eye(2**circuit.n, dtype=complex), loss)


def apply(circuit: Circuit, params, state: np.ndarray) -> np.ndarray:
    """The circuit applied to a state vector, as a new array; params as for
    unitary_of."""
    d = 2**circuit.n
    state = np.asarray(state, dtype=complex)
    if state.shape != (d,):
        raise ValueError(f"state must have length {d}")
    x = _angle_vector(circuit, params)
    return circuit.plan.run(x, state.reshape(d, 1)).reshape(d)


def sample(circuit: Circuit, params, state: np.ndarray, shots: int,
           seed: int) -> np.ndarray:
    """Multinomial shot histogram over the 2^n basis states."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    amp = apply(circuit, params, state)
    probs = np.abs(amp) ** 2
    probs /= probs.sum()
    return np.random.default_rng(seed).multinomial(shots, probs)


# ---------------------------------------------------------------------------
# peephole pass: the CNOT-reduced layer is its fixpoint on the unreduced chain


def cancel_cnot_pairs(gates) -> list[Gate]:
    """Remove pairs of identical CNOTs with no intervening gate on either
    wire, cascading until none is left.  Returns the kept gates only."""
    out: list[Gate] = []
    for g in gates:
        if g.kind == "CNOT":
            wires = set(g.qubits)
            for i in range(len(out) - 1, -1, -1):
                prev = out[i]
                if wires & set(prev.qubits):
                    if prev.kind == "CNOT" and prev.qubits == g.qubits:
                        del out[i]
                    else:
                        out.append(g)
                    break
            else:
                out.append(g)
        else:
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# serialization


def to_json_dict(circuit: Circuit) -> dict:
    gates = [{"kind": g.kind, "qubits": list(g.qubits), "param": g.param}
             for g in circuit.gates]
    return {"n": circuit.n, "gates": gates,
            "params": dict.fromkeys(circuit.free_parameters, 0.0)}


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
    zeros = dict.fromkeys(circuit.free_parameters, 0.0)
    if list(doc.get("params", {}).items()) != list(zeros.items()):
        raise ValueError("params must name the gates' angles in first-use order, each at 0.0")
    return circuit


def to_qasm(circuit: Circuit, params=None) -> str:
    """OpenQASM 2.0 text with the angles substituted numerically; params as
    for unitary_of."""
    named = dict(zip(circuit.free_parameters, _angle_vector(circuit, params)))
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.n}];"]
    for g in circuit.gates:
        if g.kind == "CNOT":
            lines.append(f"cx q[{g.qubits[0]}],q[{g.qubits[1]}];")
        else:
            lines.append(f"{g.kind.lower()}({float(named[g.param])!r}) q[{g.qubits[0]}];")
    return "\n".join(lines) + "\n"
