"""Losses, phase recovery and optimizers for fitting basis circuits to targets.

Each loss is written once, in ``_loss``, as its value on the circuit's
unitary and its adjoint there.  Nelder-Mead asks for the value alone, one
forward simulation an evaluation.  Adam asks for both, and
``circuit.value_and_gradient`` turns the adjoint into the exact gradient
over every angle with a second forward sweep through the simulation plan.
``fd_gradient`` is the finite-difference oracle the tests hold that
gradient to.

Metric conventions used throughout (the pure-state forms that ``_loss``
and the holdout metrics in ``train`` evaluate):

* the ``"trace"`` loss is the trace distance as the full trace norm
  tr sqrt((rho-sigma)^dag (rho-sigma)) with no 1/2 prefactor, so pure
  orthogonal states are at distance 2, not 1;
* the ``"fidelity"`` loss is 1 - F, with F = (tr sqrt(sqrt(rho) sigma
  sqrt(rho)))^2;
* batch losses are averaged over the batch.

The density-matrix forms of both metrics live in the tests
(``tests/metrics.py``), which check the overlap formulas against them.

Training is deterministic for a given seed: all randomness (parameter
initialization, state datasets, holdout states) flows from one SeedSequence,
and batch reductions happen in fixed index order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, unitary_of, value_and_gradient
from .compiler import gate_counts, synthesize_circuit

LOSSES = ("frobenius", "trace", "fidelity")
OPTIMIZERS = ("nm", "adam")
# Nelder-Mead holds a (dim+1) x dim simplex and evaluates every vertex before
# its first step: at n = 5 that is 30 MB and about 30 s, at n = 6 0.5 GB and
# about 8000 evaluations of a 16k-gate circuit
NM_MAX_QUBITS = 5


def _check_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(u).all():
        raise ValueError("matrix has non-finite entries")
    d = u.shape[0]
    if np.linalg.norm(u.conj().T @ u - np.eye(d)) > 1e-8:
        raise ValueError("matrix is not unitary")
    return u


def _det_roots(u: np.ndarray) -> np.ndarray:
    """All d-th complex roots of det(u), principal root first."""
    d = u.shape[0]
    principal = np.exp(np.log(np.linalg.det(u).astype(complex)) / d)
    return principal * np.exp(2j * np.pi * np.arange(d) / d)


def su_projections(u: np.ndarray) -> list[np.ndarray]:
    """u divided by each d-th root of its determinant; every result has det 1."""
    u = _check_unitary(u)
    return [u / r for r in _det_roots(u)]


def phase_recovery(su_approx: np.ndarray, u_ideal: np.ndarray) -> np.ndarray:
    """Undo the determinant-root rescaling that maps u_ideal closest to su_approx.

    Among the special-unitary projections of u_ideal, the one nearest
    su_approx in Frobenius distance identifies the phase the training
    discarded; multiplying su_approx by that root returns an approximation of
    u_ideal itself.
    """
    su_approx = np.asarray(su_approx, dtype=complex)
    u_ideal = _check_unitary(u_ideal)
    roots = _det_roots(u_ideal)
    dists = [np.linalg.norm(su_approx - u_ideal / r) for r in roots]
    return su_approx * roots[int(np.argmin(dists))]


def _nearest_su(u: np.ndarray) -> np.ndarray:
    """SU projection of u nearest the identity.

    Ties (equidistant roots) go to the root with the smallest principal
    argument, which keeps the choice deterministic.
    """
    roots = _det_roots(u)
    dists = np.array([np.linalg.norm(u / r - np.eye(u.shape[0])) for r in roots])
    best = dists.min()
    tied = [r for r, dd in zip(roots, dists) if dd - best < 1e-12]
    root = min(tied, key=lambda r: np.angle(r))
    return u / root


def random_states(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, d) array of Haar-random pure states (normalized complex Gaussians)."""
    z = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def fd_gradient(objective, x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient, one coordinate at a time.

    Nothing in the package calls it: it is the oracle the tests check the
    exact gradient against.  It stays here because perfbench's tracer looks
    it up by name in this module."""
    step = 1e-6
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (objective(x + e) - objective(x - e)) / (2.0 * step)
    return g


# ---------------------------------------------------------------------------
# optimizers


def nelder_mead(objective, x0, max_iter: int = 10000, tol: float = 1e-12,
                callback=None) -> tuple[np.ndarray, float]:
    """Downhill simplex with reflection 1, expansion 2, contraction and
    shrink 0.5.  Stops when the simplex spread (worst-to-best distance in
    both x and f) falls below tol, or after max_iter iterations.  A NaN
    objective value aborts with a diagnostic."""
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size

    evals = [0]

    def f(x):
        v = float(objective(x))
        evals[0] += 1
        if math.isnan(v):
            raise RuntimeError(
                f"objective returned NaN after {evals[0]} evaluations at x={x!r}")
        return v

    # scipy-style initial simplex: 5% bump per coordinate, absolute for zeros
    simplex = [x0]
    for i in range(dim):
        p = x0.copy()
        p[i] = p[i] * 1.05 if p[i] != 0.0 else 0.00025
        simplex.append(p)
    simplex = np.array(simplex)
    fvals = np.array([f(p) for p in simplex])

    for it in range(max_iter):
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        if callback is not None:
            callback(fvals[0])
        # the O(dim^2) x-spread only runs once the f-spread has passed
        spread_f = np.abs(fvals[1:] - fvals[0]).max()
        if spread_f < tol and np.abs(simplex[1:] - simplex[0]).max() < tol:
            break

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        xr = centroid + (centroid - worst)
        fr = f(xr)
        if fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - worst)
            fe = f(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + 0.5 * (xr - centroid)
                fc = f(xc)
                accept = fc <= fr
            else:
                xc = centroid + 0.5 * (worst - centroid)
                fc = f(xc)
                accept = fc < fvals[-1]
            if accept:
                simplex[-1], fvals[-1] = xc, fc
            else:
                simplex[1:] = simplex[0] + 0.5 * (simplex[1:] - simplex[0])
                fvals[1:] = [f(p) for p in simplex[1:]]

    best = int(np.argmin(fvals))
    return simplex[best].copy(), float(fvals[best])


def adam(objectives, x0, steps: int = 100, lr: float = 0.01,
         callback=None) -> tuple[np.ndarray, float]:
    """Adam on exact gradients.

    ``objectives`` is a sequence of callables f(x) -> (loss, gradient)
    (mini-batches); step t takes the next one, cycling.  A NaN loss or
    gradient aborts.  Returns the best (x, f) seen over the recorded step
    losses."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    x = np.asarray(x0, dtype=float).copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    best_x, best_f = x.copy(), math.inf
    for t in range(1, steps + 1):
        fx, g = objectives[(t - 1) % len(objectives)](x)
        fx = float(fx)
        if math.isnan(fx):
            raise RuntimeError(f"loss became NaN at step {t}")
        if fx < best_f:
            best_x, best_f = x.copy(), fx
        if callback is not None:
            callback(fx)
        if np.isnan(g).any():
            raise RuntimeError(f"gradient became NaN at step {t}")
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1**t)
        vhat = v / (1.0 - beta2**t)
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
    return best_x, best_f


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainConfig:
    """Knobs for a training run.

    loss: frobenius | trace | fidelity.  optimizer: nm (Nelder-Mead) | adam.
    dataset_size/batch apply to the state-evolution losses; epochs and batch
    also fix Adam's step count (epochs * ceil(dataset_size / batch)) for
    every loss.  max_iter/tol bound a single Nelder-Mead run; restarts
    re-launch it from the incumbent best with a fresh simplex (which undoes
    simplex collapse and resumes descent) until target_loss is reached or the
    restart budget is spent.
    """

    loss: str = "frobenius"
    optimizer: str = "nm"
    seed: int = 0
    dataset_size: int = 1000
    batch: int = 64
    lr: float = 0.01
    epochs: int = 20
    max_iter: int | None = None
    tol: float = 1e-12
    restarts: int = 8
    target_loss: float = 1e-8

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.dataset_size <= 0 or self.batch <= 0 or self.epochs <= 0:
            raise ValueError("sizes must be positive")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, not {self.lr}")
        for name, value in (("tol", self.tol), ("target_loss", self.target_loss)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, not {value}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, not {self.max_iter}")
        if self.restarts < 0:
            raise ValueError(f"restarts must be >= 0, not {self.restarts}")


@dataclass
class TrainReport:
    """Result of a training run.

    final_loss carries all three metrics evaluated on the trained circuit:
    'frobenius' against the phase-recovered unitary, while 'trace' and
    'fidelity' (as 1 - F) are evaluated on ten held-out states evolved by the
    circuit and by the target, in the pure-state forms of the density-matrix
    metrics — 'trace' is the max over those states and doubles as the
    evolution check.
    """

    final_loss: dict[str, float]
    best_params: dict[str, float]
    recovered_unitary: np.ndarray
    wall_time: float
    loss_trace: list[float] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "loss": dict(self.final_loss),
            "params": list(self.best_params.values()),
            "unitary": matrix_to_json(self.recovered_unitary),
            "wall_ms": self.wall_time * 1000.0,
            "trace_of_loss": list(self.loss_trace),
        }


def matrix_to_json(u: np.ndarray) -> list:
    """Complex matrix as a list of rows of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in u]


def _overlaps(u_circ: np.ndarray, states: np.ndarray,
              evolved: np.ndarray) -> np.ndarray:
    """<psi U_circ^dag U_ideal psi> per state row, in index order; evolved
    holds the rows U_ideal psi (states @ u_ideal.T)."""
    return np.einsum("ij,ij->i", (states @ u_circ.T).conj(), evolved)


def _loss(loss: str, target_su: np.ndarray, states: np.ndarray | None):
    """The loss of a circuit unitary U, as U -> (value, adjoint).

    adjoint() makes dL/dRe(U) + i dL/dIm(U), and only when called, so that
    an objective that needs the value alone does no more work.  For pure
    states the printed density formulas collapse to overlap expressions —
    trace distance 2 sqrt(1-F), fidelity loss 1-F with
    F = |<psi_circ|psi_ideal>|^2 — which is what the hot loop evaluates.
    The Frobenius adjoint (U - T)/L is 0/0 at an exact fit and the trace
    one divides by sqrt(1 - F) = 0 on a state fitted exactly: both take 0
    there, so that training does not turn NaN when it succeeds.
    """
    if loss == "frobenius":
        def at(u):
            diff = u - target_su
            value = float(np.linalg.norm(diff))
            return value, lambda: diff / value if value > 0.0 else np.zeros_like(diff)
        return at

    evolved = states @ target_su.T

    def at(u):
        s = _overlaps(u, states, evolved)
        ov = np.abs(s) ** 2
        if loss == "trace":
            gap = np.clip(1.0 - ov, 0.0, None)
            value = float(np.mean(2.0 * np.sqrt(gap)))
        else:
            value = float(np.mean(1.0 - ov))

        def adjoint():
            # dL/d ov_i per state, then d ov_i / d(U psi_i)* = conj(s_i) e_i
            if loss == "trace":
                slope = -np.divide(1.0, np.sqrt(gap), out=np.zeros_like(gap), where=gap > 0.0)
            else:
                slope = -1.0
            rows = (2.0 / len(ov)) * (slope * s.conj())[:, None] * evolved
            return rows.T @ states.conj()

        return value, adjoint

    return at


def _make_objective(circuit: Circuit, loss: str, target_su: np.ndarray,
                    states: np.ndarray | None):
    """Loss as a function of the flat parameter vector, which binds the
    circuit's angles in free_parameters order; one forward simulation."""
    at = _loss(loss, target_su, states)

    def objective(x):
        return at(unitary_of(circuit, x))[0]

    return objective


def _make_value_and_gradient(circuit: Circuit, loss: str, target_su: np.ndarray,
                             states: np.ndarray | None):
    """The loss and its exact gradient as a function of the flat parameter
    vector, from two forward sweeps (the adjoint method)."""
    at = _loss(loss, target_su, states)
    return lambda x: value_and_gradient(circuit, x, at)


def train(n: int, target_unitary: np.ndarray, cfg: TrainConfig) -> TrainReport:
    """Fit the n-qubit layer circuit to a target unitary.

    The target is projected to its nearest-identity SU representative for
    optimization; the report's recovered_unitary has the discarded phase put
    back via phase_recovery against the original target.
    """
    if cfg.optimizer == "nm" and n > NM_MAX_QUBITS:
        dim = gate_counts(n).n_rot
        raise ValueError(
            f"Nelder-Mead is limited to n <= {NM_MAX_QUBITS}: at n={n} its simplex "
            f"holds {dim + 1}x{dim} angles ({8 * (dim + 1) * dim / 1e9:.1f} GB) "
            f"and takes {dim + 1} circuit evaluations before its first step")
    t_start = time.perf_counter()
    target = _check_unitary(target_unitary)
    if target.shape != (2**n, 2**n):
        raise ValueError(f"target must be {2**n}x{2**n}")
    target_su = _nearest_su(target)

    circuit = synthesize_circuit(n)
    names = circuit.free_parameters
    dim = len(names)

    ss = np.random.SeedSequence(cfg.seed)
    init_rng, data_rng, holdout_rng = (
        np.random.default_rng(s) for s in ss.spawn(3))
    x0 = init_rng.uniform(-0.1, 0.1, dim)

    needs_states = cfg.loss in ("trace", "fidelity")
    dataset = random_states(2**n, cfg.dataset_size, data_rng) if needs_states else None

    trace: list[float] = []
    if cfg.optimizer == "adam":
        steps_per_epoch = math.ceil(cfg.dataset_size / cfg.batch)
        steps = cfg.epochs * steps_per_epoch
        batches = np.array_split(dataset, steps_per_epoch) if needs_states else [None]
        per_batch = [_make_value_and_gradient(circuit, cfg.loss, target_su, b)
                     for b in batches]
        best_x, best_f = adam(per_batch, x0, steps=steps,
                              lr=cfg.lr, callback=trace.append)
    else:
        objective = _make_objective(circuit, cfg.loss, target_su, dataset)
        max_iter = cfg.max_iter if cfg.max_iter is not None else 200 * dim
        best_x, best_f = x0, math.inf
        for _ in range(1 + cfg.restarts):
            if best_f <= cfg.target_loss:
                break
            # each restart rebuilds the simplex at the incumbent, which undoes
            # collapse; the start point sits in the new simplex, so a restart
            # never loses ground
            x_cand, f_cand = nelder_mead(objective, best_x, max_iter=max_iter,
                                         tol=cfg.tol, callback=trace.append)
            if f_cand < best_f:
                best_x, best_f = x_cand, f_cand

    params = {name: float(v) for name, v in zip(names, best_x)}
    u_best = unitary_of(circuit, params)
    recovered = phase_recovery(u_best, target)

    holdout = random_states(2**n, 10, holdout_rng)
    ov = np.abs(_overlaps(u_best, holdout, holdout @ target_su.T)) ** 2
    evo = 2.0 * np.sqrt(np.clip(1.0 - ov, 0.0, None))
    final = {
        "frobenius": float(np.linalg.norm(recovered - target)),
        "trace": float(evo.max()),
        "fidelity": float(np.mean(np.clip(1.0 - ov, 0.0, None))),
    }
    return TrainReport(
        final_loss=final,
        best_params=params,
        recovered_unitary=recovered,
        wall_time=time.perf_counter() - t_start,
        loss_trace=trace,
    )
