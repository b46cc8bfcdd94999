"""Loss metrics, SU phase handling, optimizers, and the training loop."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrics import fidelity, hellinger, trace_distance
from srbb.circuit import unitary_of
from srbb.compiler import synthesize_circuit
from srbb.targets import named_target, random_su
from srbb.varopt import (
    LOSSES,
    OPTIMIZERS,
    TrainConfig,
    _make_objective,
    _make_value_and_gradient,
    adam,
    fd_gradient,
    nelder_mead,
    phase_recovery,
    random_states,
    su_projections,
    train,
)


def _pure(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


# ---------------------------------------------------------------------------
# density-matrix oracle

def test_trace_distance_pins():
    rho = _pure([1, 0])
    assert trace_distance(rho, rho) == 0.0
    # full trace norm: orthogonal pure states sit at distance 2
    assert abs(trace_distance(_pure([1, 0]), _pure([0, 1])) - 2.0) < 1e-12


def test_fidelity_pins():
    assert abs(fidelity(_pure([1, 0]), _pure([1, 0])) - 1.0) < 1e-12
    assert fidelity(_pure([1, 0]), _pure([0, 1])) < 1e-12


def test_density_validation():
    with pytest.raises(ValueError):
        trace_distance(np.eye(2), _pure([1, 0]))  # trace 2
    with pytest.raises(ValueError):
        fidelity(_pure([1, 0]), np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not Hermitian
    bad = np.diag([1.5, -0.5]).astype(complex)  # negative eigenvalue
    with pytest.raises(ValueError):
        fidelity(_pure([1, 0]), bad)


def test_pure_state_fidelity_closed_form():
    # fidelity of pure states equals the squared overlap; the matrix route
    # loses a few digits through the eigendecomposition square roots
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = random_states(4, 2, rng)
        direct = abs(np.vdot(a, b)) ** 2
        assert abs(fidelity(np.outer(a, a.conj()), np.outer(b, b.conj())) - direct) < 1e-6


def test_interpolation_response():
    # moving along the segment rho0 -> rho1 cannot overshoot: trace distance
    # grows linearly, fidelity to the start never increases
    rng = np.random.default_rng(6)
    a, b = random_states(4, 2, rng)
    rho0, rho1 = np.outer(a, a.conj()), np.outer(b, b.conj())
    ts = np.linspace(0.0, 1.0, 9)
    dists = [trace_distance(rho0, (1 - t) * rho0 + t * rho1) for t in ts]
    fids = [fidelity(rho0, (1 - t) * rho0 + t * rho1) for t in ts]
    assert np.all(np.diff(dists) > -1e-10)
    assert np.all(np.diff(fids) < 1e-10)
    assert abs(dists[-1] - trace_distance(rho0, rho1)) < 1e-12


@pytest.mark.parametrize("name, n", [("cnot", 2), ("toffoli", 3)])
def test_overlap_losses_match_the_density_matrix_oracle(name, n):
    # the training losses evaluate pure-state overlap formulas; they must be
    # the batch means of the density-matrix metrics on the evolved states
    rng = np.random.default_rng(n)
    circuit = synthesize_circuit(n)
    names = circuit.free_parameters
    target = su_projections(named_target(name, n).unitary)[0]
    states = random_states(2**n, 16, rng)
    x = rng.uniform(-np.pi, np.pi, len(names))
    u = unitary_of(circuit, dict(zip(names, x)))
    pairs = [(np.outer(a, a.conj()), np.outer(b, b.conj()))
             for a, b in zip(states @ u.T, states @ target.T)]
    want_trace = np.mean([trace_distance(r, s) for r, s in pairs])
    want_fid = np.mean([1.0 - fidelity(r, s) for r, s in pairs])
    got_trace = _make_objective(circuit, "trace", target, states)(x)
    got_fid = _make_objective(circuit, "fidelity", target, states)(x)
    assert abs(got_trace - want_trace) < 1e-12
    # the eigendecomposition route loses digits, as in the closed-form test
    assert abs(got_fid - want_fid) < 1e-6


# ---------------------------------------------------------------------------
# SU phases

def test_su_projections_phased_identity():
    u = np.exp(1j * np.pi / 4) * np.eye(2)
    got = su_projections(u)
    assert np.allclose(got[0], np.eye(2), atol=1e-12)
    assert np.allclose(got[1], -np.eye(2), atol=1e-12)


def test_su_projections_contains_su_input():
    u = named_target("cnot", 2).unitary  # det(CNOT) = -1 on 4x4
    projections = su_projections(u)
    assert len(projections) == 4
    for p in projections:
        assert abs(np.linalg.det(p) - 1.0) < 1e-9


def test_su_projections_random_dets():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        z = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        u, _ = np.linalg.qr(z)
        for p in su_projections(u):
            assert abs(np.linalg.det(p) - 1.0) < 1e-9


def test_su_projections_rejects_non_unitary():
    with pytest.raises(ValueError):
        su_projections(np.ones((2, 2)))


def test_phase_recovery_round_trip():
    rng = np.random.default_rng(14)
    for n in (2, 3):
        for _ in range(10):
            z = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            u, _ = np.linalg.qr(z)
            su = su_projections(u)[0]
            assert np.abs(phase_recovery(su, u) - u).max() < 1e-12


def test_phase_recovery_identity_on_su():
    u = random_su(2, seed=0).unitary
    assert np.abs(phase_recovery(u, u) - u).max() < 1e-12


# ---------------------------------------------------------------------------
# state utilities

def test_random_states_shape_and_norm():
    rng = np.random.default_rng(1)
    s = random_states(8, 25, rng)
    assert s.shape == (25, 8)
    assert np.abs(np.linalg.norm(s, axis=1) - 1.0).max() < 1e-12


def test_hellinger_pins():
    p = np.array([1, 2, 3, 4.0])
    assert hellinger(p, p) == 0.0
    assert hellinger([1, 0], [0, 1]) == 1.0
    got = hellinger([0.25] * 4, [1, 0, 0, 0])
    assert abs(got - math.sqrt(1 - 0.5)) < 1e-12


def test_hellinger_validation():
    with pytest.raises(ValueError):
        hellinger([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        hellinger([1, -1], [1, 1])
    with pytest.raises(ValueError):
        hellinger([0, 0], [1, 1])


# ---------------------------------------------------------------------------
# gradients and optimizers

def test_fd_gradient_quadratic():
    g = fd_gradient(lambda x: float((x**2).sum()), np.array([1.0, -2.0, 0.5]))
    assert np.abs(g - [2.0, -4.0, 1.0]).max() < 1e-8


def test_fd_gradient_matches_four_point_stencil():
    circ = synthesize_circuit(2)
    names = circ.free_parameters
    target = named_target("cnot", 2).unitary
    target = su_projections(target)[0]

    def objective(x):
        return float(np.linalg.norm(unitary_of(circ, dict(zip(names, x))) - target))

    def stencil(x, h=1e-4):
        g = np.empty_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            g[i] = (-objective(x + 2 * e) + 8 * objective(x + e)
                    - 8 * objective(x - e) + objective(x - 2 * e)) / (12 * h)
        return g

    rng = np.random.default_rng(33)
    for _ in range(3):
        x = rng.uniform(-1, 1, len(names))
        a, b = fd_gradient(objective, x), stencil(x)
        assert np.abs(a - b).max() / max(np.abs(b).max(), 1e-12) < 1e-4


def test_nelder_mead_quadratic():
    c = np.array([1.0, -2.0, 3.0])
    x, f = nelder_mead(lambda x: float(((x - c) ** 2).sum()), np.zeros(3))
    assert np.abs(x - c).max() < 1e-8
    assert f < 1e-12


def test_nelder_mead_restart_monotone():
    obj = lambda x: float(np.cos(x[0]) + 0.1 * x[0] ** 2)
    x1, f1 = nelder_mead(obj, np.array([2.0]), max_iter=50)
    x2, f2 = nelder_mead(obj, x1, max_iter=200)
    assert f2 <= f1


def test_nelder_mead_nan_aborts():
    with pytest.raises(RuntimeError, match="NaN"):
        nelder_mead(lambda x: float("nan"), np.zeros(2))


def test_nelder_mead_callback_sees_monotone_best():
    seen = []
    nelder_mead(lambda x: float((x**2).sum()), np.array([3.0, 4.0]),
                max_iter=200, callback=seen.append)
    assert seen, "callback never invoked"
    assert np.all(np.diff(seen) <= 0)


def test_nelder_mead_deterministic():
    obj = lambda x: float(((x - 1) ** 4).sum() + x[0] * x[1])
    a = nelder_mead(obj, np.array([0.3, -0.4]), max_iter=500)
    b = nelder_mead(obj, np.array([0.3, -0.4]), max_iter=500)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def _quadratic(c):
    """||x - c||^2 with its gradient, as adam's objectives return them."""
    return lambda x: (float(((x - c) ** 2).sum()), 2.0 * (x - c))


def test_adam_quadratic():
    c = np.array([0.5, -0.25])
    x, f = adam([_quadratic(c)], np.zeros(2), steps=2000, lr=0.05)
    assert np.abs(x - c).max() < 1e-6


def test_adam_accepts_per_step_objectives():
    # alternating objectives emulate mini-batches; the optimizer must take
    # one callable per step, cycling, and still track the best seen
    objs = [_quadratic(c) for c in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
    x, f = adam(objs, np.zeros(2), steps=800, lr=0.05)
    assert np.abs(x - 0.5).max() < 0.1  # converges near the compromise point
    assert np.isfinite(f)


def test_adam_nan_aborts():
    with pytest.raises(RuntimeError, match="loss became NaN at step 1"):
        adam([lambda x: (float("nan"), np.zeros(2))], np.zeros(2), steps=5)


def test_adam_nan_gradient_aborts():
    seen = []
    with pytest.raises(RuntimeError, match="gradient became NaN at step 1"):
        adam([lambda x: (1.0, np.array([0.0, float("nan")]))], np.zeros(2), steps=5,
             callback=seen.append)
    assert seen == [1.0]  # the step's loss is recorded before the abort


def test_adam_trace_is_finite():
    seen = []
    adam([_quadratic(np.zeros(1))], np.array([1.0]), steps=50, callback=seen.append)
    assert len(seen) == 50
    assert np.isfinite(seen).all()


# ---------------------------------------------------------------------------
# exact gradients, against the finite-difference oracle


def _loss_setup(n, seed):
    rng = np.random.default_rng(seed)
    circuit = synthesize_circuit(n)
    target = su_projections(named_target(f"qft{n}", n).unitary)[0]
    return circuit, target, random_states(2**n, 8, rng), rng


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_gradient_matches_finite_differences(n, loss):
    circuit, target, states, rng = _loss_setup(n, 40 + n)
    objective = _make_objective(circuit, loss, target, states)
    value_and_grad = _make_value_and_gradient(circuit, loss, target, states)
    for _ in range(2):
        x = rng.uniform(-np.pi, np.pi, len(circuit.free_parameters))
        value, grad = value_and_grad(x)
        assert value == objective(x)
        assert np.abs(grad - fd_gradient(objective, x)).max() < 1e-6


@pytest.mark.parametrize("loss", LOSSES)
def test_angles_sharing_a_slot_get_equal_gradient_components(loss):
    # phi/3/12 and phi/2/4 close one Phi block and open the next at n = 3;
    # the plan binds them to one slot, so only their sum matters.  The
    # finite differences know no slots: they must see the same.
    circuit, target, states, rng = _loss_setup(3, 7)
    names = circuit.free_parameters
    i, j = names.index("phi/3/12"), names.index("phi/2/4")
    objective = _make_objective(circuit, loss, target, states)
    x = rng.uniform(-np.pi, np.pi, len(names))
    grad = _make_value_and_gradient(circuit, loss, target, states)(x)[1]
    fd = fd_gradient(objective, x)
    assert grad[i] == grad[j]
    assert abs(fd[i] - fd[j]) < 1e-6
    assert abs(grad[i]) > 1e-3  # not equal merely by both being 0


@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("n", [2, 3])
def test_gradient_is_zero_at_an_exact_fit(n, loss):
    # at U = T the Frobenius adjoint (U - T)/L is 0/0, and the trace one
    # divides by sqrt(1 - F) = 0 where an overlap is exactly 1, as on basis
    # states; a NaN there would stop Adam exactly when it has succeeded
    circuit = synthesize_circuit(n)
    target = unitary_of(circuit, None)
    x = np.zeros(len(circuit.free_parameters))
    d = 2**n
    haar = random_states(d, 8, np.random.default_rng(n))
    for states in (np.eye(d, dtype=complex)[:4], haar):
        value, grad = _make_value_and_gradient(circuit, loss, target, states)(x)
        assert np.isfinite(grad).all()
        assert np.abs(grad).max() < 1e-8
        assert value < 1e-7


# ---------------------------------------------------------------------------
# training loop

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(loss="manhattan")
    with pytest.raises(ValueError):
        TrainConfig(optimizer="sgd")
    with pytest.raises(ValueError):
        TrainConfig(batch=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    for name in ("tol", "target_loss"):
        for value in (math.inf, math.nan, -1e-9):
            with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
                TrainConfig(**{name: value})
    # the smallest budgets stay valid: nm-n4 runs with --tol 0 --restarts 0
    TrainConfig(tol=0.0, max_iter=1, restarts=0)


def test_train_config_refuses_the_nelder_mead_name():
    # each optimizer has one name: "nm" for Nelder-Mead
    with pytest.raises(ValueError, match="unknown optimizer 'nelder_mead'"):
        TrainConfig(optimizer="nelder_mead")
    assert TrainConfig(optimizer="nm").optimizer == "nm"
    assert TrainConfig(optimizer="adam").optimizer == "adam"


def test_train_rejects_bad_targets():
    cfg = TrainConfig()
    with pytest.raises(ValueError):
        train(2, np.ones((4, 4)), cfg)
    with pytest.raises(ValueError):
        train(2, np.eye(8), cfg)


def test_train_refuses_nelder_mead_above_five_qubits():
    # refused before the circuit or the 0.5 GB simplex is built
    with pytest.raises(ValueError, match="8034x8033 angles"):
        train(6, np.eye(64), TrainConfig(optimizer="nm"))


def test_train_rejects_non_finite_target():
    target = np.eye(4, dtype=complex)
    target[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite entries"):
        train(2, target, TrainConfig())


def test_train_identity_target():
    report = train(2, np.eye(4), TrainConfig(seed=1))
    assert report.final_loss["frobenius"] < 1e-8
    assert report.loss_trace[0] > report.final_loss["frobenius"]  # descent happened


def test_train_cnot_nm():
    report = train(2, named_target("cnot", 2).unitary, TrainConfig(seed=3))
    assert report.final_loss["frobenius"] <= 1e-8
    assert report.final_loss["trace"] < 1e-3
    assert report.final_loss["fidelity"] < 1e-6
    u = report.recovered_unitary
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-8


def test_train_report_fields_and_json():
    cfg = TrainConfig(seed=5, max_iter=300, restarts=1, target_loss=1e-6)
    report = train(2, named_target("swap", 2).unitary, cfg)
    assert report.wall_time > 0
    assert len(report.best_params) == 21
    doc = report.to_json_dict()
    assert set(doc) == {"loss", "params", "unitary", "wall_ms", "trace_of_loss"}
    assert set(doc["loss"]) == {"frobenius", "trace", "fidelity"}
    assert len(doc["params"]) == 21
    assert all(v >= 0 for v in doc["loss"].values())


def test_train_adam_fidelity_smoke():
    cfg = TrainConfig(loss="fidelity", optimizer="adam", seed=7,
                      dataset_size=64, batch=32, epochs=2)
    report = train(2, named_target("cnot", 2).unitary, cfg)
    assert len(report.loss_trace) == 4  # epochs * ceil(dataset/batch)
    assert np.isfinite(report.loss_trace).all()
    assert report.final_loss["fidelity"] >= 0


def test_train_deterministic_given_seed():
    cfg = TrainConfig(loss="trace", optimizer="adam", seed=9,
                      dataset_size=32, batch=16, epochs=2)
    target = named_target("iswap", 2).unitary
    a = train(2, target, cfg)
    b = train(2, target, cfg)
    assert a.loss_trace == b.loss_trace
    assert np.array_equal(a.recovered_unitary, b.recovered_unitary)


def _report_without_time(report):
    doc = report.to_json_dict()
    del doc["wall_ms"]
    return doc


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("loss", LOSSES)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_equal_seeds_give_identical_reports(optimizer, loss, seed):
    cfg = TrainConfig(loss=loss, optimizer=optimizer, seed=seed, dataset_size=8,
                      batch=4, epochs=1, max_iter=40, restarts=1)
    target = named_target("iswap", 2).unitary
    assert _report_without_time(train(2, target, cfg)) == \
        _report_without_time(train(2, target, cfg))
