"""Registry of benchmark unitaries."""
import math

import numpy as np
import pytest

from srbb.targets import TargetSpec, grover, named_target, qft, random_su, target_names


def test_registry_sizes():
    per_n = {}
    for _, n in target_names():
        per_n[n] = per_n.get(n, 0) + 1
    assert per_n == {2: 20, 3: 29, 4: 16, 5: 2, 6: 2}


def test_target_names_filter():
    only3 = target_names(3)
    assert all(n == 3 for _, n in only3)
    assert ("toffoli", 3) in only3


@pytest.mark.parametrize("name,n", target_names())
def test_every_target_is_unitary(name, n):
    spec = named_target(name, n)
    u = spec.unitary
    assert spec.n == n
    assert u.shape == (2**n, 2**n)
    assert np.abs(u @ u.conj().T - np.eye(2**n)).max() < 1e-12


def test_lookup_is_case_insensitive():
    assert np.array_equal(named_target("CNOT", 2).unitary,
                          named_target("cnot", 2).unitary)


def test_unknown_target_lists_known_names():
    with pytest.raises(ValueError, match="toffoli"):
        named_target("nonsense", 3)


def test_cnot_block_structure():
    u = named_target("cnot", 2).unitary
    assert np.array_equal(u, np.eye(4)[:, [0, 1, 3, 2]])


def test_toffoli_permutation():
    u = named_target("toffoli", 3).unitary
    assert np.array_equal(u, np.eye(8)[:, [0, 1, 2, 3, 4, 5, 7, 6]])


def test_fredkin_is_a_controlled_swap():
    u = named_target("fredkin", 3).unitary
    assert np.array_equal(u, np.eye(8)[:, [0, 1, 2, 3, 4, 6, 5, 7]])


def test_peres_permutation():
    u = named_target("peres", 3).unitary
    # doubly-controlled X followed by CX(0,1)
    assert np.array_equal(np.argmax(np.abs(u), axis=0), [0, 1, 2, 3, 6, 7, 5, 4])


def test_ccry_mixed_polarity_block():
    # controls q0 filled / q1 open select |10x>; RY(pi/4) on the last qubit
    u = named_target("ccry", 3).unitary
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    want = np.eye(8, dtype=complex)
    want[4:6, 4:6] = [[c, -s], [s, c]]
    assert np.abs(u - want).max() < 1e-12
    assert abs(c - 0.92388) < 5e-6 and abs(s - 0.38268) < 5e-6


def test_open_controls_and_qubit_order_are_exact():
    # pins the control pattern of _ctrl and the qubit order of _op
    ccx_open = named_target("ccx-open", 3).unitary  # X on q2 when q0 = q1 = 0
    assert np.array_equal(ccx_open, np.eye(8)[:, [1, 0, 2, 3, 4, 5, 6, 7]])
    assert np.array_equal(named_target("cs", 2).unitary, np.diag([1, 1, 1, 1j]))
    cx20 = named_target("cx20", 3).unitary  # control is the least significant bit
    assert np.array_equal(cx20, np.eye(8)[:, [0, 5, 2, 7, 4, 1, 6, 3]])
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    want = np.eye(8, dtype=complex)
    want[4:6, 4:6] = [[c, -s], [s, c]]  # q0 filled, q1 open: the |10x> block
    assert np.array_equal(named_target("ccry", 3).unitary, want)


def test_iswap_matrix():
    want = np.array([
        [1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex)
    assert np.array_equal(named_target("iswap", 2).unitary, want)


def test_parallel_and_sequential_composites():
    cx = named_target("cnot", 2).unitary
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert np.abs(named_target("cx01+h2", 3).unitary - np.kron(cx, h)).max() < 1e-12
    # layers apply left to right: first cx12 then cx01
    a = named_target("cx12-cx01", 3).unitary
    cx12 = np.kron(np.eye(2), cx)
    cx01 = np.kron(cx, np.eye(2))
    assert np.abs(a - cx01 @ cx12).max() < 1e-12


def test_qft_matrices():
    d = 4
    omega = np.exp(2j * np.pi / d)
    want = np.array([[omega ** (j * k) for k in range(d)] for j in range(d)]) / 2
    assert np.abs(qft(2).unitary - want).max() < 1e-12
    assert np.abs(named_target("qft2", 2).unitary - want).max() < 1e-12
    # n=1 reduces to the Hadamard
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.abs(qft(1).unitary - h).max() < 1e-12


def test_grover_construction():
    d = 4
    oracle = np.diag([1, 1, 1, -1]).astype(complex)
    diffusion = 2 * np.full((d, d), 1 / d) - np.eye(d)
    want = diffusion @ oracle
    assert np.abs(grover(2).unitary - want).max() < 1e-12
    assert np.abs(named_target("grover2", 2).unitary - want).max() < 1e-12


def test_random_su_contract():
    a = random_su(2, seed=4)
    b = random_su(2, seed=4)
    c = random_su(2, seed=5)
    assert np.array_equal(a.unitary, b.unitary)
    assert not np.array_equal(a.unitary, c.unitary)
    assert abs(np.linalg.det(a.unitary) - 1.0) < 1e-9
    assert np.abs(a.unitary @ a.unitary.conj().T - np.eye(4)).max() < 1e-12


def test_target_spec_is_frozen():
    spec = named_target("cnot", 2)
    assert isinstance(spec, TargetSpec)
    with pytest.raises(AttributeError):
        spec.name = "other"
