"""Factor circuits, gate counts, reduced/naive equivalence.

The counting tests deliberately recompute every total from the factor
structure (per-block sums plus seam survivors) rather than trusting the
closed forms, so the closed forms, the emitted circuits, and the seam
arithmetic must all agree with each other.
"""
from dataclasses import asdict

import numpy as np
import pytest
from scipy.stats import unitary_group

import gate_kernel

from srbb.algebra import element_exponential, grouping, srbb_element, transposition_matrix
from srbb.circuit import Circuit, cancel_cnot_pairs, unitary_of
from srbb.compiler import (
    GateCounts,
    _even_chain,
    _m_odd_gates,
    _mzyz_gates,
    _name_counter,
    _odd_chain,
    count_from_circuit,
    gate_counts,
    naive_circuit,
    permutation_factor,
    synthesize_circuit,
    z_factor,
)
from srbb.varopt import nelder_mead, su_projections


def m_zyz(n, prefix="m"):
    return Circuit(n, _mzyz_gates(n, _name_counter(prefix)))


def m_odd(n, prefix="m"):
    return Circuit(n, _m_odd_gates(n, _name_counter(prefix)))


def psi_factor(n):
    return Circuit(n, cancel_cnot_pairs(_even_chain(n)))


def phi_factor(n):
    return Circuit(n, cancel_cnot_pairs(_odd_chain(n)))


def _rand_values(circ, rng):
    names = circ.free_parameters
    return dict(zip(names, rng.uniform(-np.pi, np.pi, len(names))))


def _popcount(x):
    return bin(x).count("1")


# ---------------------------------------------------------------------------
# closed-form counts vs structural sums

def _counts_from_structure(n):
    """CNOT/rotation totals rebuilt from per-factor arithmetic."""
    half = 2 ** (n - 1)
    x_max = half - 1
    zyz_cx, zyz_rot = 3 * half - 2, 3 * half
    odd_cx, odd_rot = 5 * half - 6, 5 * half - 2

    cnots = 2**n - 2                       # Gray-chained diagonal factor
    rots = 2**n - 1
    # even-parity side: opening + seam survivors + closing, one ZYZ block per
    # x plus the trailing plain block
    cnots += _popcount(x_max) + _popcount(1)
    cnots += sum(_popcount((x + 1) ^ x) for x in range(1, x_max))
    cnots += (x_max + 1) * zyz_cx
    rots += (x_max + 1) * zyz_rot
    # odd-parity side: wrapped openings/closings; a seam either shares its
    # wrapping control (survivors only) or falls back to both full factors
    cnots += 2 + _popcount(x_max) + 2 + _popcount(1)
    for x in range(1, x_max):
        if (x + 1) & x:
            cnots += 2 + _popcount((x + 1) ^ x)
        else:
            cnots += 2 + _popcount(x + 1) + 2 + _popcount(x)
    cnots += x_max * odd_cx
    rots += x_max * odd_rot
    return cnots, rots


@pytest.mark.parametrize("n", range(3, 7))
def test_closed_form_matches_structural_sum(n):
    got = gate_counts(n)
    assert (got.n_cnot, got.n_rot) == _counts_from_structure(n)


@pytest.mark.parametrize(
    "n, expected",
    [(2, (18, 21, 4)), (3, (110, 109, 10)), (4, (476, 473, 48)),
     (5, (1974, 1969, 158)), (6, (8040, 8033, 444))],
)
def test_gate_count_values(n, expected):
    got = gate_counts(n)
    assert (got.n_cnot, got.n_rot, got.cnot_reduction) == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_tally_matches_closed_form(n):
    tally = count_from_circuit(synthesize_circuit(n))
    closed = gate_counts(n)
    assert tally.n_cnot == closed.n_cnot
    assert tally.n_rot == closed.n_rot
    assert tally.cnot_reduction is None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_naive_exceeds_reduced_by_the_reduction(n):
    naive = count_from_circuit(naive_circuit(n))
    reduced = gate_counts(n)
    assert naive.n_cnot - reduced.n_cnot == reduced.cnot_reduction
    assert naive.n_rot == reduced.n_rot


def test_naive_count_values():
    assert count_from_circuit(naive_circuit(3)).n_cnot == 120
    assert count_from_circuit(naive_circuit(4)).n_cnot == 524


def test_counts_json():
    doc = asdict(gate_counts(2))
    assert doc == {"n_cnot": 18, "n_rot": 21, "cnot_reduction": 4}


def test_gate_counts_rejects_n1():
    with pytest.raises(ValueError):
        gate_counts(1)


# ---------------------------------------------------------------------------
# diagonal factor

def test_z_factor_rz_order():
    def rz_params(n):
        return [g.param for g in z_factor(n).gates if g.kind == "RZ"]

    assert rz_params(3) == ["z/15", "z/63", "z/35", "z/3", "z/48", "z/8", "z/24"]
    assert rz_params(4)[:8] == ["z/15", "z/63", "z/35", "z/195",
                                "z/255", "z/143", "z/99", "z/3"]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_z_factor_controls_follow_gray_change_bits(n):
    # level m drives target qubit m-1 through 2^(m-1) slots; the CNOT before
    # slot s flips the control bit where Gray codes s-1 and s (cyclically)
    # differ, read as a qubit of the m-1 control qubits (qubit 0 = MSB)
    def gray(t):
        return t ^ (t >> 1)

    gates = z_factor(n).gates
    for m in range(3, n + 1):
        rows = 2 ** (m - 1)
        got = [g.qubits[0] for g in gates
               if g.kind == "CNOT" and g.qubits[1] == m - 1]
        want = [m - 2 - ((gray(s - 1) ^ gray(s % rows)).bit_length() - 1)
                for s in range(1, rows + 1)]
        assert got == want, m


@pytest.mark.parametrize("n, rz_count, cx_count", [(2, 3, 2), (3, 7, 6), (4, 15, 14)])
def test_z_factor_counts(n, rz_count, cx_count):
    tally = count_from_circuit(z_factor(n))
    assert (tally.n_cnot, tally.n_rot) == (cx_count, rz_count)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_z_factor_diagonal_identity(n):
    # with phi_j = -2 theta_j the circuit reproduces the exact product of
    # diagonal rotations, with no residual global phase
    circ = z_factor(n)
    g = grouping(n)
    assert set(circ.free_parameters) == {f"z/{j}" for j in g.z_indices}
    rng = np.random.default_rng(n)
    d = 2**n
    for _ in range(20):
        theta = {j: rng.uniform(-np.pi, np.pi) for j in g.z_indices}
        want = np.eye(d, dtype=complex)
        for j, t in theta.items():
            want = want @ element_exponential(t, srbb_element(n, j))
        got = unitary_of(circ, {f"z/{j}": -2 * t for j, t in theta.items()})
        assert np.abs(got - want).max() < 1e-10


def test_z_factor_n2_fixed_layout():
    kinds = [(g.kind, g.qubits, g.param) for g in z_factor(2).gates]
    assert kinds == [
        ("CNOT", (0, 1), None),
        ("RZ", (1,), "z/15"),
        ("CNOT", (0, 1), None),
        ("RZ", (0,), "z/8"),
        ("RZ", (1,), "z/3"),
    ]


# ---------------------------------------------------------------------------
# permutation factors

def test_permutation_factor_pins():
    even = permutation_factor(3, 1, "even")
    assert [(g.kind, g.qubits) for g in even.gates] == [("CNOT", (2, 1))]
    odd = permutation_factor(3, 3, "odd")
    assert [(g.kind, g.qubits) for g in odd.gates] == [
        ("CNOT", (0, 2)), ("CNOT", (2, 0)), ("CNOT", (2, 1)), ("CNOT", (0, 2))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_permutation_factor_equals_transposition_product(n):
    g = grouping(n)
    d = 2**n
    for parity, table in (("even", g.t_even), ("odd", g.t_odd)):
        for x, transpositions in table.items():
            want = np.eye(d)
            for a, b in transpositions:
                want = want @ transposition_matrix(a, b, d)
            got = unitary_of(permutation_factor(n, x, parity)).real
            assert np.array_equal(got, want), (n, x, parity)


def test_permutation_factor_validation():
    with pytest.raises(ValueError):
        permutation_factor(3, 4, "even")
    with pytest.raises(ValueError):
        permutation_factor(3, 1, "sideways")


# ---------------------------------------------------------------------------
# multiplexed blocks

def test_m_zyz_n2_gate_order():
    seq = [(g.kind, g.qubits[-1]) for g in m_zyz(2).gates]
    assert seq == [
        ("RZ", 1), ("CNOT", 1), ("RZ", 1),
        ("RY", 1), ("CNOT", 1), ("RY", 1),
        ("RZ", 1), ("CNOT", 1), ("RZ", 1), ("CNOT", 1),
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_m_zyz_counts(n):
    tally = count_from_circuit(m_zyz(n))
    assert tally.n_cnot == 3 * 2 ** (n - 1) - 2
    assert tally.n_rot == 3 * 2 ** (n - 1)


def test_m_zyz_gray_controls():
    # cyclic Gray pattern [1, 0, 1, 0] per block, with the first two blocks'
    # closing CNOT merged away
    controls = [g.qubits[0] for g in m_zyz(3).gates if g.kind == "CNOT"]
    assert controls == [1, 0, 1] + [1, 0, 1] + [1, 0, 1, 0]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_m_odd_counts(n):
    tally = count_from_circuit(m_odd(n))
    assert tally.n_cnot == 5 * 2 ** (n - 1) - 6
    assert tally.n_rot == 5 * 2 ** (n - 1) - 2


def test_m_odd_scaling_cascades_mirror():
    gates = m_odd(3).gates
    pre = [(g.kind, g.qubits) for g in gates[:5]]
    assert pre == [("RZ", (0,)), ("RZ", (1,)), ("CNOT", (0, 1)),
                   ("RZ", (1,)), ("CNOT", (0, 1))]
    post = [(g.kind, g.qubits) for g in gates[-5:]]
    assert post == pre[::-1]


def _fit(circ, target, rng, max_iter, starts):
    """Multi-start fit; a fresh start escapes the occasional stall."""
    names = circ.free_parameters
    obj = lambda x: float(np.linalg.norm(
        unitary_of(circ, dict(zip(names, x))) - target))
    best = np.inf
    for _ in range(starts):
        x = rng.uniform(-0.5, 0.5, len(names))
        for _ in range(2):
            x, f = nelder_mead(obj, x, max_iter=max_iter)
            best = min(best, f)
            if best < 1e-7:
                return best
    return best


def test_m_zyz_expressivity():
    # the block realises any pair of SU(2) blocks on the controlled subspaces
    rng = np.random.default_rng(41)
    block = m_zyz(2)
    for i in range(20):
        target = np.zeros((4, 4), dtype=complex)
        for b in range(2):
            v = unitary_group.rvs(2, random_state=100 + 2 * i + b)
            target[2 * b:2 * b + 2, 2 * b:2 * b + 2] = \
                v / np.sqrt(np.linalg.det(v).astype(complex))
        assert _fit(block, target, rng, max_iter=8000, starts=3) < 1e-6


def test_m_odd_expressivity():
    # with the scaling cascades the blocks are U(2), not just SU(2); any
    # block-diagonal of U(2) factors is reachable up to the global phase
    rng = np.random.default_rng(43)
    block = m_odd(3)
    for i in range(5):
        target = np.zeros((8, 8), dtype=complex)
        for b in range(4):
            target[2 * b:2 * b + 2, 2 * b:2 * b + 2] = \
                unitary_group.rvs(2, random_state=200 + 4 * i + b)
        assert _fit(block, su_projections(target)[0], rng,
                    max_iter=30000, starts=6) < 1e-4


# ---------------------------------------------------------------------------
# factor seams

def test_even_seams_n3():
    # between consecutive even blocks only the (3, 2) edge loses gates
    circ = psi_factor(3)
    kinds = [(g.kind, g.qubits) for g in circ.gates]
    # x_max = 3 opens with its two block CNOTs, edge (3,2) survives as one
    assert kinds[0] == ("CNOT", (2, 0))
    assert kinds[1] == ("CNOT", (2, 1))
    edge_32 = kinds[2 + 22]  # after the 22-gate ZYZ block of x=3
    assert edge_32 == ("CNOT", (2, 1))


@pytest.mark.parametrize("n", [3, 4])
def test_seam_savings_match_bit_rule(n):
    # even seam saves 2 popcount((x+1) & x); odd seam additionally cancels
    # its wrapping pair when the leading bit is shared
    x_max = 2 ** (n - 1) - 1
    expected = 0
    for x in range(1, x_max):
        shared = _popcount((x + 1) & x)
        expected += 2 * shared
        if (x + 1) & x:
            expected += 2 * (1 + shared)
    gates = naive_circuit(n).gates
    removed = len(gates) - len(cancel_cnot_pairs(gates))
    assert removed == expected
    assert removed == {3: 6, 4: 28}[n]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reduced_circuit_is_a_peephole_fixpoint(n):
    gates = synthesize_circuit(n).gates
    assert len(gates) - len(cancel_cnot_pairs(gates)) == 0


# ---------------------------------------------------------------------------
# full circuits

@pytest.mark.parametrize("n", [2, 3])
def test_zero_parameters_give_identity(n):
    circ = synthesize_circuit(n)
    assert np.abs(unitary_of(circ) - np.eye(2**n)).max() < 1e-12


def test_naive_zero_parameters_identity():
    assert np.abs(unitary_of(naive_circuit(3)) - np.eye(8)).max() < 1e-12


def test_n2_layout():
    # the whole 2-qubit layer; its parameter order fixes the optimiser's
    # start point and so every n = 2 training result
    def cx(c, t):
        return ("CNOT", (c, t), None)

    def zyz(p):
        return [("RZ", (1,), f"{p}/1"), cx(0, 1), ("RZ", (1,), f"{p}/2"),
                ("RY", (1,), f"{p}/3"), cx(0, 1), ("RY", (1,), f"{p}/4"),
                ("RZ", (1,), f"{p}/5"), cx(0, 1), ("RZ", (1,), f"{p}/6")]

    want = ([cx(0, 1), cx(1, 0), cx(0, 1)] + zyz("phi/1")
            + [cx(1, 0), cx(0, 1), cx(1, 0)] + zyz("psi/1")
            + [cx(0, 1), cx(1, 0)] + zyz("psi/a")
            + [("RZ", (1,), "z/15"), cx(0, 1), ("RZ", (0,), "z/8"), ("RZ", (1,), "z/3")])
    circ = synthesize_circuit(2)
    assert len(want) == 39
    assert [(g.kind, g.qubits, g.param) for g in circ.gates] == want
    assert circ.free_parameters == tuple(
        [f"{p}/{s}" for p in ("phi/1", "psi/1", "psi/a") for s in range(1, 7)]
        + ["z/15", "z/8", "z/3"])


def test_reduced_equals_naive_n3():
    rng = np.random.default_rng(29)
    reduced, naive = synthesize_circuit(3), naive_circuit(3)
    assert set(reduced.free_parameters) == set(naive.free_parameters)
    for _ in range(5):
        vals = _rand_values(reduced, rng)
        diff = unitary_of(reduced, vals) - unitary_of(naive, vals)
        assert np.abs(diff).max() < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reduced_equals_naive_gate_by_gate(n):
    # the CNOT reduction checked without the fused plan, whose segments are
    # identical for the two layers
    rng = np.random.default_rng(n)
    reduced, naive = synthesize_circuit(n), naive_circuit(n)
    vals = _rand_values(reduced, rng)
    diff = gate_kernel.unitary(reduced, vals) - gate_kernel.unitary(naive, vals)
    assert np.abs(diff).max() < 1e-10


def _wrapped_chain(n, parity, block, prefix):
    # every block x = 2^(n-1)-1 .. 1 between its full T_x and T_x reversed
    gates = []
    for x in range(2 ** (n - 1) - 1, 0, -1):
        opening = list(permutation_factor(n, x, parity).gates)
        gates += opening + list(block(n, prefix=f"{prefix}/{x}").gates) + opening[::-1]
    return gates


def test_psi_factor_matches_its_naive_chain():
    # each reduced factor realises its unreduced chain, built here from the
    # public permutation factors and the multiplexed blocks' gate lists
    rng = np.random.default_rng(31)
    for n in (3, 4):
        chains = {
            psi_factor: _wrapped_chain(n, "even", m_zyz, "psi")
            + list(m_zyz(n, prefix="psi/a").gates),
            phi_factor: _wrapped_chain(n, "odd", m_odd, "phi"),
        }
        for factor, chain in chains.items():
            reduced, naive = factor(n), Circuit(n, chain)
            assert set(reduced.free_parameters) == set(naive.free_parameters)
            assert len(reduced.gates) < len(naive.gates)
            for _ in range(3):
                vals = _rand_values(reduced, rng)
                diff = unitary_of(reduced, vals) - unitary_of(naive, vals)
                assert np.abs(diff).max() < 1e-10, (n, factor.__name__)


def test_synthesize_validation():
    with pytest.raises(ValueError):
        synthesize_circuit(1)
    with pytest.raises(ValueError):
        naive_circuit(1)
