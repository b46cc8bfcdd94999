"""Basis construction, property checks, index maps, factor grouping."""
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from paper_operator import exact_unitary
from srbb.algebra import (
    Basis,
    build_rbb,
    build_srbb,
    check_basis_properties,
    diagonal_positions,
    element_exponential,
    f_index,
    grouping,
    h_index,
    srbb_element,
    transposition_matrix,
    z_string,
)

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.diag([1.0, -1.0]).astype(complex)


def _el(basis, j):
    """Element at 1-based position j."""
    return basis.stack[j - 1]


# ---------------------------------------------------------------------------
# recursive construction

def test_order_2_is_the_pauli_basis():
    b = build_rbb(2)
    for got, want in zip(b.elements, (SIGMA_1, SIGMA_2, SIGMA_3, np.eye(2))):
        assert np.array_equal(got.matrix, want)


def test_order_3_hand_checked_elements():
    b = build_rbb(3)
    # embedded Pauli block with the (-1)^(d-1) = +1 corner
    assert np.array_equal(_el(b, 3), np.diag([1.0, -1.0, 1.0]))
    # first new off-diagonal element: sigma_1 on states (2, 3)
    assert np.array_equal(
        _el(b, 4), np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex))
    # new diagonal element of an odd order
    assert np.array_equal(_el(b, 8), np.diag([1.0, 1.0, -1.0]))
    assert np.array_equal(_el(b, 9), np.eye(3))


def test_order_4_new_diagonal_duplicates_an_embedded_one():
    # the even-order diagonal rule must not reproduce an embedded element:
    # position 15 is Z(x)Z, the one traceless +-1 diagonal outside the span
    # of positions 3, 8 and the identity, and differs from position 3
    b = build_rbb(4)
    assert np.array_equal(_el(b, 3), np.diag([1.0, -1.0, 1.0, -1.0]))
    assert np.array_equal(_el(b, 15), np.diag([1.0, -1.0, -1.0, 1.0]))
    assert not np.array_equal(_el(b, 3), _el(b, 15))


def test_rbb_duplicate_positions_even_orders():
    for d in (4, 6, 8):
        b = build_rbb(d)
        dup = [
            (i, j)
            for i in range(1, d * d)
            for j in range(i + 1, d * d + 1)
            if np.array_equal(_el(b, i), _el(b, j))
        ]
        # a new even-order diagonal equal to an embedded one (e.g. sigma_3
        # as its trailing block, which repeats position 3 at d=4) makes the
        # basis rank-deficient
        assert dup == [], (d, dup)


@pytest.mark.parametrize("d", range(3, 17))
def test_rbb_embeds_the_previous_order(d):
    # the defining recursion: every order-(d-1) element j < (d-1)^2 reappears
    # at order d with the corner sign (-1)^(d-1) appended
    small, big = build_rbb(d - 1), build_rbb(d)
    for j in range(1, (d - 1) ** 2):
        want = np.zeros((d, d), dtype=complex)
        want[: d - 1, : d - 1] = _el(small, j)
        want[d - 1, d - 1] = (-1) ** (d - 1)
        assert np.array_equal(_el(big, j), want), j


def _conjugation_formula(d0, j):
    """New off-diagonal element j of order d0 by the paper's formula,
    P_(k,d0-1) (diag((-1)^l) + sigma) P_(k,d0-1), with P_(k,d0-1) the
    identity with rows k and d0-1 swapped (1-based) and the blocks in the
    order k = d0-1, 1, 2, ..., d0-2."""
    offset = j - (d0 - 1) ** 2
    sigma = SIGMA_1 if offset < d0 - 1 else SIGMA_2
    k = ([d0 - 1] + list(range(1, d0 - 1)))[offset % (d0 - 1)]
    core = np.zeros((d0, d0), dtype=complex)
    core[: d0 - 2, : d0 - 2] = np.diag([(-1.0) ** l for l in range(d0 - 2)])
    core[d0 - 2 :, d0 - 2 :] = sigma
    p = np.eye(d0, dtype=complex)
    p[[k - 1, d0 - 2]] = p[[d0 - 2, k - 1]]
    return p @ core @ p


@pytest.mark.parametrize("d", range(3, 17))
def test_rbb_matches_the_conjugation_formula(d):
    # the closed form writes each off-diagonal element directly; the matrix
    # products it replaced stay here as its oracle, embedded with the
    # corner signs (-1)^m at the 0-based positions m >= d0
    b = build_rbb(d)
    for d0 in range(3, d + 1):
        for j in range((d0 - 1) ** 2, d0 * d0 - 1):
            want = np.diag([(-1.0) ** m for m in range(d)]).astype(complex)
            want[:d0, :d0] = _conjugation_formula(d0, j)
            assert np.array_equal(_el(b, j), want), (d0, j)


def test_building_a_basis_retains_no_memory(srbb_env):
    # elements are built in closed form, so a dropped basis leaves nothing
    # behind; a fresh interpreter keeps earlier tests from warming any cache
    code = ("import tracemalloc\n"
            "from srbb.algebra import build_srbb\n"
            "tracemalloc.start()\n"
            "build_srbb(4)\n"
            "print(tracemalloc.get_traced_memory()[0])\n")
    proc = subprocess.run([sys.executable, "-c", code], env=srbb_env,
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 0.5 * 2**20


def test_srbb_diagonals_are_z_strings():
    assert np.array_equal(np.diag(srbb_element(2, 3)), [1, -1, 1, -1])
    assert np.array_equal(np.diag(srbb_element(2, 8)), [1, 1, -1, -1])
    assert np.array_equal(np.diag(srbb_element(2, 15)), [1, -1, -1, 1])


def test_srbb_has_no_duplicates():
    b = build_srbb(2)
    flat = [el.matrix.ravel() for el in b.elements]
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            assert not np.array_equal(flat[i], flat[j])


def test_srbb_off_diagonals_match_rbb():
    b_s, b_r = build_srbb(2), build_rbb(4)
    diag = set(diagonal_positions(4))
    for j in range(1, 17):
        if j not in diag:
            assert np.array_equal(_el(b_s, j), _el(b_r, j))


def test_build_rejects_too_small_orders():
    with pytest.raises(ValueError):
        build_rbb(1)
    with pytest.raises(ValueError):
        build_srbb(0)


def test_z_string_msb_convention():
    assert np.array_equal(z_string(2, 1), [1, -1, 1, -1])   # Z on qubit 1
    assert np.array_equal(z_string(2, 2), [1, 1, -1, -1])   # Z on qubit 0
    assert np.array_equal(z_string(3, 4), [1, 1, 1, 1, -1, -1, -1, -1])


@given(st.integers(1, 4), st.data())
def test_z_string_xor_multiplicativity(n, data):
    a = data.draw(st.integers(0, 2**n - 1))
    b = data.draw(st.integers(0, 2**n - 1))
    assert np.array_equal(z_string(n, a) * z_string(n, b), z_string(n, a ^ b))


# ---------------------------------------------------------------------------
# property suite

@pytest.mark.parametrize("d", range(3, 9))
def test_rbb_properties(d):
    report = check_basis_properties(build_rbb(d))
    assert report.all_pass, report.failures
    assert "independent" not in report.failures


@pytest.mark.parametrize("d", range(3, 9))
def test_rbb_has_full_rank(d):
    # an oracle for the independence check that does not go through
    # check_basis_properties
    b = build_rbb(d)
    stack = np.stack([el.matrix.ravel() for el in b.elements])
    assert np.linalg.matrix_rank(stack) == d * d


@pytest.mark.parametrize("n", range(1, 5))
def test_srbb_properties(n):
    report = check_basis_properties(build_srbb(n))
    assert report.all_pass, report.failures
    assert "independent" not in report.failures


def test_property_report_deviations_are_tiny():
    report = check_basis_properties(build_srbb(3))
    assert max(report.max_deviation.values()) < 1e-12


def test_diagonal_positions_values():
    assert diagonal_positions(4) == [3, 8, 15, 16]
    assert diagonal_positions(8) == [3, 8, 15, 24, 35, 48, 63, 64]


def test_check_flags_a_tampered_basis():
    stack = build_srbb(2).stack
    bad = Basis(np.concatenate([stack[:-1], stack[:1]]))
    report = check_basis_properties(bad)
    assert not report.all_pass
    assert "identity_last" in report.failures


def test_check_flags_a_short_basis():
    report = check_basis_properties(Basis(build_rbb(3).stack[:-1]))
    assert report.failures[0] == "cardinality"


def test_check_flags_a_dependent_odd_order_basis():
    # a repeated element passes every element-wise check; only the rank
    # check sees it
    stack = build_rbb(3).stack.copy()
    stack[1] = stack[0]
    report = check_basis_properties(Basis(stack))
    assert report.failures == ["independent"]
    assert not report.all_pass


def test_elements_view_the_stack():
    b = build_srbb(3)
    assert b.order == 8 and b.stack.shape == (64, 8, 8)
    for j, el in enumerate(b.elements, start=1):
        assert el.index == j
        assert np.shares_memory(el.matrix, b.stack)
        assert np.array_equal(el.matrix, b.stack[j - 1])


def test_checking_a_basis_copies_no_elements():
    # the 1 MiB stack of the n = 4 basis is checked in place: neither the
    # element-wise pass nor the rank check may restack it
    basis = build_srbb(4)
    tracemalloc.start()
    try:
        report = check_basis_properties(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_pass
    assert peak < 0.25 * 2**20


# ---------------------------------------------------------------------------
# index maps

def test_index_map_pins():
    assert f_index(4, 1) == 13
    assert f_index(3, 2) == 6
    assert h_index(4, 1) == 10


@given(st.integers(2, 40), st.integers(0, 200))
def test_index_maps_land_in_their_bands(p, q):
    base = (p - 1) ** 2
    assert base <= h_index(p, q) < base + p - 1
    assert base + p - 1 <= f_index(p, q) < p * p - 1


@given(st.integers(2, 40), st.integers(0, 200))
def test_index_maps_are_periodic_in_q(p, q):
    assert f_index(p, q) == f_index(p, q + (p - 1))
    assert h_index(p, q) == h_index(p, q + (p - 1))


def test_index_maps_reject_small_p():
    with pytest.raises(ValueError):
        f_index(1, 0)
    with pytest.raises(ValueError):
        h_index(0, 3)


# ---------------------------------------------------------------------------
# grouping

def test_grouping_n2():
    g = grouping(2)
    assert g.z_indices == (3, 8, 15)
    assert g.psi_a_pairs == ((1, 2), (9, 12))
    assert g.psi_b_quads == {1: ((10, 13, 4, 6),)}
    assert g.phi_quads == {1: ((5, 7, 11, 14),)}
    assert g.t_even == {1: ((2, 4),)}
    assert g.t_odd == {1: ((2, 3),)}
    assert g.k_index == {1: 0}


def test_grouping_n3_transpositions():
    g = grouping(3)
    assert g.z_indices == (3, 8, 15, 24, 35, 48, 63)
    assert g.psi_a_pairs == ((1, 2), (9, 12), (25, 30), (49, 56))
    assert g.t_even == {
        1: ((2, 4), (6, 8)),
        2: ((2, 6), (4, 8)),
        3: ((2, 8), (4, 6)),
    }
    assert g.t_odd == {
        1: ((2, 3), (6, 7)),
        2: ((2, 5), (4, 7)),
        3: ((2, 7), (4, 5)),
    }
    assert g.k_index == {1: 1, 2: 0, 3: 0}


def test_grouping_n3_quads():
    g = grouping(3)
    assert g.psi_b_quads[1] == ((10, 13, 4, 6), (54, 61, 36, 42))
    assert g.phi_quads[3] == ((37, 43, 51, 58), (19, 23, 29, 34))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grouping_partitions_the_basis(n):
    g = grouping(n)
    d = 2**n
    seen: list[int] = list(g.z_indices)
    for pair in g.psi_a_pairs:
        seen += pair
    for quads in (g.psi_b_quads, g.phi_quads):
        for x in quads:
            for quad in quads[x]:
                seen += quad
    assert len(seen) == len(set(seen)) == d * d - 1
    assert set(seen) == set(range(1, d * d))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quads_are_off_diagonal_elements(n):
    g = grouping(n)
    diag = set(diagonal_positions(2**n))
    for quads in (g.psi_b_quads, g.phi_quads):
        for x in quads:
            for quad in quads[x]:
                assert not (set(quad) & diag)


def test_transposition_matrix_is_an_involution():
    p = transposition_matrix(2, 4, 4)
    assert np.array_equal(p @ p, np.eye(4))
    assert p[1, 3] == p[3, 1] == 1
    with pytest.raises(ValueError):
        transposition_matrix(3, 3, 4)


def test_grouping_rejects_n1():
    with pytest.raises(ValueError):
        grouping(1)


# ---------------------------------------------------------------------------
# exponentials

def test_element_exponential_matches_expm():
    rng = np.random.default_rng(5)
    b = build_srbb(2)
    for theta in rng.uniform(-np.pi, np.pi, 100):
        j = int(rng.integers(1, 17))
        u = _el(b, j)
        want = scipy.linalg.expm(1j * theta * u)
        assert np.abs(element_exponential(theta, u) - want).max() < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_exact_unitary_is_unitary(n):
    rng = np.random.default_rng(9)
    d = 2**n
    u = exact_unitary(n, rng.uniform(-1, 1, d * d - 1))
    assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-10


def test_exact_unitary_zero_angles_is_identity():
    assert np.abs(exact_unitary(2, np.zeros(15)) - np.eye(4)).max() == 0.0


def test_exact_unitary_checks_length():
    with pytest.raises(ValueError):
        exact_unitary(2, np.zeros(14))


@settings(max_examples=20)
@given(st.integers(1, 63), st.floats(-3.0, 3.0))
def test_single_element_rotation_is_unitary(j, theta):
    u = srbb_element(3, j)
    e = element_exponential(theta, u)
    assert np.abs(e @ e.conj().T - np.eye(8)).max() < 1e-12
