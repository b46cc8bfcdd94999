"""Recursive block bases for the n-qubit matrix algebra.

Builds the recursive block basis (RBB) of any order d >= 2 from the Pauli
basis, the standard recursive block basis (SRBB) of order 2^n (diagonal
elements replaced by Pauli-Z tensor strings), the index functions f/h that
locate the off-diagonal generators acting on a state pair, and the grouping
of basis indices into the three synthesis factors (Z, even, odd) together
with their transposition sets.

Conventions used throughout the package:

- basis positions j are 1-based;
- state indices are 1-based where the algebra is concerned (alpha, beta)
  and 0-based where bit patterns are concerned;
- qubit 0 is the most significant bit of a state index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# basis containers


@dataclass(frozen=True)
class BasisElement:
    """One basis matrix with its 1-based position."""

    index: int
    matrix: np.ndarray


@dataclass(frozen=True)
class Basis:
    """Ordered basis of the order-d matrix algebra as one (d*d, d, d) array,
    element j (1-based) at stack[j-1]; elements are views of its rows."""

    stack: np.ndarray

    @property
    def order(self) -> int:
        return self.stack.shape[-1]

    @property
    def elements(self) -> tuple[BasisElement, ...]:
        return tuple(BasisElement(j, m) for j, m in enumerate(self.stack, start=1))


def diagonal_positions(d: int) -> list[int]:
    """Positions of the diagonal elements: {m^2 - 1 : 2 <= m <= d} plus d^2."""
    return [m * m - 1 for m in range(2, d + 1)] + [d * d]


# ---------------------------------------------------------------------------
# recursive construction

def _rbb_element(d: int, j: int) -> np.ndarray:
    """Single RBB element, in closed form.

    The order-d basis embeds every order-(d-1) element with the corner sign
    (-1)^(d-1).  Unrolled, element j < d^2 is diag((-1)^m) with its top-left
    d0 x d0 block, d0 = isqrt(j) + 1, replaced by the element order d0 adds:
    sigma_j at d0 = 2, a new +-1 diagonal at j = d0^2 - 1, and otherwise
    sigma_1 (the first d0-1 offsets past (d0-1)^2) or sigma_2 (the next
    d0-1) on the states a < b = d0-1.  That last is the paper's
    P_(k,d0-1) (diag((-1)^l) + sigma) P_(k,d0-1) written out: with
    pos = offset mod (d0-1), a = k-1 is d0-2 at pos = 0 and pos-1 after it,
    and the swap moves the sign (-1)^a from position a to position d0-2.
    """
    if j == d * d:  # identity caps the basis
        return np.eye(d, dtype=complex)
    out = np.diag((-1.0) ** np.arange(d)).astype(complex)
    d0 = math.isqrt(j) + 1
    if d0 == 2:
        out[:2, :2] = (SIGMA_1, SIGMA_2, SIGMA_3)[j - 1]
    elif j == d0 * d0 - 1:  # new diagonal element
        half = d0 // 2
        if d0 % 2 == 1:
            signs = [1.0] * (half + 1) + [-1.0] * half
        else:
            # the element must lie outside the span of the embedded diagonals
            # and the identity.  At d=4 those are diag(1,-1,1,-1),
            # diag(1,1,-1,-1) and I, so the only traceless +-1 diagonal left
            # is +-diag(1,-1,-1,1) (the Z(x)Z string): the trailing block is
            # -sigma_3, not sigma_3, which would reproduce the embedded
            # element at position 3.
            signs = [1.0] * (half - 1) + [-1.0] * (half - 1) + [-1.0, 1.0]
        out[range(d0), range(d0)] = signs
    else:  # new off-diagonal element
        offset = j - (d0 - 1) ** 2
        sigma = SIGMA_1 if offset < d0 - 1 else SIGMA_2
        pos = offset % (d0 - 1)
        a, b = (d0 - 2 if pos == 0 else pos - 1), d0 - 1
        out[d0 - 2, d0 - 2] = (-1) ** a
        out[a, a] = out[b, b] = 0
        out[a, b], out[b, a] = sigma[0, 1], sigma[1, 0]
    return out


def _build_basis(d: int, element) -> Basis:
    """The order-d basis of element(j), j = 1..d^2, as one (d^2, d, d) array."""
    stack = np.empty((d * d, d, d), dtype=complex)
    for j, out in enumerate(stack, start=1):
        out[...] = element(j)
    return Basis(stack)


def build_rbb(d: int) -> Basis:
    """Recursive block basis of order d (d >= 2)."""
    if d < 2:
        raise ValueError("basis order must be >= 2")
    return _build_basis(d, lambda j: _rbb_element(d, j))


def z_string(n: int, ordinal: int) -> np.ndarray:
    """Diagonal of the Pauli-Z tensor string for a diagonal ordinal.

    The ordinal's n-bit expansion (qubit 0 = most significant bit) selects
    sigma_3 where the bit is 1 and the identity where it is 0, so entry i
    of the length-2^n diagonal is (-1)^popcount(i & ordinal).
    """
    return np.array([(-1.0) ** (i & ordinal).bit_count() for i in range(2**n)])


def srbb_element(n: int, j: int) -> np.ndarray:
    """Single SRBB element for 2^n dimensions, built on demand."""
    d = 2**n
    # diagonal positions are (D+1)^2 - 1 for ordinal D = 1..d-1
    root = math.isqrt(j + 1)
    if root * root == j + 1 and 2 <= root <= d:
        return np.diag(z_string(n, root - 1)).astype(complex)
    return _rbb_element(d, j)


def build_srbb(n: int) -> Basis:
    """SRBB of order 2^n: the RBB with its diagonals replaced by Z-strings."""
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    return _build_basis(2**n, lambda j: srbb_element(n, j))


# ---------------------------------------------------------------------------
# property checks


@dataclass
class PropertyReport:
    """The failed basis properties, plus the worst deviation per numeric check.

    Property letters: a cardinality, b trace, c involution, d independent,
    e diagonal_positions, f identity_last.  Hermiticity is tracked alongside
    as an element invariant.  Row r of basis.stack is position r + 1.
    failures names each failed property, in the order checked; the basis
    passes when it is empty.

    ``"independent"``: the complex rank of basis.stack viewed as a
    (rows, d*d) matrix is d^2 (for Hermitian matrices, the same as over the
    reals).  At even orders, with the trace and identity checks, this means
    i*B_j (j < d^2) span su(d); at odd orders the non-identity elements have
    trace 1, so it means the d^2 elements are a basis of the order-d algebra.
    """

    max_deviation: dict[str, float]
    failures: list[str]

    @property
    def all_pass(self) -> bool:
        return not self.failures


def check_basis_properties(basis: Basis) -> PropertyReport:
    """Verify the defining properties of an RBB/SRBB basis in place."""
    tol = 1e-12
    stack, d = basis.stack, basis.order
    failures = ["cardinality"] if len(stack) != d * d else []
    dev = {"trace": 0.0, "involution": 0.0, "hermitian": 0.0, "identity_last": 0.0}

    expected_trace = 0.0 if d % 2 == 0 else 1.0
    eye = np.eye(d)
    diag_pos = set(diagonal_positions(d))
    diag_ok = True
    for j, m in enumerate(stack, start=1):
        if j <= d * d - 1:
            dev["trace"] = max(dev["trace"], abs(np.trace(m) - expected_trace))
        dev["involution"] = max(dev["involution"], float(np.abs(m @ m - eye).max()))
        dev["hermitian"] = max(dev["hermitian"], float(np.abs(m - m.conj().T).max()))
        is_diag = float(np.abs(m - np.diag(np.diag(m))).max()) <= tol
        diag_ok &= is_diag == (j in diag_pos)
    for key in ("trace", "involution", "hermitian"):
        if not dev[key] <= tol:
            failures.append(key)

    if np.linalg.matrix_rank(stack.reshape(len(stack), d * d)) != d * d:
        failures.append("independent")
    if not diag_ok:
        failures.append("diagonal_positions")

    dev["identity_last"] = float(np.abs(stack[-1] - eye).max())
    if not dev["identity_last"] <= tol:
        failures.append("identity_last")
    return PropertyReport(max_deviation=dev, failures=failures)


# ---------------------------------------------------------------------------
# index functions and factor grouping

def f_index(p: int, q: int) -> int:
    """(p-1)^2 + (p-1) + (q mod (p-1)): the sigma_2-type element index."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return (p - 1) ** 2 + (p - 1) + q % (p - 1)


def h_index(p: int, q: int) -> int:
    """(p-1)^2 + (q mod (p-1)): the sigma_1-type element index."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return (p - 1) ** 2 + q % (p - 1)


@dataclass(frozen=True)
class FactorGrouping:
    """Partition of the non-identity SRBB indices into synthesis factors.

    z_indices drive the diagonal factor; psi_a_pairs the leading
    block-diagonal even sub-factor; psi_b_quads / phi_quads the conjugated
    even/odd quadruples per factor index x; t_even / t_odd the transposition
    sets realising the conjugations; k_index the wrapping-control qubit of
    each odd factor.
    """

    n: int
    z_indices: tuple[int, ...]
    psi_a_pairs: tuple[tuple[int, int], ...]
    psi_b_quads: dict[int, tuple[tuple[int, int, int, int], ...]]
    phi_quads: dict[int, tuple[tuple[int, int, int, int], ...]]
    t_even: dict[int, tuple[tuple[int, int], ...]]
    t_odd: dict[int, tuple[tuple[int, int], ...]]
    k_index: dict[int, int]


def _k_of(x: int, n: int) -> int:
    """Wrapping-control qubit of odd factor x: the smallest qubit position
    whose bit of x is 1, i.e. x's leading bit (qubit 0 = MSB of n-1 bits)."""
    return n - 1 - x.bit_length()


def grouping(n: int) -> FactorGrouping:
    """Group the 4^n - 1 non-identity basis indices into the three factors."""
    if n < 2:
        raise ValueError("qubit count must be >= 2")
    d = 2**n

    z_indices = tuple(m * m - 1 for m in range(2, d + 1))
    psi_a = tuple(((2 * m - 1) ** 2, 4 * m * m - 2 * m) for m in range(1, d // 2 + 1))

    psi_b: dict[int, tuple[tuple[int, int, int, int], ...]] = {}
    phi: dict[int, tuple[tuple[int, int, int, int], ...]] = {}
    t_even: dict[int, tuple[tuple[int, int], ...]] = {}
    t_odd: dict[int, tuple[tuple[int, int], ...]] = {}
    k_index: dict[int, int] = {}

    for x in range(1, d // 2):
        k = _k_of(x, n)
        k_index[x] = k

        # even pairs: 1-based even states alpha < beta with
        # (alpha-1) xor (beta-1) = 2x
        evens = []
        for a0 in range(1, d, 2):  # 0-based odd = 1-based even
            b0 = a0 ^ (2 * x)
            if a0 < b0:
                evens.append((a0 + 1, b0 + 1))
        t_even[x] = tuple(evens)
        psi_b[x] = tuple(
            (h_index(b, a - 1), f_index(b, a - 1), h_index(b - 1, a), f_index(b - 1, a))
            for a, b in evens
        )

        # odd pairs: 0-based odd a with bit k clear, partner a xor 2x xor 1
        bit_k = 1 << (n - 1 - k)
        odds = []
        for a0 in range(1, d, 2):
            if a0 & bit_k:
                continue
            b0 = a0 ^ (2 * x) ^ 1
            odds.append((a0 + 1, b0 + 1))
        t_odd[x] = tuple(odds)
        phi[x] = tuple(
            (h_index(b, a - 1), f_index(b, a - 1), h_index(b + 1, a), f_index(b + 1, a))
            for a, b in odds
        )

    return FactorGrouping(
        n=n, z_indices=z_indices, psi_a_pairs=psi_a, psi_b_quads=psi_b,
        phi_quads=phi, t_even=t_even, t_odd=t_odd, k_index=k_index,
    )


def transposition_matrix(alpha: int, beta: int, d: int) -> np.ndarray:
    """Identity with rows alpha, beta (1-based) swapped."""
    if not (1 <= alpha < beta <= d):
        raise ValueError("need 1 <= alpha < beta <= d")
    p = np.eye(d)
    p[[alpha - 1, beta - 1]] = p[[beta - 1, alpha - 1]]
    return p


# ---------------------------------------------------------------------------
# exponential of one basis element

def element_exponential(theta: float, u: np.ndarray) -> np.ndarray:
    """exp(i*theta*U) for an involution U, via cos(theta)I + i sin(theta)U."""
    return np.cos(theta) * np.eye(u.shape[0]) + 1j * np.sin(theta) * u
