"""The paper's single-layer approximating operator, multiplied out from SRBB
element exponentials: a first-principles oracle that builds no circuit."""
import numpy as np

from srbb.algebra import element_exponential, grouping, srbb_element


def exact_unitary(n: int, theta: np.ndarray) -> np.ndarray:
    """Single-layer approximating operator Z * Psi * Phi from first principles.

    theta is indexed by basis position: theta[j-1] multiplies element j.
    Factor products run in grouping order (pairs by m, quads by x then by
    increasing first state, h/f alternating within each quad).
    """
    theta = np.asarray(theta, dtype=float)
    d = 2**n
    if theta.shape != (d * d - 1,):
        raise ValueError(f"theta must have length {d * d - 1}")
    g = grouping(n)

    def expo(j: int) -> np.ndarray:
        return element_exponential(theta[j - 1], srbb_element(n, j))

    z = np.eye(d, dtype=complex)
    for j in g.z_indices:
        z = z @ expo(j)

    psi = np.eye(d, dtype=complex)
    for j1, j2 in g.psi_a_pairs:
        psi = psi @ expo(j1) @ expo(j2)
    for x in sorted(g.psi_b_quads):
        for quad in g.psi_b_quads[x]:
            for j in quad:
                psi = psi @ expo(j)

    phi = np.eye(d, dtype=complex)
    for x in sorted(g.phi_quads):
        for quad in g.phi_quads[x]:
            for j in quad:
                phi = phi @ expo(j)

    return z @ psi @ phi
