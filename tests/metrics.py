"""Reference metrics the tests score the package against.

The density-matrix trace distance and fidelity are the oracle for the
pure-state overlap formulas that ``srbb.varopt`` trains and reports with;
the Hellinger distance compares sampled histograms with exact ones.
"""
import math

import numpy as np


def _check_density(rho: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.abs(rho - rho.conj().T).max() > tol:
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError("density matrix must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise ValueError("density matrix must be positive semidefinite")
    return rho


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Full trace norm of rho - sigma (no 1/2 factor), via eigendecomposition."""
    rho = _check_density(rho)
    sigma = _check_density(sigma)
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    return float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 via Hermitian eigendecompositions."""
    rho = _check_density(rho)
    sigma = _check_density(sigma)
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = np.linalg.eigvalsh(sqrt_rho @ sigma @ sqrt_rho)
    f = np.sqrt(np.clip(inner, 0.0, None)).sum() ** 2
    return float(min(max(f, 0.0), 1.0))


def hellinger(p, q) -> float:
    """sqrt(1 - sum sqrt(p_i q_i)) after normalizing both histograms."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("histograms must have equal support size")
    if (p < 0).any() or (q < 0).any():
        raise ValueError("histogram entries must be non-negative")
    ps, qs = p.sum(), q.sum()
    if ps == 0 or qs == 0:
        raise ValueError("cannot normalize an all-zero histogram")
    bc = np.sqrt(p / ps).dot(np.sqrt(q / qs))
    return float(math.sqrt(max(0.0, 1.0 - bc)))
