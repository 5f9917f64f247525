"""Reference constructions that only the tests use, kept out of the library."""

import numpy as np

from spindj.core import UNITARY_TOL, DensityOperator


def is_permutation_matrix(matrix: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """One entry of modulus 1 per row and per column, all others ~0."""
    mags = np.abs(matrix)
    big = mags > tol
    if not (np.all(big.sum(axis=0) == 1) and np.all(big.sum(axis=1) == 1)):
        return False
    return bool(np.max(np.abs(mags[big] - 1.0)) <= tol)


def pseudo_pure_matrix(n_spins: int, epsilon: float) -> DensityOperator:
    """(1 - eps) * 2^-N * identity + eps * |00...0><00...0| on N spins."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    dim = 1 << n_spins
    matrix = np.eye(dim, dtype=complex) * ((1.0 - epsilon) / dim)
    matrix[0, 0] += epsilon
    return DensityOperator(matrix, check=False)


def brute_force_signal(table):
    """Ground truth: 2^-n * sum over x of (-1)^f(x), by direct enumeration."""
    total = 0
    for x in range(1 << table.n):
        total += (-1) ** table(x)
    return total / (1 << table.n)
