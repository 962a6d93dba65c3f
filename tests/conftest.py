import math
import tracemalloc

import numpy as np
import pytest

from qreduce.hilbert import StateVector, validate_quantity_set

SQ2 = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="session")
def sigma_z_set():
    return validate_quantity_set([np.diag([1.0, -1.0]).astype(complex)])


@pytest.fixture(scope="session")
def equal_qubit():
    return StateVector([SQ2, SQ2])


@pytest.fixture(scope="session")
def correlated_pair_set():
    """K=2 commuting diagonal pair with quantum covariance 1/2 on |+>."""
    return validate_quantity_set(
        [np.diag([1.0, 2.0]).astype(complex), np.diag([3.0, 5.0]).astype(complex)]
    )


@pytest.fixture(scope="session")
def three_level_set():
    return validate_quantity_set([np.diag([1.0, 2.0, 3.0]).astype(complex)])


Z = 5.0  # a bound of Z per-trajectory standard errors fails with probability 6e-7


def within_z(samples: np.ndarray, expected: np.ndarray) -> bool:
    """Mean over axis 1 of ``samples`` agrees with ``expected`` to Z standard errors.

    The 1e-9 floor covers the oracle's own Runge-Kutta error, which is all
    that is left when every trajectory is the same (a fully degenerate table).
    """
    n = samples.shape[1]
    mean = samples.mean(axis=1)
    bound = Z * samples.std(axis=1, ddof=1) / math.sqrt(n) + 1e-9
    return bool(np.all(np.abs(mean - expected) <= bound))


def full_weights(ens) -> np.ndarray:
    """An ensemble's (S, n, L) Born weights written out over all its d coordinates."""
    full = np.zeros(ens.weights.shape[:2] + (ens.dim,))
    full[..., ens.live] = ens.weights
    return full


def full_states(ens, quantities) -> np.ndarray:
    """An ensemble's (S, n, L) joint-basis states written out over all d
    coordinates and rotated to the computational basis of ``quantities``."""
    full = np.zeros(ens.states.shape[:2] + (ens.dim,), dtype=complex)
    full[..., ens.live] = ens.states
    return quantities.from_joint(full)


def pure(psi: StateVector) -> np.ndarray:
    """The projector |psi><psi| of a state, as a (d, d) array."""
    return np.outer(psi.amplitudes, psi.amplitudes.conj())


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak bytes tracemalloc traced during the call."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(amps, normalize=True)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[np.newaxis, :]


def random_block_basis(rng: np.random.Generator, sizes) -> tuple[np.ndarray, list]:
    """A random unitary, block-diagonal up to a permutation of rows and of columns.

    Returns the matrix and, per block, its (rows, columns) index arrays.
    Entries outside the blocks are exact zeros, so a state that vanishes
    on a block's rows has exactly zero joint coordinates on its columns,
    and a matrix block-diagonal in the joint basis keeps exact zeros
    between blocks on the way to the computational basis and back.
    """
    dim = sum(sizes)
    rows, cols = rng.permutation(dim), rng.permutation(dim)
    basis = np.zeros((dim, dim), dtype=complex)
    blocks = []
    for end, size in zip(np.cumsum(sizes), sizes):
        r, c = rows[end - size : end], cols[end - size : end]
        basis[np.ix_(r, c)] = random_unitary(rng, size)
        blocks.append((r, c))
    return basis, blocks
