"""Finite-dimensional Hilbert-space primitives.

States, commuting Hermitian quantity sets held by their joint spectrum
(a real eigenvalue table, plus a joint eigenbasis only when it is not
the computational one), Hamiltonians, and the expectation machinery the
reduction engines are built on.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonCommutingError,
    NonHermitianError,
    NonRealExpectationError,
)

# Double-precision defaults. The dense path of validate_quantity_set (an
# eigh and O(K^2) commutators) suits d up to ~500; diagonal families skip
# it and hold only their (d, K) table.
NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-10
COMMUTATOR_TOL = 1e-10
DIAGONAL_TOL = 1e-9

# Fixed seed for the random linear combination used by the joint
# diagonalizer; makes the eigenbasis deterministic across runs.
_COMBINATION_SEED = 0x5EED

# Elements per temporary in QuantitySet.spectral_spread and
# equivalence._pairwise_sq_distances (8 MB of floats).
_SPREAD_BLOCK_ELEMENTS = 1 << 20

# The smallest normal double: a squared norm below it has lost precision.
_TINY = float(np.finfo(float).tiny)

__all__ = [
    "StateVector",
    "Hamiltonian",
    "QuantitySet",
    "validate_quantity_set",
    "live_coordinates",
]


def _as_square_complex(matrix, name: str = "matrix") -> np.ndarray:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {m.shape}")
    return m


def _hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


class StateVector:
    """Normalized complex amplitude vector in a d-dimensional space.

    Immutable. The squared norm is 1 within ``NORM_TOL`` after every
    public operation; dimension 1 is degenerate for reduction dynamics
    and rejected.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes, *, normalize: bool = False, tol: float = NORM_TOL):
        amps = np.array(amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size < 2:
            raise DimensionMismatchError(
                f"state dimension must be >= 2, got {amps.size}"
            )
        with np.errstate(over="ignore", under="ignore"):
            nrm2 = float(np.sum(np.abs(amps) ** 2))
        if normalize:
            if not _TINY <= nrm2 < np.inf and np.all(np.isfinite(amps)) and np.any(amps):
                # the squared norm over- or underflowed: scale by the largest
                # modulus first, which leaves a largest modulus of 1
                amps = amps / np.max(np.abs(amps))
                nrm2 = float(np.sum(np.abs(amps) ** 2))
            if not 0.0 < nrm2 < np.inf:
                raise ValueError(f"cannot normalize a state of squared norm {nrm2!r}")
            amps = amps / np.sqrt(nrm2)
        elif abs(nrm2 - 1.0) > 100 * tol:
            # squared-norm check; the loose factor keeps legitimate
            # round-tripped states from tripping the gate
            raise ValueError(f"state not normalized: |psi|^2 = {nrm2!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __reduce__(self):
        return (StateVector, (np.array(self.amplitudes),))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


class Hamiltonian:
    """Hermitian generator of the unitary part of the dynamics, in natural
    units (hbar = 1): a state evolves by exp(-i H t).

    ``matrix`` is the read-only, exactly Hermitian (re-symmetrized) copy of
    the input.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = _as_square_complex(matrix, "hamiltonian")
        defect = _hermiticity_defect(m)
        if defect > HERMITIAN_TOL:
            raise NonHermitianError(
                f"hamiltonian deviates from Hermiticity by {defect:.3e} "
                f"(tol {HERMITIAN_TOL:.1e})"
            )
        m = (m + m.conj().T) / 2.0
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):
        raise AttributeError("Hamiltonian is immutable")

    def __reduce__(self):
        return (Hamiltonian, (np.array(self.matrix),))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def propagator(self, dt: float) -> np.ndarray:
        """exp(-i H dt), exact via the eigendecomposition."""
        w, u = np.linalg.eigh(self.matrix)
        return (u * np.exp(-1j * w * dt)) @ u.conj().T


def _cluster_sorted(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Group indices of ``values`` (ascending) into near-degenerate runs."""
    order = np.argsort(values, kind="stable")
    groups: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= tol:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return [np.array(g) for g in groups]


def _refine_block(basis: np.ndarray, indices: np.ndarray, operators, tol: float):
    """Rotate ``basis`` columns ``indices`` to diagonalize each operator in turn.

    Within a degenerate block every operator acts invariantly, so a
    per-operator eigendecomposition of the projected block, applied
    recursively to its own degenerate sub-blocks, diagonalizes the family.
    """
    if len(indices) <= 1 or not operators:
        return
    op = operators[0]
    sub = basis[:, indices]
    block = sub.conj().T @ op @ sub
    block = (block + block.conj().T) / 2.0
    vals, rot = np.linalg.eigh(block)
    basis[:, indices] = sub @ rot
    for group in _cluster_sorted(vals, tol):
        _refine_block(basis, indices[group], operators[1:], tol)


def _canonical_column_order(basis: np.ndarray, table: np.ndarray):
    """Deterministic column convention for the joint eigenbasis.

    Columns are ordered by the index of their dominant amplitude (ties
    broken by eigenvalue rows), and each column is re-phased so its
    largest entry is real positive. Already-diagonal inputs therefore
    get the identity basis with rows in computational order.
    """
    dominant = np.argmax(np.abs(basis), axis=0)
    keys = list(zip(dominant.tolist(), *(np.round(table, 9).T.tolist())))
    order = sorted(range(basis.shape[1]), key=lambda k: keys[k])
    basis = basis[:, order]
    table = table[order, :]
    pivots = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])]
    phases = pivots / np.abs(pivots)
    return basis / phases[np.newaxis, :], table


class QuantitySet:
    """K pairwise-commuting Hermitian quantities, held by their joint spectrum.

    ``eigenvalue_table[k, p]`` is the eigenvalue of quantity ``p`` on joint
    eigenvector ``k``. ``joint_basis`` holds those eigenvectors as columns,
    or is None when they are the computational basis vectors, as for every
    family diagonal in that basis: then no d x d matrix is stored and each
    change of basis is a copy. Build a diagonal family from its (d, K)
    table of diagonals directly, and a general one with
    :func:`validate_quantity_set`. Immutable and safe to share across
    workers.

    Raises
    ------
    DimensionMismatchError
        If the table is not (d, K) with d >= 2 and K >= 1, or the basis
        is not (d, d).
    NonRealExpectationError
        If the table has an imaginary residue above 1e-8; smaller
        residues are discarded.
    ValueError
        If the table holds a NaN or an infinity.
    """

    __slots__ = ("eigenvalue_table", "joint_basis")

    def __init__(self, eigenvalue_table, joint_basis=None):
        table = np.asarray(eigenvalue_table)
        if table.ndim != 2 or table.shape[0] < 2 or table.shape[1] < 1:
            raise DimensionMismatchError(
                f"eigenvalue table must be (d >= 2, K >= 1), got shape {table.shape}"
            )
        if np.iscomplexobj(table):
            residue = float(np.max(np.abs(table.imag)))
            if residue > 1e-8:
                raise NonRealExpectationError(
                    f"eigenvalue table has imaginary residue {residue:.3e}"
                )
            table = table.real
        # C order, as the engines' operands: the layout fixes the order in
        # which numpy sums, and so the last bit of each result
        table = np.array(table, dtype=float, order="C")
        if not np.all(np.isfinite(table)):
            raise ValueError("eigenvalue table must be finite")
        table.flags.writeable = False
        if joint_basis is not None:
            joint_basis = np.array(joint_basis, dtype=np.complex128)
            if joint_basis.shape != (table.shape[0],) * 2:
                raise DimensionMismatchError(
                    f"joint basis must be {(table.shape[0],) * 2}, "
                    f"got {joint_basis.shape}"
                )
            joint_basis.flags.writeable = False
        object.__setattr__(self, "eigenvalue_table", table)
        object.__setattr__(self, "joint_basis", joint_basis)

    def __setattr__(self, name, value):
        raise AttributeError("QuantitySet is immutable")

    def __reduce__(self):
        return (QuantitySet, (self.eigenvalue_table, self.joint_basis))

    @property
    def dim(self) -> int:
        return self.eigenvalue_table.shape[0]

    @property
    def num_quantities(self) -> int:
        return self.eigenvalue_table.shape[1]

    # Rows go through einsum, not matmul: BLAS may round a row differently
    # depending on how many rows share the call, and a trajectory must not
    # depend on its batch.

    def to_joint(self, states: StateVector | np.ndarray) -> np.ndarray:
        """Joint-basis coefficients of a state or of (..., d) state rows."""
        amps = states.amplitudes if isinstance(states, StateVector) else states
        amps = np.asarray(amps, dtype=np.complex128)
        if self.joint_basis is None:
            return amps.copy()
        return np.einsum("...j,jk->...k", amps, self.joint_basis.conj())

    def from_joint(self, coeffs: np.ndarray) -> np.ndarray:
        """Computational-basis amplitudes of (..., d) joint-basis rows."""
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if self.joint_basis is None:
            return coeffs.copy()
        return np.einsum("...k,jk->...j", coeffs, self.joint_basis)

    def operator_to_joint(self, matrix: np.ndarray) -> np.ndarray:
        """A d x d matrix written in the joint eigenbasis."""
        m = np.asarray(matrix, dtype=np.complex128)
        if self.joint_basis is None:
            return m.copy()
        return self.joint_basis.conj().T @ m @ self.joint_basis

    def operator_from_joint(self, matrix: np.ndarray) -> np.ndarray:
        """A d x d joint-basis matrix written in the computational basis."""
        m = np.asarray(matrix, dtype=np.complex128)
        if self.joint_basis is None:
            return m.copy()
        return self.joint_basis @ m @ self.joint_basis.conj().T

    def joint_hamiltonian(self, hamiltonian: Hamiltonian) -> np.ndarray:
        """The Hamiltonian's matrix in the joint eigenbasis, re-symmetrized.

        With no joint basis this is the Hamiltonian's own read-only
        matrix, which its constructor made exactly Hermitian.
        """
        if hamiltonian.dim != self.dim:
            raise DimensionMismatchError(
                "hamiltonian dimension does not match the quantity set"
            )
        if self.joint_basis is None:
            return hamiltonian.matrix
        h_joint = self.operator_to_joint(hamiltonian.matrix)
        return (h_joint + h_joint.conj().T) / 2.0

    def born_weights(self, psi: StateVector) -> np.ndarray:
        """Weights |<alpha_k|psi>|^2 in joint-basis order; they sum to 1.

        These are the long-time collapse probabilities of both reduction
        processes. Degenerate eigenvalue rows each get their own weight;
        collapse statistics aggregate rows downstream when needed.
        """
        weights = np.abs(self.to_joint(psi)) ** 2
        total = weights.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"born weights sum to {total!r}; state not normalized")
        return weights / total

    def _quadratic_form(self, psi: StateVector, column: np.ndarray) -> float:
        """<psi| D |psi> for D diagonal in the joint basis with entries ``column``."""
        coeffs = self.to_joint(psi)
        return float(np.vdot(coeffs, column * coeffs).real)

    def _check_index(self, p: int) -> None:
        if not 0 <= p < self.num_quantities:
            raise DimensionMismatchError(
                f"quantity index {p} out of range 0..{self.num_quantities - 1}"
            )

    def expectation(self, psi: StateVector, p: int) -> float:
        """<psi| A_p |psi>, from the joint-basis coefficients and the table."""
        self._check_index(p)
        return self._quadratic_form(psi, self.eigenvalue_table[:, p])

    def covariance(self, psi: StateVector, p: int, q: int) -> float:
        """<A_p A_q> - <A_p><A_q>; symmetric because the quantities commute."""
        self._check_index(p)
        self._check_index(q)
        table = self.eigenvalue_table
        second = self._quadratic_form(psi, table[:, p] * table[:, q])
        return second - self.expectation(psi, p) * self.expectation(psi, q)

    def expectations(self, psi: StateVector) -> np.ndarray:
        """All K expectation values at once, via the eigenvalue table."""
        return self.born_weights(psi) @ self.eigenvalue_table

    def spectral_spread(self) -> float:
        """Largest squared eigenvalue-row separation, summed over quantities.

        Sets the fastest decoherence rate of the induced dynamics. Taken
        over blocks of rows against the rows from the block on (the
        separation is symmetric), so memory stays near 8 MB per temporary
        at any dimension.
        """
        table = self.eigenvalue_table
        dim, num_q = table.shape
        block = max(1, _SPREAD_BLOCK_ELEMENTS // (dim * num_q))
        spread = 0.0
        for start in range(0, dim, block):
            rows = table[start : start + block, np.newaxis, :]
            diffs = rows - table[np.newaxis, start:, :]
            spread = max(spread, float(np.max(np.sum(diffs**2, axis=-1))))
        return spread

    def __repr__(self) -> str:
        return f"QuantitySet(dim={self.dim}, K={self.num_quantities})"


def validate_quantity_set(operators) -> QuantitySet:
    """Check a family of matrices and build its joint eigenstructure.

    The matrices must be square, share one dimension, be Hermitian within
    ``HERMITIAN_TOL`` (max-entry norm) and pairwise commute within
    ``COMMUTATOR_TOL``. A family whose symmetrized matrices are all exactly
    diagonal is built from its diagonals, with the identity basis.
    Otherwise simultaneous diagonalization proceeds by diagonalizing a
    random real-coefficient linear combination (fixed seed, hence
    deterministic) and refining degenerate blocks operator by operator.

    Raises
    ------
    NonHermitianError, NonCommutingError, DimensionMismatchError
    """
    mats = [_as_square_complex(m, f"operator {i}") for i, m in enumerate(operators)]
    if not mats:
        raise DimensionMismatchError("quantity set must contain at least one operator")
    dim = mats[0].shape[0]
    if dim < 2:
        raise DimensionMismatchError(f"quantity sets need dimension >= 2, got {dim}")
    for i, m in enumerate(mats):
        if m.shape[0] != dim:
            raise DimensionMismatchError(
                f"operator {i} has dimension {m.shape[0]}, expected {dim}"
            )
        defect = _hermiticity_defect(m)
        if defect > HERMITIAN_TOL:
            raise NonHermitianError(
                f"operator {i} deviates from Hermiticity by {defect:.3e} "
                f"(tol {HERMITIAN_TOL:.1e})"
            )
    stack = np.stack([(m + m.conj().T) / 2.0 for m in mats])
    diagonals = np.diagonal(stack, axis1=1, axis2=2)  # (K, d)
    off_diagonal = stack * (1.0 - np.eye(dim))[np.newaxis, :, :]
    if np.count_nonzero(off_diagonal) == 0:
        return QuantitySet(diagonals.real.T)

    scale = max(max(float(np.max(np.abs(m))) for m in mats), 1.0)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            defect = float(np.max(np.abs(comm)))
            if defect > COMMUTATOR_TOL * scale:
                raise NonCommutingError(
                    f"operators {i} and {j} do not commute: "
                    f"max |[A_{i}, A_{j}]| = {defect:.3e}"
                )

    rng = np.random.default_rng(_COMBINATION_SEED)
    coeffs = rng.standard_normal(len(mats))
    combo = np.tensordot(coeffs, stack, axes=1)
    vals, basis = np.linalg.eigh(combo)
    combo_scale = max(float(np.max(np.abs(vals))), 1.0)
    for group in _cluster_sorted(vals, 1e-8 * combo_scale):
        _refine_block(basis, group, list(stack), 1e-8 * scale)

    table = np.empty((dim, len(mats)))
    for p, m in enumerate(stack):
        transformed = basis.conj().T @ m @ basis
        off = transformed - np.diag(np.diagonal(transformed))
        worst = float(np.max(np.abs(off)))
        if worst > DIAGONAL_TOL * scale:
            raise NonCommutingError(
                f"joint diagonalization failed for operator {p}: "
                f"max off-diagonal {worst:.3e}"
            )
        table[:, p] = np.diagonal(transformed).real

    basis, table = _canonical_column_order(basis, table)
    return QuantitySet(table, basis)


def live_coordinates(coeffs: np.ndarray, h_joint: np.ndarray | None = None) -> np.ndarray:
    """Joint coordinates that either reduction process can make nonzero.

    ``coeffs`` holds joint-basis rows (..., d) and ``h_joint`` the d x d
    joint-basis Hamiltonian, or None. A coordinate is live when some row
    has a nonzero amplitude there, or when the Hamiltonian couples it to
    another coordinate (a nonzero off-diagonal entry in its row or
    column). Elsewhere both processes keep the amplitude exactly 0: a hit
    multiplies 0 by a Gaussian factor, and an Euler step gives
    ``0 * factor + h_ii * 0``. Returns the ascending indices, padded with
    the lowest dead ones to at least two, the smallest dimension of a
    :class:`QuantitySet`.
    """
    live = np.any(np.asarray(coeffs) != 0, axis=tuple(range(np.ndim(coeffs) - 1)))
    if h_joint is not None:
        coupled = h_joint != 0
        np.fill_diagonal(coupled, False)
        live |= coupled.any(axis=0) | coupled.any(axis=1)
    short = 2 - int(np.count_nonzero(live))
    if short > 0:
        live[np.flatnonzero(~live)[:short]] = True
    return np.flatnonzero(live)
