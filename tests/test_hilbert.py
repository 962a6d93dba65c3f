import warnings

import numpy as np
import pytest

from conftest import SQ2, random_state, random_unitary, traced_peak
from qreduce.errors import (
    DimensionMismatchError,
    NonCommutingError,
    NonHermitianError,
    NonRealExpectationError,
)
from qreduce.hilbert import (
    Hamiltonian,
    QuantitySet,
    StateVector,
    validate_quantity_set,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestStateVector:
    def test_rejects_one_dimensional_space(self):
        with pytest.raises(DimensionMismatchError):
            StateVector([1.0])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 1.0])

    def test_normalize_flag(self):
        psi = StateVector([3.0, 4.0], normalize=True)
        assert psi.norm_squared() == pytest.approx(1.0, abs=1e-12)
        assert psi.amplitudes[0] == pytest.approx(0.6)

    def test_zero_state_cannot_normalize(self):
        with pytest.raises(ValueError):
            StateVector([0.0, 0.0], normalize=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_norm_cannot_normalize(self, bad):
        with pytest.raises(ValueError, match="squared norm"):
            StateVector([bad, 1.0], normalize=True)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_normalizes_where_the_squared_norm_leaves_the_float_range(self, scale):
        # |a|^2 overflows at 1e200 and underflows at 1e-200; no warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = StateVector([3.0 * scale, 4.0j * scale], normalize=True)
        assert psi.amplitudes[0] == pytest.approx(0.6, abs=1e-15)
        assert psi.amplitudes[1] == pytest.approx(0.8j, abs=1e-15)
        assert psi.norm_squared() == pytest.approx(1.0, abs=1e-15)

    def test_immutable(self):
        psi = StateVector([1.0, 0.0])
        with pytest.raises(AttributeError):
            psi.amplitudes = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestValidateQuantitySet:
    def test_sigma_z_already_diagonal(self):
        qs = validate_quantity_set([SZ])
        assert qs.joint_basis is None  # the identity
        assert np.allclose(qs.eigenvalue_table.ravel(), [1.0, -1.0])

    def test_non_commuting_pair_rejected(self):
        with pytest.raises(NonCommutingError):
            validate_quantity_set([SZ, SX])

    def test_diagonal_pair(self):
        qs = validate_quantity_set([np.diag([1.0, 2.0, 3.0]), np.diag([5.0, 5.0, 7.0])])
        assert qs.num_quantities == 2
        assert np.allclose(qs.eigenvalue_table, [[1, 5], [2, 5], [3, 7]])

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NonHermitianError):
            validate_quantity_set([bad])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            validate_quantity_set([SZ, np.eye(3)])

    def test_rotated_degenerate_family_reconstructs(self):
        # joint spectrum {(1,5),(2,3),(2,7)}: the first operator alone is
        # degenerate, the second resolves it
        rng = np.random.default_rng(7)
        u = random_unitary(rng, 3)
        a1 = u @ np.diag([1.0, 2.0, 2.0]).astype(complex) @ u.conj().T
        a2 = u @ np.diag([5.0, 3.0, 7.0]).astype(complex) @ u.conj().T
        qs = validate_quantity_set([a1, a2])
        v = qs.joint_basis
        for p, op in enumerate((a1, a2)):
            rebuilt = (v * qs.eigenvalue_table[:, p][np.newaxis, :]) @ v.conj().T
            assert np.max(np.abs(rebuilt - op)) < 1e-8
        rows = {tuple(np.round(r, 6)) for r in qs.eigenvalue_table}
        assert rows == {(1.0, 5.0), (2.0, 3.0), (2.0, 7.0)}

    @pytest.mark.parametrize(
        "diagonals",
        [
            [[1.0, 2.0, 2.0]],
            [[1.0, 1.0, 2.0, 3.0], [4.0, 4.0, 4.0, 0.0]],
            [[0.5, 0.5, 0.5, -1.0, -1.0], [2.0, 2.0, 3.0, 2.0, 2.0], [1.0, 1.0, 1.0, 1.0, 1.0]],
        ],
    )
    def test_diagonal_and_general_paths_agree(self, diagonals):
        # the same family, diagonal (identity basis) and conjugated by a
        # random unitary (eigh and refinement), with repeated rows
        rng = np.random.default_rng(11)
        diagonals = np.array(diagonals)
        u = random_unitary(rng, diagonals.shape[1])
        direct = validate_quantity_set([np.diag(row) for row in diagonals])
        rotated = validate_quantity_set([u @ np.diag(row) @ u.conj().T for row in diagonals])
        assert direct.joint_basis is None
        assert rotated.joint_basis is not None

        def rows(qs):
            table = qs.eigenvalue_table
            order = sorted(range(table.shape[0]), key=lambda k: tuple(np.round(table[k], 8)))
            return table[order]

        assert np.array_equal(direct.eigenvalue_table, diagonals.T)
        assert np.max(np.abs(rows(direct) - rows(rotated))) < 1e-10

    @pytest.mark.parametrize(
        "table, error",
        [
            (np.zeros(3), DimensionMismatchError),
            (np.zeros((1, 2)), DimensionMismatchError),
            (np.zeros((3, 0)), DimensionMismatchError),
            (np.array([[0.0], [np.nan]]), ValueError),
            (np.array([[0.0], [np.inf]]), ValueError),
        ],
    )
    def test_table_constructor_rejects_malformed_tables(self, table, error):
        with pytest.raises(error):
            QuantitySet(table)

    def test_spectral_spread_by_blocks_is_exact(self, monkeypatch):
        import qreduce.hilbert as hilbert

        table = np.random.default_rng(3).standard_normal((50, 3))
        diffs = table[:, np.newaxis, :] - table[np.newaxis, :, :]
        whole = float(np.max(np.sum(diffs**2, axis=-1)))
        monkeypatch.setattr(hilbert, "_SPREAD_BLOCK_ELEMENTS", 7 * 50 * 3)
        assert QuantitySet(table).spectral_spread() == whole

    def test_commutator_tolerance_boundary(self):
        noisy = SZ + 1e-6 * SX
        with pytest.raises(NonCommutingError):
            validate_quantity_set([noisy, np.diag([0.3, 0.9]).astype(complex), SZ])


class TestExpectation:
    def test_eigenstate(self, sigma_z_set):
        assert sigma_z_set.expectation(StateVector([1.0, 0.0]), 0) == pytest.approx(1.0)

    def test_symmetry(self, sigma_z_set, equal_qubit):
        assert sigma_z_set.expectation(equal_qubit, 0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_evaluated_quadratic_form(self):
        qs = validate_quantity_set([np.diag([1.0, 2.0, 3.0])])
        psi = StateVector([0.6, 0.8, 0.0])
        assert qs.expectation(psi, 0) == pytest.approx(1.64, abs=1e-12)

    def test_index_out_of_range(self, sigma_z_set, equal_qubit):
        with pytest.raises(DimensionMismatchError):
            sigma_z_set.expectation(equal_qubit, 1)

    def test_corrupted_operator_flagged(self):
        qs = validate_quantity_set([SZ])
        broken = np.array(qs.eigenvalue_table, dtype=complex)
        broken[0, 0] += 1e-6j  # complex eigenvalue: not a Hermitian quantity
        with pytest.raises(NonRealExpectationError):
            QuantitySet(broken)


class TestCovariance:
    def test_eigenstate_sharp(self, sigma_z_set):
        psi = StateVector([0.0, 1.0])
        assert sigma_z_set.covariance(psi, 0, 0) == pytest.approx(0.0, abs=1e-12)

    def test_qubit_variance(self, sigma_z_set, equal_qubit):
        assert sigma_z_set.covariance(equal_qubit, 0, 0) == pytest.approx(1.0)

    def test_diagonal_pair_cross(self, correlated_pair_set, equal_qubit):
        # <AB> - <A><B> = 6.5 - 1.5 * 4 = 0.5
        assert correlated_pair_set.covariance(equal_qubit, 0, 1) == pytest.approx(0.5)
        assert correlated_pair_set.covariance(equal_qubit, 1, 0) == pytest.approx(0.5)


class TestBornWeights:
    def test_eigenvector_unit_weight(self, three_level_set):
        psi = StateVector([0.0, 1.0, 0.0])
        assert np.allclose(three_level_set.born_weights(psi), [0, 1, 0], atol=1e-12)

    def test_equal_superposition(self, sigma_z_set, equal_qubit):
        assert np.allclose(sigma_z_set.born_weights(equal_qubit), [0.5, 0.5])

    def test_squared_moduli(self, sigma_z_set):
        psi = StateVector([0.5, np.sqrt(0.75)])
        assert np.allclose(sigma_z_set.born_weights(psi), [0.25, 0.75])

    def test_sum_to_one_many_random_states(self):
        rng = np.random.default_rng(123)
        u = random_unitary(rng, 5)
        qs = validate_quantity_set([u @ np.diag([1.0, 2, 3, 4, 5]) @ u.conj().T])
        worst = 0.0
        for _ in range(1000):
            w = qs.born_weights(random_state(rng, qs.dim))
            worst = max(worst, abs(w.sum() - 1.0))
        assert worst <= 1e-12

    def test_expectation_consistency_between_paths(self):
        rng = np.random.default_rng(99)
        u = random_unitary(rng, 4)
        ops = [
            u @ np.diag([0.5, -1.0, 2.0, 0.25]).astype(complex) @ u.conj().T,
            u @ np.diag([1.0, 1.0, -3.0, 4.0]).astype(complex) @ u.conj().T,
        ]
        qs = validate_quantity_set(ops)
        for _ in range(50):
            psi = random_state(rng, 4)
            w = qs.born_weights(psi)
            for p in range(2):
                via_matrix = np.vdot(psi.amplitudes, ops[p] @ psi.amplitudes).real
                via_table = float(w @ qs.eigenvalue_table[:, p])
                assert qs.expectation(psi, p) == pytest.approx(via_matrix, abs=1e-10)
                assert via_table == pytest.approx(via_matrix, abs=1e-10)


class TestHamiltonian:
    def test_requires_hermitian(self):
        with pytest.raises(NonHermitianError):
            Hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_propagator_is_unitary_and_matches_expm(self):
        from scipy.linalg import expm

        h = Hamiltonian(SX / 2.0)
        u = h.propagator(0.7)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        assert np.allclose(u, expm(-1j * SX * 0.7 / 2.0), atol=1e-12)

    def test_holds_only_its_matrix_and_pickles_to_the_same_bits(self):
        import pickle

        # natural units: no hbar, and no cached eigensystem beside the matrix
        m = np.array([[0.3, 1 - 0.5j], [1 + 0.5j, -0.3]])
        h = Hamiltonian(m)
        assert Hamiltonian.__slots__ == ("matrix",)
        assert not hasattr(h, "hbar") and not hasattr(h, "eigensystem")
        copy = pickle.loads(pickle.dumps(h))
        assert copy.matrix.tobytes() == h.matrix.tobytes() and not copy.matrix.flags.writeable
        assert copy.propagator(0.3).tobytes() == h.propagator(0.3).tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 17, 300])
    def test_joint_hamiltonian_without_joint_basis_is_the_matrix(self, dim):
        # the re-symmetrized copy of an exactly Hermitian matrix has the
        # same bits, signed zeros included
        rng = np.random.default_rng(dim)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m[rng.random((dim, dim)) < 0.3] = -0.0
        h = Hamiltonian(m + m.conj().T)
        got = QuantitySet(rng.standard_normal((dim, 1))).joint_hamiltonian(h)
        assert got is h.matrix and not got.flags.writeable
        assert got.tobytes() == ((h.matrix + h.matrix.conj().T) / 2.0).tobytes()

    def test_joint_hamiltonian_without_joint_basis_copies_nothing(self):
        # three d x d complex matrices at d = 700 would take 22.4 MiB
        rng = np.random.default_rng(700)
        m = rng.standard_normal((700, 700)) + 1j * rng.standard_normal((700, 700))
        h = Hamiltonian(m + m.conj().T)
        quantities = QuantitySet(rng.standard_normal((700, 2)))
        _, peak = traced_peak(quantities.joint_hamiltonian, h)
        assert peak < 2**20
