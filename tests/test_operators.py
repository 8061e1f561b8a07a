import numpy as np
import pytest
import scipy.sparse

from gaugecavity.errors import ArgumentError, ResourceLimitError
from gaugecavity.operators import (
    DENSE_MAX_DIM,
    Operator,
    Statevector,
    basis_state,
    boson_ladder,
    coherent_state,
    _fix_phases,
    displacement,
    eigh,
    expectation,
    identity,
    tensor,
    vacuum,
)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def number_operator(cutoff: int) -> Operator:
    return Operator(np.diag(np.arange(cutoff, dtype=float)).astype(complex), hermitian=True)


class TestTensor:
    def test_identity_case(self):
        out = tensor(identity(2), identity(3))
        assert out.dim == 6
        assert np.allclose(out.entries, np.eye(6))

    def test_diagonal_case(self):
        out = tensor(Operator(SIGMA_Z, hermitian=True), identity(2))
        assert np.allclose(np.diag(out.entries), [1, 1, -1, -1])

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(11)
        a = Operator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        b = Operator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        u = Operator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        v = Operator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        left = tensor(a, b) @ tensor(u, v)
        right = tensor(a @ u, b @ v)  # direct matrix multiplication oracle
        assert np.max(np.abs(left.entries - right.entries)) <= 1e-12

    def test_dimension_guard(self):
        with pytest.raises(ResourceLimitError):
            tensor(identity(200), identity(200))


class TestBosonLadder:
    def test_cutoff_two(self):
        a, adag = boson_ladder(2)
        assert np.allclose(a.entries, [[0, 1], [0, 0]])
        assert np.allclose(adag.entries, a.entries.conj().T)

    def test_sqrt_two_element(self):
        a, _ = boson_ladder(3)
        assert a.entries[1, 2] == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_truncated_commutator(self):
        # explicit matrix commutator: identity except bottom-right = 1 - cutoff
        a, adag = boson_ladder(4)
        comm = a.entries @ adag.entries - adag.entries @ a.entries
        expected = np.eye(4)
        expected[-1, -1] = -3.0
        assert np.max(np.abs(comm - expected)) <= 1e-14

    @pytest.mark.parametrize("cutoff", [5, 9])
    def test_commutator_property(self, cutoff):
        a, adag = boson_ladder(cutoff)
        comm = a.entries @ adag.entries - adag.entries @ a.entries
        expected = np.eye(cutoff)
        expected[-1, -1] = 1.0 - cutoff
        # sqrt(n)^2 re-rounds; exact up to one ulp of the corner entry
        assert np.max(np.abs(comm - expected)) <= 4 * np.finfo(float).eps * cutoff

    def test_small_cutoff_rejected(self):
        with pytest.raises(ArgumentError):
            boson_ladder(1)


class TestEigh:
    def test_diagonal_sorting(self):
        es = eigh(Operator(np.diag([3.0, 1.0, 2.0]).astype(complex), hermitian=True))
        assert np.allclose(es.values, [1, 2, 3])

    def test_sigma_x(self):
        es = eigh(Operator(SIGMA_X, hermitian=True))
        assert np.allclose(es.values, [-1, 1])
        assert np.allclose(es.vectors[:, 0], np.array([1, -1]) / np.sqrt(2))
        assert np.allclose(es.vectors[:, 1], np.array([1, 1]) / np.sqrt(2))

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = Operator(m + m.conj().T)
        es = eigh(h)
        rebuilt = es.vectors @ np.diag(es.values) @ es.vectors.conj().T
        assert np.max(np.abs(rebuilt - h.entries)) <= 1e-10

    def test_reconstruction_large(self):
        rng = np.random.default_rng(6)
        n = 512
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = Operator(m + m.conj().T)
        es = eigh(h)
        rebuilt = es.vectors @ np.diag(es.values) @ es.vectors.conj().T
        scale = np.max(np.abs(h.entries))
        assert np.max(np.abs(rebuilt - h.entries)) <= 1e-9 * scale
        assert np.max(np.abs(es.vectors.conj().T @ es.vectors - np.eye(n))) <= 1e-10

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = Operator(m + m.conj().T)
        va = eigh(h)
        vb = eigh(h)
        assert np.array_equal(va.vectors, vb.vectors)
        for k in range(6):
            idx = np.argmax(np.abs(va.vectors[:, k]))
            piv = va.vectors[idx, k]
            assert piv.real > 0 and abs(piv.imag) <= 1e-12 * abs(piv)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ArgumentError):
            eigh(Operator(np.array([[0.0, 1.0], [0.0, 0.0]])))


class TestDisplacement:
    def test_zero_is_identity(self):
        assert np.allclose(displacement(0.0, 12).entries, np.eye(12))

    def test_coherent_amplitude(self):
        # apply the matrix exponential to vacuum and measure <c>
        a, _ = boson_ladder(40)
        state = coherent_state(0.5, 40)
        mean = expectation(state, a)
        assert abs(mean - 0.5) <= 1e-10

    def test_unitarity(self):
        d = displacement(1 + 0.3j, 60)
        dev = np.max(np.abs(d.entries @ d.entries.conj().T - np.eye(60)))
        assert dev <= 1e-9

    @pytest.mark.parametrize("beta", [0.5, -1.2, 2.0, 1.0 + 1.0j])
    def test_inverse_property(self, beta):
        cut = 80
        d1 = displacement(beta, cut)
        d2 = displacement(-beta, cut)
        assert np.max(np.abs((d1 @ d2).entries - np.eye(cut))) <= 1e-8


class TestExpectation:
    def test_vacuum_number(self):
        assert expectation(vacuum(5), number_operator(5)) == 0

    def test_plus_state(self):
        a, adag = boson_ladder(4)
        plus = Statevector(np.array([1, 1, 0, 0]) / np.sqrt(2))
        val = expectation(plus, a + adag)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_direct_contraction_oracle(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = Operator(m + m.conj().T)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        state = Statevector(v / np.linalg.norm(v))
        direct = state.amplitudes.conj() @ h.entries @ state.amplitudes
        assert abs(expectation(state, h) - direct) <= 1e-12
        assert abs(expectation(state, h).imag) <= 1e-12 * np.max(np.abs(h.entries))

    def test_dim_mismatch(self):
        with pytest.raises(ArgumentError):
            expectation(vacuum(3), identity(4))


def test_statevector_normalisation_guard():
    with pytest.raises(ArgumentError):
        Statevector(np.array([1.0, 1.0]))
    assert basis_state(4, 2).amplitudes[2] == 1.0


def _fix_phases_by_column(vectors):
    """`_fix_phases` as a loop over the columns."""
    out = vectors.copy()
    mags = np.abs(out)
    for k in range(out.shape[1]):
        col = mags[:, k]
        idx = int(np.flatnonzero(col >= col.max() - 1e-12)[0])
        pivot = out[idx, k]
        if abs(pivot) > 0:
            out[:, k] *= np.conj(pivot) / abs(pivot)
    return out


class TestFixPhases:
    @pytest.mark.parametrize("rows", [1, 2, 7, 64])
    def test_matches_the_column_loop_bit_for_bit(self, rows):
        rng = np.random.default_rng(rows)
        for trial in range(40):
            cols = int(rng.integers(1, 30))
            v = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            v[:, 0] = 0.0  # a zero column stays as it is
            if rows > 2:
                # entries tied within 1e-12: the lower index is the pivot
                v[2] = v[1] * np.exp(1j * rng.random(cols)) * (1.0 + 1e-13)
            if trial % 3 == 0:
                v = np.asfortranarray(v)
            want, got = _fix_phases_by_column(v), _fix_phases(v)
            assert np.array_equal(want.view(float), got.view(float))
        assert np.all(got[:, 0] == 0.0)

    def test_tied_pivot_is_the_lower_index(self):
        v = np.array([[1j], [1.0 + 1e-13]])
        assert np.array_equal(_fix_phases(v), np.array([[1.0 + 0j], [-1j * (1.0 + 1e-13)]]))


class TestStoredForm:
    def test_sparse_arrays_are_read_only(self):
        n = DENSE_MAX_DIM + 1
        op = Operator(scipy.sparse.diags([np.ones(n - 1), np.arange(n), np.ones(n - 1)],
                                         [-1, 0, 1], format="csr"))
        assert op.sparse
        for part in (op.matrix.data, op.matrix.indices, op.matrix.indptr):
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 1

    def test_digest_is_kept_and_names_the_stored_form(self):
        op = Operator(np.diag([0.0, 1.0]))
        assert op.digest is op.digest
        assert op.digest == Operator(np.diag([0.0, 1.0])).digest
        assert op.digest != Operator(np.diag([0.0, 1.0 + 2e-16])).digest
