import numpy as np
import pytest

from gaugecavity.bogoliubov import (
    DEGENERATE_ATOL,
    BogoliubovBlock,
    _lambda_closed_form,
    adapt_degenerate_branches,
    coupling_g,
    diagonalize_block,
    exact_branch_coupling,
    numeric_block_eigen,
    verify_symplectic,
)
from gaugecavity.errors import ArgumentError
from gaugecavity.gauge import DiamagneticMatrix, diamagnetic_D, lwl_mode, make_gauge
from gaugecavity.matter import build_anharmonic_dipole, build_two_level_ensemble
from gaugecavity.operators import Operator, zero
from gaugecavity.response import chi_md


def _dm(d11, d22, d12, delta):
    return DiamagneticMatrix(d=np.array([[d11, d12], [d12, d22]]), delta_q=delta)


def _random_psd_blocks(n, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m = rng.normal(size=(2, 2))
        d = m @ m.T
        delta_over_nu = rng.uniform(0.0, 1.0)
        nu = rng.uniform(0.2, 3.0)
        yield _dm(d[0, 0], d[1, 1], d[0, 1], delta_over_nu * nu), nu


class TestDiagonalizeBlock:
    def test_no_diamagnetic_term(self):
        block = diagonalize_block(_dm(1.0, 1.0, 0.0, 0.0), nu_q=1.0)
        assert np.allclose(block.lambdas, [1.0, 1.0])
        for t, tau in enumerate((+1, -1)):
            w, x, y, z = block.coeffs[t]
            assert w == pytest.approx(-tau / np.sqrt(2), abs=1e-15)
            assert x == pytest.approx(-1 / np.sqrt(2), abs=1e-15)
            assert y == 0.0 and z == 0.0

    def test_isotropic_block(self):
        # 2 Delta / nu = 0.5 with D = I gives lambda = sqrt(2) on both branches
        block = diagonalize_block(_dm(1.0, 1.0, 0.0, 0.25), nu_q=1.0)
        assert np.allclose(block.lambdas, np.sqrt(2.0), atol=1e-14)
        lam_num, _ = numeric_block_eigen(_dm(1.0, 1.0, 0.0, 0.25), 1.0)
        assert np.max(np.abs(block.lambdas - lam_num)) <= 1e-10

    def test_anisotropic_example(self):
        dmat = _dm(2.0, 1.0, 1.0, 0.05)
        block = diagonalize_block(dmat, nu_q=1.0)
        assert block.lambda_plus == pytest.approx(1.234345, abs=1e-6)
        assert block.lambda_minus == pytest.approx(1.037494, abs=1e-6)
        lam_num, _ = numeric_block_eigen(dmat, 1.0)
        assert np.max(np.abs(block.lambdas - lam_num)) <= 1e-10

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ArgumentError):
            _dm(1.0, 1.0, 1.5, 0.1)

    def test_branch_ordering(self):
        for dmat, nu in _random_psd_blocks(50, seed=3):
            block = diagonalize_block(dmat, nu)
            assert block.lambda_plus >= block.lambda_minus >= 1.0


class TestNumericBlockEigen:
    def test_free_field_doubly_degenerate(self):
        lam, _ = numeric_block_eigen(_dm(1, 1, 0, 0.0), nu_q=0.7)
        assert np.allclose(lam, [1.0, 1.0], atol=1e-12)

    def test_randomized_closed_form_agreement(self):
        worst = 0.0
        for dmat, nu in _random_psd_blocks(1000, seed=42):
            block = diagonalize_block(dmat, nu)
            lam_num, _ = numeric_block_eigen(dmat, nu)
            worst = max(worst, float(np.max(np.abs(block.lambdas - lam_num))))
        assert worst <= 1e-10


class TestSymplectic:
    def test_free_block(self):
        block = diagonalize_block(_dm(0, 0, 0, 0.0), nu_q=1.0)
        assert verify_symplectic(block) <= 1e-14

    def test_lambda_two_closed_forms(self):
        # lambda = 2 on both branches: D = I with 2 Delta / nu = 1.5
        block = diagonalize_block(_dm(1, 1, 0, 0.75), nu_q=1.0)
        assert np.allclose(block.lambdas, 2.0, atol=1e-14)
        for t, tau in enumerate((+1, -1)):
            w, x, y, z = block.coeffs[t]
            assert w == pytest.approx(-tau * 0.75, abs=1e-12)
            assert x == pytest.approx(-0.75, abs=1e-12)
            assert y == pytest.approx(-tau * 0.25, abs=1e-12)
            assert z == pytest.approx(-0.25, abs=1e-12)
        assert verify_symplectic(block) <= 1e-12

    def test_randomized_blocks(self):
        for dmat, nu in _random_psd_blocks(200, seed=9):
            block = diagonalize_block(dmat, nu)
            assert verify_symplectic(block) <= 1e-11

    def test_normalisation_identity(self):
        for dmat, nu in _random_psd_blocks(100, seed=17):
            w, x, y, z = diagonalize_block(dmat, nu).coeffs.T
            assert np.max(np.abs(w**2 + x**2 - y**2 - z**2 - 1.0)) <= 1e-12


def appendix_coefficients(dmat: DiamagneticMatrix, nu_q: float) -> np.ndarray:
    """Coefficient rows (w, x, y, z) from the Theta/Phi/N parameterisation.

    Only defined away from the removable singularities (lambda = 1, D12 = 0);
    used as an independent cross-check of diagonalize_block.  The branch
    pairing follows the sign of D12 so that each row is an eigenvector of D.
    """
    d = np.asarray(dmat.d, dtype=float)
    if abs(d[0, 1]) <= DEGENERATE_ATOL:
        raise ArgumentError("parameterisation is singular at D12 = 0")
    lam = _lambda_closed_form(d, dmat.delta_q, nu_q)
    if np.any(np.abs(lam - 1.0) < 1e-8):
        raise ArgumentError("parameterisation is singular at lambda = 1")
    s = np.sign(d[0, 1])
    d_q = (d[0, 0] - d[1, 1]) / (2.0 * d[0, 1])
    rows = np.zeros((2, 4))
    for t, tau in enumerate((+1.0, -1.0)):
        lt = lam[t]
        phi = d_q + tau * s * np.sqrt(1.0 + d_q ** 2)
        theta = (1.0 + lt) / (1.0 - lt)
        norm = 8.0 * lt * (1.0 - lt) ** -2 * (1.0 + d_q * phi)
        root = -np.sqrt(norm)  # negative branch matches the fixed sign convention
        y = phi / root
        z = 1.0 / root
        rows[t] = (-y * theta, -z * theta, y, z)
    return rows


class TestAppendixParameterisation:
    @pytest.mark.parametrize("sign", [+1.0, -1.0])
    def test_matches_eigenframe_construction(self, sign):
        rng = np.random.default_rng(23)
        for _ in range(50):
            m = rng.normal(size=(2, 2))
            d = m @ m.T
            d[0, 1] = d[1, 0] = sign * max(abs(d[0, 1]), 0.05)
            if np.linalg.eigvalsh(d)[0] < 1e-3:
                d += 0.2 * np.eye(2)
            dmat = DiamagneticMatrix(d=d, delta_q=rng.uniform(0.05, 0.5))
            block = diagonalize_block(dmat, 1.0)
            rows = appendix_coefficients(dmat, 1.0)
            assert np.max(np.abs(rows - block.coeffs)) <= 1e-12

    def test_singular_cases_rejected(self):
        with pytest.raises(ArgumentError):
            appendix_coefficients(_dm(1, 1, 0, 0.3), 1.0)
        with pytest.raises(ArgumentError):
            appendix_coefficients(_dm(1, 0.5, 0.2, 0.0), 1.0)


class TestTauDecoupling:
    def test_lambda_weighted_orthogonality_when_dq_zero(self):
        # Lambda_{tau tau'} = delta / lambda whenever d_q = 0
        cases = [_dm(1, 1, 0, 0.3), _dm(1, 1, 0.4, 0.3), _dm(0.5, 0.5, -0.2, 0.7)]
        for dmat in cases:
            block = diagonalize_block(dmat, 1.0)
            assert block.d_q == 0.0
            h = block.h
            lam = np.diag(1.0 / block.lambdas)
            assert np.max(np.abs(h.T @ h - lam)) <= 1e-12

    def test_dq_diagnostic(self):
        assert diagonalize_block(_dm(2, 1, 0.5, 0.1), 1.0).d_q == pytest.approx(1.0)
        assert np.isinf(diagonalize_block(_dm(2, 1, 0, 0.1), 1.0).d_q)


class TestCouplingG:
    def test_free_block_weights(self):
        block = diagonalize_block(_dm(1, 1, 0, 0.0), nu_q=1.0)
        f1 = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
        f2 = Operator(np.array([[0, -1j], [1j, 0]], dtype=complex))
        g_plus, g_minus = coupling_g(block, (f1, f2))
        ref_plus = (-f1.entries - f2.entries) / np.sqrt(2)
        ref_minus = (f1.entries - f2.entries) / np.sqrt(2)
        assert np.max(np.abs(g_plus.entries - ref_plus)) <= 1e-14
        assert np.max(np.abs(g_minus.entries - ref_minus)) <= 1e-14

    def test_zero_coupling(self):
        block = diagonalize_block(_dm(1, 1, 0, 0.2), nu_q=1.0)
        g_plus, g_minus = coupling_g(block, (zero(3), zero(3)))
        assert g_plus.norm_max() == 0.0 and g_minus.norm_max() == 0.0

    def test_degenerate_branches_couple_equally(self):
        # dipole-gauge block: lambda_+ = lambda_-, |<0|g_tau|1>| equal
        block = diagonalize_block(_dm(0, 0, 0, 0.0), nu_q=1.0)
        f2 = Operator(1j * np.array([[0, 0.4], [0.4, 0]], dtype=complex))
        g_plus, g_minus = coupling_g(block, (zero(2), f2))
        assert abs(g_plus.entries[0, 1]) == pytest.approx(abs(g_minus.entries[0, 1]),
                                                          abs=1e-14)

    def test_hermitian_f_on_squeezed_block_is_exact_coupling(self):
        # for Hermitian f, g_tau and G_tau are one branch combination, to the bit
        block = diagonalize_block(
            DiamagneticMatrix(np.array([[0.8, 0.3], [0.3, 0.5]]), delta_q=0.37), nu_q=1.3)
        assert np.all(block.coeffs[:, 2:] != 0.0)
        f_ops = build_two_level_ensemble(2, 1.0, (0.4, 0.3, 0.0), 1.0).dipole_ops[:2]
        for op in f_ops:
            assert np.array_equal(op.entries, op.entries.conj().T)
        for g, g_exact in zip(coupling_g(block, f_ops), exact_branch_coupling(block, f_ops)):
            assert g.norm_max() > 0.0
            assert np.array_equal(g.entries, g_exact.entries)


class TestCoulombIdentity:
    def test_lambda_squared_vs_chi_md(self):
        e, m, v, nu = 0.9, 1.3, 2.0, 0.8
        model = build_anharmonic_dipole(10, m, 1.0, 0.0, e, v)
        mode = lwl_mode(nu=nu, volume=v)
        block = diagonalize_block(diamagnetic_D(model, make_gauge("coulomb"), mode), nu)
        chi_d = chi_md(e, m, 1, v, nu)
        assert abs(block.lambda_plus ** 2 - (1.0 - chi_d)) <= 1e-12


class TestAdaptation:
    def test_degenerate_block_aligns_with_response(self):
        block = diagonalize_block(_dm(1, 1, 0, 0.2), nu_q=1.0)
        x_ff = np.diag([-0.1, -2.0])  # sigma-2 direction most unstable
        adapted = adapt_degenerate_branches(block, x_ff)
        assert np.allclose(adapted.u[0], [0, 1], atol=1e-12)
        assert np.allclose(adapted.u[1], [1, 0], atol=1e-12)
        assert verify_symplectic(adapted) <= 1e-12

    def test_non_degenerate_untouched(self):
        block = diagonalize_block(_dm(2, 1, 0, 0.2), nu_q=1.0)
        adapted = adapt_degenerate_branches(block, np.diag([-1.0, -2.0]))
        assert adapted is block


class TestStack:
    NU = 1.3

    @staticmethod
    def _stack():
        # the invariant check's draws, D = m m^T for m = [[a, c], [c, b]]
        draws = np.random.default_rng(5).uniform([0, 0, -1, 0], [2, 2, 1, 0.5], size=(200, 4))
        m = draws[:, [0, 2, 2, 1]].reshape(-1, 2, 2)
        d = m @ m.transpose(0, 2, 1)
        # D = c I takes the fixed degenerate directions; D12 = 0 has d_q = inf
        d[:3] = [c * np.eye(2) for c in (0.0, 0.4, 1.3)]
        d[3:6] = [np.diag(v) for v in ([0.7, 0.2], [0.1, 0.9], [0.0, 1.1])]
        return d, draws[:, 3]

    def test_stack_matches_per_block_loop(self):
        d, delta = self._stack()
        stack = DiamagneticMatrix(d=d, delta_q=delta)
        block = diagonalize_block(stack, self.NU)
        lam_num, _ = numeric_block_eigen(stack, self.NU)
        singles = [DiamagneticMatrix(d=d[i], delta_q=delta[i]) for i in range(len(d))]
        worst = 0.0
        for i, dmat in enumerate(singles):
            one = diagonalize_block(dmat, self.NU)
            for name in ("lambdas", "coeffs", "u"):
                assert np.array_equal(getattr(block, name)[i], getattr(one, name)), (i, name)
            assert block.d_q[i] == one.d_q and block.delta_q[i] == one.delta_q
            assert np.array_equal(lam_num[i], numeric_block_eigen(dmat, self.NU)[0])
            worst = max(worst, verify_symplectic(one))
        assert verify_symplectic(block) == worst
        assert np.array_equal(block.u[:3], np.broadcast_to(
            np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0), (3, 2, 2)))
        assert np.all(np.isinf(block.d_q[3:6])) and np.all(block.d_q[:3] == 0.0)

    def test_stack_h_and_alignment_match_per_block_loop(self):
        d, delta = self._stack()
        block = diagonalize_block(DiamagneticMatrix(d=d, delta_q=delta), self.NU)
        # Hermitian responses; D = c I makes the first three blocks degenerate
        raw = np.random.default_rng(6).normal(size=(len(d), 2, 2, 2))
        x_ff = raw[..., 0] + 1j * raw[..., 1]
        x_ff = x_ff + np.swapaxes(x_ff.conj(), -1, -2)
        aligned = adapt_degenerate_branches(block, x_ff)
        for i in range(len(d)):
            one = diagonalize_block(DiamagneticMatrix(d=d[i], delta_q=delta[i]), self.NU)
            assert np.array_equal(block.h[i], one.h)
            one = adapt_degenerate_branches(one, x_ff[i])
            for name in ("coeffs", "u"):
                assert np.array_equal(getattr(aligned, name)[i], getattr(one, name)), (i, name)
        assert not np.array_equal(aligned.u[:3], block.u[:3])
        assert np.array_equal(aligned.u[3:], block.u[3:])

    def test_stack_rejects_any_bad_block(self):
        d, delta = self._stack()
        d[7] = [[1.0, 1.5], [1.5, 1.0]]
        with pytest.raises(ArgumentError, match="negative eigenvalue"):
            DiamagneticMatrix(d=d, delta_q=delta)
        with pytest.raises(ArgumentError, match="non-negative"):
            DiamagneticMatrix(d=self._stack()[0], delta_q=-delta)


def test_block_mixing_matrix_structure():
    block = diagonalize_block(_dm(1.2, 0.8, 0.3, 0.4), nu_q=1.1)
    m = block.mixing_matrix()
    assert m.shape == (4, 4)
    assert np.allclose(m[2:, 2:], m[:2, :2])  # real coefficients
    assert isinstance(block, BogoliubovBlock)
