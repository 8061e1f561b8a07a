import numpy as np
import pytest

from gaugecavity.errors import ArgumentError, DegenerateGroundStateError
from gaugecavity.gauge import (
    coupling_f,
    coupling_f_electric,
    coupling_f_magnetic,
    gauge_spectrum,
    lwl_mode,
    make_gauge,
    ring_mode,
)
from gaugecavity.matter import (
    build_anharmonic_dipole,
    build_ring_lattice,
    build_two_level_ensemble,
    matter_spectrum,
    ring_quasi_momentum,
)
from gaugecavity.operators import Operator, eigh, zero
from gaugecavity.response import (
    check_translational_invariance,
    chi_md,
    lehmann_sum,
    polarizability,
    slrf,
    transverse_project,
)


def finite_field_polarizability(model, axis, field=1e-4):
    """Second difference of the ground energy of H_m - E d under a static field."""
    d = model.dipole_ops[axis].entries
    h = model.h_m.entries

    def ground(eps_field):
        return eigh(Operator(h - eps_field * d)).values[0]

    return -(ground(field) - 2 * ground(0.0) + ground(-field)) / field ** 2


class TestLehmannSum:
    def test_zero_operator_gives_zero_tensor(self):
        model = build_two_level_ensemble(2, 1.0, (0, 0, 0.3), 1.0)
        spec = matter_spectrum(model)
        t = slrf(spec, [zero(3), zero(3), zero(3)])
        assert np.all(t == 0.0)

    def test_two_level_transverse_polarisation(self):
        # explicit two-level sum: chi = -(2/V) N d^2 / omega0 on the dipole axis
        n, d, w0, v = 3, 0.4, 1.2, 2.0
        model = build_two_level_ensemble(n, w0, (0, d, 0), v)
        spec = matter_spectrum(model)
        mode = lwl_mode(nu=1.0, volume=v)
        pol = model.pol_transverse_mult(mode.q_hat)
        t = slrf(spec, list(pol))
        proj = transverse_project(t, mode)
        expected = -(2.0 / v) * n * d ** 2 / w0
        assert proj.scalar_sigma2 == pytest.approx(expected, rel=1e-12)
        assert proj.scalar_sigma1 == pytest.approx(0.0, abs=1e-15)

    def test_hermitian_pair_reciprocity(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        spec = matter_spectrum(model)
        q = ring_quasi_momentum(model, 1)
        chi = lehmann_sum(spec, model.para_current(q))
        assert np.max(np.abs(chi - chi.conj().T)) <= 1e-12

    def test_degenerate_ground_state_rejected(self):
        # two uncoupled levels at the same energy
        h = Operator(np.zeros((2, 2), dtype=complex), hermitian=True)
        model = build_two_level_ensemble(1, 1.0, (0, 0, 0.3), 1.0)
        with pytest.raises(DegenerateGroundStateError):
            lehmann_sum(matter_spectrum(model, h_m=h), [model.dipole_ops[2]])

    def test_same_operator_negativity(self):
        for model, gauge in [
            (build_two_level_ensemble(4, 1.0, (0, 0.3, 0), 1.0), make_gauge("dipole")),
            (build_anharmonic_dipole(30, 1.0, 1.0, 0.05, 0.8, 1.0), make_gauge("coulomb")),
        ]:
            mode = lwl_mode(nu=1.0, volume=1.0)
            spec = gauge_spectrum(model, gauge, [mode])
            for builder in (coupling_f_magnetic, coupling_f_electric):
                ops = [builder(model, gauge, mode, s) for s in (1, 2)]
                chi = lehmann_sum(spec, ops)
                assert chi[0, 0].real <= 1e-12 and chi[1, 1].real <= 1e-12

    def test_default_conjugates_are_explicit_adjoints(self):
        # a mixed gauge makes f non-Hermitian, so <n|f^dag|0> != <0|f|n>
        model = build_anharmonic_dipole(30, 1.0, 1.0, 0.05, 0.8, 1.0)
        gauge = make_gauge("alpha_lwl", alpha=0.4)
        mode = lwl_mode(nu=1.0, volume=1.0)
        spec = gauge_spectrum(model, gauge, [mode])
        for builder in (coupling_f_magnetic, coupling_f):
            ops = [builder(model, gauge, mode, s) for s in (1, 2)]
            assert np.array_equal(lehmann_sum(spec, ops),
                                  lehmann_sum(spec, ops, [op.dag() for op in ops]))
        assert not ops[0].is_hermitian()


class TestCoulombSumRuleCancellation:
    @pytest.mark.parametrize("levels", [20, 40, 60])
    def test_paramagnetic_matches_diamagnetic(self, levels):
        # chi^{MpMp}_T -> chi^{Md} via the momentum sum rule, exact for kappa = 0
        e, m, v, nu = 0.7, 1.0, 1.0, 1.0
        model = build_anharmonic_dipole(levels, m, 1.0, 0.0, e, v)
        spec = matter_spectrum(model)
        mode = lwl_mode(nu=nu, volume=v)
        g = make_gauge("coulomb")
        ops = [coupling_f_magnetic(model, g, mode, s) for s in (1, 2)]
        chi = lehmann_sum(spec, ops) / (v * nu) ** 2
        chi_para = chi[0, 0].real  # x-axis polarisation carries the current
        assert abs(chi_para - chi_md(e, m, 1, v, nu)) <= 1e-8

    @pytest.mark.parametrize("levels", [20, 40, 60])
    def test_anharmonic_cancellation_each_level(self, levels):
        # the diagonal-harmonic construction keeps p = i m [H, x] exact on
        # the truncated space, so the cancellation holds at every level
        # count up to the (exponentially small) top-level ground weight
        e, m, v, nu = 0.7, 1.0, 1.0, 1.0
        model = build_anharmonic_dipole(levels, m, 1.0, 0.05, e, v)
        spec = matter_spectrum(model)
        mode = lwl_mode(nu=nu, volume=v)
        ops = [coupling_f_magnetic(model, make_gauge("coulomb"), mode, s)
               for s in (1, 2)]
        chi = lehmann_sum(spec, ops)[0, 0].real / (v * nu) ** 2
        assert abs(chi - chi_md(e, m, 1, v, nu)) <= 1e-12


class TestTransverseProject:
    def test_isotropic_model_reduces(self):
        model = build_anharmonic_dipole(6, 1.0, 1.0, 0.02, 1.0, 1.0, axes=3)
        spec = matter_spectrum(model)
        mode = lwl_mode(nu=1.0, volume=1.0)
        t = slrf(spec, list(model.dipole_ops))
        proj = transverse_project(t, mode)
        assert proj.off_diag <= 1e-12
        assert abs(proj.scalar_sigma1 - proj.scalar_sigma2) <= 1e-10
        assert proj.reduction_valid(1e-10)

    def test_single_axis_scalar(self):
        model = build_two_level_ensemble(2, 1.0, (0.5, 0, 0), 1.0)
        spec = matter_spectrum(model)
        mode = lwl_mode(nu=1.0, volume=1.0)
        t = slrf(spec, list(model.dipole_ops))
        proj = transverse_project(t, mode)
        full = t[0, 0].real  # single-axis chi along x = eps1
        assert proj.scalar_sigma1 == pytest.approx(full, rel=1e-12)

    def test_anisotropic_reduction_refused(self):
        # dipole tilted between the polarisation axes: off-diagonals survive
        model = build_two_level_ensemble(2, 1.0, (0.4, 0.2, 0), 1.0)
        spec = matter_spectrum(model)
        mode = lwl_mode(nu=1.0, volume=1.0)
        proj = transverse_project(slrf(spec, list(model.dipole_ops)), mode)
        assert not proj.reduction_valid(1e-10)
        assert abs(proj.scalar_sigma1 - proj.scalar_sigma2) > 1e-3


class TestChiMd:
    def test_formula_substitution(self):
        assert chi_md(1.0, 1.0, 8, 8.0, 1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_zero_charges(self):
        assert chi_md(1.0, 1.0, 0, 8.0, 1.0) == 0.0

    def test_inverse_square_frequency(self):
        assert chi_md(1.0, 1.0, 8, 8.0, 2.0) == pytest.approx(-0.25, abs=1e-15)

    def test_zero_frequency_guard(self):
        with pytest.raises(ArgumentError):
            chi_md(1.0, 1.0, 1, 1.0, 0.0)


class TestPolarizability:
    def test_two_level_value_and_finite_field(self):
        model = build_two_level_ensemble(1, 1.0, (0, 0, 0.3), 1.0)
        spec = matter_spectrum(model)
        alpha = polarizability(spec, 0.0)
        assert alpha[2, 2] == pytest.approx(0.18, abs=1e-12)
        assert alpha[2, 2] == pytest.approx(finite_field_polarizability(model, 2),
                                            abs=1e-6)

    def test_zero_dipole(self):
        model = build_two_level_ensemble(2, 1.0, (0, 0, 0), 1.0)
        assert np.all(polarizability(matter_spectrum(model), 0.0) == 0.0)

    def test_harmonic_unit_polarizability(self):
        model = build_anharmonic_dipole(60, 1.0, 1.0, 0.0, 1.0, 1.0)
        spec = matter_spectrum(model)
        alpha = polarizability(spec, 0.0)
        assert alpha[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert alpha[0, 0] == pytest.approx(finite_field_polarizability(model, 0),
                                            abs=1e-6)

    def test_resonance_guard(self):
        model = build_two_level_ensemble(1, 1.0, (0, 0, 0.3), 1.0)
        with pytest.raises(ArgumentError):
            polarizability(matter_spectrum(model), 1.0)

    def test_static_symmetry(self):
        model = build_anharmonic_dipole(6, 1.0, 1.0, 0.03, 1.0, 1.0, axes=3)
        alpha = polarizability(matter_spectrum(model), 0.0)
        assert np.max(np.abs(alpha - alpha.T)) <= 1e-12


class TestTranslationalInvariance:
    def test_clean_ring_cross_momentum_vanishes(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        spec = matter_spectrum(model)
        res = check_translational_invariance(
            spec, ring_quasi_momentum(model, 1), ring_quasi_momentum(model, 2))
        assert res <= 1e-10

    def test_equal_momenta_ordinary_response(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        spec = matter_spectrum(model)
        q = ring_quasi_momentum(model, 1)
        assert check_translational_invariance(spec, q, q) > 1e-3

    def test_disordered_ring_residual(self):
        model = build_ring_lattice(6, 1.0, 1.0, bond_scale={2: 1.2})
        spec = matter_spectrum(model)
        res = check_translational_invariance(
            spec, ring_quasi_momentum(model, 2), ring_quasi_momentum(model, 3))
        assert res > 1e-6
