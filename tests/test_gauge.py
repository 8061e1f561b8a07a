import numpy as np
import pytest

from gaugecavity.errors import ArgumentError, DegenerateGroundStateError
from gaugecavity.gauge import (
    GaugePreset,
    check_wavevector_decoupling,
    coupling_f,
    coupling_f_electric,
    coupling_f_magnetic,
    diamagnetic_D,
    dressed_matter_hamiltonian,
    lwl_mode,
    make_gauge,
    mode_from_q,
    pairing_problem,
    ring_mode,
)
from gaugecavity.matter import (
    ModelKind,
    build_anharmonic_dipole,
    build_ring_lattice,
    build_two_level_ensemble,
    ring_quasi_momentum,
)


@pytest.fixture
def two_level():
    return build_two_level_ensemble(3, 1.0, (0.0, 0.4, 0.0), volume=1.5)


@pytest.fixture
def mode15():
    return lwl_mode(nu=1.0, volume=1.5)


class TestMakeGauge:
    def test_coulomb_has_no_electric_provider(self, two_level, mode15):
        g = make_gauge("coulomb")
        assert coupling_f_electric(two_level, g, mode15, 2).norm_max() == 0.0

    def test_dipole_has_no_magnetic_provider(self, two_level, mode15):
        g = make_gauge("dipole")
        assert coupling_f_magnetic(two_level, g, mode15, 2).norm_max() == 0.0

    def test_alpha_range_guard(self):
        with pytest.raises(ArgumentError):
            make_gauge("alpha_lwl", alpha=1.5)
        with pytest.raises(ArgumentError):
            make_gauge("alpha_lwl")
        with pytest.raises(ArgumentError):
            make_gauge("coulomb", alpha=0.3)

    def test_alpha_midpoint_weights(self, two_level, mode15):
        g = make_gauge("alpha_lwl", alpha=0.5)
        f_m = coupling_f_magnetic(two_level, g, mode15, 2)
        f_e = coupling_f_electric(two_level, g, mode15, 2)
        ref_m = coupling_f_magnetic(two_level, make_gauge("coulomb"), mode15, 2)
        ref_e = coupling_f_electric(two_level, make_gauge("dipole"), mode15, 2)
        assert np.allclose(f_m.entries, 0.5 * ref_m.entries, atol=1e-14)
        assert np.allclose(f_e.entries, 0.5 * ref_e.entries, atol=1e-14)

    @pytest.mark.parametrize("alpha,ref", [(0.0, "coulomb"), (1.0, "dipole")])
    def test_alpha_boundary_consistency(self, two_level, mode15, alpha, ref):
        g_alpha = make_gauge("alpha_lwl", alpha=alpha)
        g_ref = make_gauge(ref)
        for sigma in (1, 2):
            fa = coupling_f(two_level, g_alpha, mode15, sigma)
            fr = coupling_f(two_level, g_ref, mode15, sigma)
            assert np.max(np.abs(fa.entries - fr.entries)) <= 1e-12
        da = diamagnetic_D(two_level, g_alpha, mode15)
        dr = diamagnetic_D(two_level, g_ref, mode15)
        assert np.max(np.abs(da.d - dr.d)) <= 1e-12
        assert da.delta_q == pytest.approx(dr.delta_q, abs=1e-15)


class TestModeSpec:
    def test_z_mode_polarisation_convention(self):
        m = lwl_mode(nu=2.0, volume=3.0)
        assert np.allclose(m.eps1, [1, 0, 0])
        assert np.allclose(m.eps2, [0, 1, 0])

    def test_amplitude_normalisation_exact(self):
        m = lwl_mode(nu=2.0, volume=3.0)
        assert m.amplitude ** 2 * 2 * m.nu * m.volume == pytest.approx(1.0, abs=1e-15)

    def test_general_q_right_handed(self):
        m = mode_from_q([0.3, -0.4, 1.2], volume=1.0)
        assert abs(np.dot(m.eps1, m.eps2)) <= 1e-14
        assert abs(np.dot(m.eps1, m.q_hat)) <= 1e-14
        assert abs(np.dot(m.eps2, m.q_hat)) <= 1e-14
        assert np.allclose(np.cross(m.eps1, m.eps2), m.q_hat, atol=1e-14)
        assert m.nu == pytest.approx(np.linalg.norm([0.3, -0.4, 1.2]))

    def test_zero_q_rejected(self):
        with pytest.raises(ArgumentError):
            mode_from_q([0, 0, 0], volume=1.0)

    @pytest.mark.parametrize("nu, volume", [(0.0, 1.0), (1.0, -1.0)])
    def test_lwl_mode_rejects_non_positive(self, nu, volume):
        with pytest.raises(ArgumentError, match="must be positive"):
            lwl_mode(nu=nu, volume=volume)

    def test_ring_mode_rejects_index_multiple_of_sites(self):
        ring = build_ring_lattice(8, 1.0, 1.0)
        with pytest.raises(ArgumentError, match="0 mod L"):
            ring_mode(ring, 8)


class TestCouplingF:
    def test_dipole_gauge_reduction(self, two_level, mode15):
        # symbolic reduction eps.f = i nu eps.d checked against explicit matrices
        g = make_gauge("dipole")
        f2 = coupling_f(two_level, g, mode15, 2)
        d_y = two_level.dipole_ops[1].entries
        assert np.max(np.abs(f2.entries - 1j * mode15.nu * d_y)) <= 1e-12
        assert coupling_f(two_level, g, mode15, 1).norm_max() <= 1e-14

    def test_coulomb_lwl_momentum_identity(self):
        # V eps.j with j = -i[d, H]/V against the canonical -(e/m) p
        e, m = 0.8, 1.1
        model = build_anharmonic_dipole(30, m, 1.0, 0.0, e, 2.0)
        mode = lwl_mode(nu=1.0, volume=2.0)
        g = make_gauge("coulomb")
        f1 = coupling_f(model, g, mode, 1)
        p = model.momentum_ops[0].entries
        # the assembled sign convention expands (p + eA)^2: f = +(e/m) p
        assert np.max(np.abs(f1.entries - (e / m) * p)) <= 1e-10

    def test_zero_coupling_model(self, mode15):
        model = build_two_level_ensemble(2, 1.0, (0, 0, 0), volume=1.5)
        for preset in ("coulomb", "dipole"):
            f = coupling_f(model, make_gauge(preset), mode15, 2)
            assert f.norm_max() == 0.0

    def test_coulomb_conjugation_on_ring(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        g = make_gauge("coulomb")
        mode_p = ring_mode(model, 1)
        mode_m = ring_mode(model, -1)
        f_p = coupling_f(model, g, mode_p, 1)
        f_m = coupling_f(model, g, mode_m, 1)
        assert np.max(np.abs(f_m.entries - f_p.entries.conj().T)) <= 1e-12


class TestDiamagneticD:
    def test_coulomb_isotropic_identity(self):
        model = build_anharmonic_dipole(5, 1.0, 1.0, 0.0, 1.0, 1.0, axes=3)
        mode = lwl_mode(nu=1.0, volume=1.0)
        dm = diamagnetic_D(model, make_gauge("coulomb"), mode)
        assert np.allclose(dm.d, np.eye(2), atol=1e-14)

    def test_dipole_zero(self, two_level, mode15):
        dm = diamagnetic_D(two_level, make_gauge("dipole"), mode15)
        assert np.all(dm.d == 0.0)

    def test_alpha_scaling(self):
        model = build_anharmonic_dipole(5, 1.0, 1.0, 0.0, 1.0, 1.0, axes=3)
        mode = lwl_mode(nu=1.0, volume=1.0)
        for alpha in (0.0, 0.3, 1.0):
            dm = diamagnetic_D(model, make_gauge("alpha_lwl", alpha=alpha), mode)
            assert np.allclose(dm.d, (1 - alpha) ** 2 * np.eye(2), atol=1e-14)

    def test_delta_value(self, two_level, mode15):
        dm = diamagnetic_D(two_level, make_gauge("coulomb"), mode15)
        expected = two_level.params.e2n_over_m * mode15.amplitude ** 2 / 2
        assert dm.delta_q == pytest.approx(expected, abs=1e-16)

    def test_positive_semidefinite_all_presets(self, two_level, mode15):
        presets = [make_gauge("coulomb"), make_gauge("dipole"),
                   make_gauge("alpha_lwl", alpha=0.4)]
        for g in presets:
            dm = diamagnetic_D(two_level, g, mode15)
            assert np.linalg.eigvalsh(dm.d)[0] >= -1e-14

    def test_axis_projection(self, two_level, mode15):
        # single dipole axis along eps2: rank-1 projector
        dm = diamagnetic_D(two_level, make_gauge("coulomb"), mode15)
        assert np.allclose(dm.d, np.diag([0.0, 1.0]), atol=1e-14)

    def test_multipolar_ring_commensurate_cancellation(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        mode = ring_mode(model, 1)
        dm = diamagnetic_D(model, make_gauge("multipolar_ring"), mode)
        assert np.max(np.abs(dm.d)) <= 1e-12

    def test_multipolar_ring_degenerate_ground_rejected(self):
        # flux pi: the bond occupations, and so D, depend on which mixture of
        # the ground doublet the eigensolver returns
        model = build_ring_lattice(6, 1.0, 1.0, bond_scale={0: -1.0})
        with pytest.raises(DegenerateGroundStateError):
            diamagnetic_D(model, make_gauge("multipolar_ring"), ring_mode(model, 1))


class TestWavevectorDecoupling:
    def test_clean_ring_vanishes(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        res = check_wavevector_decoupling(model, ring_mode(model, 1),
                                          ring_mode(model, 2))
        assert res <= 1e-10

    def test_lwl_exact_zero(self, two_level, mode15):
        assert check_wavevector_decoupling(two_level, mode15, mode15) == 0.0

    def test_disordered_ring_reports_residual(self):
        # q_a + q_b = pi is reflection-protected about the weak bond, so
        # probe a momentum transfer the disorder actually populates
        model = build_ring_lattice(6, 1.0, 1.0, bond_scale={0: 1.3})
        res = check_wavevector_decoupling(model, ring_mode(model, 2),
                                          ring_mode(model, 3))
        assert res > 1e-6

    def test_opposite_momenta_rejected(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        with pytest.raises(ArgumentError):
            check_wavevector_decoupling(model, ring_mode(model, 1),
                                        ring_mode(model, -1))

    def test_degenerate_ring_ground_rejected(self):
        # flux pi through the ring: the ground doublet k = +/- pi/6 has no
        # unique density for the overlap to sample
        model = build_ring_lattice(6, 1.0, 1.0, bond_scale={0: -1.0})
        with pytest.raises(DegenerateGroundStateError):
            check_wavevector_decoupling(model, ring_mode(model, 1), ring_mode(model, 2))


class TestDressedMatter:
    def test_dipole_gauge_self_energy(self):
        e, v = 0.6, 2.0
        model = build_anharmonic_dipole(20, 1.0, 1.0, 0.0, e, v)
        mode = lwl_mode(nu=1.0, volume=v)
        dressed = dressed_matter_hamiltonian(model, make_gauge("dipole"), [mode])
        d_x = model.dipole_ops[0].entries
        manual = model.h_m.entries + (d_x @ d_x) / (2 * v)
        assert np.max(np.abs(dressed.entries - manual)) <= 1e-12

    def test_coulomb_gauge_unchanged(self):
        model = build_anharmonic_dipole(20, 1.0, 1.0, 0.0, 0.6, 2.0)
        mode = lwl_mode(nu=1.0, volume=2.0)
        dressed = dressed_matter_hamiltonian(model, make_gauge("coulomb"), [mode])
        assert dressed is model.h_m

    def test_ensemble_never_dressed(self, two_level, mode15):
        dressed = dressed_matter_hamiltonian(two_level, make_gauge("dipole"), [mode15])
        assert dressed is two_level.h_m


def test_gauge_preset_values():
    assert {p.value for p in GaugePreset} == {
        "coulomb", "dipole", "alpha_lwl", "multipolar_ring"}


_RING = build_ring_lattice(6, 1.0, 1.0)
_TWO_LEVEL = build_two_level_ensemble(4, 1.0, (0.0, 0.3, 0.0), volume=1.0)
_ANHARMONIC = build_anharmonic_dipole(6, 1.0, 1.0, 0.1, 0.5, 1.0)
# case -> (model, gauge, mode), each breaking one part of the pairing rule
BAD_PAIRINGS = {
    "ring_uniform_mode": (_RING, make_gauge("coulomb"), lwl_mode(1.0, _RING.params.volume)),
    "ring_mode_dipole": (_RING, make_gauge("dipole"), ring_mode(_RING, 1)),
    "ring_mode_alpha": (_RING, make_gauge("alpha_lwl", alpha=0.4), ring_mode(_RING, 1)),
    "multipolar_two_level": (_TWO_LEVEL, make_gauge("multipolar_ring"), lwl_mode(1.0, 1.0)),
    "multipolar_anharmonic": (_ANHARMONIC, make_gauge("multipolar_ring"), lwl_mode(1.0, 1.0)),
    "mode_volume_differs": (_TWO_LEVEL, make_gauge("dipole"), lwl_mode(1.0, 2.0)),
}


class TestPairingRule:
    @pytest.mark.parametrize("case", sorted(BAD_PAIRINGS))
    @pytest.mark.parametrize("caller", ["evaluate", "full_hamiltonian"])
    def test_bad_pairing_raises(self, case, caller):
        from gaugecavity.criterion import evaluate
        from gaugecavity.oracle import full_hamiltonian

        model, gauge, mode = BAD_PAIRINGS[case]
        with pytest.raises(ArgumentError):
            if caller == "evaluate":
                evaluate(model, gauge, mode)
            else:
                full_hamiltonian(model, gauge, [mode], 4)

    def test_admitted_pairings(self):
        # uniform modes: every gauge but multipolar_ring, on every model but
        # the ring; ring modes: coulomb and multipolar_ring (whether the
        # model is a ring is `ring_mode`'s check)
        admitted = {(kind, preset, ring) for kind in ModelKind for preset in GaugePreset
                    for ring in (False, True) if pairing_problem(kind, preset, ring) is None}
        uniform = {(kind, preset, False)
                   for kind in (ModelKind.TWO_LEVEL_ENSEMBLE, ModelKind.ANHARMONIC_DIPOLE)
                   for preset in (GaugePreset.COULOMB, GaugePreset.DIPOLE,
                                  GaugePreset.ALPHA_LWL)}
        ring = {(kind, preset, True) for kind in ModelKind
                for preset in (GaugePreset.COULOMB, GaugePreset.MULTIPOLAR_RING)}
        assert admitted == uniform | ring
