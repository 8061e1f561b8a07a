import time

import numpy as np
import pytest

from gaugecavity import matter as matter_module
from gaugecavity import operators as operators_module
from gaugecavity.errors import (ArgumentError, DegenerateGroundStateError, ResourceLimitError,
                              UnsupportedError)
from gaugecavity.gauge import mode_from_q, ring_mode
from gaugecavity.matter import (
    DEGENERACY_ATOL,
    MAX_RING_SITES,
    ModelKind,
    along_op,
    build_anharmonic_dipole,
    build_ring_lattice,
    build_two_level_ensemble,
    check_uniform_density,
    matter_spectrum,
    ring_quasi_momentum,
    trk_sum,
)
from gaugecavity.operators import Operator


class TestTwoLevelEnsemble:
    def test_single_dipole_spectrum(self):
        model = build_two_level_ensemble(1, 0.7, (0, 0, 0.3), volume=2.0)
        spec = matter_spectrum(model)
        assert np.allclose(spec.energies, [0.0, 0.7])

    def test_two_dipole_spectrum(self):
        model = build_two_level_ensemble(2, 0.7, (0, 0, 0.3), volume=2.0)
        assert model.dim == 3
        spec = matter_spectrum(model)
        assert np.allclose(spec.energies, [0.0, 0.7, 1.4])

    def test_dipole_matrix_element(self):
        # explicit 2x2 construction: d sigma_x has <0|d_z|1> = d
        model = build_two_level_ensemble(1, 1.0, (0, 0, 0.3), volume=1.0)
        spec = matter_spectrum(model)
        table = spec.table(model.dipole_ops[2])
        assert abs(table[0, 1]) == pytest.approx(0.3, abs=1e-14)
        explicit = 0.3 * np.array([[0, 1], [1, 0]])
        assert np.allclose(model.dipole_ops[2].entries, explicit)

    def test_hermiticity(self):
        model = build_two_level_ensemble(5, 1.0, (0.1, 0.2, 0.3), volume=1.0)
        assert model.h_m.is_hermitian(1e-14)
        for d in model.dipole_ops:
            assert d.is_hermitian(1e-14)

    def test_size_guards(self):
        with pytest.raises(ArgumentError):
            build_two_level_ensemble(0, 1.0, (0, 0, 1), 1.0)
        with pytest.raises(ArgumentError):
            build_two_level_ensemble(2, -1.0, (0, 0, 1), 1.0)


class TestAnharmonicDipole:
    def test_harmonic_spectrum(self):
        model = build_anharmonic_dipole(40, 1.0, 1.0, 0.0, 1.0, 1.0)
        spec = matter_spectrum(model)
        n = np.arange(21)
        assert np.max(np.abs(spec.energies[:21] - (n + 0.5))) <= 1e-10

    def test_position_matrix_element(self):
        m, w = 2.0, 1.5
        model = build_anharmonic_dipole(30, m, w, 0.0, 1.0, 1.0)
        spec = matter_spectrum(model)
        r = spec.table(model.dipole_ops[0]) / (-model.params.charge)
        assert abs(r[0, 1]) == pytest.approx(1 / np.sqrt(2 * m * w), abs=1e-12)

    def test_truncation_convergence(self):
        # self-convergence oracle: D = 60 vs D = 80 ground energies
        e60 = matter_spectrum(build_anharmonic_dipole(60, 1.0, 1.0, 0.1, 1.0, 1.0)).ground_energy()
        e80 = matter_spectrum(build_anharmonic_dipole(80, 1.0, 1.0, 0.1, 1.0, 1.0)).ground_energy()
        assert abs(e60 - e80) <= 1e-9

    def test_table_conjugation_oracle(self):
        model = build_anharmonic_dipole(25, 1.0, 1.0, 0.1, 1.0, 1.0)
        spec = matter_spectrum(model)
        r_op = model.dipole_ops[0].entries / (-1.0)
        u = spec.vectors
        direct = u.conj().T @ r_op @ u
        assert np.max(np.abs(spec.table(model.dipole_ops[0]) / (-1.0) - direct)) <= 1e-10

    def test_level_guard(self):
        with pytest.raises(ArgumentError):
            build_anharmonic_dipole(3, 1.0, 1.0, 0.0, 1.0, 1.0)

    def test_three_axis_isotropy(self):
        model = build_anharmonic_dipole(5, 1.0, 1.0, 0.05, 1.0, 1.0, axes=3)
        spec = matter_spectrum(model)
        # x, y, z dipole tables related by symmetry: equal ground-row norms
        norms = [np.linalg.norm(spec.couplings_from_ground(d)) for d in model.dipole_ops]
        assert np.allclose(norms, norms[0], atol=1e-10)


class TestRingLattice:
    def test_tight_binding_dispersion(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        spec = matter_spectrum(model)
        expected = np.sort([-2 * np.cos(2 * np.pi * n / 6) for n in range(6)])
        assert np.max(np.abs(spec.energies - expected)) <= 1e-12

    def test_uniform_ground_density(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        dens = [float(np.abs(matter_spectrum(model).ground_state_vector()[j]) ** 2)
                for j in range(6)]
        assert np.max(np.abs(np.array(dens) - 1 / 6)) <= 1e-12

    @pytest.mark.parametrize("sites", [5, 6])
    def test_check_uniform_density_ground(self, sites):
        model = build_ring_lattice(sites, 1.0, 1.0)
        assert check_uniform_density(model) <= 1e-12

    def test_pi_flux_ring_degenerate_ground_rejected(self):
        # a sign-flipped bond threads flux pi: the ground doublet k = +/- pi/6
        # has no unique density to sample
        model = build_ring_lattice(6, 1.0, 1.0, bond_scale={0: -1.0})
        with pytest.raises(DegenerateGroundStateError):
            check_uniform_density(model)

    def test_disordered_ring_detected(self):
        # direct diagonalization of the perturbed ring: density must deviate
        model = build_ring_lattice(6, 1.0, 1.0, bond_scale={0: 1.1})
        assert check_uniform_density(model) > 1e-3

    def test_zero_momentum_current_expectation(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        spec = matter_spectrum(model)
        psi0 = spec.ground_state_vector()
        for q in (0.0, ring_quasi_momentum(model, 1)):
            j_ops = model.para_current(q)
            val = psi0.conj() @ (j_ops[0].entries @ psi0)
            assert abs(val) <= 1e-12

    def test_current_conjugation(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        q = ring_quasi_momentum(model, 2)
        j_plus = model.para_current(q)[0].entries
        j_minus = model.para_current(-q)[0].entries
        assert np.max(np.abs(j_minus - j_plus.conj().T)) <= 1e-12

    def test_string_polarisation_conjugation(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        q = ring_quasi_momentum(model, 1)
        p_plus = model.pol_transverse_mult(np.array([0, 0, 1.0]), q)[0].entries
        p_minus = model.pol_transverse_mult(np.array([0, 0, 1.0]), -q)[0].entries
        assert np.max(np.abs(p_minus - p_plus.conj().T)) <= 1e-12

    def test_large_ring_builds_quickly(self):
        # no per-site operators: a 1000-site ring is a few banded matrices
        start = time.perf_counter()
        build_ring_lattice(1000, 1.0, 1.0)
        assert time.perf_counter() - start < 1.0

    def test_site_guard(self):
        with pytest.raises(ArgumentError):
            build_ring_lattice(3, 1.0, 1.0)
        with pytest.raises(ResourceLimitError, match=f"exceeds {MAX_RING_SITES}"):
            build_ring_lattice(MAX_RING_SITES + 1, 1.0, 1.0)
        assert build_ring_lattice(MAX_RING_SITES, 1.0, 1.0).dim == MAX_RING_SITES

    def test_wrong_kind_guard(self):
        model = build_two_level_ensemble(2, 1.0, (0, 0, 1), 1.0)
        with pytest.raises(ArgumentError):
            check_uniform_density(model)


class TestCouplingProviders:
    def test_lwl_current_equals_momentum(self):
        # matrix identity -i[d, H]/V vs -(e/mV) p on the harmonic model
        e, m, v = 0.7, 1.3, 2.0
        model = build_anharmonic_dipole(30, m, 1.1, 0.0, e, v)
        j = model.para_current(0.0)[0].entries
        p = model.momentum_ops[0].entries
        assert np.max(np.abs(j - (-(e / (m * v)) * p))) <= 1e-10

    def test_lwl_current_ground_expectation_vanishes(self):
        for model in (
            build_two_level_ensemble(3, 1.0, (0, 0.4, 0), 1.0),
            build_anharmonic_dipole(30, 1.0, 1.0, 0.1, 1.0, 1.0),
            build_ring_lattice(5, 1.0, 1.0),
        ):
            spec = matter_spectrum(model)
            assert spec.ground_gap > DEGENERACY_ATOL
            psi0 = spec.ground_state_vector()
            for j_op in model.para_current(0.0):
                assert abs(psi0.conj() @ (j_op.entries @ psi0)) <= 1e-12

    @pytest.mark.parametrize("model", [
        build_two_level_ensemble(3, 1.0, (0.1, 0.4, 0.2), 1.0),
        build_anharmonic_dipole(6, 1.0, 1.0, 0.1, 0.8, 1.3, axes=3),
        build_ring_lattice(5, 1.0, 1.0),
    ], ids=["two_level", "anharmonic_3axis", "ring"])
    def test_current_along_axes_bit_equal(self, model):
        for axis in np.eye(3):
            assert np.array_equal(model.current_along(axis).entries,
                                  along_op(axis, model.para_current(0.0)).entries)

    def test_current_along_oblique_polarisations(self):
        # one commutator of eps . d against the contracted Cartesian currents
        model = build_anharmonic_dipole(6, 1.0, 1.0, 0.1, 0.8, 1.3, axes=3)
        mode = mode_from_q((1.0, 2.0, 0.5), 1.0)
        for eps in (mode.eps1, mode.eps2):
            ref = along_op(eps, model.para_current(0.0)).entries
            err = np.max(np.abs(model.current_along(eps).entries - ref))
            assert err <= 1e-13 * np.max(np.abs(ref))

    def test_current_along_finite_q_ring(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        mode = ring_mode(model, 1)
        for eps in (mode.eps1, mode.eps2):
            assert np.array_equal(model.current_along(eps, mode.q_phase).entries,
                                  along_op(eps, model.para_current(mode.q_phase)).entries)

    def test_two_level_rejects_finite_q(self):
        # finite q is the ring's alone; the anharmonic dipole refuses it too
        for model in (build_two_level_ensemble(2, 1.0, (0, 0, 1), 1.0),
                      build_anharmonic_dipole(6, 1.0, 1.0, 0.1, 1.0, 1.0, axes=3)):
            with pytest.raises(UnsupportedError):
                model.para_current(0.5)
            with pytest.raises(UnsupportedError):
                model.current_along((1.0, 0.0, 0.0), 0.5)


class TestTrkSum:
    def test_harmonic_ground_reference(self):
        model = build_anharmonic_dipole(40, 1.0, 1.0, 0.0, 1.0, 1.0)
        spec = matter_spectrum(model)
        assert abs(trk_sum(spec, 0, 0) - 0.5) <= 1e-8

    def test_arbitrary_reference_level(self):
        model = build_anharmonic_dipole(40, 1.0, 1.0, 0.0, 1.0, 1.0)
        spec = matter_spectrum(model)
        assert abs(trk_sum(spec, 0, 3) - 0.5) <= 1e-6

    def test_anharmonic_convergence(self):
        # convergence oracle: D = 80 against D = 120
        s80 = trk_sum(matter_spectrum(
            build_anharmonic_dipole(80, 1.0, 1.0, 0.05, 1.0, 1.0)), 0, 0)
        s120 = trk_sum(matter_spectrum(
            build_anharmonic_dipole(120, 1.0, 1.0, 0.05, 1.0, 1.0)), 0, 0)
        assert abs(s80 - 0.5) <= 1e-6
        assert abs(s80 - s120) <= 1e-6

    @pytest.mark.parametrize("level", range(6))
    def test_degenerate_excited_reference(self, level):
        # the 3-axis oscillator's first shells (levels 1-3, then 4-9) are
        # exactly degenerate; P_x has no matrix element inside a shell
        spec = matter_spectrum(build_anharmonic_dipole(6, 1.0, 1.0, 0.0, 1.0, 1.0, axes=3))
        assert abs(trk_sum(spec, 0, level) - 0.5) <= 1e-12

    def test_mass_scaling(self):
        model = build_anharmonic_dipole(40, 2.5, 1.0, 0.0, 1.0, 1.0)
        spec = matter_spectrum(model)
        assert abs(trk_sum(spec, 0, 0) - 1.25) <= 1e-8

    def test_unsupported_model(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        with pytest.raises(UnsupportedError):
            trk_sum(matter_spectrum(model), 0, 0)

    @pytest.mark.parametrize("level", [-1, 40])
    def test_reference_level_out_of_range(self, level):
        spec = matter_spectrum(build_anharmonic_dipole(40, 1.0, 1.0, 0.0, 1.0, 1.0))
        with pytest.raises(ArgumentError, match="reference level"):
            trk_sum(spec, 0, reference_level=level)


def test_degenerate_ground_refused_at_construction():
    # a doubly degenerate ground level: the sums over n != 0 have no
    # unique reference state, so no spectrum is built for it
    model = build_anharmonic_dipole(6, 1.0, 1.0, 0.0, 1.0, 1.0)
    h = Operator(np.diag([0.0, 0.0, 2.0, 3.0, 4.0, 5.0]).astype(complex), hermitian=True)
    with pytest.raises(DegenerateGroundStateError, match="ground state is degenerate"):
        matter_spectrum(model, h_m=h)


def test_model_kinds_exposed():
    assert build_ring_lattice(6, 1.0, 1.0).kind is ModelKind.RING_LATTICE
    assert build_two_level_ensemble(1, 1.0, (0, 0, 1), 1.0).kind is ModelKind.TWO_LEVEL_ENSEMBLE


def ring_bond_current_loop(model, q):
    """x component of the finite-q ring current, one dense bond at a time."""
    e, v, L = model.params.charge, model.params.volume, model.dim
    h = model.h_m.entries
    cur = np.zeros((L, L), dtype=complex)
    for j in range(L):
        k = (j + 1) % L
        hop = np.zeros((L, L), dtype=complex)
        hop[k, j] = 1.0
        cur += -e * 1j * -h[j, k].real * (hop - hop.conj().T) * np.exp(-1j * q * (j + 0.5))
    return cur / v


def ring_string_polarisation_loop(model, q):
    """x component of the finite-q string polarisation, one dense string per bond."""
    e, v, L, n = model.params.charge, model.params.volume, model.dim, model.params.n_charges
    acc = np.zeros((L, L), dtype=complex)
    for b in range(L - 1):
        string = np.diag((np.arange(L) > b).astype(complex))
        acc += -e * (string - (n / L) * (L - 1 - b) * np.eye(L)) * np.exp(-1j * q * (b + 0.5))
    return acc / v


class TestProductFreeBuilds:
    """The 3-axis Hamiltonian, the TRK sum and the ring's finite-q operators
    against their dense-product forms."""

    @pytest.mark.parametrize("sites", [4, 6, 7, 250])
    def test_ring_finite_q_operators_match_loops(self, sites):
        model = build_ring_lattice(sites, 1.3, 0.9, volume=2.5, bond_scale={1: 0.7, 3: 1.2})
        for n in (1, 2):
            q = ring_quasi_momentum(model, n)
            assert np.array_equal(model.para_current(q)[0].entries,
                                  ring_bond_current_loop(model, q))
            pol = model.pol_transverse_mult(np.array([0, 0, 1.0]), q)[0].entries
            ref = ring_string_polarisation_loop(model, q)
            # a cumulative phase sum replaces the per-bond sum
            assert np.max(np.abs(pol - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_three_axis_quartic_matches_dense_square(self):
        kappa, charge = 0.1, 0.8
        model = build_anharmonic_dipole(5, 1.0, 1.3, kappa, charge, 1.0, axes=3)
        harmonic = build_anharmonic_dipole(5, 1.0, 1.3, 0.0, charge, 1.0, axes=3)
        r2 = sum(x @ x for x in (-d.entries / charge for d in model.dipole_ops))
        ref = harmonic.h_m.entries + kappa * (r2 @ r2)
        h = model.h_m.entries
        assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(h))

    @pytest.mark.parametrize("model, axis, level", [
        (build_anharmonic_dipole(40, 1.0, 1.0, 0.05, 1.0, 1.0), 0, 0),
        (build_anharmonic_dipole(40, 1.0, 1.0, 0.05, 1.0, 1.0), 0, 3),
        (build_anharmonic_dipole(5, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3), 2, 0),
    ], ids=["one_axis_ground", "one_axis_level3", "three_axis_z"])
    def test_trk_sum_matches_full_table(self, model, axis, level):
        spec = matter_spectrum(model)
        p = spec.table(model.momentum_ops[axis])
        e = spec.energies
        ref = sum(abs(p[n, level]) ** 2 / (e[n] - e[level])
                  for n in range(len(e)) if n != level)
        assert abs(trk_sum(spec, axis, level) - ref) <= 1e-12 * abs(ref)


def _counting_checks(monkeypatch):
    """Wrap `operators._hermiticity_deviation`; returns the list of the
    dimensions it is called on."""
    calls = []
    deviation = operators_module._hermiticity_deviation
    monkeypatch.setattr(operators_module, "_hermiticity_deviation",
                        lambda m: calls.append(m.shape[0]) or deviation(m))
    return calls


class TestBuilderChecks:
    """The cached builders check each base operator once; a model's dipole
    components are real multiples of them, flagged Hermitian with no check
    of their own, and its zero components share one operator."""

    @pytest.mark.parametrize("count", [40, 300])
    def test_ensemble_dipole_checked_once(self, monkeypatch, count):
        calls = _counting_checks(monkeypatch)
        build_two_level_ensemble(count, 1.0, (0.0, 0.3, 0.0), 1.0)
        assert calls == [count + 1] * 3  # h_m, S_x and the zero
        calls.clear()
        model = build_two_level_ensemble(count, 1.0, (0.2, 0.6, 0.0), 1.0)
        assert calls == []
        sx = matter_module._ensemble_operators(count, 1.0)[1]
        for d, moment in zip(model.dipole_ops, (0.2, 0.6)):
            assert d.hermitian
            assert np.array_equal(d.entries, Operator(2.0 * moment * sx.matrix).entries)
        dz = model.dipole_ops[2]
        assert dz.hermitian and not dz.entries.any()
        assert build_two_level_ensemble(count, 1.0, (0.0, 0.6, 0.0), 1.0).dipole_ops[2] is dz

    @pytest.mark.parametrize("levels, axes", [(30, 1), (10, 3)])
    def test_dipole_components_checked_once(self, monkeypatch, levels, axes):
        calls = _counting_checks(monkeypatch)
        first = build_anharmonic_dipole(levels, 1.0, 1.0, 0.1, 0.5, 1.0, axes=axes)
        assert calls == [levels ** axes] * (2 + 2 * axes)  # h_m, x_i, p_i and the zero
        calls.clear()
        model = build_anharmonic_dipole(levels, 1.0, 1.0, 0.1, 0.8, 1.0, axes=axes)
        assert calls == []
        positions = matter_module._dipole_operators(levels, 1.0, 1.0, 0.1, axes)[1]
        for i, d in enumerate(model.dipole_ops):
            assert d.hermitian
            if i < axes:
                assert np.array_equal(d.entries, Operator(-0.8 * positions[i].matrix).entries)
            else:
                assert d is first.dipole_ops[i] and not d.entries.any()

    def test_real_multiple_of_an_inexact_operator_is_checked(self, monkeypatch):
        m = np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]])
        op = Operator(m, hermitian=True)
        calls = _counting_checks(monkeypatch)
        assert op.real_multiple(2.0).hermitian and calls == [2]
        with pytest.raises(ArgumentError, match="deviates"):
            op.real_multiple(100.0)
        exact = Operator(0.5 * (m + m.T), hermitian=True)
        calls.clear()
        assert exact.real_multiple(100.0).hermitian and calls == []
