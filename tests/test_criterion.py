import dataclasses
import json
import weakref

import numpy as np
import pytest
import scipy.sparse

from gaugecavity import cli, matter, operators
from gaugecavity.bogoliubov import (
    adapt_degenerate_branches,
    coupling_g,
    diagonalize_block,
    exact_branch_coupling,
)
from gaugecavity.criterion import (
    coulomb_specialized,
    dipole_specialized,
    displaced_energy,
    evaluate,
    matter_point,
    order_parameter,
    stiffness_energy,
    verdicts,
)
from gaugecavity.errors import ArgumentError, UnsupportedError
from gaugecavity.gauge import (
    coupling_f,
    coupling_f_electric,
    coupling_f_magnetic,
    coupling_rows,
    diamagnetic_D,
    gauge_spectrum,
    lwl_mode,
    make_gauge,
    mode_from_q,
    ring_mode,
)
from gaugecavity.matter import (
    build_anharmonic_dipole,
    build_ring_lattice,
    build_two_level_ensemble,
    matter_spectrum,
)
from gaugecavity.operators import Operator


def two_level(n=6, d=0.2, w0=1.0, v=1.0):
    return build_two_level_ensemble(n, w0, (0.0, d, 0.0), v)


class TestEvaluate:
    def test_dipole_below_threshold(self):
        n, d, v, w0 = 6, 0.2, 1.0, 1.0
        assert 2 * n * d * d / (v * w0) < 1
        reps = evaluate(two_level(n, d, w0, v), make_gauge("dipole"),
                        lwl_mode(1.0, v))
        assert all(not r.condensed for r in reps)
        assert all(r.rhs == 1.0 for r in reps)
        plus = reps[0]
        assert plus.lhs == pytest.approx(2 * n * d * d / (v * w0), rel=1e-12)

    def test_dipole_above_threshold(self):
        n, d, v = 6, 0.5, 1.0
        reps = evaluate(two_level(n, d), make_gauge("dipole"), lwl_mode(1.0, v))
        assert reps[0].condensed and not reps[1].condensed

    @pytest.mark.parametrize("builder", [
        lambda: two_level(8, 0.9),
        lambda: build_anharmonic_dipole(40, 1.0, 1.0, 0.0, 0.9, 1.0),
    ])
    def test_coulomb_lwl_never_condenses(self, builder):
        model = builder()
        reps = evaluate(model, make_gauge("coulomb"), lwl_mode(1.0, 1.0))
        for r in reps:
            assert not r.condensed
            assert r.rhs >= 1.0
        # sum-rule cancellation: margin of the coupled branch is exactly -1
        assert reps[0].margin == pytest.approx(-1.0, abs=1e-10)

    def test_zero_coupling(self):
        model = build_two_level_ensemble(3, 1.0, (0, 0, 0), 1.0)
        for preset in ("coulomb", "dipole"):
            reps = evaluate(model, make_gauge(preset), lwl_mode(1.0, 1.0))
            assert all(r.lhs == 0.0 and not r.condensed for r in reps)

    def test_part_structure(self):
        model = two_level(5, 0.3)
        mode = lwl_mode(1.0, 1.0)
        for r in evaluate(model, make_gauge("coulomb"), mode):
            assert r.electric_part == 0.0
            assert r.lhs == r.electric_part + r.magnetic_part
        for r in evaluate(model, make_gauge("dipole"), mode):
            assert r.magnetic_part == 0.0
            assert r.lhs == r.electric_part + r.magnetic_part

    def test_volume_mismatch_guard(self):
        with pytest.raises(ArgumentError):
            evaluate(two_level(3, 0.2, v=2.0), make_gauge("dipole"),
                     lwl_mode(1.0, 1.0))

    @pytest.mark.parametrize("preset, alpha", [("coulomb", None), ("alpha_lwl", 0.5)])
    def test_branch_decoupling_guard(self, preset, alpha):
        # a dipole along (1, 1, 0) couples both polarisations; with the
        # Gram matrix told the motion is along x alone the branches of D
        # are no longer those of chi_ff
        model = build_two_level_ensemble(3, 1.0, (0.3, 0.3, 0.0), 1.0)
        model = dataclasses.replace(model, axes=(np.array([1.0, 0.0, 0.0]),))
        with pytest.raises(UnsupportedError, match="branch decoupling fails"):
            evaluate(model, make_gauge(preset, alpha), lwl_mode(1.0, 1.0))


    def test_lwl_coulomb_builds_no_cartesian_currents(self, monkeypatch):
        # each polarisation needs one commutator, not the three of para_current
        calls = []
        original = matter.MatterModel.para_current

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(matter.MatterModel, "para_current", counting)
        model = build_anharmonic_dipole(12, 1.0, 1.0, 0.1, 0.5, 1.0)
        evaluate(model, make_gauge("coulomb"), lwl_mode(1.0, 1.0))
        assert calls == []


class TestSpecializedForms:
    def test_coulomb_equivalence_on_ring(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        gauge = make_gauge("coulomb")
        mode = ring_mode(model, 1)
        rep = coulomb_specialized(model, gauge, mode)
        assert rep.cross_check_residual <= 1e-10
        assert not rep.condensed

    def test_coulomb_lwl_lhs_vanishes(self):
        model = build_anharmonic_dipole(40, 1.0, 1.0, 0.0, 0.8, 1.0)
        rep = coulomb_specialized(model, make_gauge("coulomb"), lwl_mode(1.0, 1.0))
        assert abs(rep.lhs) <= 1e-10
        assert rep.rhs == 1.0 and not rep.condensed

    def test_coulomb_zero_coupling(self):
        model = build_two_level_ensemble(3, 1.0, (0, 0, 0), 1.0)
        rep = coulomb_specialized(model, make_gauge("coulomb"), lwl_mode(1.0, 1.0))
        assert rep.lhs == pytest.approx(0.0, abs=1e-15)

    def test_dipole_threshold_formula(self):
        n, w0, v = 6, 1.0, 1.0
        for d in (0.2, 0.33):
            rep = dipole_specialized(two_level(n, d, w0, v), make_gauge("dipole"),
                                     lwl_mode(1.0, v))
            assert rep.lhs == pytest.approx(2 * n * d * d / (v * w0), rel=1e-12)
            assert rep.condensed == (2 * n * d * d / (v * w0) > 1)
            assert rep.cross_check_residual <= 1e-10

    def test_dipole_polarizability_identity_harmonic(self):
        model = build_anharmonic_dipole(60, 1.0, 1.0, 0.0, 1.0, 1.0)
        rep = dipole_specialized(model, make_gauge("dipole"), lwl_mode(1.0, 1.0))
        assert rep.cross_check_residual <= 1e-10

    def test_wrong_gauge_guard(self):
        with pytest.raises(ArgumentError):
            coulomb_specialized(two_level(), make_gauge("dipole"), lwl_mode(1.0, 1.0))
        with pytest.raises(ArgumentError):
            dipole_specialized(two_level(), make_gauge("coulomb"), lwl_mode(1.0, 1.0))


class TestGaugeRelativityPair:
    def test_same_sweep_opposite_verdicts(self):
        # identical physical parameters: Coulomb-LWL never condenses while
        # the dipole gauge condenses above its analytic threshold
        n, v, w0 = 8, 1.0, 1.0
        mode = lwl_mode(1.0, v)
        d_c = np.sqrt(v * w0 / (2 * n))
        saw_condensed = False
        for d in np.linspace(0.0, 2.2 * d_c, 12):
            model = build_two_level_ensemble(n, w0, (0, d, 0), v)
            rep_c = evaluate(model, make_gauge("coulomb"), mode)
            rep_d = evaluate(model, make_gauge("dipole"), mode)
            assert not any(r.condensed for r in rep_c)
            if d > 1.0001 * d_c:
                assert rep_d[0].condensed
                saw_condensed = True
        assert saw_condensed

    def test_threshold_independent_of_mode_direction(self):
        from gaugecavity.gauge import mode_from_q
        model = build_two_level_ensemble(6, 1.0, (0, 0.4, 0), 1.0)
        rep_z = evaluate(model, make_gauge("dipole"), lwl_mode(1.0, 1.0))
        rep_x = evaluate(model, make_gauge("dipole"),
                         mode_from_q([1.0, 0.0, 0.0], 1.0))
        assert rep_x[0].lhs == pytest.approx(rep_z[0].lhs, rel=1e-12)
        assert rep_x[0].rhs == rep_z[0].rhs

    def test_alpha_margin_continuity(self):
        # margin curve from the Coulomb to the dipole endpoint has no jumps
        # beyond the grid-resolved Lipschitz bound; endpoints match presets
        n, d, v = 8, 0.5, 1.0
        model = build_two_level_ensemble(n, 1.0, (0, d, 0), v)
        mode = lwl_mode(1.0, v)
        alphas = np.linspace(0.0, 1.0, 21)
        margins = [evaluate(model, make_gauge("alpha_lwl", alpha=a), mode)[0].margin
                   for a in alphas]
        m_c = evaluate(model, make_gauge("coulomb"), mode)[0].margin
        m_d = evaluate(model, make_gauge("dipole"), mode)[0].margin
        assert margins[0] == pytest.approx(m_c, abs=1e-12)
        assert margins[-1] == pytest.approx(m_d, abs=1e-12)
        assert margins[0] < 0 < margins[-1]
        jumps = np.abs(np.diff(margins))
        scale = (max(margins) - min(margins))
        assert np.max(jumps) <= 0.25 * scale


class TestOrderParameter:
    def test_ring_ground_state_zero(self):
        model = build_ring_lattice(6, 1.0, 1.0)
        gauge = make_gauge("coulomb")
        mode = ring_mode(model, 1)
        spec = matter_spectrum(model)
        block = diagonalize_block(diamagnetic_D(model, gauge, mode), mode.nu)
        f_ops = tuple(coupling_f(model, gauge, mode, s) for s in (1, 2))
        g_ops = coupling_g(block, f_ops)
        beta = order_parameter(spec.ground_state_vector(), block, g_ops[0], mode, 0)
        assert abs(beta) <= 1e-10

    def test_zero_coupling_zero(self):
        model = build_two_level_ensemble(3, 1.0, (0, 0, 0), 1.0)
        gauge = make_gauge("dipole")
        mode = lwl_mode(1.0, 1.0)
        spec = matter_spectrum(model)
        block = diagonalize_block(diamagnetic_D(model, gauge, mode), mode.nu)
        f_ops = tuple(coupling_f(model, gauge, mode, s) for s in (1, 2))
        g_ops = coupling_g(block, f_ops)
        assert order_parameter(spec.ground_state_vector(), block, g_ops[0], mode, 0) == 0.0

    def test_symmetry_broken_state_matches_contraction(self):
        model = two_level(1, 0.3)
        gauge = make_gauge("dipole")
        mode = lwl_mode(1.0, 1.0)
        spec = matter_spectrum(model)
        block = diagonalize_block(diamagnetic_D(model, gauge, mode), mode.nu)
        f_ops = tuple(coupling_f(model, gauge, mode, s) for s in (1, 2))
        g_ops = coupling_g(block, f_ops)
        psi = (spec.vectors[:, 0] + spec.vectors[:, 1]) / np.sqrt(2)
        beta = order_parameter(psi, block, g_ops[0], mode, 0)
        explicit = -(mode.amplitude / block.nu_tau[0]) * (
            psi.conj() @ g_ops[0].entries @ psi)
        assert beta == pytest.approx(complex(explicit), abs=1e-14)
        assert abs(beta) > 1e-3


class TestDisplacedEnergy:
    def test_vacuum_energy(self):
        assert displaced_energy(0.0, np.array([1.0]), [0.0], [0]) == 0.5

    def test_displaced_vacuum(self):
        assert displaced_energy(0.0, np.array([1.0]), [0.5], [0]) == 0.25

    def test_occupied(self):
        assert displaced_energy(0.0, np.array([1.0]), [0.0], [2]) == 2.5

    def test_block_form(self):
        block = diagonalize_block(
            diamagnetic_D(two_level(), make_gauge("dipole"), lwl_mode(1.0, 1.0)),
            1.0)
        val = displaced_energy(1.5, block, [0.0, 0.0], [0, 0])
        assert val == pytest.approx(1.5 + 1.0, abs=1e-14)

    def test_occupation_guard(self):
        with pytest.raises(ArgumentError):
            displaced_energy(0.0, np.array([1.0]), [0.0], [0.5])
        with pytest.raises(ArgumentError):
            displaced_energy(0.0, np.array([1.0]), [0.0], [-1])


class TestStiffnessEnergy:
    def _setup(self, d=0.25):
        model = two_level(4, d)
        gauge = make_gauge("dipole")
        mode = lwl_mode(1.0, 1.0)
        spec = gauge_spectrum(model, gauge, [mode])
        block = diagonalize_block(diamagnetic_D(model, gauge, mode), mode.nu)
        f_ops = tuple(coupling_f(model, gauge, mode, s) for s in (1, 2))
        return spec, mode, block, f_ops

    def test_zero_displacement(self):
        spec, mode, block, f_ops = self._setup()
        res = stiffness_energy(spec, mode, block, [0.0, 0.0], f_ops)
        assert res.energy == spec.ground_energy()
        assert res.energy_increase == 0.0

    def test_exact_quadratic_scaling(self):
        spec, mode, block, f_ops = self._setup()
        e1 = stiffness_energy(spec, mode, block, [0.01j, 0.0], f_ops)
        e2 = stiffness_energy(spec, mode, block, [0.02j, 0.0], f_ops)
        assert e2.energy_increase == pytest.approx(4 * e1.energy_increase, rel=1e-12)

    def test_energy_increase_positive(self):
        spec, mode, block, f_ops = self._setup()
        res = stiffness_energy(spec, mode, block, [0.01j, 0.0], f_ops)
        assert res.energy_increase > 0
        assert res.chi_ff_branch[0] < 0

    def test_uncoupled_branch_is_singular(self):
        # the '-' branch of the axis-aligned model has no response at all
        from gaugecavity.errors import SingularConstraintError
        spec, mode, block, f_ops = self._setup()
        with pytest.raises(SingularConstraintError):
            stiffness_energy(spec, mode, block, [0.0, 0.01j], f_ops)


def _tilted_oscillator():
    """Parity-broken oscillator of acceptance criterion 07 (weak x^3 tilt)."""
    base = build_anharmonic_dipole(50, 1.0, 1.0, 0.0, 1.0, 1.0)
    x = -base.dipole_ops[0].entries
    h = base.h_m.entries + 0.02 * np.linalg.matrix_power(x, 3)
    return dataclasses.replace(base, h_m=Operator(0.5 * (h + h.conj().T), hermitian=True))


def _dense_reference(model, gauge, mode, spec):
    """Per-branch (lhs, electric, magnetic, beta0) from dense branch operators."""
    fm = tuple(coupling_f_magnetic(model, gauge, mode, s) for s in (1, 2))
    fe = tuple(coupling_f_electric(model, gauge, mode, s) for s in (1, 2))
    full = tuple(a + b for a, b in zip(fm, fe))
    de = spec.energies - spec.energies[0]
    keep = de > 1e-10
    rows = np.stack([spec.couplings_from_ground(f)[keep] for f in full])
    x_ff = -2.0 * model.params.volume * np.einsum(
        "kn,ln,n->kl", rows, rows.conj(), 1.0 / de[keep]) / (mode.volume * mode.nu) ** 2
    block = adapt_degenerate_branches(
        diagonalize_block(diamagnetic_D(model, gauge, mode), mode.nu), x_ff)

    def value(g_op, lam):
        bra = spec.couplings_from_ground(g_op)[keep]
        ket = spec.couplings_from_ground(g_op.dag())[keep].conj()
        x_sum = np.sum((np.abs(bra) ** 2 + np.abs(ket) ** 2) / de[keep])
        w_sum = 2.0 * np.sum(bra * ket / de[keep])
        return lam * (x_sum + abs(w_sum)) / (2.0 * mode.nu ** 2 * mode.volume)

    psi0 = spec.ground_state_vector()
    g_h = coupling_g(block, full)
    out = []
    for t in range(2):
        lam = block.lambdas[t]
        out.append((value(exact_branch_coupling(block, full)[t], lam),
                    value(exact_branch_coupling(block, fe)[t], lam),
                    value(exact_branch_coupling(block, fm)[t], lam),
                    -mode.amplitude / block.nu_tau[t] * (psi0.conj() @ g_h[t].entries @ psi0)))
    return out


_RING = build_ring_lattice(8, 1.0, 1.0)
EQUIVALENCE_CASES = {
    "two_level_dipole": (two_level(6, 0.3), make_gauge("dipole"), lwl_mode(1.0, 1.0)),
    "two_level_coulomb": (two_level(6, 0.3), make_gauge("coulomb"), lwl_mode(1.0, 1.0)),
    "two_level_alpha": (two_level(6, 0.3), make_gauge("alpha_lwl", alpha=0.4),
                        lwl_mode(1.0, 1.0)),
    "anharmonic_dipole": (build_anharmonic_dipole(24, 1.0, 1.0, 0.1, 0.8, 1.0),
                          make_gauge("dipole"), lwl_mode(1.0, 1.0)),
    "ring_coulomb_finite_q": (_RING, make_gauge("coulomb"), ring_mode(_RING, 1)),
    "ring_multipolar": (_RING, make_gauge("multipolar_ring"), ring_mode(_RING, 1)),
    "tilted_oscillator_dipole": (_tilted_oscillator(), make_gauge("dipole"),
                                 lwl_mode(1.0, 1.0)),
    "tilted_oscillator_alpha": (_tilted_oscillator(), make_gauge("alpha_lwl", alpha=0.4),
                                lwl_mode(1.0, 1.0)),
}


class TestRowPipelineEquivalence:
    """evaluate's row algebra against dense branch-coupling operators."""

    @pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
    def test_matches_dense_reference(self, case):
        model, gauge, mode = EQUIVALENCE_CASES[case]
        spec = gauge_spectrum(model, gauge, [mode])
        reports = evaluate(model, gauge, mode, spectrum=spec)
        for rep, ref in zip(reports, _dense_reference(model, gauge, mode, spec)):
            got = (rep.lhs, rep.electric_part, rep.magnetic_part, rep.beta0)
            for g, r in zip(got, ref):
                assert abs(g - r) <= max(1e-12 * abs(r), 1e-14), (case, rep.tau, got, ref)

    def test_dressed_spectrum_differs_from_bare(self):
        model, gauge, mode = EQUIVALENCE_CASES["anharmonic_dipole"]
        dressed = gauge_spectrum(model, gauge, [mode]).energies
        assert np.max(np.abs(dressed - matter_spectrum(model).energies)) > 1e-3

    @pytest.mark.parametrize("case", ["tilted_oscillator_dipole", "tilted_oscillator_alpha"])
    def test_tilted_oscillator_beta0_nonzero(self, case):
        model, gauge, mode = EQUIVALENCE_CASES[case]
        assert abs(evaluate(model, gauge, mode)[0].beta0) > 1e-3

    def test_beta0_tells_h_weighted_from_exact_coupling(self):
        # squeezed branch and anti-Hermitian electric f: <0|g_+|0> != <0|G_+|0>
        model, gauge, mode = EQUIVALENCE_CASES["tilted_oscillator_alpha"]
        spec = gauge_spectrum(model, gauge, [mode])
        block = diagonalize_block(diamagnetic_D(model, gauge, mode), mode.nu)
        f_ops = tuple(coupling_f(model, gauge, mode, s) for s in (1, 2))
        psi0 = spec.ground_state_vector()
        g_h = psi0.conj() @ coupling_g(block, f_ops)[0].entries @ psi0
        g_exact = psi0.conj() @ exact_branch_coupling(block, f_ops)[0].entries @ psi0
        assert abs(g_h - g_exact) > 0.1 * abs(g_h) > 1e-4


class TestSpectrumSharing:
    # per_point distinct dressed Hamiltonians at each point; one of them is
    # h_m, which the swept key leaves unchanged, so it is solved once, and
    # the invariant check's TRK sum reuses that solve
    @pytest.mark.parametrize("model_cfg, per_point", [
        ({"kind": "two_level_ensemble", "count": 6, "gap": 1.0,
          "dipole_moment": [0.0, 0.3, 0.0], "volume": 1.0}, 1),
        ({"kind": "anharmonic_dipole", "levels": 12, "mass": 1.0, "frequency": 1.0,
          "quartic": 0.1, "charge": 0.5, "volume": 1.0}, 2),
    ])
    def test_eigh_calls_per_point(self, monkeypatch, tmp_path, model_cfg, per_point):
        calls = []
        original = operators.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for mod in (operators, matter):
            monkeypatch.setattr(mod, "eigh", counting)
        param = "dipole_scale" if model_cfg["kind"] == "two_level_ensemble" else "charge"
        cfg = cli.validate_config(json.dumps({
            "model": model_cfg,
            "gauge": [{"preset": "dipole"}, {"preset": "coulomb"}],
            "modes": [{"nu": 1.0}],
            "sweep": {"parameter": param, "values": [0.2, 0.4, 0.6]},
        }))
        cli.run_sweep(cfg, str(tmp_path / "out"))
        assert len(calls) == 3 * (per_point - 1) + 1

    SWEEPS = {
        "dipole_scale": ({"kind": "two_level_ensemble", "count": 6, "gap": 1.0,
                          "dipole_moment": [0.0, 0.3, 0.0], "volume": 1.0},
                         [0.1, 0.2, 0.3, 0.4, 0.5]),
        "gap": ({"kind": "two_level_ensemble", "count": 6, "gap": 1.0,
                 "dipole_moment": [0.0, 0.3, 0.0], "volume": 1.0}, [0.6, 0.8, 1.0, 1.2, 1.4]),
        "charge": ({"kind": "anharmonic_dipole", "levels": 12, "mass": 1.0, "frequency": 1.0,
                    "quartic": 0.1, "charge": 0.5, "volume": 1.0}, [0.2, 0.4, 0.6]),
    }

    @staticmethod
    def _config(param):
        model_cfg, values = TestSpectrumSharing.SWEEPS[param]
        return cli.validate_config(json.dumps({
            "model": model_cfg,
            "gauge": [{"preset": "dipole"}, {"preset": "coulomb"},
                      {"preset": "alpha_lwl", "alpha": 0.5}],
            "modes": [{"nu": 1.0}, {"nu": 2.0}],
            "sweep": {"parameter": param, "values": values},
        }))

    @pytest.mark.parametrize("param, solves", [
        ("dipole_scale", 1),  # h_m never changes, and no gauge dresses it
        ("gap", 5),  # h_m changes at every point
    ])
    def test_solves_per_distinct_hamiltonian(self, monkeypatch, tmp_path, param, solves):
        seen = []
        solve = matter._solve_ground

        def counting(model, h):
            seen.append(h)
            return solve(model, h)

        monkeypatch.setattr(matter, "_solve_ground", counting)
        cli.run_sweep(self._config(param), str(tmp_path / "out"))
        assert len(seen) == solves
        assert len({h.digest for h in seen}) == solves

    @pytest.mark.parametrize("param", sorted(SWEEPS))
    def test_criterion_csv_matches_fresh_solves(self, monkeypatch, tmp_path, param):
        cfg = self._config(param)
        cli.run_sweep(cfg, str(tmp_path / "shared"))
        # nothing kept: every gauge and mode solves afresh, on a fresh plan
        monkeypatch.setattr(matter, "RESOLVENTS", 0)
        monkeypatch.setattr(matter, "SECTOR_PLANS", 0)
        cli.run_sweep(cfg, str(tmp_path / "fresh"))
        shared = (tmp_path / "shared" / "criterion.csv").read_bytes()
        assert shared == (tmp_path / "fresh" / "criterion.csv").read_bytes()

    def test_kept_resolvents_hold_no_model(self):
        cfg = self._config("charge")
        cli._matter_point(cli._point(cfg, "charge", 0.2))
        # dipole and alpha_lwl dress h_m differently; Coulomb keeps it
        kept = dict(matter._RESOLVENTS)
        assert len(kept) == 3
        assert all(g.model is None and g.h_m_used is None for g in kept.values())
        cli._matter_point(cli._point(cfg, "charge", 0.4))
        # besides h_m, alpha_lwl's (0.5 x 0.4)^2 self-energy is stored as
        # the dipole gauge's 0.2^2 one of the point before
        assert len(matter._RESOLVENTS) == 4 and len(kept.keys() & matter._RESOLVENTS.keys()) == 3

    def test_stored_digest_reads_the_stored_form(self):
        dense = np.diag([0.0, 1.0, 2.0])
        assert Operator(dense).digest == Operator(dense.copy()).digest
        assert Operator(dense).digest != Operator(np.diag([0.0, 1.0, 2.5])).digest
        # the identity and the exchange matrix share indptr and data
        n = operators.DENSE_MAX_DIM + 1
        eye = scipy.sparse.identity(n, format="csr")
        flip = scipy.sparse.csr_matrix(np.fliplr(np.eye(n)))
        assert Operator(eye).sparse and Operator(flip).sparse
        assert Operator(eye).digest == Operator(eye.copy()).digest
        assert Operator(eye).digest != Operator(flip).digest


_ANHARMONIC_3AXIS = build_anharmonic_dipole(5, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3)
_README_ENSEMBLE = {"kind": "two_level_ensemble", "count": 40, "gap": 1.0,
                    "dipole_moment": [0.0, 1.0, 0.0], "volume": 1.0}
_DIPOLE_COULOMB = [{"preset": "dipole"}, {"preset": "coulomb"}]


class TestStackedCriterion:
    """The sweep evaluates each gauge and mode as one stack over its points,
    and keeps only per-point arrays between points."""

    CONFIGS = {
        # dipole: D = 0, degenerate branches aligned with chi_ff
        "readme_ensemble": ({"model": _README_ENSEMBLE, "gauge": _DIPOLE_COULOMB,
                             "modes": [{"nu": 1.0}]}, "dipole_scale", [0.0, 0.1, 0.2, 0.3]),
        # every mode is the model's volume: one stack of modes that differ
        "ensemble_volume": ({"model": _README_ENSEMBLE, "gauge": _DIPOLE_COULOMB,
                             "modes": [{"nu": 1.0}]}, "volume", [0.5, 1.0, 2.0]),
        # d = 216: the sector backend; isotropic D, degenerate branches in both gauges
        "anharmonic_3axis": ({"model": {"kind": "anharmonic_dipole", "levels": 6, "mass": 1.0,
                                        "frequency": 1.0, "quartic": 0.1, "charge": 0.5,
                                        "volume": 1.0, "axes": 3},
                              "gauge": _DIPOLE_COULOMB, "modes": [{"nu": 1.0}]},
                             "charge", [0.3, 0.9]),
        "alpha_two_modes": ({"model": {"kind": "anharmonic_dipole", "levels": 12, "mass": 1.0,
                                       "frequency": 1.0, "quartic": 0.1, "charge": 0.5,
                                       "volume": 1.0},
                             "gauge": [{"preset": "alpha_lwl", "alpha": 0.4}],
                             "modes": [{"nu": 1.0}, {"nu": 2.0}]}, "alpha", [0.2, 0.5, 0.8]),
        "ring": ({"model": {"kind": "ring_lattice", "sites": 8, "hopping": 1.0, "charge": 1.0},
                  "gauge": [{"preset": "coulomb"}, {"preset": "multipolar_ring"}],
                  "modes": [{"ring_index": 1}, {"ring_index": 2}]}, "hopping", [0.5, 1.0, 1.5]),
    }

    @staticmethod
    def _config(name):
        body, param, values = TestStackedCriterion.CONFIGS[name]
        return cli.validate_config(json.dumps(
            dict(body, sweep={"parameter": param, "values": values})))

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_rows_equal_evaluate(self, tmp_path, name):
        cfg = self._config(name)
        cli.run_sweep(cfg, str(tmp_path))
        rows = (tmp_path / "criterion.csv").read_text().splitlines()[1:]
        param = cfg.sweep["parameter"]
        expected = []
        for i, value in enumerate(cfg.sweep["values"]):
            model, gauges, modes = cli._point(cfg, param, float(value))
            if name == "anharmonic_3axis":
                assert model.dim > operators.DENSE_MAX_DIM
            for gauge in gauges:
                for qi, mode in enumerate(modes):
                    expected += [cli._csv_line((
                        cli.SCHEMA_VERSION, i, param, float(value), gauge.preset.value,
                        gauge.alpha, qi, rep.tau, rep.lhs, rep.rhs, rep.electric_part,
                        rep.magnetic_part, rep.margin, rep.condensed, rep.beta0.real,
                        rep.beta0.imag)) for rep in evaluate(model, gauge, mode)]
        assert rows == expected

    def test_at_most_first_and_current_model_alive(self, monkeypatch, tmp_path):
        refs, alive = [], []
        original = matter.build_two_level_ensemble

        def tracked(*args, **kwargs):
            model = original(*args, **kwargs)
            refs.append(weakref.ref(model))
            alive.append(sum(ref() is not None for ref in refs))
            return model

        monkeypatch.setattr(matter, "build_two_level_ensemble", tracked)
        cfg = cli.validate_config(json.dumps({
            "model": _README_ENSEMBLE, "gauge": _DIPOLE_COULOMB, "modes": [{"nu": 1.0}],
            "sweep": {"parameter": "dipole_scale", "start": 0.0, "stop": 0.3, "steps": 50}}))
        cli.run_sweep(cfg, str(tmp_path))
        # the first point's model, which the invariant check reads, and the current one
        assert len(refs) == 50 and max(alive) == 2

    @pytest.mark.parametrize("param, builds", [("dipole_scale", 1), ("volume", 3)])
    def test_modes_built_once_unless_volume_swept(self, monkeypatch, tmp_path, param, builds):
        calls = []

        def counting(*args):
            calls.append(args)
            return lwl_mode(*args)

        monkeypatch.setattr(cli, "lwl_mode", counting)
        cfg = cli.validate_config(json.dumps({
            "model": _README_ENSEMBLE, "gauge": _DIPOLE_COULOMB, "modes": [{"nu": 1.0}],
            "sweep": {"parameter": param, "values": [0.5, 1.0, 2.0]}}))
        cli.run_sweep(cfg, str(tmp_path))
        assert len(calls) == builds

    def test_stack_equals_each_point(self):
        model = two_level(6, 0.2)
        gauge = make_gauge("alpha_lwl", alpha=0.3)
        points = [matter_point(model, gauge, lwl_mode(1.0, 1.0)),
                  matter_point(_ANHARMONIC_3AXIS, gauge, lwl_mode(1.0, 1.0))]
        stack = verdicts(points)
        for i, point in enumerate(points):
            assert stack[i] == verdicts([point])[0]

    def test_stack_needs_one_frequency(self):
        gauge = make_gauge("dipole")
        points = [matter_point(two_level(), gauge, lwl_mode(nu, 1.0)) for nu in (1.0, 2.0)]
        with pytest.raises(ArgumentError, match="one mode frequency"):
            verdicts(points)


_ROW_GAUGES = {"coulomb": make_gauge("coulomb"), "dipole": make_gauge("dipole"),
               "alpha_0.4": make_gauge("alpha_lwl", alpha=0.4)}
_ROW_MODES = {"q_z": lwl_mode(1.0, 1.0), "q_oblique": mode_from_q((1.0, 2.0, 0.5), 1.0)}


class TestCouplingRowsWithoutOperators:
    """Long-wavelength rows from dipole and h_m products, no d x d coupling operator."""

    @pytest.mark.parametrize("gauge_name", sorted(_ROW_GAUGES))
    def test_evaluate_forms_no_current_or_adjoint(self, monkeypatch, gauge_name):
        calls = {"current_along": 0, "dag": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(matter.MatterModel, "current_along",
                            counted("current_along", matter.MatterModel.current_along))
        monkeypatch.setattr(Operator, "dag", counted("dag", Operator.dag))
        evaluate(_ANHARMONIC_3AXIS, _ROW_GAUGES[gauge_name], _ROW_MODES["q_z"])
        assert calls == {"current_along": 0, "dag": 0}

    @pytest.mark.parametrize("mode_name", sorted(_ROW_MODES))
    @pytest.mark.parametrize("gauge_name", sorted(_ROW_GAUGES))
    def test_rows_match_dense_operators(self, gauge_name, mode_name):
        model, gauge, mode = _ANHARMONIC_3AXIS, _ROW_GAUGES[gauge_name], _ROW_MODES[mode_name]
        g = gauge_spectrum(model, gauge, [mode]).ground_state_vector()
        bras, kets = coupling_rows(model, gauge, mode, g)
        ops = [coupling(model, gauge, mode, s)
               for coupling in (coupling_f_magnetic, coupling_f_electric) for s in (1, 2)]
        for bra, ket, op in zip(bras, kets, ops):
            ref_bra, ref_ket = g.conj() @ op.entries, op.entries @ g
            scale = max(np.max(np.abs(ref_bra)), np.max(np.abs(ref_ket)), 1e-300)
            assert np.max(np.abs(bra - ref_bra)) <= 1e-12 * scale
            assert np.max(np.abs(ket - ref_ket)) <= 1e-12 * scale

    @pytest.mark.parametrize("mode_name", sorted(_ROW_MODES))
    @pytest.mark.parametrize("gauge_name", sorted(_ROW_GAUGES))
    def test_reports_match_dense_reference(self, gauge_name, mode_name):
        model, gauge, mode = _ANHARMONIC_3AXIS, _ROW_GAUGES[gauge_name], _ROW_MODES[mode_name]
        spec = gauge_spectrum(model, gauge, [mode])
        reports = evaluate(model, gauge, mode, spectrum=spec)
        for rep, ref in zip(reports, _dense_reference(model, gauge, mode, spec)):
            got = (rep.lhs, rep.electric_part, rep.magnetic_part, rep.beta0)
            for g, r in zip(got, ref):
                assert abs(g - r) <= max(1e-12 * abs(r), 1e-14), (rep.tau, got, ref)
