"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import dataclasses
import json
import time

import numpy as np

from gaugecavity.bogoliubov import (
    adapt_degenerate_branches,
    coupling_g,
    diagonalize_block,
    exact_branch_coupling,
    numeric_block_eigen,
    verify_symplectic,
)
from gaugecavity.cli import run_sweep, validate_config
from gaugecavity.criterion import (
    coulomb_specialized,
    dipole_specialized,
    displaced_energy,
    evaluate,
    stiffness_energy,
)
from gaugecavity.gauge import (
    DiamagneticMatrix,
    coupling_f,
    diamagnetic_D,
    lwl_mode,
    make_gauge,
    ring_mode,
)
from gaugecavity.matter import (
    build_anharmonic_dipole,
    build_ring_lattice,
    build_two_level_ensemble,
    check_uniform_density,
    matter_spectrum,
    ring_quasi_momentum,
    trk_sum,
)
from gaugecavity.operators import Operator, eigh
from gaugecavity.oracle import (
    constrained_min,
    full_hamiltonian,
    gauge_invariance_report,
    lowest_eigenpairs,
)
from gaugecavity.response import (
    check_translational_invariance,
    chi_md,
    lehmann_sum,
    polarizability,
    slrf,
    transverse_project,
)
from test_oracle import effective_photon_hamiltonian


def _line(num: int, ok: bool, desc: str):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")


def test_criterion_01_trk_sum_rule():
    t0 = time.monotonic()
    model = build_anharmonic_dipole(40, 1.0, 1.0, 0.0, 1.0, 1.0)
    spec = matter_spectrum(model)
    devs = [abs(trk_sum(spec, 0, n_ref) - 0.5) for n_ref in (0, 1, 3)]
    elapsed = time.monotonic() - t0
    ok = max(devs) <= 1e-8 and elapsed < 1.0
    _line(1, ok, f"TRK sum rule mN/2: max dev {max(devs):.2e} <= 1e-8 "
                 f"for n' in (0, 1, 3); runtime {elapsed:.2f}s < 1s")
    assert ok, (devs, elapsed)


def test_criterion_02_coulomb_lwl_no_go():
    nu, v = 1.0, 1.0
    mode = lwl_mode(nu=nu, volume=v)
    gauge = make_gauge("coulomb")
    worst_cancel = 0.0
    worst_lhs = 0.0
    all_normal = True
    # coupling strength e^2 N/(m V) spans three decades
    for e in np.sqrt(np.geomspace(1e-3, 1.0, 7)):
        model = build_anharmonic_dipole(60, 1.0, 1.0, 0.0, float(e), v)
        reps = evaluate(model, gauge, mode)
        spec = matter_spectrum(model)
        chi_para = lehmann_sum(
            spec, [coupling_f(model, gauge, mode, s) for s in (1, 2)]
        )[0, 0].real / (v * nu) ** 2
        worst_cancel = max(worst_cancel,
                           abs(chi_para - chi_md(float(e), 1.0, 1, v, nu)))
        rep = coulomb_specialized(model, gauge, mode, spectrum=spec)
        worst_lhs = max(worst_lhs, abs(rep.lhs))
        all_normal &= not any(r.condensed for r in reps)
        all_normal &= all(r.rhs >= 1.0 for r in reps)
    ok = worst_cancel <= 1e-7 and worst_lhs <= 1e-7 and all_normal
    _line(2, ok, f"Coulomb-LWL no-go: |chi_para - chi_dia| <= {worst_cancel:.2e} "
                 f"(tol 1e-7), specialised LHS <= {worst_lhs:.2e} vs RHS 1, "
                 f"condensed never")
    assert ok, (worst_cancel, worst_lhs, all_normal)


def _scaled_gap_crossing(x_values, w0, v, nu, fock):
    """d/d_c at which N^(1/3)-scaled parity gaps of N = 20 and 40 cross."""
    curves = {}
    for n in (20, 40):
        d_cn = np.sqrt(v * w0 / (2 * n))
        gaps = []
        for x in x_values:
            model = build_two_level_ensemble(n, w0, (0.0, x * d_cn, 0.0), v)
            system = full_hamiltonian(model, make_gauge("dipole"),
                                      [lwl_mode(nu, v)], fock)
            vals, _ = lowest_eigenpairs(system, k=2)
            gaps.append(vals[1] - vals[0])
        curves[n] = np.asarray(gaps) * n ** (1.0 / 3.0)
    diff = curves[20] - curves[40]
    for i in range(len(x_values) - 1):
        if diff[i] * diff[i + 1] < 0:
            frac = diff[i] / (diff[i] - diff[i + 1])
            return x_values[i] + frac * (x_values[i + 1] - x_values[i])
    return None


def test_criterion_03_dipole_counter_no_go():
    t0 = time.monotonic()
    n, w0, v, nu = 40, 1.0, 1.0, 1.0
    d_c = np.sqrt(v * w0 / (2 * n))
    steps = 200
    ds = np.linspace(0.0, 3.0 * d_c, steps)
    step = ds[1] - ds[0]
    gauge = make_gauge("dipole")
    mode = lwl_mode(nu, v)
    margins = []
    for d in ds:
        model = build_two_level_ensemble(n, w0, (0.0, float(d), 0.0), v)
        rep = dipole_specialized(model, gauge, mode)
        margins.append(rep.lhs - rep.rhs)
    crossing = None
    for i in range(steps - 1):
        if margins[i] <= 0.0 < margins[i + 1]:
            crossing = ds[i] + step * margins[i] / (margins[i] - margins[i + 1])
            break
    crit_ok = crossing is not None and abs(crossing - d_c) <= step

    # oracle boundary: finite-size-scaling crossing of N^(1/3)-scaled parity
    # gaps for the (20, 40) pair, evaluated on the sweep grid near d_c
    xs = ds[(ds >= 0.85 * d_c) & (ds <= 1.2 * d_c)] / d_c
    x_star = _scaled_gap_crossing(xs, w0, v, nu, fock=70)
    oracle_ok = x_star is not None and abs(x_star * d_c - d_c) <= 2 * step
    elapsed = time.monotonic() - t0
    ok = crit_ok and oracle_ok and elapsed < 120.0
    _line(3, ok, f"dipole counter no-go: criterion crossing {crossing:.5f} vs "
                 f"analytic {d_c:.5f} (<= 1 step {step:.5f}); oracle FSS "
                 f"crossing {x_star * d_c:.5f} (<= 2 steps); runtime "
                 f"{elapsed:.0f}s < 120s")
    assert ok, (crossing, d_c, x_star, elapsed)


def test_criterion_04_polarizability_identity():
    worst_identity = 0.0
    worst_field = 0.0
    cases = [
        build_two_level_ensemble(3, 1.2, (0.0, 0.4, 0.0), 2.0),
        build_anharmonic_dipole(60, 1.0, 1.0, 0.0, 1.0, 1.0),
    ]
    for model in cases:
        v = model.params.volume
        mode = lwl_mode(nu=1.0, volume=v)
        rep = dipole_specialized(model, make_gauge("dipole"), mode,
                                 spectrum=matter_spectrum(model))
        worst_identity = max(worst_identity, rep.cross_check_residual)
        # finite-field oracle: second difference of the ground energy
        alpha = polarizability(matter_spectrum(model), 0.0)
        field = 1e-4
        d_op = model.dipole_ops[1].entries if model.dipole_ops[1].norm_max() \
            else model.dipole_ops[0].entries
        h = model.h_m.entries

        def ground(f):
            return eigh(Operator(h - f * d_op)).values[0]

        alpha_ff = -(ground(field) - 2 * ground(0.0) + ground(-field)) / field ** 2
        axis = 1 if model.dipole_ops[1].norm_max() else 0
        worst_field = max(worst_field, abs(alpha[axis, axis] - alpha_ff))
    ok = worst_identity <= 1e-10 and worst_field <= 1e-6
    _line(4, ok, f"polarizability: -V chi^PP = eps.alpha.eps within "
                 f"{worst_identity:.2e} (tol 1e-10); finite-field oracle dev "
                 f"{worst_field:.2e} (tol 1e-6)")
    assert ok, (worst_identity, worst_field)


def test_criterion_05_bogoliubov_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_lambda = 0.0
    worst_symp = 0.0
    worst_tau = 0.0
    for _ in range(1000):
        m = rng.normal(size=(2, 2))
        d = m @ m.T
        nu = rng.uniform(0.2, 3.0)
        dmat = DiamagneticMatrix(d=d, delta_q=rng.uniform(0.0, 1.0) * nu)
        block = diagonalize_block(dmat, nu)
        lam_num, _ = numeric_block_eigen(dmat, nu)
        worst_lambda = max(worst_lambda, float(np.max(np.abs(block.lambdas - lam_num))))
        worst_symp = max(worst_symp, verify_symplectic(block))
        if block.d_q == 0.0:
            h = block.h
            dev = np.max(np.abs(h.T @ h - np.diag(1.0 / block.lambdas)))
            worst_tau = max(worst_tau, float(dev))
    # dedicated d_q = 0 family
    for _ in range(200):
        c = rng.uniform(0.1, 2.0)
        g = rng.uniform(-1, 1) * c
        dmat = DiamagneticMatrix(d=np.array([[c, g], [g, c]]),
                                 delta_q=rng.uniform(0.0, 1.0))
        block = diagonalize_block(dmat, 1.0)
        h = block.h
        worst_tau = max(worst_tau, float(np.max(np.abs(
            h.T @ h - np.diag(1.0 / block.lambdas)))))
    e, mmass, v, nu = 0.8, 1.2, 1.5, 0.9
    model = build_anharmonic_dipole(8, mmass, 1.0, 0.0, e, v)
    mode = lwl_mode(nu=nu, volume=v)
    block = diagonalize_block(diamagnetic_D(model, make_gauge("coulomb"), mode), nu)
    coulomb_dev = abs(block.lambda_plus ** 2 - (1.0 - chi_md(e, mmass, 1, v, nu)))
    elapsed = time.monotonic() - t0
    ok = (worst_lambda <= 1e-10 and worst_symp <= 1e-11
          and coulomb_dev <= 1e-12 and worst_tau <= 1e-12 and elapsed < 10.0)
    _line(5, ok, f"Bogoliubov: lambda dev {worst_lambda:.1e} (1e-10), symplectic "
                 f"{worst_symp:.1e} (1e-11), Coulomb identity {coulomb_dev:.1e} "
                 f"(1e-12), tau-decoupling {worst_tau:.1e} (1e-12); "
                 f"runtime {elapsed:.1f}s < 10s")
    assert ok, (worst_lambda, worst_symp, coulomb_dev, worst_tau, elapsed)


def test_criterion_06_displaced_oscillator_equivalence():
    model = build_two_level_ensemble(3, 1.0, (0.0, 0.35, 0.0), 1.0)
    gauge = make_gauge("dipole")
    mode = lwl_mode(nu=1.0, volume=1.0)
    spec = matter_spectrum(model)
    psi_m = (spec.vectors[:, 0] + spec.vectors[:, 1]) / np.sqrt(2)
    cutoff = 40
    h_eff = effective_photon_hamiltonian(model, gauge, mode, psi_m, cutoff)
    vals = np.linalg.eigvalsh(h_eff)
    block = diagonalize_block(diamagnetic_D(model, gauge, mode), mode.nu)
    f_ops = tuple(coupling_f(model, gauge, mode, s) for s in (1, 2))
    g_exact = exact_branch_coupling(block, f_ops)
    e_m = float(np.real(psi_m.conj() @ model.h_m.entries @ psi_m))
    betas = [-(mode.amplitude / block.nu_tau[t])
             * complex(psi_m.conj() @ g_exact[t].entries @ psi_m)
             for t in range(2)]
    beta_max = max(abs(b) for b in betas)
    closed = sorted(displaced_energy(e_m, block, betas, [n1, n2])
                    for n1 in range(6) for n2 in range(6))
    dev = float(np.max(np.abs(vals[:20] - np.array(closed[:20]))))
    ok = dev <= 1e-8 and beta_max <= 1.0
    _line(6, ok, f"displaced-oscillator spectra agree within {dev:.2e} "
                 f"(tol 1e-8) at Fock cutoff 40, |beta| = {beta_max:.3f} <= 1")
    assert ok, (dev, beta_max)


def test_criterion_07_stiffness_theorem():
    # parity-broken oscillator (weak x^3 tilt) so the remainder is cubic
    base = build_anharmonic_dipole(50, 1.0, 1.0, 0.0, 1.0, 1.0)
    x = -base.dipole_ops[0].entries
    h = base.h_m.entries + 0.02 * np.linalg.matrix_power(x, 3)
    model = dataclasses.replace(base, h_m=Operator(0.5 * (h + h.conj().T),
                                                   hermitian=True))
    gauge = make_gauge("dipole")
    mode = lwl_mode(nu=1.0, volume=1.0)
    spec = matter_spectrum(model)
    block = diagonalize_block(diamagnetic_D(model, gauge, mode), mode.nu)
    f_ops = tuple(coupling_f(model, gauge, mode, s) for s in (1, 2))
    block = adapt_degenerate_branches(block, lehmann_sum(spec, f_ops))
    g_ops = coupling_g(block, f_ops)

    def err(db):
        closed = stiffness_energy(spec, mode, block, [db, 0.0], f_ops)
        oracle = constrained_min(spec, g_ops[0], mode, block, "+", db)
        return abs(oracle.energy - closed.energy), closed.energy_increase

    e1, inc1 = err(0.01j)
    e2, _ = err(0.005j)
    rel = e1 / inc1
    ratio = e1 / e2
    ok = rel <= 1e-3 and 6.0 <= ratio <= 10.0
    _line(7, ok, f"stiffness theorem: relative error {rel:.2e} <= 1e-3 at "
                 f"dbeta 0.01; halving error ratio {ratio:.2f} in [6, 10]")
    assert ok, (rel, ratio)


def test_criterion_08_gauge_invariance():
    mode = lwl_mode(nu=1.0, volume=1.0)

    def build(levels):
        return build_anharmonic_dipole(levels, 1.0, 1.0, 0.05, 0.4, 1.0)

    report = gauge_invariance_report(build, mode, [30, 45, 60], [30, 45, 60])
    ok = (report.relative_difference <= 1e-6
          and report.et_norm_coulomb <= 1e-9 and report.et_norm_dipole <= 1e-9)
    _line(8, ok, f"gauge invariance: |E_C - E_d|/|E| = "
                 f"{report.relative_difference:.2e} (tol 1e-6) at D = Fock = 60; "
                 f"|<E_T>| = {max(report.et_norm_coulomb, report.et_norm_dipole):.1e} "
                 f"(tol 1e-9) in both gauges")
    assert ok, report


def test_criterion_09_invariance_checks():
    ring = build_ring_lattice(6, 1.0, 1.0)
    spec = matter_spectrum(ring)
    cross = check_translational_invariance(
        spec, ring_quasi_momentum(ring, 1), ring_quasi_momentum(ring, 2))
    iso = build_anharmonic_dipole(6, 1.0, 1.0, 0.02, 1.0, 1.0, axes=3)
    mode = lwl_mode(nu=1.0, volume=1.0)
    proj = transverse_project(
        slrf(matter_spectrum(iso), list(iso.dipole_ops)), mode)
    dens = check_uniform_density(ring)
    ok = cross <= 1e-10 and proj.off_diag <= 1e-12 and dens <= 1e-12
    _line(9, ok, f"invariances: ring cross-momentum SLRF {cross:.1e} (1e-10); "
                 f"isotropic transverse off-diagonal {proj.off_diag:.1e} (1e-12); "
                 f"uniform density deviation {dens:.1e} (1e-12)")
    assert ok, (cross, proj.off_diag, dens)


def test_criterion_10_determinism(tmp_path):
    cfg = validate_config(json.dumps({
        "seed": 11,
        "model": {"kind": "two_level_ensemble", "count": 8, "gap": 1.0,
                  "dipole_moment": [0.0, 1.0, 0.0], "volume": 1.0},
        "gauge": [{"preset": "dipole"}, {"preset": "coulomb"}],
        "modes": [{"nu": 1.0}],
        "sweep": {"parameter": "dipole_scale", "start": 0.02, "stop": 0.5,
                  "steps": 20},
        "output": {},
    }))
    run_sweep(cfg, str(tmp_path / "run1"))
    run_sweep(cfg, str(tmp_path / "run2"))
    a = (tmp_path / "run1" / "criterion.csv").read_bytes()
    b = (tmp_path / "run2" / "criterion.csv").read_bytes()
    ok = a == b
    _line(10, ok, f"determinism: repeated sweeps byte-identical "
                  f"({len(a)} bytes)")
    assert ok
