import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from gaugecavity import cli
from gaugecavity import matter as matter_module
from gaugecavity import oracle as oracle_module
from gaugecavity import operators as operators_module
from gaugecavity.bogoliubov import diagonalize_block, exact_branch_coupling
from gaugecavity.criterion import displaced_energy, stiffness_energy
from gaugecavity.errors import NumericError, UnsupportedError
from gaugecavity.gauge import (
    coupling_f,
    diamagnetic_D,
    dressed_matter_hamiltonian,
    gauge_spectrum,
    lwl_mode,
    make_gauge,
    mode_from_q,
)
from gaugecavity.matter import (
    along_op,
    build_anharmonic_dipole,
    build_ring_lattice,
    build_two_level_ensemble,
    matter_spectrum,
)
from gaugecavity.operators import (DENSE_MAX_DIM, Operator, Statevector, boson_ladder,
                                   coherent_state, eigh, vacuum)
from gaugecavity.oracle import (
    DENSE_LIMIT,
    constrained_min,
    full_hamiltonian,
    gauge_invariance_report,
    ground_state,
    lowest_eigenpairs,
    parity_gap,
    photon_coherence,
    transverse_field_expectation,
    variational_scan,
)
from test_caches import README


def dicke(n, d, w0=1.0, v=1.0):
    return build_two_level_ensemble(n, w0, (0.0, d, 0.0), v)


class TestAssembly:
    def test_zero_coupling_free_spectrum(self):
        model = dicke(1, 0.0, w0=0.8)
        mode = lwl_mode(nu=1.0, volume=1.0)
        system = full_hamiltonian(model, make_gauge("dipole"), [mode], 5,
                                  include_uncoupled=True)
        vals = eigh(Operator(system.h.toarray())).values
        expected = sorted(em + 1.0 * (n1 + 0.5) + 1.0 * (n2 + 0.5)
                          for em in (0.0, 0.8)
                          for n1 in range(5) for n2 in range(5))
        assert np.max(np.abs(vals - np.array(expected))) <= 1e-12

    def test_zero_coupling_ground_energy(self):
        model = dicke(2, 0.0)
        mode = lwl_mode(nu=0.7, volume=1.0)
        system = full_hamiltonian(model, make_gauge("dipole"), [mode], 6)
        energy, _ = ground_state(system)
        assert energy == pytest.approx(0.7, abs=1e-12)  # two free branches

    def test_rabi_ground_energy_lowered(self):
        mode = lwl_mode(nu=1.0, volume=1.0)
        e_free, _ = ground_state(full_hamiltonian(dicke(1, 0.0),
                                                  make_gauge("dipole"), [mode], 25))
        e_coupled, _ = ground_state(full_hamiltonian(dicke(1, 0.25),
                                                     make_gauge("dipole"), [mode], 25))
        assert e_coupled < e_free

    def test_weak_coupling_second_order(self):
        # perturbative oracle: E0 = E_free - A^2 sum |<n|G|0>|^2 / (de_n + nu_tau)
        model = dicke(2, 0.004)
        gauge = make_gauge("dipole")
        mode = lwl_mode(nu=0.9, volume=1.0)
        system = full_hamiltonian(model, gauge, [mode], 12)
        energy, _ = ground_state(system)
        spec = matter_spectrum(model)
        e2 = 0.0
        for slot in system.slots:
            g_rows = spec.couplings_from_ground(slot.g_op.dag()).conj()  # <n|G|0>
            de = spec.energies - spec.energies[0]
            e2 -= mode.amplitude ** 2 * np.sum(np.abs(g_rows) ** 2 / (de + slot.nu))
        e_free = spec.ground_energy() + 0.5 * sum(s.nu for s in system.slots) \
            + system.constant_energy
        assert energy == pytest.approx(e_free + e2, abs=1e-9)

    def test_coulomb_photon_block_renormalised(self):
        # Delta > 0 with zero paramagnetic coupling: vacuum at nu lambda / 2
        model = build_two_level_ensemble(4, 1.0, (0, 0, 0), volume=1.0)
        model = dataclasses.replace(model, params=dataclasses.replace(model.params,
                                                                      e2n_over_m=2.0))
        gauge = make_gauge("coulomb")
        mode = lwl_mode(nu=1.0, volume=1.0)
        block = diagonalize_block(diamagnetic_D(model, gauge, mode), mode.nu)
        system = full_hamiltonian(model, gauge, [mode], 40, include_uncoupled=True)
        energy, _ = ground_state(system)
        assert energy == pytest.approx(0.5 * float(np.sum(block.nu_tau)), abs=1e-9)

    def test_dimension_guard(self):
        from gaugecavity.errors import ResourceLimitError
        model = dicke(30, 0.2)
        with pytest.raises(ResourceLimitError):
            full_hamiltonian(model, make_gauge("dipole"), [lwl_mode(1.0, 1.0)], 2000)

    @pytest.mark.parametrize("preset", ["dipole", "coulomb"])
    def test_sparse_model_is_never_densified(self, monkeypatch, preset):
        # 301 states is past DENSE_MAX_DIM, so every matter operator is CSR
        dense_view = Operator.entries.fget

        def no_sparse_view(op):
            if op.sparse:
                raise AssertionError("a sparse operator was densified")
            return dense_view(op)

        def assemble():
            model = dicke(300, 0.8 / np.sqrt(600.0))
            return full_hamiltonian(model, make_gauge(preset), [lwl_mode(1.0, 1.0)], 4)

        monkeypatch.setattr(Operator, "entries", property(no_sparse_view))
        system = assemble()
        assert system.dim == 301 * 4 and len(system.slots) == 1
        # the same assembly with every operator dense
        monkeypatch.undo()
        for module in (operators_module, matter_module):
            monkeypatch.setattr(module, "DENSE_MAX_DIM", 301)
        reference = assemble().h
        assert abs(system.h - reference).max() <= 1e-13 * abs(reference).max()

    def test_finite_q_unsupported(self):
        from gaugecavity.matter import build_ring_lattice
        from gaugecavity.gauge import ring_mode
        model = build_ring_lattice(6, 1.0, 1.0)
        gauge = make_gauge("coulomb")
        with pytest.raises(UnsupportedError):
            full_hamiltonian(model, gauge, [ring_mode(model, 1)], 5)

    def test_strong_dipole_beats_undisplaced_value(self):
        n, v, w0 = 12, 1.0, 1.0
        d = 1.6 * np.sqrt(v * w0 / (2 * n))  # supercritical
        model = dicke(n, d, w0, v)
        gauge = make_gauge("dipole")
        mode = lwl_mode(nu=1.0, volume=v)
        block = diagonalize_block(diamagnetic_D(model, gauge, mode), mode.nu)
        system = full_hamiltonian(model, gauge, [mode], 80)
        energy, _ = ground_state(system)
        undisplaced = displaced_energy(matter_spectrum(model).ground_energy(),
                                       block, [0.0, 0.0], [0, 0])
        assert energy < undisplaced - 1e-6


def embed_reference(system):
    """The oracle Hamiltonian of ``system`` as Kronecker products of the
    matter Hamiltonian, the slot number operators and the couplings,
    summed and symmetrised: the reference for the index-built ``h``."""
    dims = system.slot_dims()

    def embed(matter_op=None, slot_ops=None):
        ops = [matter_op] + [(slot_ops or {}).get(k) for k in range(len(dims) - 1)]
        out = None
        for n, op in zip(dims, ops):
            mat = (scipy.sparse.identity(n, format="csr", dtype=complex) if op is None
                   else scipy.sparse.csr_matrix(op))
            out = mat if out is None else scipy.sparse.kron(out, mat, format="csr")
        return out

    h_matter = dressed_matter_hamiltonian(system.model, system.gauge, list(system.modes))
    c, cdag = boson_ladder(system.cutoff)
    number = cdag.matrix @ c.matrix + 0.5 * np.eye(system.cutoff)
    h = embed(matter_op=h_matter.matrix)
    for k, slot in enumerate(system.slots):
        h = h + slot.nu * embed(slot_ops={k: number})
        a_q = system.modes[slot.mode_index].amplitude
        h = h + a_q * (embed(slot.g_op.dag().matrix, {k: c.matrix})
                       + embed(slot.g_op.matrix, {k: cdag.matrix}))
    h = h + system.constant_energy * scipy.sparse.identity(system.dim, dtype=complex)
    return (0.5 * (h + h.conj().T)).tocsr()


# (label, model, gauge, modes, cutoff): one-slot ensembles in the Coulomb,
# alpha and dipole gauges (alpha 0.5 at d = 0.1 puts the floor 3.7e-6
# below E_0), the 1-axis anharmonic dipole, the oblique 3-axis dipole with
# two slots, and two modes on one ensemble
FLOOR_SYSTEMS = [
    ("dicke_coulomb", lambda: dicke(10, 0.3), ("coulomb",), [lwl_mode(1.0, 1.0)], 40),
    ("dicke_alpha_0.3", lambda: dicke(10, 0.2), ("alpha_lwl", 0.3), [lwl_mode(1.0, 1.0)], 40),
    ("dicke_alpha_0.5", lambda: dicke(10, 0.1), ("alpha_lwl", 0.5), [lwl_mode(1.0, 1.0)], 40),
    ("dicke_dipole", lambda: dicke(10, 0.3), ("dipole",), [lwl_mode(1.0, 1.0)], 40),
    ("anharmonic_dipole", lambda: build_anharmonic_dipole(20, 1.0, 1.0, 0.1, 1.5, 1.0),
     ("dipole",), [lwl_mode(1.0, 1.0)], 30),
    ("anharmonic_coulomb", lambda: build_anharmonic_dipole(20, 1.0, 1.0, 0.1, 0.5, 1.0),
     ("coulomb",), [lwl_mode(1.0, 1.0)], 30),
    ("three_axis_oblique", lambda: build_anharmonic_dipole(4, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3),
     ("dipole",), [mode_from_q((1.0, 2.0, 0.5), 1.0)], 4),
    ("two_modes", lambda: dicke(4, 0.3), ("coulomb",), [lwl_mode(1.0, 1.0), lwl_mode(1.3, 1.0)],
     10),
]


class TestIndexAssembly:
    @pytest.mark.parametrize("model, gauge, cutoff", [
        (lambda: dicke(40, 0.34), ("dipole",), 60),
        (lambda: dicke(40, 0.34), ("coulomb",), 60),
        (lambda: dicke(10, 0.2), ("alpha_lwl", 0.5), 20),
        (lambda: build_anharmonic_dipole(4, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3), ("dipole",), 5),
    ], ids=["readme_dipole", "readme_coulomb", "alpha_0.5", "two_slot"])
    def test_matches_kronecker_reference(self, model, gauge, cutoff):
        system = full_hamiltonian(model(), make_gauge(*gauge), [lwl_mode(1.0, 1.0)], cutoff)
        reference = embed_reference(system)
        assert system.h.nnz == reference.nnz
        assert abs(system.h - reference).max() <= 1e-15 * abs(reference).max()
        assert abs(system.h - system.h.conj().T).max() == 0.0

    @pytest.mark.parametrize("label, model, gauge, modes, cutoff", FLOOR_SYSTEMS,
                             ids=[case[0] for case in FLOOR_SYSTEMS])
    def test_floor_below_ground_energy(self, label, model, gauge, modes, cutoff):
        system = full_hamiltonian(model(), make_gauge(*gauge), modes, cutoff)
        assert len(system.slots) == (2 if label in ("three_axis_oblique", "two_modes") else 1)
        assert np.isfinite(system.floor)
        assert system.floor <= np.linalg.eigvalsh(system.h.toarray())[0]

    def test_floor_is_ground_energy_without_coupling(self):
        system = full_hamiltonian(dicke(2, 0.0), make_gauge("dipole"), [lwl_mode(0.7, 1.0)], 6,
                                  include_uncoupled=True)
        dense = np.linalg.eigvalsh(system.h.toarray())
        assert len(system.slots) == 2
        assert system.floor == pytest.approx(dense[0], abs=1e-12)
        _assert_lowest(system, 3)

    def test_no_floor_without_dense_matter_space(self):
        # 301 states is past DENSE_MAX_DIM
        system = full_hamiltonian(dicke(300, 0.8 / np.sqrt(600.0)), make_gauge("dipole"),
                                  [lwl_mode(1.0, 1.0)], 4)
        assert system.floor == -np.inf


class TestSignals:
    def test_zero_coupling_coherence(self):
        model = dicke(2, 0.0)
        mode = lwl_mode(nu=1.0, volume=1.0)
        system = full_hamiltonian(model, make_gauge("dipole"), [mode], 8,
                                  include_uncoupled=True)
        _, state = ground_state(system)
        coh, occ = photon_coherence(state, system, 0, 2)
        assert abs(coh) <= 1e-12 and occ <= 1e-12

    def test_below_threshold_small_coherence(self):
        n, v = 20, 1.0
        d = 0.8 * np.sqrt(v / (2 * n))
        system = full_hamiltonian(dicke(n, d), make_gauge("dipole"),
                                  [lwl_mode(1.0, v)], 40)
        _, state = ground_state(system)
        coh, occ = photon_coherence(state, system, 0, 2)
        # exact ground states carry no coherence by parity; the finite-size
        # tail shows up in the occupation instead
        assert abs(coh) / np.sqrt(n) <= 0.05
        assert occ / n <= 0.05

    def test_occupation_crossing_drifts_toward_threshold(self):
        # finite-size boundary from a fixed occupation-density cut moves
        # toward the analytic critical coupling as N grows
        def crossing_offset(n):
            d_cn = np.sqrt(1.0 / (2 * n))
            xs = np.linspace(0.9, 1.6, 15)
            occs = []
            for x in xs:
                system = full_hamiltonian(dicke(n, x * d_cn), make_gauge("dipole"),
                                          [lwl_mode(1.0, 1.0)], 60)
                _, state = ground_state(system)
                _, occ = photon_coherence(state, system, 0, 2)
                occs.append(occ / n)
            occs = np.asarray(occs)
            idx = int(np.argmax(occs > 0.1))
            frac = (0.1 - occs[idx - 1]) / (occs[idx] - occs[idx - 1])
            return xs[idx - 1] + frac * (xs[idx] - xs[idx - 1]) - 1.0

        assert crossing_offset(40) < crossing_offset(10)

    def test_parity_doublet_closes_above_threshold(self):
        n, v = 20, 1.0
        d_c = np.sqrt(v / (2 * n))
        gap_below = parity_gap(full_hamiltonian(dicke(n, 0.6 * d_c),
                                                make_gauge("dipole"),
                                                [lwl_mode(1.0, v)], 50))
        gap_above = parity_gap(full_hamiltonian(dicke(n, 1.6 * d_c),
                                                make_gauge("dipole"),
                                                [lwl_mode(1.0, v)], 90))
        assert gap_above < 1e-3 * gap_below

    def test_transverse_field_vanishes_in_ground_state(self):
        model = build_anharmonic_dipole(30, 1.0, 1.0, 0.05, 0.5, 1.0)
        mode = lwl_mode(nu=0.9, volume=1.0)
        for preset in ("coulomb", "dipole"):
            system = full_hamiltonian(model, make_gauge(preset), [mode], 30)
            _, state = ground_state(system)
            et = transverse_field_expectation(state, system)
            assert np.max(np.abs(et)) <= 1e-9

    def test_transverse_field_displaced_trial_state(self):
        # coherent-displaced state: <E_T> = -<Pi> - <P_T> with
        # <Pi> = -i nu A sum (w+y)(beta - beta*), evaluated analytically
        model = dicke(3, 0.2)
        gauge = make_gauge("dipole")
        mode = lwl_mode(nu=1.0, volume=1.0)
        system = full_hamiltonian(model, gauge, [mode], 40)
        beta = 0.3 + 0.1j
        spec = matter_spectrum(model)
        psi_m = spec.ground_state_vector()
        photon = coherent_state(beta, system.cutoff).amplitudes
        state = Statevector(np.kron(psi_m, photon))
        et = transverse_field_expectation(state, system)
        block = system.blocks[0]
        t = system.slots[0].tau_index
        wy = block.coeffs[t, 1] + block.coeffs[t, 3]  # sigma = 2 components
        pi_mean = -1j * mode.nu * mode.amplitude * wy * (beta - np.conj(beta))
        p_ops = model.pol_transverse_mult(mode.q_hat)
        p_mean = psi_m.conj() @ (p_ops[1].entries @ psi_m)
        expected = complex(-pi_mean - p_mean)
        assert abs(expected.imag) <= 1e-12
        assert et[0, 1] == pytest.approx(expected.real, abs=1e-8)
        assert abs(et[0, 1]) > 1e-3  # genuinely nonzero for the trial state

    def test_two_slot_observables_match_kron_operators(self):
        # a 3-axis dipole couples both branches: two slots on 64 x 5 x 5
        # states.  a_sigma and P_T built here by explicit Kronecker products
        # pin the slot-axis order of the tensor-shape reads.
        model = build_anharmonic_dipole(4, 1.0, 1.0, 0.1, 1.0, 1.0, axes=3)
        mode = lwl_mode(nu=1.0, volume=1.0)
        gauge = make_gauge("dipole")
        system = full_hamiltonian(model, gauge, [mode], 5)
        assert [s.tau_index for s in system.slots] == [0, 1] and system.dim == 1600
        _, vecs = lowest_eigenpairs(system, k=2)
        # a superposition with a relative phase, so that <a> and <E_T> are nonzero
        psi = vecs[:, 0] + 1j * vecs[:, 1]
        psi = psi / np.linalg.norm(psi)
        state = Statevector(psi)
        c = scipy.sparse.csr_matrix(boson_ladder(5)[0].matrix)
        eye_m, eye_f = scipy.sparse.identity(64), scipy.sparse.identity(5)
        c_slot = [scipy.sparse.kron(scipy.sparse.kron(eye_m, c), eye_f),
                  scipy.sparse.kron(scipy.sparse.kron(eye_m, eye_f), c)]
        block = system.blocks[0]
        pol = model.pol_transverse_mult(mode.q_hat)
        et = transverse_field_expectation(state, system)
        cohs = []
        for sigma in (1, 2):
            a = sum(block.coeffs[t, sigma - 1] * c_slot[t]
                    - block.coeffs[t, sigma + 1] * c_slot[t].conj().T for t in (0, 1))
            a_psi = a @ psi
            a_mean = np.vdot(psi, a_psi)
            coh, occ = photon_coherence(state, system, 0, sigma)
            assert abs(coh - a_mean) <= 1e-12
            assert abs(occ - np.vdot(a_psi, a_psi).real) <= 1e-12
            p_t = scipy.sparse.kron(along_op(mode.eps(sigma), pol).matrix * gauge.electric_weight,
                                    scipy.sparse.identity(25))
            pi_mean = -1j * mode.nu * mode.amplitude * (a_mean - np.conj(a_mean))
            assert abs(et[0, sigma - 1] - (-pi_mean - np.vdot(psi, p_t @ psi)).real) <= 1e-12
            cohs.append(abs(coh))
        assert max(cohs) > 1e-3
        assert np.max(np.abs(et)) > 1e-3


def effective_photon_hamiltonian(model, gauge, mode, psi_m, cutoff):
    """Photon-sector Hamiltonian for a frozen matter state (sigma basis).

    Matter operators are replaced by their expectation values; the
    diamagnetic quadratic form keeps its operator structure.
    """
    h_matter = dressed_matter_hamiltonian(model, gauge, [mode])
    e_m = float(np.real(psi_m.conj() @ (h_matter.matrix @ psi_m)))
    dmat = diamagnetic_D(model, gauge, mode)
    f_vals = []
    for s in (1, 2):
        f_op = coupling_f(model, gauge, mode, s)
        f_vals.append(complex(psi_m.conj() @ (f_op.matrix @ psi_m)))
    c, cdag = boson_ladder(cutoff)
    eye = np.eye(cutoff, dtype=complex)
    a_ops = [np.kron(c.matrix, eye), np.kron(eye, c.matrix)]
    dim = cutoff ** 2
    h = e_m * np.eye(dim, dtype=complex)
    a_q = mode.amplitude
    for s in range(2):
        h = h + mode.nu * (a_ops[s].conj().T @ a_ops[s] + 0.5 * np.eye(dim))
        h = h + a_q * (np.conj(f_vals[s]) * a_ops[s] + f_vals[s] * a_ops[s].conj().T)
    for s1 in range(2):
        for s2 in range(2):
            dd = dmat.delta_q * dmat.d[s1, s2]
            if dd != 0.0:
                q1 = a_ops[s1] + a_ops[s1].conj().T
                q2 = a_ops[s2] + a_ops[s2].conj().T
                h = h + dd * (q1 @ q2)
    return h


def project_onto_matter_state(system, psi_m):
    """<psi_m| H |psi_m> as a dense photon-space matrix (branch basis).

    It is P^dag H P with the sparse isometry P = psi_m (x) 1_photon, so
    only the photon-space result is ever dense.
    """
    ph_dim = system.dim // system.matter_dim
    p = scipy.sparse.kron(scipy.sparse.csr_matrix(np.asarray(psi_m)[:, None]),
                          scipy.sparse.identity(ph_dim, format="csr"), format="csr")
    return (p.conj().T @ (system.h @ p)).toarray()


class TestEffectiveHamiltonian:
    def test_projection_matches_sigma_basis_spectrum(self):
        model = dicke(3, 0.3)
        gauge = make_gauge("dipole")
        mode = lwl_mode(nu=1.0, volume=1.0)
        spec = matter_spectrum(model)
        psi_m = (spec.vectors[:, 0] + spec.vectors[:, 1]) / np.sqrt(2)
        cutoff = 24
        h_eff = effective_photon_hamiltonian(model, gauge, mode, psi_m, cutoff)
        vals_sigma = np.linalg.eigvalsh(h_eff)
        system = full_hamiltonian(model, gauge, [mode], cutoff,
                                  include_uncoupled=True)
        h_proj = project_onto_matter_state(system, psi_m)
        vals_branch = np.linalg.eigvalsh(h_proj)
        assert np.max(np.abs(vals_sigma[:40] - vals_branch[:40])) <= 1e-8

    def test_projection_stays_sparse(self):
        # one dense complex matrix on the full 20 x 500 = 10000 states is 1.6 GB
        model = dicke(19, 0.2)
        system = full_hamiltonian(model, make_gauge("dipole"), [lwl_mode(nu=1.0, volume=1.0)], 500)
        assert system.dim >= 10000
        psi_m = matter_spectrum(model).ground_state_vector()
        tracemalloc.start()
        try:
            h_proj = project_onto_matter_state(system, psi_m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h_proj.shape == (500, 500)
        assert peak < 16 * system.dim ** 2 / 100

    def test_displaced_oscillator_spectrum(self):
        # eigenvalues of the frozen-matter photon Hamiltonian against the
        # closed-form displaced spectrum H_m + sum nu_tau (n + 1/2 - |beta|^2)
        model = dicke(3, 0.35)
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
        assert max(abs(b) for b in betas) <= 1.0
        closed = sorted(displaced_energy(e_m, block, betas, [n1, n2])
                        for n1 in range(6) for n2 in range(6))
        assert np.max(np.abs(vals[:20] - np.array(closed[:20]))) <= 1e-8


def _record_blocks(monkeypatch):
    """Wrap the dense block cut and the sparse solver; returns the (dtype,
    dim) of each block they see, in the order first seen.  A dense block
    is cut once for its eigenvalues and again for its eigenvectors when it
    holds a pick, and counts once."""
    seen, cut = [], set()
    dense, solve = matter_module._dense_block, matter_module.shift_invert_lowest

    def cutting(plan, b, cols, data, dtype):
        out = dense(plan, b, cols, data, dtype)
        _, order, first, _ = plan.partition
        if order[first[b]] not in cut:  # a sector's lowest state names it
            cut.add(order[first[b]])
            seen.append((out.dtype, len(out)))
        return out

    def solving(block, k, floor, layout):
        seen.append((block.dtype, block.shape[0]))
        return solve(block, k, floor, layout=layout)

    monkeypatch.setattr(matter_module, "_dense_block", cutting)
    monkeypatch.setattr(matter_module, "shift_invert_lowest", solving)
    return seen


def _sparse_blocks(monkeypatch):
    """Wrap `matter.shift_invert_lowest`; returns the (block, floor) of each
    call."""
    calls = []
    solve = matter_module.shift_invert_lowest

    def recording(block, k, floor, layout):
        calls.append((block, floor))
        return solve(block, k, floor, layout=layout)

    monkeypatch.setattr(matter_module, "shift_invert_lowest", recording)
    return calls


def record_band_slicing(monkeypatch):
    """Wrap `matter._band_cholesky` and `matter.shift_invert_lowest`;
    returns their calls in order: ("factor", sigma, factored) for each
    banded Cholesky factorisation, a slicing test's or the eigensolver's,
    and ("solve", block, k, floor, values) for each shift-invert solve,
    after the factorisation it makes."""
    events = []
    factor, solve = matter_module._band_cholesky, matter_module.shift_invert_lowest

    def factoring(mat, sigma, layout=None):
        out = factor(mat, sigma, layout)
        events.append(("factor", float(sigma), out is not None))
        return out

    def solving(block, k, floor, layout):
        out = solve(block, k, floor, layout=layout)
        events.append(("solve", block, k, float(floor), out[0]))
        return out

    monkeypatch.setattr(matter_module, "_band_cholesky", factoring)
    monkeypatch.setattr(matter_module, "shift_invert_lowest", solving)
    return events


def _below(floor):
    """The shift `matter.shift_invert_lowest` factors at from a floor."""
    return floor - matter_module.FLOOR_MARGIN * max(1.0, abs(floor))


def _assert_lowest(system, k, rtol=1e-10):
    """lowest_eigenpairs matches dense eigvalsh and returns eigenvectors."""
    return _assert_eigenpairs(system.h, *lowest_eigenpairs(system, k=k), rtol)


def _assert_eigenpairs(h, vals, vecs, rtol=1e-10):
    """``vals`` are the lowest eigenvalues of dense eigvalsh of ``h``, and
    ``vecs`` orthonormal eigenvectors to them."""
    k = len(vals)
    dense = np.linalg.eigvalsh(h.toarray())[:k]
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(vals - dense)) <= rtol * scale
    residual = h @ vecs - vecs * vals
    assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-8 * scale
    assert np.allclose(vecs.conj().T @ vecs, np.eye(k), atol=1e-10)
    return vals, vecs


def _stale_floor_lowest(monkeypatch, h, k):
    """lowest_by_sector on ``h`` from the floor of a two-state system, which
    lies above the spectrum of ``h``: its one sparse sector is factored
    there, fails, and is factored again at its Gershgorin shift."""
    system = full_hamiltonian(dicke(1, 0.0), make_gauge("dipole"), [lwl_mode(1.0, 1.0)], 4)
    factored, _ = _counting_band(monkeypatch)
    vals, vecs, _ = matter_module.lowest_by_sector(h, k, DENSE_LIMIT, system.floor)
    assert system.floor > vals[0] and len(factored) == 2
    return _assert_eigenpairs(h, vals, vecs)


def _in_photon_phase(system):
    """conj(z) h z for the photon phase z of `oracle.lowest_eigenpairs`."""
    z = scipy.sparse.diags(oracle_module._photon_phase(system))
    return (z.conj() @ system.h @ z).tocsr()


def _ring(dim, hop, potential):
    """Nearest-neighbour ring; ``hop`` is the amplitude on the closing bond."""
    off = -np.ones(dim - 1)
    h = scipy.sparse.diags([off, potential, off], [-1, 0, 1], format="lil", dtype=complex)
    h[dim - 1, 0] = hop
    h[0, dim - 1] = np.conj(hop)
    return h.tocsr()


class TestLowestEigenpairs:
    def test_many_blocks_above_dense_limit(self, monkeypatch):
        # no light-matter coupling: every photon state times each parity
        # sector of the anharmonic dipole is a block of its own
        model = build_anharmonic_dipole(10, 1.0, 1.0, 0.1, 0.0, 1.0)
        system = full_hamiltonian(model, make_gauge("dipole"), [lwl_mode(1.0, 1.0)], 12,
                                  include_uncoupled=True)
        assert system.dim > DENSE_LIMIT
        seen = _record_blocks(monkeypatch)
        _assert_lowest(system, 6)
        assert len(seen) == 2 * 12 * 12
        assert {dim for _, dim in seen} == {5}

    def test_flux_loop_stays_complex(self, monkeypatch):
        # a ring threaded by flux has no real gauge; next to it sits a real chain
        dim = DENSE_LIMIT + 100
        rng = np.random.default_rng(3)
        ring = _ring(dim, -np.exp(0.7j), 3.0 * rng.random(dim))
        chain = _ring(40, 0.0, 0.5 + rng.random(40))
        seen = _record_blocks(monkeypatch)
        _stale_floor_lowest(monkeypatch, scipy.sparse.block_diag([ring, chain], format="csr"), 4)
        # the shift-invert sectors first, then the dense ones
        assert seen == [(np.dtype(complex), dim), (np.dtype(float), 40)]

    def test_exactly_zero_ground_energy(self, monkeypatch):
        # graph Laplacian with integer weights: every row sums to exactly 0,
        # so the uniform vector is the ground state at energy 0
        dim = DENSE_LIMIT + 100
        rng = np.random.default_rng(5)
        sites = np.arange(dim)
        adj = sum(scipy.sparse.csr_matrix((rng.integers(1, 4, dim).astype(float),
                                           (sites, (sites + step) % dim)), shape=(dim, dim))
                  for step in (1, 37))
        adj = (adj + adj.T).tocsr()
        lap = scipy.sparse.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj
        seen = _record_blocks(monkeypatch)
        vals, vecs = _stale_floor_lowest(monkeypatch, lap.astype(complex).tocsr(), 2)
        assert seen == [(np.dtype(float), dim)]
        assert abs(vals[0]) <= 1e-10
        assert np.allclose(vecs[:, 0], 1.0 / np.sqrt(dim), atol=1e-10)

    def test_parity_blocks_are_real(self, monkeypatch):
        # the README oracle Hamiltonian at dipole_scale 0.34: two parity
        # blocks above the dense limit, both real after the phase change
        model = build_two_level_ensemble(40, 1.0, (0.0, 0.34, 0.0), 1.0)
        system = full_hamiltonian(model, make_gauge("coulomb"), [lwl_mode(1.0, 1.0)], 60)
        seen = _record_blocks(monkeypatch)
        vals, _ = lowest_eigenpairs(system, k=2)
        assert seen == [(np.dtype(float), system.dim // 2)] * 2
        assert system.dim // 2 > DENSE_LIMIT
        v0 = np.random.default_rng(0).standard_normal(system.dim)
        ref = np.sort(scipy.sparse.linalg.eigsh(system.h, k=2, which="SA", v0=v0)[0])
        assert np.max(np.abs(vals - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("preset", ["dipole", "coulomb"])
    def test_one_slot_blocks_factor_once(self, monkeypatch, preset):
        # the README oracle Hamiltonian at dipole_scale 0.34: the first
        # parity block is factored once, just below the floor; the second
        # fails its test at the first one's E_1, is tested at its E_0, and is
        # factored once below the bound that test certifies; both give the
        # eigenpairs of dense eigh
        model = build_two_level_ensemble(40, 1.0, (0.0, 0.34, 0.0), 1.0)
        system = full_hamiltonian(model, make_gauge(preset), [lwl_mode(1.0, 1.0)], 60)
        assert len(system.slots) == 1
        solve = matter_module.shift_invert_lowest
        events = record_band_slicing(monkeypatch)
        lowest_eigenpairs(system, k=2)
        assert events[0] == ("factor", _below(system.floor), True)
        _, first, k, floor, low = events[1]
        assert (k, floor) == (2, system.floor)
        assert events[2] == ("factor", low[1], False)
        _, at, certified = events[3]
        assert at == low[0]
        # the dipole gauge's doublet: rounding decides whether the second
        # block's E_0 lies above the first one's
        assert certified or preset == "dipole"
        start, m = (low[0], 1) if certified else (system.floor, 2)
        assert events[4] == ("factor", _below(start), True)
        _, second, k, floor, _ = events[5]
        assert (k, floor) == (m, start) and len(events) == 6
        for block in (first, second):
            assert block.shape[0] > DENSE_LIMIT
            vals, vecs = solve(block, 2)
            ref_vals, ref_vecs = scipy.linalg.eigh(block.toarray(), subset_by_index=(0, 1))
            assert np.max(np.abs(vals - ref_vals)) <= 1e-12 * np.max(np.abs(ref_vals))
            overlaps = np.abs(np.sum(vecs.conj() * ref_vecs, axis=0))
            assert np.max(np.abs(overlaps - 1.0)) <= 1e-10

    def test_shift_invert_failure_raises_numeric_error(self, monkeypatch):
        # one photon slot and parity blocks above the dense limit: the
        # blocks go to shift-invert, whose ARPACK failure names it
        model = build_two_level_ensemble(40, 1.0, (0.0, 0.34, 0.0), 1.0)
        system = full_hamiltonian(model, make_gauge("dipole"), [lwl_mode(1.0, 1.0)], 60)
        assert len(system.slots) == 1 and system.dim // 2 > DENSE_LIMIT

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("No convergence", np.zeros(0),
                                                          np.zeros((0, 0)))

        monkeypatch.setattr(matter_module, "eigsh", no_convergence)
        with pytest.raises(NumericError, match="^shift-invert Lanczos failed to converge: "
                                               "ARPACK error -1: No convergence$"):
            lowest_eigenpairs(system, k=2)

    @pytest.mark.parametrize("cutoff, block_dim", [(7, 392), (13, 1352)])
    def test_two_slot_blocks_factor_near_floor(self, monkeypatch, cutoff, block_dim):
        # a 3-axis dipole couples both polarisations: eight parity blocks,
        # each past DENSE_LIMIT; the first is shift-inverted from the floor,
        # and every other one is skipped where it factors at the known E_1,
        # or else shift-inverted from the highest known value it factors at,
        # for the levels it can hold above it, or from the floor where it
        # factors at none
        model = build_anharmonic_dipole(4, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3)
        system = full_hamiltonian(model, make_gauge("dipole"), [lwl_mode(1.0, 1.0)], cutoff)
        assert len(system.slots) == 2 and np.isfinite(system.floor)
        events = record_band_slicing(monkeypatch)
        vals, vecs = lowest_eigenpairs(system, k=2)
        assert events[0] == ("factor", _below(system.floor), True)
        _, _, k, floor, known = events[1]
        assert (k, floor) == (2, system.floor)
        pos, visited, skipped = 2, 1, 0
        while pos < len(events):
            visited += 1
            for j in reversed(range(2)):  # the tests, from the top down
                assert events[pos][:2] == ("factor", known[j])
                pos += 1
                if events[pos - 1][2]:
                    break
            else:
                j = -1
            if j == 1:
                skipped += 1
                continue
            start = known[j] if j >= 0 else system.floor
            assert events[pos] == ("factor", _below(start), True)
            _, _, k, floor, found = events[pos + 1]
            assert (k, floor) == (1 - j, start)
            known = np.sort(np.concatenate([known, found]))[:2]
            pos += 2
        assert visited == 8 and skipped
        sector_of = _components(system.h)
        assert sector_of.max() == 7
        blocks = [system.h[idx][:, idx] for idx in
                  (np.flatnonzero(sector_of == c) for c in range(8))]
        assert {b.shape[0] for b in blocks} == {block_dim} and block_dim > DENSE_LIMIT
        ref = np.sort(np.concatenate([np.linalg.eigvalsh(b.toarray())[:2] for b in blocks]))[:2]
        assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))
        residual = system.h @ vecs - vecs * vals
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-8 * np.max(np.abs(vals))

    def test_doublet_ground_vector_is_parity_eigenstate(self):
        n = 20
        system = full_hamiltonian(dicke(n, 1.5 * np.sqrt(1.0 / (2 * n))), make_gauge("dipole"),
                                  [lwl_mode(1.0, 1.0)], 80)
        vals, vecs = lowest_eigenpairs(system, k=2)
        assert vals[1] - vals[0] < 1e-6
        state = Statevector(vecs[:, 0] / np.linalg.norm(vecs[:, 0]))
        coh, occ = photon_coherence(state, system, 0, 2)
        assert coh == 0.0
        assert occ > 1.0
        assert np.all(transverse_field_expectation(state, system) == 0.0)

    @pytest.mark.parametrize("scale", [0.1, 0.3])
    @pytest.mark.parametrize("preset", ["dipole", "coulomb"])
    def test_two_dense_blocks_take_one_eigh_each(self, monkeypatch, preset, scale):
        # a 20-dipole ensemble at cutoff 28: two parity blocks of 294 states,
        # each holding one of the two lowest levels, so each is solved by
        # one vector solve of its lowest pairs, and nothing runs a
        # values-only solve or np.linalg's eigh or eigvalsh
        system = full_hamiltonian(dicke(20, scale), make_gauge(preset), [lwl_mode(1.0, 1.0)],
                                  28)
        assert system.dim == 2 * 294 and 294 <= DENSE_LIMIT
        counts = {"vectors": 0, "values": 0, "eigh": 0, "eigvalsh": 0}
        lowest_pairs = matter_module._lowest_pairs

        def pairs(block, m, vectors):
            counts["vectors" if vectors else "values"] += 1
            return lowest_pairs(block, m, vectors)

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(matter_module, "_lowest_pairs", pairs)
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        vals, vecs = lowest_eigenpairs(system, k=2)
        monkeypatch.undo()
        assert counts == {"vectors": 2, "values": 0, "eigh": 0, "eigvalsh": 0}
        _assert_eigenpairs(system.h, vals, vecs)


# (model, modes, cutoff, slots): ensembles and 1- and 3-axis dipoles, with
# one photon slot or two
PHASE_SYSTEMS = {
    "ensemble": (lambda: dicke(6, 0.3), [lwl_mode(1.0, 1.0)], 12, 1),
    "ensemble_two_modes": (lambda: dicke(4, 0.3), [lwl_mode(1.0, 1.0), lwl_mode(1.3, 1.0)],
                           6, 2),
    "one_axis_dipole": (lambda: build_anharmonic_dipole(12, 1.0, 1.0, 0.1, 0.8, 1.0),
                        [lwl_mode(1.0, 1.0)], 12, 1),
    "three_axis_dipole": (lambda: build_anharmonic_dipole(4, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3),
                          [lwl_mode(1.0, 1.0)], 4, 2),
    "three_axis_oblique": (lambda: build_anharmonic_dipole(4, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3),
                           [mode_from_q((1.0, 2.0, 0.5), 1.0)], 4, 2),
}
# every uniform-field preset, alpha_lwl at two alphas
PHASE_GAUGES = {"dipole": ("dipole",), "coulomb": ("coulomb",),
                "alpha_0.3": ("alpha_lwl", 0.3), "alpha_0.5": ("alpha_lwl", 0.5)}


class TestPhotonPhase:
    @pytest.mark.parametrize("gauge", sorted(PHASE_GAUGES))
    @pytest.mark.parametrize("case", sorted(PHASE_SYSTEMS))
    def test_photon_phase_makes_h_exactly_real(self, monkeypatch, case, gauge):
        model, modes, cutoff, slots = PHASE_SYSTEMS[case]
        system = full_hamiltonian(model(), make_gauge(*PHASE_GAUGES[gauge]), modes, cutoff)
        assert len(system.slots) == slots and system.h.data.imag.any()
        turned = _in_photon_phase(system)
        # exactly, not up to rounding
        assert not turned.data.imag.any()
        assert turned.nnz == system.h.nnz
        assert np.array_equal(np.abs(turned.data), np.abs(system.h.data))
        seen = _record_blocks(monkeypatch)
        _assert_lowest(system, 2)
        assert seen and {dtype for dtype, _ in seen} == {np.dtype(float)}

    def test_readme_systems_run_no_complex_factorisation(self, monkeypatch, tmp_path):
        # the README sweep on one CPU, so every oracle point runs here
        factored = {"dpbtrf": 0, "zpbtrf": 0}
        for name in factored:
            routine = getattr(matter_module, name)
            monkeypatch.setattr(matter_module, name, lambda *a, name=name, routine=routine, **kw:
                                factored.update({name: factored[name] + 1}) or routine(*a, **kw))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        cfg = cli.validate_config(json.dumps(README))
        assert cli.run_sweep(cfg, str(tmp_path / "out")) == 0
        assert factored["zpbtrf"] == 0 and factored["dpbtrf"] > 0

    def test_complex_matter_stays_complex(self, monkeypatch):
        # the ensemble's h_m plus i (S_+^2 - S_-^2) / 4, which keeps the
        # Dicke parity: both parity blocks, above the dense limit, complex
        base = dicke(10, 0.3)
        raise_twice = np.diag(np.ones(9), -2)
        h = base.h_m.entries + 0.25j * (raise_twice - raise_twice.T)
        model = dataclasses.replace(base, h_m=Operator(h, hermitian=True))
        system = full_hamiltonian(model, make_gauge("dipole"), [lwl_mode(1.0, 1.0)], 60)
        assert _in_photon_phase(system).data.imag.any()
        seen = _record_blocks(monkeypatch)
        _assert_lowest(system, 2)
        assert seen == [(np.dtype(complex), system.dim // 2)] * 2
        assert system.dim // 2 > DENSE_LIMIT


def _components(h) -> np.ndarray:
    """csgraph's connected components of the nonzero pattern of ``h``,
    numbered in the order of their lowest states."""
    from scipy.sparse.csgraph import connected_components

    return connected_components(abs(h), directed=False)[1]


def _block_numbers(root: np.ndarray) -> np.ndarray:
    """Each state's block numbered by the rank of its root."""
    return np.unique(root, return_inverse=True)[1]


class TestBlockSplit:
    def test_single_state_blocks_need_no_solve(self, monkeypatch):
        # the README point at dipole_scale 0: nothing couples, so the
        # Hamiltonian is diagonal and each of its 41 states is a block
        system = full_hamiltonian(dicke(40, 0.0), make_gauge("dipole"), [lwl_mode(1.0, 1.0)], 60)
        assert system.dim == 41 and system.h.nnz == 41
        seen = _record_blocks(monkeypatch)
        vals, vecs = _assert_lowest(system, 3)
        assert seen == []
        assert np.array_equal(np.abs(vecs), np.eye(41)[:, np.argsort(system.h.diagonal().real)[:3]])

    @pytest.mark.parametrize("preset", ["dipole", "coulomb"])
    def test_forest_gives_sectors_and_real_phases(self, preset):
        # the forest's roots are the two parity sectors, and the photon
        # phase makes every entry real
        system = full_hamiltonian(dicke(40, 0.34), make_gauge(preset), [lwl_mode(1.0, 1.0)], 60)
        h = system.h
        rows = np.repeat(np.arange(system.dim), np.diff(h.indptr))
        assert h.data.imag.any()
        root = matter_module._hooking_rounds(rows, h.indices, system.dim)
        assert np.array_equal(_block_numbers(root), _components(h))
        assert len(np.unique(root)) == 2
        assert not _in_photon_phase(system).data.imag.any()

    def test_forest_roots_a_random_forest(self):
        # a random forest under a random numbering, with random complex
        # edges and a diagonal: one sector per tree
        rng = np.random.default_rng(11)
        dim = 300
        label = rng.permutation(dim)
        child = np.arange(1, dim)
        parent = rng.integers(0, child)
        tree = rng.random(dim - 1) > 0.02  # a few cut edges leave several trees
        i, j = label[child[tree]], label[parent[tree]]
        edge = rng.standard_normal(len(i)) + 1j * rng.standard_normal(len(i))
        h = scipy.sparse.csr_matrix((np.r_[edge, edge.conj(), rng.random(dim)],
                                     (np.r_[i, j, np.arange(dim)], np.r_[j, i, np.arange(dim)])),
                                    shape=(dim, dim))
        rows = np.repeat(np.arange(dim), np.diff(h.indptr))
        root = matter_module._hooking_rounds(rows, h.indices, dim)
        assert np.array_equal(_block_numbers(root), _components(h))
        assert len(np.unique(root)) > 1
        # each root is the lowest state of its tree
        assert np.array_equal(root, np.unique(root)[_components(h)])

    def test_forest_on_disjoint_flux_ring_and_chain(self, monkeypatch):
        # a flux ring keeps one net phase, so its sector is solved complex
        # and the real chain beside it real
        ring = _ring(50, -np.exp(0.7j), np.zeros(50))
        chain = _ring(7, 0.0, np.ones(7))
        h = scipy.sparse.block_diag([chain, ring], format="csr")
        rows = np.repeat(np.arange(57), np.diff(h.indptr))
        root = matter_module._hooking_rounds(rows, h.indices, 57)
        assert np.array_equal(root, np.repeat([0, 7], [7, 50]))
        assert np.array_equal(_block_numbers(root), _components(h))
        seen = _record_blocks(monkeypatch)
        vals, vecs, _ = matter_module.lowest_by_sector(h, 9, DENSE_LIMIT)
        # dense sectors by their lowest diagonal entry: the ring's 0 first
        assert seen == [(np.dtype(complex), 50), (np.dtype(float), 7)]
        _assert_eigenpairs(h, vals, vecs)


def _counting_band(monkeypatch):
    """Wrap the banded Cholesky routines `matter` calls, real and complex;
    returns two lists that get one entry per factorisation and per solve."""
    factored, solves = [], []
    for names, calls in ((("dpbtrf", "zpbtrf"), factored), (("dpbtrs", "zpbtrs"), solves)):
        for name in names:
            routine = getattr(matter_module, name)
            monkeypatch.setattr(matter_module, name, lambda *a, routine=routine, calls=calls,
                                **kw: calls.append(1) or routine(*a, **kw))
    return factored, solves


def _cut_sectors(mat, dense_limit):
    """The CSR blocks `matter.lowest_by_sector` hands to shift-invert, cut
    with no solve."""
    blocks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matter_module, "shift_invert_lowest", lambda block, k, floor, layout:
                      blocks.append(block) or (np.zeros(k), np.eye(block.shape[0], k)))
        matter_module.lowest_by_sector(mat, 1, dense_limit)
    return blocks


class TestFloorShift:
    @pytest.mark.parametrize("charge", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("preset", ["dipole", "coulomb"])
    def test_sixty_level_dipole_solves(self, monkeypatch, preset, charge):
        # one slot and parity blocks of 1260 states, where the Gershgorin
        # shift lies more than 270 below E_0: about 700 solves from there
        model = build_anharmonic_dipole(60, 1.0, 1.0, 0.1, charge, 1.0)
        system = full_hamiltonian(model, make_gauge(preset), [lwl_mode(1.0, 1.0)], 42)
        assert len(system.slots) == 1 and np.isfinite(system.floor)
        calls = _sparse_blocks(monkeypatch)
        _, solves = _counting_band(monkeypatch)
        vals, _ = lowest_eigenpairs(system, k=2)
        blocks = [block for block, _ in calls]
        assert len(blocks) == 2 and min(b.shape[0] for b in blocks) > DENSE_LIMIT
        assert len(solves) <= 100
        # dense eigenvalues
        ref = np.sort(np.concatenate([
            scipy.linalg.eigh(b.toarray(), subset_by_index=(0, 1), eigvals_only=True)
            for b in blocks]))[:2]
        assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_false_floor_falls_back_to_gershgorin_shift(self, monkeypatch):
        # a floor above the spectrum makes the Cholesky factorisation fail,
        # so the block is factored again at the Gershgorin shift
        system = full_hamiltonian(dicke(40, 0.34), make_gauge("coulomb"), [lwl_mode(1.0, 1.0)], 60)
        block = _cut_sectors(system.h, DENSE_LIMIT)[0]
        vals, vecs = matter_module.shift_invert_lowest(block, 2)
        factored, _ = _counting_band(monkeypatch)
        false_vals, false_vecs = matter_module.shift_invert_lowest(block, 2, floor=vals[1] + 1.0)
        assert len(factored) == 2
        assert np.array_equal(false_vals, vals) and np.array_equal(false_vecs, vecs)


def _width(mat, order=None) -> int:
    """The half-bandwidth of ``mat`` with its states in ``order`` (its own
    order by default)."""
    coo = mat.tocoo()
    place = np.arange(mat.shape[0])
    if order is not None:
        place[order] = np.arange(mat.shape[0])
    return int(np.max(np.abs(place[coo.row] - place[coo.col]), initial=0))


def _band_width(mat) -> int:
    """The half-bandwidth of the band `matter._band` stores ``mat`` in."""
    return matter_module._band(mat)[1].shape[0] - 1


def _level_width(mat) -> int:
    return _width(mat, matter_module._level_order(mat.indptr, mat.indices, mat.shape[0]))


def _readme_block():
    system = full_hamiltonian(dicke(40, 0.34), make_gauge("dipole"), [lwl_mode(1.0, 1.0)], 60)
    return _cut_sectors(system.h, DENSE_LIMIT)[0]


def _two_slot_block():
    model = build_anharmonic_dipole(4, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3)
    system = full_hamiltonian(model, make_gauge("dipole"), [lwl_mode(1.0, 1.0)], 13)
    return _cut_sectors(system.h, DENSE_LIMIT)[0]


def _three_axis_sector():
    model = build_anharmonic_dipole(27, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3)
    return max(_cut_sectors(model.h_m.matrix, DENSE_MAX_DIM), key=lambda b: b.shape[0])


class TestBandCholesky:
    def test_level_order_narrows_a_ring_to_width_two(self):
        ring = build_ring_lattice(1500, 1.0, 1.0).h_m.matrix
        assert _width(ring) == 1499  # the closing bond wraps around
        assert _level_width(ring) == 2
        assert _band_width(ring) == 2

    def test_band_is_never_wider_than_the_natural_order(self):
        # a path, whose natural order is already the narrowest; a diagonal;
        # a random symmetric pattern; the README block, where the natural
        # order (31) beats the level order (41); and a flux ring
        rng = np.random.default_rng(17)
        pattern = scipy.sparse.random(400, 400, density=0.01, random_state=rng, format="csr")
        cases = [_ring(300, 0.0, np.ones(300)), scipy.sparse.identity(50, format="csr"),
                 (pattern + pattern.T + scipy.sparse.identity(400)).tocsr(), _readme_block(),
                 _ring(300, -np.exp(0.7j), np.zeros(300))]
        for mat in cases:
            width = _band_width(mat)
            assert width == min(_width(mat), _level_width(mat)) <= _width(mat)
        assert [matter_module._band(mat)[0] is None for mat in cases] == \
            [True, True, False, True, False]

    @pytest.mark.parametrize("cut, width", [(_readme_block, 41), (_two_slot_block, 107),
                                            (_three_axis_sector, 307)],
                             ids=["readme_block", "two_slot_block", "three_axis_sector"])
    def test_level_order_matches_reverse_cuthill_mckee(self, cut, width):
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        block = cut()
        assert _level_width(block) == width
        assert _width(block, reverse_cuthill_mckee(block, symmetric_mode=True)) == width

    def test_layout_once_per_pattern(self, monkeypatch):
        # the parity blocks of three README points share two patterns
        monkeypatch.setattr(matter_module, "_PLANS", {})
        ordered = []
        order = matter_module._level_order
        monkeypatch.setattr(matter_module, "_level_order",
                            lambda *a: ordered.append(1) or order(*a))
        for scale in (0.2, 0.3, 0.34):
            system = full_hamiltonian(dicke(40, scale), make_gauge("dipole"),
                                      [lwl_mode(1.0, 1.0)], 60)
            _assert_lowest(system, 2)
        assert len(ordered) == 2

    def test_ring_factor_holds_no_subnormal_entry(self, monkeypatch):
        # in level order the ring is a band of width 2 whose factor decays
        # along the band into subnormal fill, which the solver sets to zero
        ring = build_ring_lattice(1500, 1.0, 1.0).h_m.matrix.real.tocsr()
        factors, raw = [], []
        trf = matter_module.dpbtrf

        def factoring(band, **kwargs):
            raw.append(trf(band.copy(order="F"), **kwargs)[0])
            factors.append(trf(band, **kwargs))
            return factors[-1]

        monkeypatch.setattr(matter_module, "dpbtrf", factoring)
        vals, vecs = matter_module.shift_invert_lowest(ring, 1)
        assert abs(vals[0] + 2.0) <= 1e-12
        assert np.linalg.norm(ring @ vecs[:, 0] - vals[0] * vecs[:, 0]) <= 1e-10
        (factor, info), = factors
        tiny = np.finfo(float).tiny
        assert info == 0 and factor.shape == (3, 1500)
        assert not np.any((factor != 0.0) & (np.abs(factor) < tiny))
        assert np.any((raw[0] != 0.0) & (np.abs(raw[0]) < tiny))

    def test_flux_ring_runs_the_complex_routines(self, monkeypatch):
        dim = 500
        ring = _ring(dim, -np.exp(0.7j), 3.0 * np.random.default_rng(3).random(dim))
        counts = dict.fromkeys(("dpbtrf", "zpbtrf", "dpbtrs", "zpbtrs"), 0)
        for name in counts:
            routine = getattr(matter_module, name)
            monkeypatch.setattr(matter_module, name, lambda *a, name=name, routine=routine, **kw:
                                counts.update({name: counts[name] + 1}) or routine(*a, **kw))
        vals, vecs = matter_module.shift_invert_lowest(ring, 3)
        assert counts["dpbtrf"] == counts["dpbtrs"] == 0
        assert counts["zpbtrf"] == 1 and counts["zpbtrs"] > 0
        assert _band_width(ring) == 2
        ref = np.linalg.eigvalsh(ring.toarray())[:3]
        assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.max(np.linalg.norm(ring @ vecs - vecs * vals, axis=0)) <= 1e-10


class TestVariationalScan:
    def _setup(self, n, d, fock=60):
        model = dicke(n, d)
        gauge = make_gauge("dipole")
        mode = lwl_mode(nu=1.0, volume=1.0)
        system = full_hamiltonian(model, gauge, [mode], fock)
        spec = matter_spectrum(model)
        return model, gauge, mode, system, spec

    def test_zero_coupling_minimum_at_origin(self):
        model, gauge, mode, system, spec = self._setup(3, 0.0, fock=30)
        system = full_hamiltonian(model, gauge, [mode], 30, include_uncoupled=True)
        res = variational_scan(system, spec.ground_state_vector(), 0,
                               np.linspace(-1, 1, 41))
        assert res["beta_star"] == 0.0

    def test_coulomb_no_gain_anywhere(self):
        model = build_anharmonic_dipole(30, 1.0, 1.0, 0.0, 1.2, 1.0)
        gauge = make_gauge("coulomb")
        mode = lwl_mode(nu=1.0, volume=1.0)
        system = full_hamiltonian(model, gauge, [mode], 40)
        spec = matter_spectrum(model)
        grid = 1j * np.linspace(-1.5, 1.5, 31)
        res = variational_scan(system, spec.ground_state_vector(), 0, grid)
        assert res["energy_star"] >= res["energy_zero"] - 1e-12

    def test_supercritical_gain_matches_prediction(self):
        n = 20
        d = 1.5 * np.sqrt(1.0 / (2 * n))
        model, gauge, mode, system, spec = self._setup(n, d, fock=80)
        # symmetry-broken quasi-ground state: the mix of the doublet's two
        # parity eigenstates whose matter marginal has the largest |<G>|
        vals, vecs = lowest_eigenpairs(system, k=2)
        dims = system.slot_dims()
        g_op = system.slots[0].g_op.entries

        def marginal(phi):
            doublet = (vecs[:, 0] + np.exp(1j * phi) * vecs[:, 1]) / np.sqrt(2)
            rho_m = doublet.reshape(dims[0], -1)
            # matter marginal state of the broken doublet
            evals, evecs = np.linalg.eigh(rho_m @ rho_m.conj().T)
            psi_m = evecs[:, -1]
            return psi_m, complex(psi_m.conj() @ g_op @ psi_m)

        psi_m, g_val = max((marginal(phi) for phi in np.linspace(0.0, 2 * np.pi, 16,
                                                                 endpoint=False)),
                           key=lambda m: abs(m[1]))
        block = system.blocks[0]
        t = system.slots[0].tau_index
        beta_pred = -(mode.amplitude / block.nu_tau[t]) * g_val
        grid = 1j * np.linspace(-4.0, 4.0, 321)
        res = variational_scan(system, psi_m, 0, grid)
        assert res["energy_star"] < res["energy_zero"] - 1e-4
        assert abs(res["beta_star"]) == pytest.approx(abs(beta_pred), rel=0.10)


class TestConstrainedMin:
    def _setup(self, d=0.25):
        model = dicke(4, d)
        gauge = make_gauge("dipole")
        mode = lwl_mode(nu=1.0, volume=1.0)
        spec = gauge_spectrum(model, gauge, [mode])
        block = diagonalize_block(diamagnetic_D(model, gauge, mode), mode.nu)
        f_ops = tuple(coupling_f(model, gauge, mode, s) for s in (1, 2))
        x_ff = np.zeros((2, 2))
        from gaugecavity.bogoliubov import adapt_degenerate_branches
        from gaugecavity.response import lehmann_sum
        block = adapt_degenerate_branches(block, lehmann_sum(spec, f_ops))
        g_exact = exact_branch_coupling(block, f_ops)
        return spec, mode, block, f_ops, g_exact

    def test_zero_target(self):
        spec, mode, block, f_ops, g_exact = self._setup()
        res = constrained_min(spec, g_exact[0], mode, block, "+", 0.0)
        assert res.energy == spec.ground_energy()

    def test_quadratic_agreement_with_stiffness(self):
        spec, mode, block, f_ops, g_exact = self._setup()
        db = 0.01j  # beta_hat is anti-Hermitian here: imaginary displacements
        closed = stiffness_energy(spec, mode, block, [db, 0.0], f_ops)
        res = constrained_min(spec, g_exact[0], mode, block, "+", db)
        rel = abs(res.energy - closed.energy) / closed.energy_increase
        assert rel <= 1e-3

    def test_parity_symmetric_remainder_is_quartic(self):
        # parity makes the constrained energy even in the displacement, so
        # halving the displacement scales the remainder by 2^4
        spec, mode, block, f_ops, g_exact = self._setup()

        def err(db):
            closed = stiffness_energy(spec, mode, block, [db, 0.0], f_ops)
            res = constrained_min(spec, g_exact[0], mode, block, "+", db)
            return abs(res.energy - closed.energy)

        ratio = err(0.01j) / err(0.005j)
        assert 14.0 <= ratio <= 18.0

    def test_cubic_remainder_on_tilted_oscillator(self):
        # a weak x^3 tilt breaks parity: the leading remainder is cubic and
        # halving the displacement scales the error by 2^3
        import dataclasses
        from gaugecavity.bogoliubov import adapt_degenerate_branches, coupling_g
        from gaugecavity.response import lehmann_sum

        base = build_anharmonic_dipole(50, 1.0, 1.0, 0.0, 1.0, 1.0)
        x = -base.dipole_ops[0].entries
        h = base.h_m.entries + 0.02 * np.linalg.matrix_power(x, 3)
        model = dataclasses.replace(base, h_m=Operator(0.5 * (h + h.conj().T),
                                                       hermitian=True))
        mode = lwl_mode(nu=1.0, volume=1.0)
        gauge = make_gauge("dipole")
        spec = matter_spectrum(model)
        block = diagonalize_block(diamagnetic_D(model, gauge, mode), mode.nu)
        f_ops = tuple(coupling_f(model, gauge, mode, s) for s in (1, 2))
        block = adapt_degenerate_branches(block, lehmann_sum(spec, f_ops))
        g_ops = coupling_g(block, f_ops)

        def err(db):
            closed = stiffness_energy(spec, mode, block, [db, 0.0], f_ops)
            res = constrained_min(spec, g_ops[0], mode, block, "+", db)
            return abs(res.energy - closed.energy), closed.energy_increase

        e1, inc = err(0.01j)
        e2, _ = err(0.005j)
        assert e1 / inc <= 1e-3
        assert 6.0 <= e1 / e2 <= 10.0

    def test_sign_flip_symmetry(self):
        spec, mode, block, f_ops, g_exact = self._setup()
        e_plus = constrained_min(spec, g_exact[0], mode, block, "+", 0.01j).energy
        e_minus = constrained_min(spec, g_exact[0], mode, block, "+", -0.01j).energy
        assert e_plus == pytest.approx(e_minus, abs=1e-10)

    def test_constraint_residual_reported(self):
        spec, mode, block, f_ops, g_exact = self._setup()
        res = constrained_min(spec, g_exact[0], mode, block, "+", 0.02j)
        assert res.constraint_residual <= 1e-10


class TestGaugeInvariance:
    def test_report_converged_energies(self):
        mode = lwl_mode(nu=1.0, volume=1.0)

        def build(levels):
            return build_anharmonic_dipole(levels, 1.0, 1.0, 0.05, 0.4, 1.0)

        report = gauge_invariance_report(build, mode, [20, 30], [20, 30])
        assert report.relative_difference <= 1e-6
        assert report.et_norm_coulomb <= 1e-9
        assert report.et_norm_dipole <= 1e-9

    def test_zero_coupling_exact_equality(self):
        mode = lwl_mode(nu=1.0, volume=1.0)

        def build(levels):
            return build_anharmonic_dipole(levels, 1.0, 1.0, 0.0, 0.0, 1.0)

        report = gauge_invariance_report(build, mode, [10], [10])
        assert abs(report.energy_difference) <= 1e-12


def adaptive_fock_cutoff(model, gauge, mode, start=8, limit=256, atol=1e-9):
    """Smallest cutoff at which the ground energy moves less than atol."""
    prev = None
    n = start
    while n <= limit:
        system = full_hamiltonian(model, gauge, [mode], n)
        energy, _ = ground_state(system)
        if prev is not None and abs(energy - prev) < atol:
            return n
        prev = energy
        n = max(n + 4, int(n * 1.5))
    raise NumericError(f"ground energy not converged at cutoff {limit}")


def test_adaptive_fock_cutoff_converges():
    model = dicke(4, 0.2)
    cutoff = adaptive_fock_cutoff(model, make_gauge("dipole"),
                                  lwl_mode(1.0, 1.0), start=6, limit=64)
    assert 6 <= cutoff <= 64
