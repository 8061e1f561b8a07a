"""The two ground-resolvent backends behind `matter.ground_resolvent`.

The dense backend is the full eigendecomposition (`matter_spectrum`).
Above DENSE_MAX_DIM states `matter.lowest_by_sector` finds the ground
state sector by sector, and the resolvent (`SectorResolvent`) solves each
touched sector: dense up to DENSE_MAX_DIM states, and above by a banded
Cholesky factorisation of H_s - E_0, or in the ground sector of H_s - E_0
just below the gap with iterative refinement.
Each comparison of the dense and sector backends checks that the sector
one is the backend `ground_resolvent` picks (`_sectored`); the sector
tests check the rule as well.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from gaugecavity import cli, matter, operators, oracle
from gaugecavity.bogoliubov import diagonalize_block
from gaugecavity.criterion import coulomb_specialized, evaluate, stiffness_energy
from gaugecavity.errors import ArgumentError, DegenerateGroundStateError, NumericError
from gaugecavity.gauge import (coupling_f, coupling_rows, diamagnetic_D,
                               dressed_matter_hamiltonian, lwl_mode, make_gauge, mode_from_q,
                               ring_mode)
from gaugecavity.matter import (DENSE_MAX_DIM, MatterSpectrum, SectorResolvent,
                                build_anharmonic_dipole, build_ring_lattice,
                                build_two_level_ensemble, ground_resolvent, lowest_by_sector,
                                matter_spectrum, ring_quasi_momentum, trk_sum)
from gaugecavity.operators import Operator
from gaugecavity.response import (check_translational_invariance, chi_md_from_model, lehmann_sum,
                                  polarizability)
from test_oracle import record_band_slicing

GAUGES = {"coulomb": make_gauge("coulomb"), "dipole": make_gauge("dipole"),
          "alpha_0.4": make_gauge("alpha_lwl", alpha=0.4)}
MODES = {"q_z": lwl_mode(1.0, 1.0), "q_oblique": mode_from_q((1.0, 2.0, 0.5), 1.0)}
THREE_AXIS = build_anharmonic_dipole(6, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3)
# 2 N d^2 / (V gap) = 2.16: the dipole gauge condenses
ENSEMBLE = build_two_level_ensemble(DENSE_MAX_DIM + 100, 1.0, (0.0, 0.06, 0.0), 1.0)
REPORT_FIELDS = ("lhs", "rhs", "electric_part", "magnetic_part", "margin", "beta0")


def _sectored(model, h=None):
    """The backend `ground_resolvent` picks above DENSE_MAX_DIM states,
    checked to be the sector backend."""
    ground = ground_resolvent(model, h)
    assert type(ground) is SectorResolvent
    return ground


def _assert_backends_agree(model, gauge, mode):
    """Reports agree within 1e-12 relative; values at rounding noise stay
    at or below 1e-12 in magnitude on both sides."""
    h = dressed_matter_hamiltonian(model, gauge, [mode])
    dense = evaluate(model, gauge, mode, spectrum=matter_spectrum(model, h))
    sparse = evaluate(model, gauge, mode, spectrum=_sectored(model, h))
    for d, s in zip(dense, sparse):
        for name in REPORT_FIELDS:
            a, b = getattr(d, name), getattr(s, name)
            if abs(a) > 1e-12:
                assert abs(a - b) <= 1e-12 * abs(a), (d.tau, name, a, b)
            else:
                assert abs(b) <= 1e-12, (d.tau, name, a, b)
        assert d.condensed == s.condensed


class TestBackendsAgree:
    @pytest.mark.parametrize("mode_name", sorted(MODES))
    @pytest.mark.parametrize("gauge_name", sorted(GAUGES))
    def test_three_axis_dipole(self, gauge_name, mode_name):
        _assert_backends_agree(THREE_AXIS, GAUGES[gauge_name], MODES[mode_name])

    @pytest.mark.parametrize("gauge_name", sorted(GAUGES))
    def test_ensemble_above_dense_limit(self, gauge_name):
        assert ENSEMBLE.dim > DENSE_MAX_DIM
        _assert_backends_agree(ENSEMBLE, GAUGES[gauge_name], MODES["q_z"])

    def test_ensemble_verdicts(self):
        # the bare Dicke ground energy is exactly 0, which the solver must not miss
        ground = _sectored(ENSEMBLE)
        assert abs(ground.ground_energy()) <= 1e-12
        assert evaluate(ENSEMBLE, GAUGES["dipole"], MODES["q_z"], spectrum=ground)[0].condensed
        assert not any(r.condensed for r in evaluate(ENSEMBLE, GAUGES["coulomb"],
                                                     MODES["q_z"], spectrum=ground))

    def test_trk_sum(self):
        dense = trk_sum(matter_spectrum(THREE_AXIS), 2)
        assert abs(trk_sum(_sectored(THREE_AXIS), 2) - dense) <= 1e-12 * dense

    def test_backend_chosen_by_dimension(self):
        at_limit = build_two_level_ensemble(DENSE_MAX_DIM - 1, 1.0, (0.0, 0.1, 0.0), 1.0)
        above = build_two_level_ensemble(DENSE_MAX_DIM, 1.0, (0.0, 0.1, 0.0), 1.0)
        assert isinstance(ground_resolvent(at_limit), MatterSpectrum)
        # the Dicke h_m is diagonal: 201 sectors of one state each
        assert isinstance(ground_resolvent(above), SectorResolvent)
        # a ring is one connected sector of all its sites
        ring = build_ring_lattice(DENSE_MAX_DIM + 50, 1.0, 1.0)
        assert isinstance(ground_resolvent(ring), SectorResolvent)
        assert not ground_resolvent(ring).sector_of.any()


def _assert_agree(a, b, scale=None):
    """a and b agree entrywise within 1e-12 of ``scale``, by default the
    largest magnitude in a."""
    a, b = np.asarray(a), np.asarray(b)
    scale = np.max(np.abs(a)) if scale is None else scale
    assert np.max(np.abs(a - b)) <= 1e-12 * scale, (a, b)


def _both_backends(model, gauge, mode):
    h = dressed_matter_hamiltonian(model, gauge, [mode])
    return matter_spectrum(model, h), _sectored(model, h)


class TestStaticResponsesOnBothBackends:
    @pytest.mark.parametrize("model", [THREE_AXIS, ENSEMBLE], ids=["three_axis", "ensemble"])
    @pytest.mark.parametrize("gauge_name", sorted(GAUGES))
    def test_lehmann_sum(self, gauge_name, model):
        gauge, mode = GAUGES[gauge_name], MODES["q_oblique"]
        grounds = _both_backends(model, gauge, mode)
        ops = [coupling_f(model, gauge, mode, s) for s in (1, 2)]
        for c_ops in (None, list(model.dipole_ops)):
            _assert_agree(*(lehmann_sum(ground, ops, c_ops) for ground in grounds))

    # the ensemble's dipole has one axis, so only one branch can be displaced
    @pytest.mark.parametrize("model, dbeta", [(THREE_AXIS, (0.1, 0.05j)), (ENSEMBLE, (0.1, 0.0))],
                             ids=["three_axis", "ensemble"])
    def test_stiffness_and_coulomb_specialized(self, model, dbeta):
        gauge, mode = GAUGES["coulomb"], MODES["q_z"]
        dense, sparse = _both_backends(model, gauge, mode)
        block = diagonalize_block(diamagnetic_D(model, gauge, mode), mode.nu)
        ops = [coupling_f(model, gauge, mode, s) for s in (1, 2)]
        a, b = (stiffness_energy(ground, mode, block, dbeta, ops)
                for ground in (dense, sparse))
        for name in ("energy", "energy_increase", "lagrange_fields", "chi_ff_branch"):
            _assert_agree(getattr(a, name), getattr(b, name))
        a, b = (coulomb_specialized(model, gauge, mode, spectrum=ground)
                for ground in (dense, sparse))
        # lhs is the paramagnetic response plus chi_Md, which cancel to rounding
        chi_d = abs(chi_md_from_model(model, mode.nu))
        for name in ("lhs", "cross_check_residual"):
            _assert_agree(getattr(a, name), getattr(b, name), scale=chi_d)
        assert a.condensed == b.condensed

    def test_ring_translational_invariance(self):
        ring = build_ring_lattice(DENSE_MAX_DIM + 50, 1.0, 1.0)
        dense, sparse = matter_spectrum(ring), ground_resolvent(ring)
        # the ring's gap is 6.3e-4 of a bandwidth of 4, and the refined
        # banded solve still holds the response within 1e-11
        q1, q2 = ring_quasi_momentum(ring, 1), ring_quasi_momentum(ring, 2)
        same = check_translational_invariance(dense, q1, q1)
        assert abs(check_translational_invariance(sparse, q1, q1) - same) <= 1e-11 * same
        for ground in (dense, sparse):
            assert check_translational_invariance(ground, q1, q2) <= 1e-11 * same

    @pytest.mark.parametrize("preset", ["coulomb", "multipolar_ring"])
    def test_ring_criterion_matches_dense(self, preset):
        # both ring gauges at the first quasi-momentum on one 250-site sector
        ring = build_ring_lattice(DENSE_MAX_DIM + 50, 1.0, 1.0)
        gauge, mode = make_gauge(preset), ring_mode(ring, 1)
        h = dressed_matter_hamiltonian(ring, gauge, [mode])
        assert isinstance(ground_resolvent(ring, h), SectorResolvent)
        assert not ground_resolvent(ring, h).sector_of.any()
        dense = evaluate(ring, gauge, mode, spectrum=matter_spectrum(ring, h))
        sparse = evaluate(ring, gauge, mode, spectrum=ground_resolvent(ring, h))
        # the ring moves along one axis, so one branch does not couple
        scale = max(abs(d.lhs) for d in dense)
        for d, s in zip(dense, sparse, strict=True):
            assert abs(d.lhs - s.lhs) <= 1e-11 * scale, (d.tau, d.lhs, s.lhs)


def _gram_columns(model, case):
    """Column blocks built on the ground vector g of ``model`` from
    `ground_resolvent`, and the rank of their Q-projection."""
    g = ground_resolvent(model).ground_state_vector()
    dx, dy = (op.matrix @ g for op in model.dipole_ops[:2])
    j = model.current_along(matter.X_AXIS).matrix  # Hermitian, purely imaginary
    zero = np.zeros_like(g)
    return {
        "duplicate": ([dx, dy, dx], 2),
        # a Hermitian f's f^dag|0>, read off the bra <0|f, and f|0>
        "conjugate_duplicate": ([(g.conj() @ j).conj(), j @ g], 1),
        "zero_columns": ([zero, dx, zero], 1),
        "all_zero": ([dx, dy], 0),
        "full_rank": ([dx, dy, j @ g], 3),
    }[case]


@pytest.mark.parametrize("case", ["duplicate", "conjugate_duplicate", "zero_columns",
                                  "all_zero", "full_rank"])
def test_sparse_gram_solves_once_per_independent_column(monkeypatch, case):
    # the all-zero block is the ensemble at dipole_scale 0; whatever the
    # rank, the resolvent factors each sector the projected columns touch
    # once, and no other.  Both models split into sectors of at most
    # DENSE_MAX_DIM states, so their ground states need no sparse
    # factorisation
    model = THREE_AXIS if case != "all_zero" else \
        build_two_level_ensemble(DENSE_MAX_DIM + 100, 1.0, (0.0, 0.0, 0.0), 1.0)
    assert model.dim > DENSE_MAX_DIM
    cols, rank = _gram_columns(model, case)
    cols = np.stack(cols, axis=1)
    dense = matter_spectrum(model).gram(cols)
    factored = []
    for name in ("dposv", "zposv"):
        posv = getattr(matter, name)
        monkeypatch.setattr(matter, name, lambda a, *args, posv=posv, **kw:
                            factored.append(a.shape) or posv(a, *args, **kw))
    ground = _sectored(model)
    sparse = ground.gram(cols)
    g = ground.ground_state_vector()
    projected = cols - np.outer(g, g.conj() @ cols)
    sizes = np.bincount(ground.sector_of)
    touched = np.unique(ground.sector_of[np.flatnonzero(projected.any(axis=1))])
    assert sorted(factored) == sorted((s, s) for s in sizes[touched])
    assert np.linalg.matrix_rank(projected, tol=1e-12 * max(1.0, np.max(np.abs(cols)))) == rank
    if rank == 0:
        assert not sparse.any() and np.max(np.abs(dense)) <= 1e-12
    else:
        _assert_agree(dense, sparse)


def test_complex_hamiltonian_on_sparse_backend():
    # a complex Hermitian band of 250 states, one connected sector
    dim, rng = DENSE_MAX_DIM + 50, np.random.default_rng(17)
    offsets = (1, 2, 3)
    bands = [rng.standard_normal(dim - o) + 1j * rng.standard_normal(dim - o) for o in offsets]
    h = scipy.sparse.diags([4.0 * rng.random(dim), *bands, *(b.conj() for b in bands)],
                           [0, *offsets, *(-o for o in offsets)], format="csr")
    model = build_two_level_ensemble(dim - 1, 1.0, (0.0, 0.1, 0.0), 1.0)
    model = dataclasses.replace(model, h_m=Operator(h, hermitian=True))
    ground, dense = ground_resolvent(model), matter_spectrum(model)
    assert type(ground) is SectorResolvent and not ground.sector_of.any()
    assert ground.ground_state_vector().imag.any()
    assert abs(ground.ground_energy() - dense.ground_energy()) <= \
        1e-12 * abs(dense.ground_energy())
    assert abs(ground.ground_gap - dense.ground_gap) <= 1e-12 * dense.ground_gap
    overlap = abs(np.vdot(dense.ground_state_vector(), ground.ground_state_vector()))
    assert abs(overlap - 1.0) <= 1e-12
    cols = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    _assert_agree(dense.gram(cols), ground.gram(cols))


@pytest.mark.parametrize("gauge_name", sorted(GAUGES))
def test_full_hamiltonian_needs_no_eigh(monkeypatch, gauge_name):
    gauge, mode = GAUGES[gauge_name], MODES["q_z"]
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "ground_resolvent", matter_spectrum)
        dense = oracle.full_hamiltonian(ENSEMBLE, gauge, [mode], 6)
    calls = []

    def counted(h):
        calls.append(h)
        return operators.eigh(h)

    for mod in (matter, oracle):
        monkeypatch.setattr(mod, "eigh", counted)
    system = oracle.full_hamiltonian(ENSEMBLE, gauge, [mode], 6)
    assert calls == []
    for a, b in zip(dense.blocks, system.blocks, strict=True):
        _assert_agree(a.coeffs, b.coeffs)
        _assert_agree(a.u, b.u)
    assert abs(dense.h - system.h).max() <= 1e-12 * abs(dense.h).max()
    _assert_agree(oracle.ground_state(dense)[0], oracle.ground_state(system)[0])


def _degenerate_ring():
    """A 250-site ring whose closing bond is flipped: flux pi through it
    leaves a doubly degenerate ground on one sector of all its sites."""
    sites = DENSE_MAX_DIM + 50
    return build_ring_lattice(sites, 1.0, 1.0, bond_scale={sites - 1: -1.0})


# one sector above DENSE_MAX_DIM states, so `ground_resolvent` runs shift-invert
RING = build_ring_lattice(DENSE_MAX_DIM + 50, 1.0, 1.0)


class TestSparseFailures:
    def test_zero_ground_vector_raises(self):
        # a zero ground vector projects nothing out of the ring's one
        # sector, so the refinement's step contracts nothing along the true
        # ground vector: at the ring's gap of 6.3e-4 and delta = 2e-9 its
        # bound is 2 * 3 steps
        ground = dataclasses.replace(ground_resolvent(RING),
                                     vector=np.zeros(RING.dim, dtype=complex))
        with pytest.raises(NumericError, match="^the ground-sector resolvent did not converge "
                                               "in 6 refinement steps$"):
            ground.gram(np.ones((RING.dim, 2)))

    def test_lanczos_failure_raises_and_cli_exits_one(self, monkeypatch, tmp_path, capsys):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0),
                                      np.zeros((0, 0)))

        monkeypatch.setattr(matter, "eigsh", no_convergence)
        with pytest.raises(NumericError, match="^shift-invert Lanczos failed to converge"):
            ground_resolvent(RING)
        path = tmp_path / "cfg.json"
        # 11 levels per axis make parity sectors of up to 6 ** 3 = 216 states,
        # more than DENSE_MAX_DIM, so the sweep runs the sparse solver
        path.write_text(json.dumps({
            "model": {"kind": "anharmonic_dipole", "levels": 11, "mass": 1.0, "frequency": 1.0,
                      "quartic": 0.1, "charge": 0.5, "volume": 1.0, "axes": 3},
            "gauge": {"preset": "coulomb"}, "modes": [{"nu": 1.0}],
            "sweep": {"parameter": "charge", "values": [0.5]}}))
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "runtime error: shift-invert Lanczos failed to converge" in \
            capsys.readouterr().err

    def test_lanczos_finds_exact_zero_ground_energies(self):
        # unshifted, ARPACK returns 1 and 2 for diag(0, 1, ..., 300)
        vals, _ = matter.shift_invert_lowest(scipy.sparse.diags(np.arange(301.0), format="csr"), 2)
        assert np.max(np.abs(vals - [0.0, 1.0])) <= 1e-12
        # every row of a path Laplacian sums to 0, so the uniform vector is its
        # ground state; from that start, unshifted, ARPACK stops with error -9
        dim = 100
        main = np.full(dim, 2.0)
        main[[0, -1]] = 1.0
        lap = scipy.sparse.diags([-np.ones(dim - 1), main, -np.ones(dim - 1)], [-1, 0, 1],
                                 format="csr")
        vals, vecs = matter.shift_invert_lowest(lap, 2)
        assert np.max(np.abs(vals - (2.0 - 2.0 * np.cos(np.pi * np.arange(2) / dim)))) <= 1e-12
        assert np.allclose(np.abs(vecs[:, 0]), 1.0 / np.sqrt(dim), atol=1e-10)

    def test_any_arpack_error_raises_numeric_error(self, monkeypatch):
        def zero_start(*args, **kwargs):
            raise ArpackError(-9)

        monkeypatch.setattr(matter, "eigsh", zero_start)
        with pytest.raises(NumericError, match="ARPACK error -9"):
            ground_resolvent(RING)
        model = build_two_level_ensemble(40, 1.0, (0.0, 0.34, 0.0), 1.0)
        system = oracle.full_hamiltonian(model, GAUGES["dipole"], [MODES["q_z"]], 60)
        with pytest.raises(NumericError, match="ARPACK error -9"):
            oracle.lowest_eigenpairs(system, k=2)

    def test_degenerate_ground_rejected_by_both_backends(self):
        model = _degenerate_ring()
        for backend in (matter_spectrum, ground_resolvent):
            with pytest.raises(DegenerateGroundStateError):
                evaluate(model, GAUGES["coulomb"], ring_mode(model, 1), spectrum=backend(model))

    def test_degenerate_ground_refused_at_construction(self):
        # the k = 2 shift-invert gap of a doubly degenerate ground is at rounding level
        with pytest.raises(DegenerateGroundStateError, match="ground state is degenerate"):
            ground_resolvent(_degenerate_ring())

    def test_trk_sum_above_ground_refuses_the_sparse_backend(self):
        with pytest.raises(ArgumentError, match="MatterSpectrum"):
            trk_sum(_sectored(THREE_AXIS), 0, reference_level=1)

    def test_polarizability_refuses_the_sparse_backend(self):
        with pytest.raises(ArgumentError, match="MatterSpectrum"):
            polarizability(_sectored(THREE_AXIS))


def _counting(counts, name, original):
    """``original``, counting its calls in counts[name]."""
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)
    return wrapper


def _sweep_config(levels):
    return cli.validate_config(json.dumps({
        "model": {"kind": "anharmonic_dipole", "levels": levels, "mass": 1.0, "frequency": 1.0,
                  "quartic": 0.1, "charge": 0.5, "volume": 1.0, "axes": 3},
        "gauge": [{"preset": "dipole"}, {"preset": "coulomb"}],
        "modes": [{"nu": 1.0}],
        "sweep": {"parameter": "charge", "values": [0.2, 0.4, 0.6]},
    }))


def test_sweep_above_dense_limit_solve_counts(monkeypatch, tmp_path):
    # one shift-invert run per distinct Hamiltonian: 3 points of the dipole
    # gauge, and the Coulomb gauge's h_m, which the charge leaves
    # unchanged; each makes one banded Cholesky factorisation of
    # H - sigma I for the eigensolver; 11 levels per axis make a parity
    # sector of 216 states, the only one shift-invert solves, and the Gram
    # columns, the invariant check's TRK solve on the first resolvent
    # included, touch only the sectors of 180 states or fewer, which are
    # solved dense
    counts = {"eigh": 0, "eigsh": 0, "pbtrf": 0}

    for mod in (operators, matter):
        monkeypatch.setattr(mod, "eigh", _counting(counts, "eigh", operators.eigh))
    monkeypatch.setattr(matter, "eigsh", _counting(counts, "eigsh", matter.eigsh))
    for name in ("dpbtrf", "zpbtrf"):
        monkeypatch.setattr(matter, name, _counting(counts, "pbtrf", getattr(matter, name)))
    # the largest parity sector holds 6 ** 3 states
    assert 11 ** 3 > DENSE_MAX_DIM and 6 ** 3 > DENSE_MAX_DIM
    cli.run_sweep(_sweep_config(11), str(tmp_path / "out"))
    assert counts == {"eigh": 0, "eigsh": 3 + 1, "pbtrf": 3 + 1}


def test_mixed_sectors_solve_only_the_large_one_sparse(monkeypatch):
    # 11 levels per axis: the ground sector of the bare h_m holds 6 ** 3 =
    # 216 states, past DENSE_MAX_DIM, beside sectors of 180, 150 and 125
    model = build_anharmonic_dipole(11, 1.0, 1.0, 0.1, 0.5, 1.0, axes=3)
    solved = []
    solve = matter.shift_invert_lowest
    monkeypatch.setattr(matter, "shift_invert_lowest", lambda block, k, floor, layout:
                        solved.append(block.shape[0]) or solve(block, k, floor, layout=layout))
    ground = ground_resolvent(model)
    assert solved == [6 ** 3] and type(ground) is SectorResolvent
    assert sorted(set(np.bincount(lowest_by_sector(model.h_m.matrix, 1, DENSE_MAX_DIM)[2]))) \
        == [5 ** 3, 6 * 5 ** 2, 6 ** 2 * 5, 6 ** 3]
    dense = matter_spectrum(model)
    _assert_agree(dense.ground_state_vector(), ground.ground_state_vector(), scale=1.0)
    _assert_matches_dense(model, GAUGES["coulomb"], MODES["q_z"], dense, ground)


class TestLargeSectors:
    """`SectorResolvent.gram` on sectors above DENSE_MAX_DIM states: a
    banded Cholesky factorisation at E_0 outside the ground sector, and
    iterative refinement on one just below E_0 inside it."""

    def test_oblique_dipole_gram_matches_full_spectrum(self):
        # the oblique mode's self-energy merges the parity sectors of the
        # 11-level 3-axis dipole into two of 665 and 666 states; the
        # coupling columns lie in the 665-state one, which does not hold the
        # ground, and a column on every state touches both
        model = build_anharmonic_dipole(11, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3)
        gauge, mode = GAUGES["dipole"], MODES["q_oblique"]
        h = dressed_matter_hamiltonian(model, gauge, [mode])
        ground, dense = ground_resolvent(model, h), matter_spectrum(model, h)
        sizes = np.bincount(ground.sector_of)
        assert sorted(sizes) == [665, 666]
        assert sizes[ground.sector_of[np.argmax(np.abs(ground.vector))]] == 666
        bras, kets = coupling_rows(model, gauge, mode, dense.ground_state_vector())
        spread = np.random.default_rng(8).standard_normal((model.dim, 2)) @ [1.0, 1j]
        for cols in (np.column_stack([bras.conj().T, kets.T]),
                     np.column_stack([bras.conj().T, kets.T, spread])):
            _assert_agree(dense.gram(cols), ground.gram(cols))

    @pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-8])
    def test_ground_sector_refinement_at_small_gaps(self, gap):
        # a flux-pi ring is degenerate, and a cos potential of strength s
        # splits its ground pair by about s; rounding limits both backends
        # to about d eps ||H|| / gap of the Gram matrix, which holds
        # |<1|c>|^2 / gap
        sites = DENSE_MAX_DIM + 50
        ring = _degenerate_ring()
        potential = scipy.sparse.diags(gap * np.cos(2 * np.pi * (np.arange(sites) + 0.25) / sites))
        model = dataclasses.replace(ring, h_m=Operator(ring.h_m.matrix + potential,
                                                       hermitian=True))
        ground, dense = ground_resolvent(model), matter_spectrum(model)
        assert abs(dense.ground_gap - gap) <= 0.01 * gap
        assert type(ground) is SectorResolvent and not ground.sector_of.any()
        cols = np.random.default_rng(3).standard_normal((sites, 6)) @ np.kron([1.0, 1j], np.eye(3)).T
        a, b = dense.gram(cols), ground.gram(cols)
        bound = sites * np.finfo(float).eps * np.max(np.abs(dense.energies)) / dense.ground_gap
        assert np.max(np.abs(a - b)) <= bound * np.max(np.abs(a)), (np.max(np.abs(a - b)), bound)

    def test_ground_energy_above_a_large_sector_raises(self):
        # E_0 raised past the lowest level of the 665-state sector, which
        # holds E_1: H_s - E_0 is indefinite there and its banded Cholesky
        # factorisation fails
        model = build_anharmonic_dipole(11, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3)
        h = dressed_matter_hamiltonian(model, GAUGES["dipole"], [MODES["q_oblique"]])
        ground = ground_resolvent(model, h)
        bad = dataclasses.replace(ground, lowest=ground.lowest + 1.5 * ground.ground_gap)
        g = ground.ground_state_vector()
        cols = np.column_stack([op.matrix @ g for op in model.dipole_ops])
        assert not cols[ground.sector_of == ground.sector_of[np.argmax(np.abs(g))]].any()
        with pytest.raises(NumericError, match=r"^a resolvent block is not positive definite "
                                               r"\(LAPACK pbtrf\)$"):
            bad.gram(cols)


def test_large_model_memory():
    # one dense complex d x d matrix at d = 16^3 = 4096 is 268 MB
    tracemalloc.start()
    try:
        model = build_anharmonic_dipole(16, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3)
        for preset in ("coulomb", "dipole"):
            evaluate(model, make_gauge(preset), lwl_mode(1.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


# -- the sector backend ------------------------------------------------------

SECTOR_MODELS = {
    # per-axis parity sectors of at most 4 ** 3 = 64 and 5 ** 3 = 125 states
    "three_axis_343": build_anharmonic_dipole(7, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3),
    "three_axis_1000": build_anharmonic_dipole(10, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3),
    # a diagonal h_m: one state per sector
    "ensemble_201": build_two_level_ensemble(DENSE_MAX_DIM, 1.0, (0.0, 0.06, 0.0), 1.0),
    "ensemble_1001": build_two_level_ensemble(1000, 1.0, (0.0, 0.03, 0.0), 1.0),
}


def _has_large_sector(model_name, gauge_name, mode_name):
    """Whether a sector holds more than DENSE_MAX_DIM states.  An oblique
    mode's self-energy couples the axes, which leaves only the two
    total-parity sectors: 171 and 172 states at d = 343, 500 each at
    d = 1000."""
    merged = mode_name == "q_oblique" and gauge_name != "coulomb"
    return merged and model_name == "three_axis_1000"


def _assert_matches_dense(model, gauge, mode, dense, ground):
    """E_0, the gap, the ground vector, `gram`, `trk_sum` and `evaluate` of
    ``ground`` agree with the full spectrum ``dense`` within 1e-12."""
    assert abs(ground.ground_energy() - dense.ground_energy()) <= \
        1e-12 * max(1.0, abs(dense.ground_energy()))
    assert abs(ground.ground_gap - dense.ground_gap) <= 1e-12 * dense.ground_gap
    if np.bincount(ground.sector_of).max() <= DENSE_MAX_DIM:
        # the phase convention of operators.eigh, on dense sector solves
        _assert_agree(dense.ground_state_vector(), ground.ground_state_vector(), scale=1.0)
    # the criterion's coupling columns, a zero column and a column on every state
    g = dense.ground_state_vector()
    bras, kets = coupling_rows(model, gauge, mode, g)
    spread = np.random.default_rng(5).standard_normal((model.dim, 2)) @ [1.0, 1j]
    cols = np.column_stack([bras.conj().T, kets.T, np.zeros(model.dim), spread])
    _assert_agree(dense.gram(cols), ground.gram(cols))
    if model.momentum_ops is not None:
        for axis in range(3):
            want = trk_sum(dense, axis)
            assert abs(trk_sum(ground, axis) - want) <= 1e-12 * want
    for d, s in zip(evaluate(model, gauge, mode, spectrum=dense),
                    evaluate(model, gauge, mode, spectrum=ground), strict=True):
        for name in REPORT_FIELDS:
            a, b = getattr(d, name), getattr(s, name)
            assert abs(a - b) <= 1e-12 * max(abs(a), 1.0), (d.tau, name, a, b)
        assert d.condensed == s.condensed


class TestSectorBackend:
    @pytest.mark.parametrize("model_name, mode_name, gauge_names", [
        ("three_axis_343", "q_z", sorted(GAUGES)),
        ("three_axis_1000", "q_z", sorted(GAUGES)),
        ("ensemble_201", "q_z", sorted(GAUGES)),
        ("ensemble_1001", "q_z", sorted(GAUGES)),
        ("three_axis_343", "q_oblique", sorted(GAUGES)),
        # the Coulomb gauge's h_m is the bare one of the q_z case
        ("three_axis_1000", "q_oblique", ["alpha_0.4", "dipole"]),
    ], ids=["three_axis_343", "three_axis_1000", "ensemble_201", "ensemble_1001",
            "three_axis_343_oblique", "three_axis_1000_oblique"])
    def test_agrees_with_full_spectrum(self, model_name, mode_name, gauge_names):
        model, mode = SECTOR_MODELS[model_name], MODES[mode_name]
        dense = {}
        for gauge_name in gauge_names:
            gauge = GAUGES[gauge_name]
            h = dressed_matter_hamiltonian(model, gauge, [mode])
            ground = ground_resolvent(model, h)
            assert type(ground) is SectorResolvent
            assert (np.bincount(ground.sector_of).max() > DENSE_MAX_DIM) == \
                _has_large_sector(model_name, gauge_name, mode_name)
            # an ensemble's h_m carries no self-energy: one spectrum serves every gauge
            if id(h) not in dense:
                dense[id(h)] = matter_spectrum(model, h)
            _assert_matches_dense(model, gauge, mode, dense[id(h)], ground)

    def test_complex_sectors(self):
        # two dense complex Hermitian blocks of 120 and 130 states
        rng = np.random.default_rng(11)
        blocks = []
        for size in (120, 130):
            a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            blocks.append(a + a.conj().T)
        model = build_two_level_ensemble(249, 1.0, (0.0, 0.1, 0.0), 1.0)
        model = dataclasses.replace(model, h_m=Operator(scipy.sparse.block_diag(blocks),
                                                        hermitian=True))
        ground, dense = ground_resolvent(model), matter_spectrum(model)
        assert type(ground) is SectorResolvent
        assert np.bincount(ground.sector_of).tolist() == [120, 130]
        assert ground.ground_state_vector().imag.any()
        assert abs(ground.ground_energy() - dense.ground_energy()) <= \
            1e-12 * abs(dense.ground_energy())
        assert abs(ground.ground_gap - dense.ground_gap) <= 1e-12 * dense.ground_gap
        _assert_agree(dense.ground_state_vector(), ground.ground_state_vector(), scale=1.0)
        cols = rng.standard_normal((model.dim, 3)) + 1j * rng.standard_normal((model.dim, 3))
        _assert_agree(dense.gram(cols), ground.gram(cols))

    def test_gram_in_an_exactly_singular_ground_sector(self):
        # 2-state sectors [[a, 1], [1, a]] with levels a -+ 1: in the ground
        # sector (a = 0, after the a = 5 one) H_k - E_0 = [[1, 1], [1, 1]] is
        # exactly singular, so the solve needs the ground projector added
        pairs = np.array([5.0, 0.0, *np.arange(2.0, 2.0 + 3 * 99, 3.0)])
        blocks = [np.array([[a, 1.0], [1.0, a]]) for a in pairs]
        model = build_two_level_ensemble(2 * len(pairs) - 1, 1.0, (0.0, 0.1, 0.0), 1.0)
        model = dataclasses.replace(model, h_m=Operator(scipy.sparse.block_diag(blocks),
                                                        hermitian=True))
        ground, dense = ground_resolvent(model), matter_spectrum(model)
        assert type(ground) is SectorResolvent
        # the a = 0 pair, states 2 and 3, is sector 1
        assert ground.sector_of[np.flatnonzero(ground.vector)].tolist() == [1, 1]
        assert ground.ground_energy() == -1.0
        cols = np.random.default_rng(3).standard_normal((model.dim, 3)) + 0.5j
        _assert_agree(dense.gram(cols), ground.gram(cols))
        assert np.array_equal(ground.gram(np.zeros((model.dim, 2))), np.zeros((2, 2)))

    def test_degenerate_ground_across_sectors_refused(self):
        # two copies of one connected 150-state block: the two lowest levels
        # are exactly equal and lie in different sectors
        size = 150
        path = scipy.sparse.diags([-np.ones(size - 1), np.arange(size, dtype=float),
                                   -np.ones(size - 1)], [-1, 0, 1])
        model = build_two_level_ensemble(2 * size - 1, 1.0, (0.0, 0.1, 0.0), 1.0)

        def with_shift(shift):
            h = scipy.sparse.block_diag([path, path + shift * scipy.sparse.identity(size)])
            return dataclasses.replace(model, h_m=Operator(h, hermitian=True))

        with pytest.raises(DegenerateGroundStateError, match="ground state is degenerate"):
            ground_resolvent(with_shift(0.0))
        ground = ground_resolvent(with_shift(1e-6))
        assert type(ground) is SectorResolvent
        assert abs(ground.ground_gap - 1e-6) <= 1e-12

    def test_asymmetric_pattern_is_one_sparse_sector(self):
        # an entry within the Hermiticity tolerance whose mirror is not stored
        # joins two sectors in one direction only, so all states are one sector
        levels = scipy.sparse.lil_matrix(scipy.sparse.diags(np.arange(ENSEMBLE.dim, dtype=float)))
        levels[0, ENSEMBLE.dim - 1] = 1e-13
        model = dataclasses.replace(ENSEMBLE, h_m=Operator(levels.tocsr(), hermitian=True))
        assert not lowest_by_sector(model.h_m.matrix, 2, DENSE_MAX_DIM)[2].any()
        assert type(ground_resolvent(model)) is SectorResolvent

    def test_no_dense_copy_of_the_hamiltonian(self):
        model = SECTOR_MODELS["three_axis_1000"]
        h = dressed_matter_hamiltonian(model, GAUGES["dipole"], [MODES["q_z"]])
        tracemalloc.start()
        try:
            ground = ground_resolvent(model, h)
            g = ground.ground_state_vector()
            ground.gram(np.column_stack([op.matrix @ g for op in model.momentum_ops]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one real d x d matrix is 8 MB
        assert peak < 8 * model.dim ** 2 / 2


def test_sweep_on_sector_backend_counts(monkeypatch, tmp_path):
    # 7 levels per axis make parity sectors of at most 64 states: each of the
    # 3 dipole-gauge Hamiltonians and the Coulomb gauge's h_m is split once,
    # and nothing runs the sparse eigensolver or a full eigh
    counts = {"eigh": 0, "eigsh": 0, "lowest_by_sector": 0}

    for mod in (operators, matter):
        monkeypatch.setattr(mod, "eigh", _counting(counts, "eigh", operators.eigh))
    for name in ("eigsh", "lowest_by_sector"):
        monkeypatch.setattr(matter, name, _counting(counts, name, getattr(matter, name)))
    assert 4 ** 3 <= DENSE_MAX_DIM < 7 ** 3
    cli.run_sweep(_sweep_config(7), str(tmp_path / "out"))
    assert counts == {"eigh": 0, "eigsh": 0, "lowest_by_sector": 3 + 1}


def _random_block(rng, size, shift=0.0, complex_=False):
    """A dense Hermitian size x size block with standard normal entries,
    plus shift times the identity."""
    a = rng.standard_normal((size, size))
    if complex_:
        a = a + 1j * rng.standard_normal((size, size))
    return a + a.conj().T + shift * np.eye(size)


def _slicing_case(name):
    """(matrix, whole-matrix ascending eigenvalues) of the slicing cases."""
    rng = np.random.default_rng(5)
    if name == "bare_dipole":
        # the first excited level is a triplet, one state in each of three
        # parity sectors, equal up to rounding
        mat = SECTOR_MODELS["three_axis_1000"].h_m.matrix
    elif name == "dressed_dipole":
        # the q_z mode's self-energy lifts the x- and y-odd levels of the triplet
        mat = dressed_matter_hamiltonian(SECTOR_MODELS["three_axis_1000"], GAUGES["dipole"],
                                         [MODES["q_z"]]).matrix
    elif name == "one_sector_holds_all":
        mat = scipy.sparse.block_diag([_random_block(rng, 100), _random_block(rng, 110),
                                       _random_block(rng, 120, shift=-100.0),
                                       _random_block(rng, 130)], format="csr")
    elif name == "small_sectors":
        # sectors of 20, 45 and 90 states and single states; the lowest
        # level is a single state, the next ones lie in the 90-state sector
        mat = scipy.sparse.block_diag([[[1.0]], _random_block(rng, 20),
                                       _random_block(rng, 45, complex_=True),
                                       [[-200.0]], _random_block(rng, 90, shift=-100.0),
                                       [[3.0]]], format="csr")
    else:
        mat = scipy.sparse.block_diag([_random_block(rng, 120, complex_=True),
                                       _random_block(rng, 130),
                                       _random_block(rng, 110, shift=-3.0, complex_=True)],
                                      format="csr")
    return mat, np.linalg.eigvalsh(mat.toarray())


SLICING_CASES = ("bare_dipole", "dressed_dipole", "one_sector_holds_all", "complex_sector",
                 "small_sectors")


def _digest_of(block):
    return operators._digest(np.ascontiguousarray(block))


def _recording_slices(monkeypatch):
    """Wrap `matter._above`, `matter._lowest_pairs` and np.linalg's eigh
    and eigvalsh; returns the digests of the blocks the Cholesky test
    rules out and of the blocks each solver sees, a vector solve of
    `_lowest_pairs` counted under "eigh" and a values-only one under
    "eigvalsh"."""
    seen = {"skipped": [], "eigh": [], "eigvalsh": []}
    above, lowest_pairs = matter._above, matter._lowest_pairs

    def testing(block, t):
        out = above(block, t)
        if out:
            seen["skipped"].append(_digest_of(block))
        return out

    def pairs(block, m, vectors):
        seen["eigh" if vectors else "eigvalsh"].append(_digest_of(block))
        return lowest_pairs(block, m, vectors)

    def solving(name, original):
        def wrapper(a, *args, **kwargs):
            seen[name] += [_digest_of(one) for one in np.reshape(a, (-1,) + a.shape[-2:])]
            return original(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(matter, "_above", testing)
    monkeypatch.setattr(matter, "_lowest_pairs", pairs)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, solving(name, getattr(np.linalg, name)))
    return seen


class TestSpectrumSlicing:
    """The dense sectors `lowest_by_sector` cuts one at a time: visited by
    their lowest diagonal entry, skipped where H_s - t I has a Cholesky
    factorisation, t the k-th lowest value known, and the first n_vectors
    solved for their lowest pairs with eigenvectors, the later ones for
    their lowest values alone."""

    @pytest.mark.parametrize("n_vectors", [None, 1])
    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    @pytest.mark.parametrize("name", SLICING_CASES)
    def test_matches_whole_matrix_eigvalsh(self, name, k, n_vectors):
        mat, whole = _slicing_case(name)
        vals, vecs, sector_of = lowest_by_sector(mat, k, DENSE_MAX_DIM, n_vectors=n_vectors)
        scale = np.max(np.abs(whole))
        assert np.max(np.abs(vals - whole[:k])) <= 1e-12 * scale
        assert vecs.shape[1] == (k if n_vectors is None else n_vectors)
        residual = mat @ vecs - vecs * vals[:vecs.shape[1]]
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-10 * scale
        assert np.allclose(vecs.conj().T @ vecs, np.eye(vecs.shape[1]), atol=1e-12)
        for v in vecs.T:  # each eigenvector lies in one sector
            assert len(set(sector_of[np.flatnonzero(v)])) == 1

    @pytest.mark.parametrize("name", SLICING_CASES)
    def test_skipped_sectors_are_not_solved(self, monkeypatch, name):
        mat, whole = _slicing_case(name)
        seen = _recording_slices(monkeypatch)
        vals = lowest_by_sector(mat, 2, DENSE_MAX_DIM, n_vectors=1)[0]
        assert np.max(np.abs(vals - whole[:2])) <= 1e-12 * np.max(np.abs(whole))
        assert seen["skipped"]
        assert not set(seen["skipped"]) & set(seen["eigh"] + seen["eigvalsh"])
        assert len(seen["eigh"]) == 1

    def test_one_sector_holding_the_k_lowest_is_the_only_one_solved(self, monkeypatch):
        mat, _ = _slicing_case("one_sector_holds_all")
        seen = _recording_slices(monkeypatch)
        lowest_by_sector(mat, 4, DENSE_MAX_DIM)
        assert (len(seen["eigh"]), len(seen["eigvalsh"]), len(seen["skipped"])) == (1, 0, 3)

    @pytest.mark.parametrize("charge", [0.3, 1.2])
    @pytest.mark.parametrize("gauge_name", ["dipole", "alpha_0.4"])
    def test_dressed_dipole_solve_counts(self, monkeypatch, gauge_name, charge):
        # the charges of the anharmonic benchmark sweep: the ground sector
        # is the one with the lowest diagonal entry and takes the one eigh,
        # the sector of the first excited level one eigvalsh, and the other
        # six are ruled out by their Cholesky factorisation
        model = build_anharmonic_dipole(10, 1.0, 1.0, 0.1, charge, 1.0, axes=3)
        h = dressed_matter_hamiltonian(model, GAUGES[gauge_name], [MODES["q_z"]])
        seen = _recording_slices(monkeypatch)
        ground = ground_resolvent(model, h)
        assert type(ground) is SectorResolvent
        assert (len(seen["eigh"]), len(seen["eigvalsh"]), len(seen["skipped"])) == (1, 1, 6)

    def test_bare_dipole_solve_counts(self, monkeypatch):
        # as above, except that the two other sectors of the triplet hold
        # the k-th value up to rounding, so rounding decides whether each
        # factorises (and is skipped) or not (and is solved by eigvalsh)
        seen = _recording_slices(monkeypatch)
        ground_resolvent(SECTOR_MODELS["three_axis_1000"])
        assert len(seen["eigh"]) == 1
        assert len(seen["eigvalsh"]) + len(seen["skipped"]) == 7
        assert len(seen["eigvalsh"]) <= 3



def _every_sector_alone(mat):
    """(E_0, E_1, ground vector) with every sector of the real ``mat``
    shift-inverted for its two lowest pairs from its Gershgorin shift, on
    the band its sector plan lays out, and the ground vector embedded and
    phase-fixed as `lowest_by_sector` does it."""
    plan, _, cols, data = matter._plan_of(scipy.sparse.csr_matrix(mat))
    sizes, order, first, _ = plan.partition
    found = [matter.shift_invert_lowest(block, 2, layout=layout) for block, layout in
             (matter._plan_block(plan, b, cols, data, float) for b in range(len(sizes)))]
    b = min(range(len(sizes)), key=lambda b: found[b][0][0])
    vector = np.zeros(mat.shape[0], dtype=complex)
    vector[order[first[b]:first[b] + sizes[b]]] = found[b][1][:, 0]
    values = np.sort(np.concatenate([vals for vals, _ in found]))
    return values[0], values[1], operators._fix_phases(vector[:, None])[:, 0]


def _path(size, diagonal, hopping):
    """A real tridiagonal size x size block."""
    off = np.full(size - 1, hopping)
    return scipy.sparse.diags([off, np.broadcast_to(diagonal, size), off], [-1, 0, 1])


class TestBandSlicing:
    """The sectors above ``dense_limit`` states, sliced by the same rule as
    the dense ones: visited by their lowest diagonal entry, skipped where
    H_s - t I has a banded Cholesky factorisation, t the k-th lowest value
    known, and otherwise shift-inverted for the levels they can hold above
    the highest known value they factor at."""

    @pytest.mark.parametrize("gauge_name", [None, "dipole"], ids=["bare", "dipole_dressed"])
    def test_three_axis_dipole_runs_two_shift_inverts(self, monkeypatch, gauge_name):
        # 12 levels per axis: eight parity sectors of 216 states; the ground
        # sector runs k = 2 from its Gershgorin shift, the sector of E_1 k = 1
        # from E_0, and the other six factor at E_1
        model = build_anharmonic_dipole(12, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3)
        h = model.h_m if gauge_name is None else \
            dressed_matter_hamiltonian(model, GAUGES[gauge_name], [MODES["q_z"]])
        assert set(np.bincount(lowest_by_sector(h.matrix, 1, DENSE_MAX_DIM)[2])) == {6 ** 3}
        e0, e1, vector = _every_sector_alone(h.matrix)
        events = record_band_slicing(monkeypatch)
        lowest, vectors, _ = lowest_by_sector(h.matrix, 2, DENSE_MAX_DIM, n_vectors=1)
        assert [e[2:4] for e in events if e[0] == "solve"] == [(2, -np.inf), (1, lowest[0])]
        assert events.count(("factor", lowest[1], True)) == 6
        assert lowest[0] == e0 and np.array_equal(vectors[:, 0], vector)
        assert abs(lowest[1] - e1) <= 1e-12 * abs(e1)

    def test_identical_sectors_give_both_copies(self):
        # two copies of one 250-state path: the ground is exactly degenerate
        # across the two sectors, so the second copy, which cannot factor at
        # the first one's E_1, gives its E_0 too
        size = DENSE_MAX_DIM + 50
        path = _path(size, np.arange(size, dtype=float), -1.0)
        h = scipy.sparse.block_diag([path, path], format="csr")
        vals, vecs, sector_of = lowest_by_sector(h, 2, DENSE_MAX_DIM)
        whole = np.linalg.eigvalsh(h.toarray())[:2]
        assert np.max(np.abs(vals - whole)) <= 1e-12 * np.max(np.abs(whole))
        assert sorted(sector_of[np.argmax(np.abs(v))] for v in vecs.T) == [0, 1]
        model = dataclasses.replace(build_two_level_ensemble(2 * size - 1, 1.0, (0.0, 0.1, 0.0),
                                                             1.0),
                                    h_m=Operator(h, hermitian=True))
        with pytest.raises(DegenerateGroundStateError, match="ground state is degenerate"):
            ground_resolvent(model)

    @pytest.mark.parametrize("k", [1, 3])
    def test_ground_sector_after_the_lowest_diagonal_entry(self, monkeypatch, k):
        # strong hopping on a zero diagonal puts E_0 near -2, in the sector
        # visited second: the weakly coupled sector at -1 goes first, and the
        # strong one factors at none of its values, so both run k
        size = DENSE_MAX_DIM + 50
        h = scipy.sparse.block_diag([_path(size, 0.0, -1.0), _path(size, -1.0, 0.01)],
                                    format="csr")
        events = record_band_slicing(monkeypatch)
        vals, vecs, _ = lowest_by_sector(h, k, DENSE_MAX_DIM)
        assert [(block.diagonal()[0], m, floor) for _, block, m, floor, _ in
                (e for e in events if e[0] == "solve")] == [(-1.0, k, -np.inf), (0.0, k, -np.inf)]
        assert sum(not e[2] for e in events if e[0] == "factor") == k
        whole = np.linalg.eigvalsh(h.toarray())
        assert np.max(np.abs(vals - whole[:k])) <= 1e-12 * np.max(np.abs(whole))
        assert np.max(np.linalg.norm(h @ vecs - vecs * vals, axis=0)) <= 1e-10

def _lu_gram(ground, cols):
    """`SectorResolvent.gram` by an LU solve (`np.linalg.solve`) of each
    sector's block, cut from the dense matrix, the reference for its
    Cholesky solves."""
    h = scipy.sparse.csr_matrix(ground.h_m_used.matrix).toarray()
    cols = np.asarray(cols, dtype=complex)
    e0, g, k = ground.lowest[0], ground.vector, cols.shape[1]
    m = np.zeros((k, k), dtype=complex)
    for b in np.unique(ground.sector_of):
        rows = np.flatnonzero(ground.sector_of == b)
        block = h[np.ix_(rows, rows)] - e0 * np.eye(len(rows))
        c = cols[rows]
        if g[rows].any():  # the ground sector: project by Q, add |0><0|
            c -= np.outer(g[rows], g[rows].conj() @ c)
            block += np.outer(g[rows], g[rows].conj())
        m += c.conj().T @ np.linalg.solve(block, c)
    return m


class TestDenseSectorLapack:
    """The LAPACK calls of the dense sector path: the lowest-pairs solve,
    and the Cholesky solves of `SectorResolvent.gram`."""

    @pytest.mark.parametrize("m", [1, 2, 7, 120])
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_lowest_pairs_match_eigh(self, complex_, m):
        # m = 120 is every pair of the 120-state block
        block = _random_block(np.random.default_rng(7), 120, complex_=complex_)
        ref_vals, ref_vecs = np.linalg.eigh(block)
        scale = np.max(np.abs(ref_vals))
        vals, vecs = matter._lowest_pairs(block, m, vectors=True)
        only = matter._lowest_pairs(block, m, vectors=False)
        assert vals.shape == only.shape == (m,) and vecs.shape == (120, m)
        assert np.iscomplexobj(vecs) == complex_
        assert np.max(np.abs(vals - ref_vals[:m])) <= 1e-12 * scale
        assert np.max(np.abs(only - ref_vals[:m])) <= 1e-12 * scale
        assert np.max(np.linalg.norm(block @ vecs - vecs * vals, axis=0)) <= 1e-12 * scale
        # the same vectors as eigh's up to a phase each
        overlaps = np.abs(np.sum(vecs.conj() * ref_vecs[:, :m], axis=0))
        assert np.max(np.abs(overlaps - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n_vectors", [None, 1])
    def test_k_at_least_the_sector_size(self, n_vectors):
        # sectors of 100 and 110 states, k = 150: each solved sector gives
        # all its pairs
        rng = np.random.default_rng(9)
        mat = scipy.sparse.block_diag([_random_block(rng, 100, complex_=True),
                                       _random_block(rng, 110, shift=2.0)], format="csr")
        whole = np.linalg.eigvalsh(mat.toarray())
        vals, vecs, _ = lowest_by_sector(mat, 150, DENSE_MAX_DIM, n_vectors=n_vectors)
        scale = np.max(np.abs(whole))
        assert np.max(np.abs(vals - whole[:150])) <= 1e-12 * scale
        assert vecs.shape[1] == (150 if n_vectors is None else 1)
        residual = mat @ vecs - vecs * vals[:vecs.shape[1]]
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-10 * scale

    @pytest.mark.parametrize("model_name, gauge_name", [
        pytest.param(model, gauge, id=gauge if model == "three_axis_1000" else f"{model}-{gauge}")
        for model in ("three_axis_1000", "three_axis_343", "ensemble_1001")
        for gauge in ("dipole", "coulomb")])
    def test_cholesky_gram_matches_lu(self, model_name, gauge_name):
        # sectors of 125 and of 27-64 states, and single states
        model = SECTOR_MODELS[model_name]
        h = dressed_matter_hamiltonian(model, GAUGES[gauge_name], [MODES["q_z"]])
        ground = ground_resolvent(model, h)
        assert type(ground) is SectorResolvent
        g = ground.ground_state_vector()
        rng = np.random.default_rng(4)
        # the coupling columns, and random ones that touch every sector
        ops = (model.momentum_ops or ()) + model.dipole_ops
        cols = np.column_stack([op.matrix @ g for op in ops]
                               + [rng.standard_normal(model.dim) + 1j * rng.standard_normal(
                                   model.dim) for _ in range(2)])
        ref = _lu_gram(ground, cols)
        assert np.max(np.abs(ground.gram(cols) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_gram_block_not_positive_definite_raises(self):
        # E_0 raised well into the spectrum: H_k - E_0 is indefinite
        model = SECTOR_MODELS["three_axis_1000"]
        ground = ground_resolvent(model)
        bad = dataclasses.replace(ground, lowest=ground.lowest + 5.0)
        cols = np.ones((model.dim, 2))
        with pytest.raises(NumericError, match="^a resolvent block is not positive definite"):
            bad.gram(cols)

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_positive_solve(self, complex_):
        rng = np.random.default_rng(2)
        block = _random_block(rng, 30, complex_=complex_)
        cols = rng.standard_normal((30, 3)) + 1j * rng.standard_normal((30, 3))
        shifted = block - (np.linalg.eigvalsh(block)[0] - 1.0) * np.eye(30)
        x = matter._positive_solve(shifted.copy(), cols)
        assert np.max(np.abs(shifted @ x - cols)) <= 1e-12 * np.max(np.abs(cols))
        with pytest.raises(NumericError, match="not positive definite"):
            matter._positive_solve(block, cols)
