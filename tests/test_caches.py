"""What a sweep repeats is solved once: `matter.lowest_by_sector` keeps one
plan per sparsity pattern, `matter.ground_resolvent` one backend per
stored Hamiltonian and `matter.ring_ground_state` one dense ring ground
vector, and a repeat gives the bits a fresh solve gives.  Every test
starts from empty caches (conftest.py)."""

import json
import os

import numpy as np
import pytest
import scipy.sparse

from gaugecavity import cli, matter, operators
from gaugecavity.gauge import dressed_matter_hamiltonian, lwl_mode, make_gauge
from gaugecavity.oracle import DENSE_LIMIT, full_hamiltonian, lowest_eigenpairs

README = {
    "seed": 7,
    "model": {"kind": "two_level_ensemble", "count": 40, "gap": 1.0,
              "dipole_moment": [0.0, 1.0, 0.0], "volume": 1.0},
    "gauge": [{"preset": "dipole"}, {"preset": "coulomb"}],
    "modes": [{"nu": 1.0}],
    "sweep": {"parameter": "dipole_scale", "start": 0.0, "stop": 0.34, "steps": 200},
    "oracle": {"enabled": True, "fock_cutoff": 60, "points": 12},
}


def _readme_system(scale, preset="dipole"):
    model = matter.build_two_level_ensemble(40, 1.0, (0.0, scale, 0.0), 1.0)
    return full_hamiltonian(model, make_gauge(preset), [lwl_mode(1.0, 1.0)], 60)


def _flux_ring(phase, potential_seed):
    """A 500-site ring with a flux phase on its closing bond beside a
    7-state chain: one complex sector above the dense limit."""
    dim = 500
    off = -np.ones(dim - 1)
    potential = 3.0 * np.random.default_rng(potential_seed).random(dim)
    ring = scipy.sparse.diags([off, potential, off], [-1, 0, 1], format="lil", dtype=complex)
    ring[dim - 1, 0] = -np.exp(1j * phase)
    ring[0, dim - 1] = -np.exp(-1j * phase)
    chain = scipy.sparse.diags([np.ones(6), np.arange(7.0), np.ones(6)], [-1, 0, 1])
    return scipy.sparse.block_diag([chain, ring.tocsr()], format="csr").astype(complex)


def _mixed_dipole(charge):
    """The 3-axis dipole at 11 levels, dressed in the dipole gauge: one
    216-state sector solved sparse, the others dense."""
    model = matter.build_anharmonic_dipole(11, 1.0, 1.0, 0.1, charge, 1.0, axes=3)
    return dressed_matter_hamiltonian(model, make_gauge("dipole"), [lwl_mode(1.0, 1.0)]).matrix


def _identical(a, b) -> bool:
    return all(np.array_equal(np.asarray(x).view(float) if np.iscomplexobj(x) else x,
                              np.asarray(y).view(float) if np.iscomplexobj(y) else y)
               for x, y in zip(a, b))


def _counting(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(matter, name)

        def counted(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(matter, name, counted)
    return counts


# (first matrix, second matrix of the same pattern, lowest_by_sector arguments)
CASES = {
    "flux_ring": (_flux_ring(0.7, 3), _flux_ring(1.1, 4), (3, DENSE_LIMIT)),
    # a plan made on real values serves complex ones of the same pattern
    "real_then_flux_ring": (_flux_ring(0.0, 3), _flux_ring(0.7, 4), (3, DENSE_LIMIT)),
    "mixed_dipole": (_mixed_dipole(0.5), _mixed_dipole(0.9), (2, operators.DENSE_MAX_DIM)),
}


class TestSectorPlans:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_kept_plan_gives_the_bits_of_a_new_one(self, case):
        first, second, args = CASES[case]
        assert first.nnz == second.nnz and not np.array_equal(first.data, second.data)
        matter.lowest_by_sector(first, *args)
        warm = matter.lowest_by_sector(second, *args)
        assert len(matter._PLANS) == 1
        matter._PLANS.clear()
        cold = matter.lowest_by_sector(second, *args)
        assert _identical(warm, cold)

    def test_readme_system_kept_plan_gives_the_bits_of_a_new_one(self):
        lowest_eigenpairs(_readme_system(0.2), k=2)
        system = _readme_system(0.34, "coulomb")
        warm = lowest_eigenpairs(system, k=2)
        assert len(matter._PLANS) == 1
        matter._PLANS.clear()
        assert _identical(warm, lowest_eigenpairs(system, k=2))

    def test_repeated_pattern_runs_no_forest_and_no_layout(self, monkeypatch):
        counts = _counting(monkeypatch, ("_hooking_rounds", "_band_layout"))
        lowest_eigenpairs(_readme_system(0.2), k=2)
        # one forest, and one layout per parity block above the dense limit
        assert counts == {"_hooking_rounds": 1, "_band_layout": 2}
        for scale, preset in ((0.3, "dipole"), (0.34, "coulomb")):
            lowest_eigenpairs(_readme_system(scale, preset), k=2)
        assert counts == {"_hooking_rounds": 1, "_band_layout": 2}

    def test_readme_block_is_a_band_of_half_width_21(self):
        lowest_eigenpairs(_readme_system(0.34), k=2)
        (plan,) = matter._PLANS.values()
        widths = [layout[1] for *_, layout in plan.blocks.values()]
        assert widths == [21, 21]  # 31 in their own order, 41 in level order

    def test_entry_that_becomes_zero_gives_a_new_plan(self):
        h = _flux_ring(0.7, 3)
        cut = h.copy()
        # the bond (3, 4) of the chain, stored as explicit zeros
        rows = np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))
        cut.data[((rows == 3) & (h.indices == 4)) | ((rows == 4) & (h.indices == 3))] = 0.0
        assert cut.nnz == h.nnz and np.count_nonzero(cut.data) == h.nnz - 2
        matter.lowest_by_sector(h, 3, DENSE_LIMIT)
        vals, vecs, sector_of = matter.lowest_by_sector(cut, 3, DENSE_LIMIT)
        assert len(matter._PLANS) == 2
        assert len(np.unique(sector_of)) == 3  # the chain splits in two
        pruned = cut.copy()
        pruned.eliminate_zeros()
        assert _identical((vals, vecs, sector_of), matter.lowest_by_sector(pruned, 3, DENSE_LIMIT))

    def test_plans_stay_within_their_bound(self, monkeypatch):
        monkeypatch.setattr(matter, "SECTOR_PLANS", 2)
        keys = []
        for dim in (301, 302, 303, 304):
            matter.lowest_by_sector(scipy.sparse.diags(np.arange(dim, dtype=float), format="csr"),
                                    1, DENSE_LIMIT)
            keys.append(next(reversed(matter._PLANS)))
            assert len(matter._PLANS) <= 2
        assert list(matter._PLANS) == keys[-2:]  # the two used last


class TestResolventMemo:
    def test_one_solve_per_stored_form(self, monkeypatch):
        counts = _counting(monkeypatch, ("_solve_ground",))
        model = matter.build_anharmonic_dipole(6, 1.0, 1.0, 0.1, 0.5, 1.0)
        first = matter.ground_resolvent(model)
        again = matter.ground_resolvent(matter.build_anharmonic_dipole(6, 1.0, 1.0, 0.1, 0.9, 1.0))
        assert counts["_solve_ground"] == 1
        assert again.model.params.charge == 0.9 and again.h_m_used is first.h_m_used
        assert np.array_equal(again.vectors, first.vectors)
        # the same entries, stored anew, have the same digest
        matter.ground_resolvent(model, operators.Operator(np.array(model.h_m.matrix)))
        assert counts["_solve_ground"] == 1

    def test_resolvents_stay_within_their_bound(self, monkeypatch):
        monkeypatch.setattr(matter, "RESOLVENTS", 2)
        for gap in (1.0, 1.5, 2.0, 2.5):
            matter.ground_resolvent(matter.build_two_level_ensemble(3, gap, (0.0, 0.1, 0.0), 1.0))
            assert len(matter._RESOLVENTS) <= 2
        assert all(g.model is None and g.h_m_used is None for g in matter._RESOLVENTS.values())

    @pytest.mark.parametrize("sites", [150, 250])
    def test_ring_sweep_diagonalises_the_bare_ring_once(self, monkeypatch, tmp_path, sites):
        # two ring modes, the multipolar D of each read at every point and
        # again by the invariant check; a charge sweep leaves h_m as it is
        calls = []
        original = operators.eigh
        for module in (operators, matter):
            monkeypatch.setattr(module, "eigh", lambda h: calls.append(h.dim) or original(h))
        cfg = cli.validate_config(json.dumps({
            "model": {"kind": "ring_lattice", "sites": sites, "hopping": 1.0, "charge": 1.0},
            "gauge": [{"preset": "coulomb"}, {"preset": "multipolar_ring"}],
            "modes": [{"ring_index": 1}, {"ring_index": 2}],
            "sweep": {"parameter": "charge", "values": [0.5, 1.0, 1.5, 2.0]},
        }))
        assert cli.run_sweep(cfg, str(tmp_path / "out")) == 0
        assert calls == [sites]


class TestWarmSweep:
    def test_second_readme_sweep_writes_the_same_files(self, monkeypatch, tmp_path):
        # on one CPU the parent runs the oracle and keeps its plans; two
        # workers forked from it then start warm too
        cfg = cli.validate_config(json.dumps(README))
        for run, cpus in (("cold", 1), ("warm", 1), ("workers", 2)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            assert cli.run_sweep(cfg, str(tmp_path / run)) == 0
            assert len(matter._PLANS) == 2 and len(matter._RESOLVENTS) == 1
        for name in ("criterion.csv", "oracle.csv"):
            cold = (tmp_path / "cold" / name).read_bytes()
            assert cold == (tmp_path / "warm" / name).read_bytes()
            assert cold == (tmp_path / "workers" / name).read_bytes()

    def test_sweep_shares_one_h_m(self):
        cfg = cli.validate_config(json.dumps(README))
        models = [cli._point(cfg, "dipole_scale", v)[0] for v in (0.1, 0.2)]
        assert models[0].h_m is models[1].h_m
        assert models[0].dipole_ops[1] is not models[1].dipole_ops[1]
