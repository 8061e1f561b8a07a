"""The two ground-resolvent backends behind `response.ground_resolvent`.

The dense backend is the full eigendecomposition (`matter_spectrum`), the
sparse one Lanczos for the ground state plus conjugate-gradient solves
(`sparse_resolvent`).  Each test builds the backend it checks directly, so
the comparisons do not depend on where DENSE_MAX_DIM puts the switch.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.linalg import ArpackNoConvergence

from gaugecavity import cli, matter, operators, response
from gaugecavity.criterion import evaluate
from gaugecavity.errors import DegenerateGroundStateError, NumericError
from gaugecavity.gauge import dressed_matter_hamiltonian, lwl_mode, make_gauge, mode_from_q
from gaugecavity.matter import (MatterSpectrum, build_anharmonic_dipole,
                                build_two_level_ensemble, matter_spectrum, trk_sum)
from gaugecavity.operators import Operator
from gaugecavity.response import DENSE_MAX_DIM, SparseResolvent, ground_resolvent, sparse_resolvent

GAUGES = {"coulomb": make_gauge("coulomb"), "dipole": make_gauge("dipole"),
          "alpha_0.4": make_gauge("alpha_lwl", alpha=0.4)}
MODES = {"q_z": lwl_mode(1.0, 1.0), "q_oblique": mode_from_q((1.0, 2.0, 0.5), 1.0)}
THREE_AXIS = build_anharmonic_dipole(6, 1.0, 1.0, 0.1, 0.8, 1.0, axes=3)
# 2 N d^2 / (V gap) = 2.16: the dipole gauge condenses
ENSEMBLE = build_two_level_ensemble(DENSE_MAX_DIM + 100, 1.0, (0.0, 0.06, 0.0), 1.0)
REPORT_FIELDS = ("lhs", "rhs", "electric_part", "magnetic_part", "margin", "beta0")


def _assert_backends_agree(model, gauge, mode):
    """Reports agree within 1e-12 relative; values at rounding noise stay
    at or below 1e-12 in magnitude on both sides."""
    h = dressed_matter_hamiltonian(model, gauge, [mode])
    dense = evaluate(model, gauge, mode, spectrum=matter_spectrum(model, h))
    sparse = evaluate(model, gauge, mode, spectrum=sparse_resolvent(model, h))
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
        # the bare Dicke ground energy is exactly 0, which Lanczos must not miss
        ground = sparse_resolvent(ENSEMBLE)
        assert abs(ground.ground_energy()) <= 1e-12
        assert evaluate(ENSEMBLE, GAUGES["dipole"], MODES["q_z"], spectrum=ground)[0].condensed
        assert not any(r.condensed for r in evaluate(ENSEMBLE, GAUGES["coulomb"],
                                                     MODES["q_z"], spectrum=ground))

    def test_trk_sum(self):
        dense = trk_sum(matter_spectrum(THREE_AXIS), 2)
        assert abs(trk_sum(sparse_resolvent(THREE_AXIS), 2) - dense) <= 1e-12 * dense

    def test_backend_chosen_by_dimension(self):
        at_limit = build_two_level_ensemble(DENSE_MAX_DIM - 1, 1.0, (0.0, 0.1, 0.0), 1.0)
        above = build_two_level_ensemble(DENSE_MAX_DIM, 1.0, (0.0, 0.1, 0.0), 1.0)
        assert isinstance(ground_resolvent(at_limit), MatterSpectrum)
        assert isinstance(ground_resolvent(above), SparseResolvent)


class TestSparseFailures:
    def test_cg_failure_raises(self, monkeypatch):
        monkeypatch.setattr(response, "cg", lambda op, b, **kw: (np.zeros_like(b), 17))
        ground = sparse_resolvent(THREE_AXIS)
        with pytest.raises(NumericError, match="conjugate gradients"):
            evaluate(THREE_AXIS, GAUGES["coulomb"], MODES["q_z"], spectrum=ground)

    def test_lanczos_failure_raises_and_cli_exits_one(self, monkeypatch, tmp_path, capsys):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0),
                                      np.zeros((0, 0)))

        monkeypatch.setattr(response, "eigsh", no_convergence)
        with pytest.raises(NumericError, match="Lanczos"):
            sparse_resolvent(THREE_AXIS)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "model": {"kind": "anharmonic_dipole", "levels": 7, "mass": 1.0, "frequency": 1.0,
                      "quartic": 0.1, "charge": 0.5, "volume": 1.0, "axes": 3},
            "gauge": {"preset": "coulomb"}, "modes": [{"nu": 1.0}],
            "sweep": {"parameter": "charge", "values": [0.5]}}))
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "runtime error: Lanczos ground state failed to converge" in capsys.readouterr().err

    def test_degenerate_ground_rejected_by_both_backends(self):
        levels = np.arange(ENSEMBLE.dim, dtype=float)
        levels[1] = 0.0  # eps_0 = eps_1 = 0
        model = dataclasses.replace(ENSEMBLE, h_m=Operator(scipy.sparse.diags(levels),
                                                           hermitian=True))
        for ground in (matter_spectrum(model), sparse_resolvent(model)):
            with pytest.raises(DegenerateGroundStateError):
                evaluate(model, GAUGES["dipole"], MODES["q_z"], spectrum=ground)


def test_sweep_above_dense_limit_solve_counts(monkeypatch, tmp_path):
    # 3 points x (dipole: 1 Lanczos + 4 electric solves, coulomb: 1 Lanczos
    # + 4 magnetic solves), plus the invariant check's TRK sum (1 + 1)
    counts = {"eigh": 0, "eigsh": 0, "cg": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for mod in (operators, matter):
        monkeypatch.setattr(mod, "eigh", counted("eigh", operators.eigh))
    monkeypatch.setattr(response, "eigsh", counted("eigsh", response.eigsh))
    monkeypatch.setattr(response, "cg", counted("cg", response.cg))
    cfg = cli.validate_config(json.dumps({
        "model": {"kind": "anharmonic_dipole", "levels": 7, "mass": 1.0, "frequency": 1.0,
                  "quartic": 0.1, "charge": 0.5, "volume": 1.0, "axes": 3},
        "gauge": [{"preset": "dipole"}, {"preset": "coulomb"}],
        "modes": [{"nu": 1.0}],
        "sweep": {"parameter": "charge", "values": [0.2, 0.4, 0.6]},
    }))
    assert 7 ** 3 > DENSE_MAX_DIM
    cli.run_sweep(cfg, str(tmp_path / "out"))
    assert counts == {"eigh": 0, "eigsh": 3 * 2 + 1, "cg": 3 * (4 + 4) + 1}


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
