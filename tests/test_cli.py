import ctypes
import functools
import glob
import json
import math
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from gaugecavity import cli, oracle
from gaugecavity import gauge as gauge_module
from gaugecavity.cli import (GAUGE, MODE, MODELS, REQUIRED, _build_model, _oracle_point,
                             _swept_keys, main, run_check, run_sweep, validate_config)
from gaugecavity.errors import ConfigError, NumericError
from gaugecavity.gauge import lwl_mode, make_gauge
from gaugecavity.matter import MAX_RING_SITES, build_two_level_ensemble

MINIMAL = {
    "seed": 3,
    "model": {"kind": "two_level_ensemble", "count": 6, "gap": 1.0,
              "dipole_moment": [0.0, 1.0, 0.0], "volume": 1.0},
    "gauge": {"preset": "dipole"},
    "modes": [{"nu": 1.0}],
    "sweep": {"parameter": "dipole_scale", "start": 0.05, "stop": 0.6, "steps": 12},
    "output": {},
}


def write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestValidateConfig:
    def test_minimal_valid(self):
        cfg = validate_config(json.dumps(MINIMAL))
        assert cfg.model["count"] == 6
        assert cfg.sweep["steps"] == 12

    def test_alpha_out_of_range_named(self):
        bad = dict(MINIMAL, gauge={"preset": "alpha_lwl", "alpha": 1.5})
        with pytest.raises(ConfigError) as err:
            validate_config(json.dumps(bad))
        assert any("alpha" in v for v in err.value.violations)

    def test_zero_steps_named(self):
        bad = dict(MINIMAL, sweep={"parameter": "dipole_scale", "start": 0,
                                   "stop": 1, "steps": 0})
        with pytest.raises(ConfigError) as err:
            validate_config(json.dumps(bad))
        assert any("sweep.steps" in v for v in err.value.violations)

    def test_all_violations_collected(self):
        bad = dict(MINIMAL,
                   gauge={"preset": "alpha_lwl", "alpha": 2.0},
                   sweep={"parameter": "dipole_scale", "start": 0, "stop": 1,
                          "steps": 0},
                   seed="nope")
        with pytest.raises(ConfigError) as err:
            validate_config(json.dumps(bad))
        text = " | ".join(err.value.violations)
        assert "alpha" in text and "sweep.steps" in text and "seed" in text

    def test_parse_error(self):
        with pytest.raises(ConfigError):
            validate_config("{not json")

    def test_unknown_model_kind(self):
        bad = dict(MINIMAL, model={"kind": "mystery"})
        with pytest.raises(ConfigError) as err:
            validate_config(json.dumps(bad))
        assert any("model.kind" in v for v in err.value.violations)


class TestRunSweep:
    def test_outputs_written(self, tmp_path):
        cfg = validate_config(json.dumps(MINIMAL))
        out = tmp_path / "out"
        assert run_sweep(cfg, str(out)) == 0
        csv = (out / "criterion.csv").read_text().splitlines()
        assert csv[0] == ("schema_version,point_index,param_name,param_value,"
                          "gauge,alpha,q_index,tau,lhs,rhs,electric_part,"
                          "magnetic_part,margin,condensed,beta_re,beta_im")
        # 12 points x 1 gauge x 1 mode x 2 branches
        assert len(csv) == 1 + 12 * 2
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) >= {"resolved_config", "thresholds",
                                "invariant_results", "timings"}
        timings = summary["timings"]
        assert set(timings) == {"criterion_seconds", "oracle_seconds", "total_seconds"}
        assert timings["criterion_seconds"] + timings["oracle_seconds"] == \
            pytest.approx(timings["total_seconds"])

    def test_threshold_detection(self, tmp_path):
        cfg_dict = dict(MINIMAL)
        cfg_dict["sweep"] = {"parameter": "dipole_scale", "start": 0.01,
                             "stop": 0.6, "steps": 60}
        cfg = validate_config(json.dumps(cfg_dict))
        out = tmp_path / "out"
        run_sweep(cfg, str(out))
        summary = json.loads((out / "summary.json").read_text())
        plus = [t for t in summary["thresholds"]
                if t["tau"] == "+" and t["gauge"] == "dipole"][0]
        analytic = (1.0 / (2 * 6)) ** 0.5
        assert plus["condensed_anywhere"]
        assert abs(plus["crossing"] - analytic) <= 0.02

    def test_falling_threshold_detected(self, tmp_path):
        # in the dipole gauge the margin falls through zero as the gap rises
        # past 2 N d^2 / V = 1.8
        cfg_dict = dict(MINIMAL)
        cfg_dict["model"] = dict(MINIMAL["model"], count=10, dipole_moment=[0.0, 0.3, 0.0])
        cfg_dict["sweep"] = {"parameter": "gap", "start": 0.5, "stop": 3.0, "steps": 11}
        out = tmp_path / "out"
        run_sweep(validate_config(json.dumps(cfg_dict)), str(out))
        summary = json.loads((out / "summary.json").read_text())
        plus = [t for t in summary["thresholds"] if t["tau"] == "+"][0]
        assert plus["condensed_anywhere"]
        assert abs(plus["crossing"] - 1.8) <= 0.25

    @pytest.mark.parametrize("dipole_y, condensed", [(0.5, False), (0.50000001, True)],
                             ids=["margin_within_floor", "margin_above_floor"])
    def test_condensed_anywhere_follows_row_flags(self, tmp_path, dipole_y, condensed):
        # at 2 N d^2 / (V gap) = 1 the "+" margin is 2.2e-16, inside
        # CONDENSED_MARGIN, so no row is condensed; d = 0.50000001 gives 4.0e-8
        cfg_dict = dict(MINIMAL, model=dict(MINIMAL["model"], count=2,
                                            dipole_moment=[0.0, dipole_y, 0.0]),
                        sweep={"parameter": "gap", "values": [1.0, 1.0]})
        out = tmp_path / "out"
        run_sweep(validate_config(json.dumps(cfg_dict)), str(out))
        lines = (out / "criterion.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        plus = [r for r in rows if r["tau"] == "+"]
        assert len(plus) == 2
        assert all(float(r["margin"]) > 0.0 for r in plus)
        assert all(r["condensed"] == ("true" if condensed else "false") for r in plus)
        summary = json.loads((out / "summary.json").read_text())
        (flag,) = [t["condensed_anywhere"] for t in summary["thresholds"] if t["tau"] == "+"]
        assert flag is condensed

    def test_no_crossing_without_a_condensed_row(self, tmp_path):
        # the "+" margin goes from -0.091 to 2.2e-16: it turns positive but
        # stays inside CONDENSED_MARGIN, so neither row is condensed
        cfg_dict = dict(MINIMAL, model=dict(MINIMAL["model"], count=2,
                                            dipole_moment=[0.0, 0.5, 0.0]),
                        sweep={"parameter": "gap", "values": [1.1, 1.0]})
        out = tmp_path / "out"
        run_sweep(validate_config(json.dumps(cfg_dict)), str(out))
        summary = json.loads((out / "summary.json").read_text())
        (plus,) = [t for t in summary["thresholds"] if t["tau"] == "+"]
        assert plus["condensed_anywhere"] is False
        assert plus["crossing"] is None

    def test_byte_identical_reruns(self, tmp_path):
        cfg = validate_config(json.dumps(MINIMAL))
        run_sweep(cfg, str(tmp_path / "a"))
        run_sweep(cfg, str(tmp_path / "b"))
        assert (tmp_path / "a" / "criterion.csv").read_bytes() == \
            (tmp_path / "b" / "criterion.csv").read_bytes()

    def test_oracle_rows(self, tmp_path):
        cfg_dict = dict(MINIMAL)
        cfg_dict["oracle"] = {"enabled": True, "fock_cutoff": 16, "points": 3}
        cfg = validate_config(json.dumps(cfg_dict))
        out = tmp_path / "out"
        run_sweep(cfg, str(out))
        rows = (out / "oracle.csv").read_text().splitlines()
        assert rows[0].startswith("schema_version")
        assert len(rows) == 1 + 3

    def test_alpha_sweep_margin_curve(self, tmp_path):
        cfg_dict = dict(MINIMAL)
        cfg_dict["model"] = dict(MINIMAL["model"], dipole_moment=[0.0, 0.45, 0.0])
        cfg_dict["gauge"] = {"preset": "alpha_lwl", "alpha": 0.0}
        cfg_dict["sweep"] = {"parameter": "alpha", "start": 0.0, "stop": 1.0,
                             "steps": 11}
        cfg = validate_config(json.dumps(cfg_dict))
        out = tmp_path / "out"
        run_sweep(cfg, str(out))
        rows = [r.split(",") for r in
                (out / "criterion.csv").read_text().splitlines()[1:]]
        margins = [float(r[12]) for r in rows if r[7] == "+"]
        assert margins[0] < 0 < margins[-1]  # Coulomb endpoint up to dipole


# case -> (top-level key of MINIMAL to override, its value, path a violation names)
INVALID_CONFIGS = {
    "sweep_value_string": ("sweep", dict(MINIMAL["sweep"], values=["a"]), "sweep.values"),
    "oracle_points_string": ("oracle", {"enabled": True, "fock_cutoff": 16, "points": "x"},
                             "oracle.points"),
    "gauge_entry_string": ("gauge", ["dipole"], "gauge[0]"),
    "gap_infinity": ("model", dict(MINIMAL["model"], gap=float("inf")), "model.gap"),
    "sweep_value_nan": ("sweep", dict(MINIMAL["sweep"], values=[float("nan")]),
                        "sweep.values[0]"),
    "lwl_string": ("gauge", {"preset": "coulomb", "lwl": "no"}, "gauge[0].lwl"),
    "count_boolean": ("model", dict(MINIMAL["model"], count=True), "model.count"),
    "oracle_enabled_string": ("oracle", {"enabled": "no", "fock_cutoff": 16, "points": 3},
                              "oracle.enabled"),
    "count_over_ensemble_limit": ("model", dict(MINIMAL["model"], count=5000), "model.count"),
    "gauge_empty_list": ("gauge", [], "gauge"),
    "mode_volume_differs": ("modes", [{"nu": 1.0, "volume": 2.0}], "modes[0].volume"),
    # an unknown key in each section
    "model_unknown_key": ("model", dict(MINIMAL["model"], axes=3), "model.axes"),
    "gauge_unknown_key": ("gauge", {"preset": "coulomb", "lwl ": False}, "gauge[0].lwl "),
    "modes_unknown_key": ("modes", [{"nu": 1.0, "volum": 1.0}], "modes[0].volum"),
    "sweep_unknown_key": ("sweep", dict(MINIMAL["sweep"], sclae="log"), "sweep.sclae"),
    "oracle_unknown_key": ("oracle", {"enabled": True, "fock_cutof": 16, "points": 3},
                           "oracle.fock_cutof"),
    "output_unknown_key": ("output", {"directory": "results"}, "output.directory"),
    "top_level_unknown_key": ("sede", 3, "sede"),
    "sweep_values_with_grid": ("sweep", {"parameter": "dipole_scale", "values": [0.1, 0.2],
                                         "start": 0.5, "stop": 0.9, "steps": 40,
                                         "scale": "log"}, "sweep.start"),
}


class TestMain:
    @pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
    def test_invalid_config_exit_two(self, tmp_path, capsys, case):
        key, value, violation_path = INVALID_CONFIGS[case]
        path = write_config(tmp_path, dict(MINIMAL, **{key: value}))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert any(line.startswith(f"config error: {violation_path}:")
                   for line in capsys.readouterr().err.splitlines())

    def test_anharmonic_axis_typo_exit_two(self, tmp_path, capsys):
        # a misspelt "axes" must not build the default 1-axis model; an
        # anharmonic model needs its own sweep parameter
        model = {"kind": "anharmonic_dipole", "levels": 10, "mass": 1.0, "frequency": 1.0,
                 "quartic": 0.1, "charge": 0.3, "volume": 1.0, "axis": 3}
        sweep = {"parameter": "charge", "values": [0.3]}
        path = write_config(tmp_path, dict(MINIMAL, model=model, sweep=sweep))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: model.axis: unknown key\n"

    @pytest.mark.parametrize("sweep, gauge, violation", [
        ({"parameter": "gap", "values": [-1.0]}, MINIMAL["gauge"],
         "sweep.values[0]: gap must be > 0, got -1.0"),
        ({"parameter": "volume", "start": 0, "stop": 1.0, "steps": 3}, MINIMAL["gauge"],
         "sweep.start: volume must be > 0, got 0"),
        ({"parameter": "alpha", "values": [0.5, 1.5]}, {"preset": "alpha_lwl", "alpha": 0.5},
         "sweep.values[1]: alpha must lie in [0, 1], got 1.5"),
        (dict(MINIMAL["sweep"], start=0.0, scale="log"), MINIMAL["gauge"],
         "sweep.scale: log needs start and stop nonzero and of one sign"),
    ], ids=["gap_negative", "volume_from_zero", "alpha_above_one", "log_from_zero"])
    def test_swept_value_outside_rule_exit_two(self, tmp_path, capsys, sweep, gauge, violation):
        path = write_config(tmp_path, dict(MINIMAL, sweep=sweep, gauge=gauge))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {violation}\n"

    def test_anharmonic_dimension_limit_exit_two(self, tmp_path, capsys):
        # an anharmonic model needs its own sweep parameter, so this case
        # cannot be a one-key override of MINIMAL
        model = {"kind": "anharmonic_dipole", "levels": 40, "mass": 1.0, "frequency": 1.0,
                 "quartic": 0.1, "charge": 0.5, "volume": 1.0, "axes": 3}
        sweep = {"parameter": "charge", "values": [0.5]}
        path = write_config(tmp_path, dict(MINIMAL, model=model, sweep=sweep))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            "config error: model.levels: 3-axis dimension 64000 exceeds 20000\n"

    def test_values_with_grid_keys_exit_two(self, tmp_path, capsys):
        # values would silently override the grid, so each grid key is named
        sweep = {"parameter": "dipole_scale", "values": [0.1, 0.2], "steps": 40,
                 "scale": "linear"}
        path = write_config(tmp_path, dict(MINIMAL, sweep=sweep))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("config error: sweep.steps: not allowed with values\n"
                                           "config error: sweep.scale: not allowed with values\n")

    def test_oracle_dimension_limit_exit_two(self, tmp_path, capsys):
        # the two coupled branches of the 3-axis dipole make the full space
        # 216 x 100 ** 2 states
        model = {"kind": "anharmonic_dipole", "levels": 6, "mass": 1.0, "frequency": 1.0,
                 "quartic": 0.1, "charge": 0.5, "volume": 1.0, "axes": 3}
        sweep = {"parameter": "charge", "values": [0.5]}
        oracle_cfg = {"enabled": True, "fock_cutoff": 100}
        path = write_config(tmp_path, dict(MINIMAL, model=model, sweep=sweep, oracle=oracle_cfg))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: oracle.fock_cutoff: matter dimension 216 x fock_cutoff 100 ** 2 = "
            f"2160000 exceeds the oracle limit {oracle.MAX_FULL_DIM}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("model, modes, fock, size", [
        ({"kind": "anharmonic_dipole", "levels": 4, "mass": 1.0, "frequency": 1.0,
          "quartic": 0.1, "charge": 0.5, "volume": 1.0, "axes": 3}, [{"nu": 1.0}], 40,
         "64 x fock_cutoff 40 ** 2 = 102400"),
        (dict(MINIMAL["model"], count=10), [{"nu": 1.0}, {"nu": 1.5}], 60,
         "11 x fock_cutoff 60 ** 2 = 39600"),
        (MINIMAL["model"], [{"nu": 1.0}, {"nu": 1.5}], 54, "7 x fock_cutoff 54 ** 2 = 20412"),
    ], ids=["three_axis_dipole", "ensemble_two_modes", "ensemble_two_modes_limit"])
    def test_oracle_dimension_counts_every_branch_exit_two(self, tmp_path, capsys, model,
                                                            modes, fock, size):
        # one Fock factor per coupled branch of each mode: a 3-axis dipole
        # couples two branches per mode, an ensemble one
        path = write_config(tmp_path, dict(MINIMAL, model=model, modes=modes,
                                           sweep={"parameter": "volume", "values": [1.0]},
                                           oracle={"enabled": True, "fock_cutoff": fock}))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"config error: oracle.fock_cutoff: matter dimension {size} exceeds the oracle "
            f"limit {oracle.MAX_FULL_DIM}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("enabled, fock, modes", [
        (True, oracle.MAX_FULL_DIM // 7, MINIMAL["modes"]), (False, 10000, MINIMAL["modes"]),
        (True, 53, [{"nu": 1.0}, {"nu": 1.5}]),
    ], ids=["largest_allowed", "disabled", "two_modes_largest_allowed"])
    def test_oracle_dimension_accepted(self, enabled, fock, modes):
        # MINIMAL's ensemble of 6 dipoles has 7 states; with two modes 7 x
        # 53 ** 2 = 19663, and fock_cutoff 54 fails above
        validate_config(json.dumps(dict(MINIMAL, modes=modes,
                                        oracle={"enabled": enabled, "fock_cutoff": fock})))

    def test_mode_volume_with_volume_sweep_exit_two(self, tmp_path, capsys):
        # the mode volume would hold only at the first sweep value, so this
        # case needs both a volume sweep and a mode volume
        modes = [{"nu": 1.0, "volume": 1.0}]
        sweep = {"parameter": "volume", "values": [1.0, 2.0]}
        path = write_config(tmp_path, dict(MINIMAL, modes=modes, sweep=sweep))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: modes[0].volume: unknown key\n"

    # a ring mode needs a ring model, a ring sweep parameter and a gauge
    # that admits it, so these cases cannot be one-key overrides of MINIMAL
    RING = {"kind": "ring_lattice", "sites": 8, "hopping": 1.0, "charge": 1.0}
    RING_SWEEP = {"parameter": "hopping", "values": [1.0]}
    RING_GAUGE = {"preset": "coulomb"}

    @pytest.mark.parametrize("ring_index", [8, 16, -8])
    def test_ring_index_multiple_of_sites_exit_two(self, tmp_path, capsys, ring_index):
        path = write_config(tmp_path, dict(MINIMAL, model=self.RING, sweep=self.RING_SWEEP,
                                           gauge=self.RING_GAUGE,
                                           modes=[{"ring_index": 1}, {"ring_index": ring_index}]))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: modes[1].ring_index: must not be a multiple of model.sites 8, "
            f"got {ring_index}\n")
        assert not (tmp_path / "o").exists()

    def test_ring_sites_limit_exit_two(self, tmp_path, capsys):
        model = dict(self.RING, sites=MAX_RING_SITES + 1)
        path = write_config(tmp_path, dict(MINIMAL, model=model, sweep=self.RING_SWEEP,
                                           gauge=self.RING_GAUGE, modes=[{"ring_index": 1}]))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (f"config error: model.sites: must lie in "
                                           f"[4, {MAX_RING_SITES}], got {MAX_RING_SITES + 1}\n")
        validate_config(json.dumps(dict(MINIMAL, model=dict(self.RING, sites=MAX_RING_SITES),
                                        sweep=self.RING_SWEEP, gauge=self.RING_GAUGE,
                                        modes=[{"ring_index": 1}])))

    @pytest.mark.parametrize("model, gauge, modes", [
        (MINIMAL["model"], MINIMAL["gauge"], [{"nu": 1.0, "volume": 1.0}]),
        # the ring's default volume is its site count
        ({"kind": "ring_lattice", "sites": 8, "hopping": 1.0, "charge": 1.0},
         {"preset": "coulomb"}, [{"ring_index": 1, "volume": 8}]),
    ], ids=["two_level", "ring_default"])
    def test_mode_volume_equal_to_model_rejected(self, tmp_path, capsys, model, gauge, modes):
        # a mode's volume is always the model's, so the key is gone
        sweep = {"parameter": "hopping" if model["kind"] == "ring_lattice" else "dipole_scale",
                 "values": [0.5]}
        path = write_config(tmp_path, dict(MINIMAL, model=model, gauge=gauge, modes=modes,
                                           sweep=sweep))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: modes[0].volume: unknown key\n"

    @pytest.mark.parametrize("overrides, pairs", [
        ({"model": RING, "sweep": RING_SWEEP, "gauge": [{"preset": "dipole"}, RING_GAUGE],
          "modes": [{"ring_index": 1}, {"ring_index": 2}]},
         ["gauge[0] and modes[0]", "gauge[0] and modes[1]"]),
        ({"gauge": {"preset": "multipolar_ring"}}, ["gauge[0] and modes[0]"]),
        ({"model": RING, "sweep": RING_SWEEP, "gauge": RING_GAUGE, "modes": [{"nu": 1.0}]},
         ["gauge[0] and modes[0]"]),
    ], ids=["ring_mode_dipole", "two_level_multipolar_ring", "ring_uniform_mode"])
    def test_bad_pairing_exit_two(self, tmp_path, capsys, overrides, pairs):
        path = write_config(tmp_path, dict(MINIMAL, **overrides))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[1] for line in lines] == pairs
        assert all(line.startswith("config error: gauge[") for line in lines)
        assert not (tmp_path / "o").exists()

    def test_ring_coulomb_margin_without_lwl_key(self, tmp_path):
        # the value the same config wrote with the former "lwl": false
        path = write_config(tmp_path, dict(MINIMAL, model=self.RING, sweep=self.RING_SWEEP,
                                           gauge=self.RING_GAUGE, modes=[{"ring_index": 1}]))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "criterion.csv").read_text().splitlines()
        (plus,) = [r.split(",") for r in rows[1:] if r.split(",")[7] == "+"]
        assert float(plus[12]) == pytest.approx(-1.1205145092472009, abs=1e-12)
        assert plus[13] == "false"

    def test_oracle_on_ring_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL, model=self.RING, sweep=self.RING_SWEEP,
                                           gauge=self.RING_GAUGE, modes=[{"ring_index": 1}],
                                           oracle={"enabled": True, "fock_cutoff": 4}))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: oracle.enabled: full diagonalization supports uniform-field modes, "
            "and modes[0] is a ring mode\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, violations", [
        ([MINIMAL], ["config: must be a JSON object"]),
        (dict(MINIMAL, gauge={"preset": "dipole", "alpha": 0.5}),
         ["gauge[0].alpha: only valid for alpha_lwl"]),
        (dict(MINIMAL, gauge={"preset": "alpha_lwl"}), ["gauge[0].alpha: required for alpha_lwl"]),
        (dict(MINIMAL, sweep={"parameter": "count", "values": [3]}),
         ["sweep.parameter: must be one of ['alpha', 'dipole_scale', 'gap', 'volume'], "
          "got 'count'"]),
        (dict(MINIMAL, sweep={"parameter": "alpha", "values": [0.5]}),
         ["sweep.parameter=alpha requires every gauge preset to be alpha_lwl"]),
        (dict(MINIMAL, modes=[{}]), ["modes[0].nu: missing, and no ring_index"]),
        (dict(MINIMAL, gauge=RING_GAUGE, modes=[{"ring_index": 1}]),
         ["modes[0].ring_index: requires a ring_lattice model"]),
        # the oracle size needs levels, whose own violation is the only one
        (dict(MINIMAL, model={"kind": "anharmonic_dipole", "levels": "x", "mass": 1.0,
                              "frequency": 1.0, "quartic": 0.1, "charge": 0.5, "volume": 1.0},
              sweep={"parameter": "charge", "values": [0.5]}, oracle={"enabled": True}),
         ["model.levels: expected integer, got 'x'"]),
    ], ids=["top_level_list", "alpha_on_dipole", "alpha_lwl_without_alpha", "sweep_count",
            "alpha_sweep_other_gauge", "empty_mode", "ring_index_on_ensemble",
            "levels_type_with_oracle"])
    def test_documented_violation_exit_two(self, tmp_path, capsys, config, violations):
        path = write_config(tmp_path, config)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {v}" for v in violations]
        assert not (tmp_path / "o").exists()

    def test_log_sweep_writes_geomspace(self, tmp_path):
        sweep = dict(MINIMAL["sweep"], scale="log", steps=5)
        path = write_config(tmp_path, dict(MINIMAL, sweep=sweep))
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "criterion.csv").read_text().splitlines()[1:]
        values = list(dict.fromkeys(float(r.split(",")[3]) for r in rows))
        assert values == list(np.geomspace(0.05, 0.6, 5))

    def test_overflowing_literal_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL).replace('"gap": 1.0', '"gap": 1e999'))
        assert main(["check", "--config", str(path)]) == 2
        assert "config error: model.gap: must be a finite number" in capsys.readouterr().err

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = dict(MINIMAL, sweep={"parameter": "dipole_scale", "start": 0,
                                   "stop": 1, "steps": 0})
        path = write_config(tmp_path, bad)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "sweep.steps" in capsys.readouterr().err

    def test_missing_config_exit_two(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_sweep_success_exit_zero(self, tmp_path):
        path = write_config(tmp_path, MINIMAL)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 0

    def test_check_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL)
        assert main(["check", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


def test_csv_line_formats_each_kind():
    # booleans as true/false, integers and labels verbatim, and every other
    # number as the shortest round-trip repr of its float, a signed zero,
    # extreme exponents and a numpy float included
    fields = (True, False, 7, "dipole", -0.0, 1e-300, 1e300, 0.1, np.float64(0.1))
    assert cli._csv_line(fields) == "true,false,7,dipole,-0.0,1e-300,1e+300,0.1,0.1"
    assert [float(x) for x in cli._csv_line(fields[4:]).split(",")] == list(fields[4:])


def test_run_check_structure():
    cfg = validate_config(json.dumps(MINIMAL))
    results = run_check(cfg)
    assert results["all_passed"]
    assert results["bogoliubov_lambda_vs_numeric"]["passed"]
    assert results["bogoliubov_symplectic"]["passed"]


def test_run_check_bogoliubov_suite_matches_per_draw_loop():
    # the 200 blocks drawn one at a time, as scalar draws from the seed's stream
    from gaugecavity.bogoliubov import diagonalize_block, numeric_block_eigen, verify_symplectic

    cfg = validate_config(json.dumps(MINIMAL))
    rng = np.random.default_rng(cfg.seed)
    worst_lam, worst_symp = 0.0, 0.0
    for _ in range(200):
        a, b, c = rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(-1, 1)
        d = np.array([[a, c], [c, b]])
        dmat = gauge_module.DiamagneticMatrix(d=d @ d.T, delta_q=rng.uniform(0, 0.5))
        block = diagonalize_block(dmat, 1.0)
        lam_num, _ = numeric_block_eigen(dmat, 1.0)
        worst_lam = max(worst_lam, float(np.max(np.abs(block.lambdas - lam_num))))
        worst_symp = max(worst_symp, verify_symplectic(block))
    results = run_check(cfg)
    assert results["bogoliubov_lambda_vs_numeric"]["max_dev"] == worst_lam
    assert results["bogoliubov_symplectic"]["max_dev"] == worst_symp


@pytest.mark.parametrize("param, values", [
    ("charge", [0.3, 0.6, 0.9]),  # h_m is the same at every point: the cache hits
    ("frequency", [0.8, 1.0, 1.2]),  # h_m changes at every point: point 0's serves
])
def test_check_and_sweep_write_the_same_invariants(tmp_path, param, values):
    cfg = validate_config(json.dumps({
        "model": {"kind": "anharmonic_dipole", "levels": 6, "mass": 1.0, "frequency": 1.0,
                  "quartic": 0.1, "charge": 0.5, "volume": 1.0, "axes": 3},
        "gauge": [{"preset": "dipole"}, {"preset": "coulomb"}],
        "modes": [{"nu": 1.0}],
        "sweep": {"parameter": param, "values": values},
    }))
    assert run_sweep(cfg, str(tmp_path)) == 0
    written = json.loads((tmp_path / "summary.json").read_text())["invariant_results"]
    checked = json.loads(json.dumps(run_check(cfg), default=lambda o: o.item()))
    assert "trk_sum_rule" in written and written == checked


def test_run_check_diamagnetic_psd_takes_worst_mode(monkeypatch):
    # D of the first mode has eigenvalue -5e-13: DiamagneticMatrix accepts
    # it (floor -1e-12), the PSD check (tolerance 1e-14) must not, even
    # though the second mode's D is PSD
    cfg = validate_config(json.dumps(dict(MINIMAL, modes=[{"nu": 1.0}, {"nu": 1.5}])))
    original = gauge_module.diamagnetic_D

    def first_mode_not_psd(model, gauge, mode):
        if mode.nu == 1.0:
            return gauge_module.DiamagneticMatrix(d=np.diag([1.0, -5e-13]), delta_q=1.0)
        return original(model, gauge, mode)

    monkeypatch.setattr(gauge_module, "diamagnetic_D", first_mode_not_psd)
    results = run_check(cfg)
    check = results["diamagnetic_psd_dipole"]
    assert check["max_dev"] == 5e-13
    assert not check["passed"]
    assert not results["all_passed"]


def _cli_outputs(tmp_path, tag, cfg, threads, files):
    """The bytes of ``files`` written by a `gaugecavity sweep` of ``cfg`` in
    a fresh interpreter with OPENBLAS_NUM_THREADS=``threads``."""
    path = tmp_path / f"{tag}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / tag
    src = str(pathlib.Path(oracle.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
    subprocess.run([sys.executable, "-m", "gaugecavity.cli", "sweep", "--config", str(path),
                    "--out", str(out)], env=env, check=True, timeout=300)
    return [(out / name).read_bytes() for name in files]


class TestOraclePoint:
    CONFIG = dict(MINIMAL, gauge=[{"preset": "dipole"}, {"preset": "coulomb"}],
                  oracle={"enabled": True, "fock_cutoff": 16, "points": 3})

    def test_one_eigensolve_per_gauge(self, monkeypatch, tmp_path):
        # the oracle points may run in forked workers, so each call is
        # logged to a file, which every process appends to
        calls = tmp_path / "calls"
        original = oracle.lowest_eigenpairs

        def counting(system, k=1):
            with open(calls, "a") as fh:
                fh.write(f"{k}\n")
            return original(system, k)

        monkeypatch.setattr(oracle, "lowest_eigenpairs", counting)
        run_sweep(validate_config(json.dumps(self.CONFIG)), str(tmp_path / "out"))
        assert [int(k) for k in calls.read_text().split()] == [2] * (3 * 2)

    def test_energy_and_gap_match_separate_solves(self):
        # 7 matter levels x 400 Fock levels: each parity block is past the
        # dense limit, so shift-invert Lanczos
        cfg = validate_config(json.dumps(dict(self.CONFIG, oracle={
            "enabled": True, "fock_cutoff": 400, "points": 1})))
        records = _oracle_point(cfg, 0, "dipole_scale", 0.5)
        model = build_two_level_ensemble(6, 1.0, [0.0, 0.5, 0.0], 1.0)
        for rec, preset in zip(records, ("dipole", "coulomb")):
            system = oracle.full_hamiltonian(model, make_gauge(preset), [lwl_mode(1.0, 1.0)], 400)
            assert system.dim // 2 > oracle.DENSE_LIMIT
            energy, _ = oracle.ground_state(system)
            assert abs(rec["ground_energy"] - energy) <= 1e-12 * abs(energy)
            assert rec["parity_gap"] == oracle.parity_gap(system)

    def test_oracle_csv_independent_of_blas_threads(self, tmp_path):
        # the README model, two points: each parity block (1230 states) is
        # past the dense limit, and at 0.3 the ground state is a doublet;
        # the 3-axis anharmonic dipole at d = 1000 runs the criterion on the
        # sector backend (dense lowest pairs and solves per sector)
        readme = dict(MINIMAL, model=dict(MINIMAL["model"], count=40),
                      gauge=[{"preset": "dipole"}, {"preset": "coulomb"}],
                      sweep={"parameter": "dipole_scale", "values": [0.1, 0.3]},
                      oracle={"enabled": True, "fock_cutoff": 60, "points": 2})
        anharmonic = dict(MINIMAL, model={
            "kind": "anharmonic_dipole", "levels": 10, "mass": 1.0, "frequency": 1.0,
            "quartic": 0.1, "charge": 0.3, "volume": 1.0, "axes": 3},
            gauge=[{"preset": "dipole"}, {"preset": "coulomb"}],
            sweep={"parameter": "charge", "values": [0.3, 1.2]})
        cases = [(readme, ("criterion.csv", "oracle.csv")), (anharmonic, ("criterion.csv",))]
        outputs = {}
        for case, (cfg, files) in enumerate(cases):
            for threads in ("1", "2"):
                for name, data in zip(files, _cli_outputs(tmp_path, f"case{case}-threads{threads}",
                                                          cfg, threads, files)):
                    outputs.setdefault((case, name), []).append(data)
        assert len(outputs) == 3
        assert [key for key, (one, two) in outputs.items() if one != two] == []

    def test_dense_oracle_blocks_independent_of_blas_threads(self, tmp_path):
        # 21 matter levels x 28 Fock levels: parity blocks of 294 states,
        # within the dense limit, so dense lowest-pairs solves take them
        assert 21 * 28 // 2 <= oracle.DENSE_LIMIT
        cfg = dict(MINIMAL, model=dict(MINIMAL["model"], count=20),
                   gauge=[{"preset": "dipole"}, {"preset": "coulomb"}],
                   sweep={"parameter": "dipole_scale", "values": [0.15, 0.3]},
                   oracle={"enabled": True, "fock_cutoff": 28})
        one, two = (_cli_outputs(tmp_path, f"threads{threads}", cfg, threads, ("oracle.csv",))
                    for threads in ("1", "2"))
        assert len(one[0].splitlines()) == 1 + 2 * 2
        assert one == two

    def test_photon_observables_sum_both_polarisations(self):
        # a 1-axis dipole lies along x, which lwl_mode makes polarisation 1
        cfg = validate_config(json.dumps(dict(MINIMAL, model={
            "kind": "anharmonic_dipole", "levels": 12, "mass": 1.0, "frequency": 1.0,
            "quartic": 0.1, "charge": 0.9, "volume": 1.0},
            gauge=[{"preset": "dipole"}, {"preset": "coulomb"}],
            sweep={"parameter": "charge", "values": [0.9]},
            oracle={"enabled": True, "fock_cutoff": 150})))
        records = _oracle_point(cfg, 0, "charge", 0.9)
        model = _build_model(cfg, "charge", 0.9)
        for rec, preset in zip(records, ("dipole", "coulomb")):
            system = oracle.full_hamiltonian(model, make_gauge(preset), [lwl_mode(1.0, 1.0)], 150)
            _, state = oracle.ground_state(system)
            (coh1, occ1), (coh2, occ2) = (oracle.photon_coherence(state, system, 0, sigma)
                                          for sigma in (1, 2))
            assert occ1 > 0.03 and occ2 == 0.0
            assert rec["occupation"] == pytest.approx(occ1 + occ2, rel=1e-10)
            assert rec["coherence_abs"] == pytest.approx(math.hypot(abs(coh1), abs(coh2)),
                                                         abs=1e-12)

    def test_photon_observables_sum_every_mode(self):
        # the second, softer mode holds most of the photons
        cfg = validate_config(json.dumps(dict(
            MINIMAL, model=dict(MINIMAL["model"], count=4), modes=[{"nu": 3.0}, {"nu": 1.0}],
            sweep={"parameter": "dipole_scale", "values": [0.5]},
            oracle={"enabled": True, "fock_cutoff": 12})))
        (rec,) = _oracle_point(cfg, 0, "dipole_scale", 0.5)
        model = _build_model(cfg, "dipole_scale", 0.5)
        modes = [lwl_mode(3.0, 1.0), lwl_mode(1.0, 1.0)]
        system = oracle.full_hamiltonian(model, make_gauge("dipole"), modes, 12)
        _, state = oracle.ground_state(system)
        photons = [oracle.photon_coherence(state, system, i, sigma)
                   for i in (0, 1) for sigma in (1, 2)]
        occ = [o for _, o in photons]
        assert occ[0] + occ[1] == pytest.approx(0.614, abs=1e-3)
        assert occ[2] + occ[3] == pytest.approx(1.829, abs=1e-3)
        assert rec["occupation"] == pytest.approx(sum(occ), rel=1e-10)
        assert rec["coherence_abs"] == pytest.approx(math.hypot(*(abs(c) for c, _ in photons)),
                                                     abs=1e-12)


def _logged_oracle_point(log, delay, cfg, index, param, value):
    """Stands in for `cli._oracle_point`: appends the point index and the
    BLAS pool sizes to ``log``, waits ``delay`` seconds and returns no
    records.  Module level, so that a worker can unpickle it."""
    with open(log, "a") as fh:
        fh.write(json.dumps([index, cli._blas_threads()]) + "\n")
    time.sleep(delay)
    return []


def _cpus(monkeypatch, count):
    """Make the sweep see ``count`` CPUs in its affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestOracleWorkers:
    """The oracle points run on forked workers beside the criterion stage
    where there is more than one CPU, and in the parent where there is one."""

    CONFIG = dict(MINIMAL, gauge=[{"preset": "dipole"}, {"preset": "coulomb"}],
                  oracle={"enabled": True, "fock_cutoff": 16, "points": 4})

    def test_one_cpu_matches_workers(self, monkeypatch, tmp_path):
        path = write_config(tmp_path, self.CONFIG)
        runs = []
        for cpus in (1, 1, 3, 3):
            _cpus(monkeypatch, cpus)
            out = tmp_path / f"run{len(runs)}"
            assert main(["sweep", "--config", path, "--out", str(out)]) == 0
            assert multiprocessing.active_children() == []
            summary = json.loads((out / "summary.json").read_text())
            assert summary["oracle_workers"] == (0 if cpus == 1 else 3)
            runs.append(tuple((out / name).read_bytes() for name in ("criterion.csv",
                                                                      "oracle.csv")))
        assert len(runs[0][1].splitlines()) == 1 + 4 * 2
        assert len(set(runs)) == 1

    def test_oracle_off_starts_no_worker(self, tmp_path):
        assert main(["sweep", "--config", write_config(tmp_path, MINIMAL),
                     "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["oracle_workers"] == 0
        assert not (tmp_path / "out" / "oracle.csv").exists()

    def test_worker_error_exits_one(self, monkeypatch, tmp_path, capsys):
        def failing(system, k=1):
            raise NumericError(f"forced failure in process {os.getpid()}")

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(oracle, "lowest_eigenpairs", failing)
        assert main(["sweep", "--config", write_config(tmp_path, self.CONFIG),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "runtime error: forced failure in process" in err
        assert f"process {os.getpid()}\n" not in err  # raised in a worker
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_criterion_error_cancels_pending_points(self, monkeypatch, tmp_path, capsys):
        def failing(*args, **kwargs):
            raise NumericError("forced criterion failure")

        log = tmp_path / "started"
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(cli, "verdicts", failing)
        monkeypatch.setattr(cli, "_oracle_point",
                            functools.partial(_logged_oracle_point, str(log), 0.2))
        # every one of the 12 sweep points is an oracle point
        cfg = dict(self.CONFIG, oracle={"enabled": True, "fock_cutoff": 4})
        assert main(["sweep", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert "runtime error: forced criterion failure" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        started = log.read_text().splitlines() if log.exists() else []
        assert len(started) < 12


class TestBlasPin:
    """`main` and `run_sweep` run with numpy's and scipy's OpenBLAS on one
    thread each and restore the earlier counts."""

    @pytest.fixture
    def numpy_pool(self):
        pool = cli._openblas_pool("numpy")
        if pool is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        get, set_ = pool
        before = get()
        set_(2)
        yield get
        set_(before)

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_main_restores_numpy_threads(self, numpy_pool, monkeypatch, tmp_path, code):
        seen = []

        def check(cfg, *point):
            seen.append(numpy_pool())
            if code == 1:
                raise NumericError("forced failure")
            return {"all_passed": True}

        monkeypatch.setattr(cli, "run_check", check)
        cfg = dict(MINIMAL, seed="three") if code == 2 else MINIMAL
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == code
        assert seen == ([] if code == 2 else [1])
        assert numpy_pool() == 2

    def test_main_restores_numpy_threads_on_usage_error(self, numpy_pool):
        with pytest.raises(SystemExit):
            main(["no-such-command"])
        assert numpy_pool() == 2

    def test_summary_records_pool_sizes(self, numpy_pool, tmp_path):
        scipy_pool = cli._openblas_pool("scipy")
        assert main(["sweep", "--config", write_config(tmp_path, MINIMAL),
                     "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["blas_threads"] == {"numpy": 1, "scipy": None if scipy_pool is None else 1}

    def test_run_sweep_pins_both_pools_in_workers_too(self, numpy_pool, monkeypatch, tmp_path):
        scipy_pool = cli._openblas_pool("scipy")
        if scipy_pool is None:
            pytest.skip("scipy's bundled OpenBLAS not found")
        scipy_before = scipy_pool[0]()
        scipy_pool[1](2)
        try:
            seen = []
            monkeypatch.setattr(cli, "run_check", lambda cfg, *point: seen.append(
                cli._blas_threads()) or {"all_passed": True})
            log = tmp_path / "points"
            monkeypatch.setattr(cli, "_oracle_point",
                                functools.partial(_logged_oracle_point, str(log), 0.0))
            _cpus(monkeypatch, 2)
            cfg = validate_config(json.dumps(dict(MINIMAL, oracle={
                "enabled": True, "fock_cutoff": 4, "points": 2})))
            assert run_sweep(cfg, str(tmp_path / "out")) == 0
            one = {"numpy": 1, "scipy": 1}
            assert seen == [one]
            points = [json.loads(line) for line in log.read_text().splitlines()]
            assert sorted(index for index, _ in points) == [0, 11]
            assert [pools for _, pools in points] == [one, one]
            assert (numpy_pool(), scipy_pool[0]()) == (2, 2)
        finally:
            scipy_pool[1](scipy_before)

    def test_pools_looked_up_once(self, numpy_pool, monkeypatch):
        # the (get, set) pair of each pool is cached: a pin looks nothing up,
        # and still restores the earlier counts
        pools = {package: cli._openblas_pool(package) for package in cli.OPENBLAS_THREADS}
        looked_up = []
        monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: looked_up.append(args))
        monkeypatch.setattr(glob, "glob", lambda *args, **kwargs: looked_up.append(args) or [])
        for _ in range(2):
            with cli._one_blas_thread():
                assert numpy_pool() == 1
            assert numpy_pool() == 2
        assert {package: cli._openblas_pool(package) for package in pools} == pools
        assert looked_up == []

    def test_no_library_no_pin(self, monkeypatch, tmp_path):
        real = cli._openblas_pool("numpy")
        looked_up = []
        monkeypatch.setattr(cli, "_openblas_pool", lambda package: looked_up.append(package))
        seen = []
        monkeypatch.setattr(cli, "run_check", lambda cfg, *point: seen.append(
            None if real is None else real[0]()) or {"all_passed": True})
        before = None if real is None else real[0]()
        assert main(["sweep", "--config", write_config(tmp_path, MINIMAL),
                     "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert "numpy" in looked_up
        assert summary["blas_threads"] == {"numpy": None, "scipy": None}
        assert seen == [before]
        assert (None if real is None else real[0]()) == before


# one small model of each kind, and where a built model carries each
# sweepable value
BUILD_MODELS = {
    "two_level_ensemble": MINIMAL["model"],
    "anharmonic_dipole": {"kind": "anharmonic_dipole", "levels": 5, "mass": 1.0,
                          "frequency": 1.0, "quartic": 0.1, "charge": 0.5, "volume": 1.0},
    "ring_lattice": {"kind": "ring_lattice", "sites": 6, "hopping": 1.0, "charge": 1.0},
}
CARRIED = {
    "gap": lambda model: model.params.detail["gap"],
    "volume": lambda model: model.params.volume,
    "frequency": lambda model: model.params.detail["frequency"],
    "quartic": lambda model: model.params.detail["quartic"],
    "charge": lambda model: model.params.charge,
    "hopping": lambda model: model.params.detail["hopping"],
    "dipole_scale": lambda model: model.params.detail["dipole_moment"][1],
}
MODEL_SWEEPS = [(kind, name) for kind, (_, keys) in MODELS.items()
                for name in _swept_keys(keys) if name != "alpha"]


@pytest.mark.parametrize("kind, name", MODEL_SWEEPS, ids=[f"{k}-{n}" for k, n in MODEL_SWEEPS])
def test_sweepable_key_reaches_builder(kind, name):
    # 0.37 differs from every value in BUILD_MODELS; dipole_scale multiplies
    # the two-level dipole_moment (0, 1, 0); a ring couples through a ring mode
    ring = {"gauge": {"preset": "coulomb"}, "modes": [{"ring_index": 1}]} \
        if kind == "ring_lattice" else {}
    cfg = validate_config(json.dumps(dict(MINIMAL, model=BUILD_MODELS[kind], **ring,
                                          sweep={"parameter": name, "values": [0.37]})))
    assert CARRIED[name](_build_model(cfg, name, 0.37)) == 0.37


README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def _check_readme_key_table(tables: dict):
    """The README rows `| table | key | required or default | sweepable |`
    of each named key table list its keys in order, with their defaults and
    sweepability."""
    rows: dict = {}
    for line in README.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].strip("`") in tables:
            rows.setdefault(cells[0].strip("`"), {})[cells[1].strip("`")] = cells[2:]
    assert set(rows) == set(tables)
    for table, keys in tables.items():
        assert list(rows[table]) == list(keys), table
        for name, key in keys.items():
            default, sweepable = rows[table][name]
            expected = "required" if key.default is REQUIRED else f"`{json.dumps(key.default)}`"
            assert default.split(" ")[0] == expected, (table, name)
            assert sweepable == ("yes" if key.sweep else "no"), (table, name)


def test_readme_model_table_matches_schema():
    _check_readme_key_table({kind: keys for kind, (_, keys) in MODELS.items()})


def test_readme_gauge_and_mode_table_matches_schema():
    _check_readme_key_table({"gauge": GAUGE, "modes": MODE})


def test_readme_cli_usage_matches_parser(capsys):
    usage = dict(re.findall(r"^gaugecavity (\w+) (.*)$", README, flags=re.M))
    with pytest.raises(SystemExit):
        main(["--help"])
    commands = re.search(r"\{([\w,]+)\}", capsys.readouterr().out).group(1).split(",")
    assert sorted(usage) == sorted(commands)
    for command in commands:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        options = set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}
        assert set(re.findall(r"--[\w-]+", usage[command])) == options, command
