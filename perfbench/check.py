"""Output checker for one benchmark sweep.

Columns are read by name, so columns added to the CSVs later do not
break it.  Rules (relative tolerance 1e-9, taken against max(|expected|, 1)
because margins cross zero):

* every Coulomb-gauge row has margin -1 (the long-wavelength no-go);
* two-level dipole-gauge "+" rows have margin 2 N (d s)^2 / (V gap) - 1;
* two-level dipole-gauge "-" rows have margin -1;
* anharmonic dipole-gauge margins and oracle ground energies match the
  values recorded in references.json.

coherence_abs is not checked: inside the superradiant doublet it depends
on which state the Lanczos solver returns.
"""

from __future__ import annotations

import csv
import json
import math
import os

REL_TOL = 1e-9
HERE = os.path.dirname(os.path.abspath(__file__))


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1.0)


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(workload: str, config_text: str, out_dir: str,
                  references: dict) -> list[str]:
    """Violations found in one sweep's output directory (empty when correct)."""
    try:
        return _check(workload, json.loads(config_text), out_dir, references)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check(workload: str, cfg: dict, out_dir: str, references: dict) -> list[str]:
    errors: list[str] = []
    model = cfg["model"]
    refs = references.get(workload, {})
    rows = _read_rows(os.path.join(out_dir, "criterion.csv"))
    sweep = cfg["sweep"]
    n_points = len(sweep["values"]) if "values" in sweep else sweep["steps"]
    want_rows = n_points * len(cfg["gauge"]) * len(cfg["modes"]) * 2
    if len(rows) != want_rows:
        errors.append(f"criterion.csv: {len(rows)} rows, expected {want_rows}")
    keys = {(r["point_index"], r["gauge"], r["q_index"], r["tau"]) for r in rows}
    if len(keys) != len(rows):
        errors.append("criterion.csv: duplicate (point, gauge, mode, tau) rows")
    if {int(r["point_index"]) for r in rows} != set(range(n_points)):
        errors.append("criterion.csv: point indices do not cover the sweep")

    two_level = model["kind"] == "two_level_ensemble"
    if two_level:
        d = math.sqrt(sum(x * x for x in model["dipole_moment"]))
        n, vol, gap = model["count"], model["volume"], model["gap"]
    margin_refs = refs.get("margin", {})
    for r in rows:
        where = f"criterion.csv point {r['point_index']} {r['gauge']} {r['tau']}"
        margin = float(r["margin"])
        value = float(r["param_value"])
        if r["gauge"] == "coulomb":
            want = -1.0
        elif r["gauge"] == "dipole" and two_level:
            if r["param_name"] != "dipole_scale":
                errors.append(f"{where}: no analytic margin for {r['param_name']} sweeps")
                continue
            want = 2.0 * n * (d * value) ** 2 / (vol * gap) - 1.0 if r["tau"] == "+" else -1.0
        else:
            key = f"{r['param_value']}|{r['gauge']}|{r['tau']}"
            if key not in margin_refs:
                errors.append(f"{where}: no reference margin for {key}")
                continue
            want = margin_refs[key]
        if not _rel_err(margin, want) <= REL_TOL:
            errors.append(f"{where}: margin {margin!r}, expected {want!r}")

    oracle_path = os.path.join(out_dir, "oracle.csv")
    if cfg.get("oracle", {}).get("enabled"):
        energy_refs = refs.get("ground_energy", {})
        orows = _read_rows(oracle_path)
        want_orows = min(cfg["oracle"]["points"], n_points) * len(cfg["gauge"])
        if len(orows) != want_orows:
            errors.append(f"oracle.csv: {len(orows)} rows, expected {want_orows}")
        for r in orows:
            key = f"{r['param_value']}|{r['gauge']}"
            energy = float(r["ground_energy"])
            if key not in energy_refs:
                errors.append(f"oracle.csv: no reference ground energy for {key}")
            elif not _rel_err(energy, energy_refs[key]) <= REL_TOL:
                errors.append(f"oracle.csv {key}: ground_energy {energy!r}, "
                              f"expected {energy_refs[key]!r}")
    elif os.path.exists(oracle_path):
        errors.append("oracle.csv written although the oracle is disabled")

    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    if summary["invariant_results"]["all_passed"] is not True:
        errors.append("summary.json: invariant suite did not pass")
    return errors
