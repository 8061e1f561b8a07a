"""Record the reference values check.py compares against.

    python3 perfbench/record_refs.py

Runs the package's own sweep on every candidate grid point the seeded
workloads can draw and writes perfbench/references.json: oracle ground
energies for readme-sweep (per stop candidate) and dipole-gauge margins
for anharmonic-criterion (all candidate charges in one sweep).  Re-record
only when a change is meant to alter these numbers, and say so.
"""

import csv
import json
import os
import shutil
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _sweep(cli, config_text: str, work: str) -> str:
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        fh.write(config_text)
    out = os.path.join(work, "out")
    if cli.main(["sweep", "--config", config_path, "--out", out]) != 0:
        raise SystemExit(f"sweep failed for {config_path}")
    return out


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def main() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from gaugecavity import cli

    work = os.path.join(ROOT, ".perfbench_runs", "references")
    energies = {}
    for stop in workloads.README_STOPS:
        out = _sweep(cli, workloads.readme_config(stop), os.path.join(work, f"readme-{stop}"))
        for r in _rows(os.path.join(out, "oracle.csv")):
            energies[f"{r['param_value']}|{r['gauge']}"] = float(r["ground_energy"])

    charges = sorted(set(c for group in workloads.ANHARMONIC_CHARGES for c in group))
    out = _sweep(cli, workloads.anharmonic_config(charges), os.path.join(work, "anharmonic"))
    margins = {f"{r['param_value']}|{r['gauge']}|{r['tau']}": float(r["margin"])
               for r in _rows(os.path.join(out, "criterion.csv")) if r["gauge"] == "dipole"}

    refs = {"readme-sweep": {"ground_energy": energies},
            "anharmonic-criterion": {"margin": margins}}
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
