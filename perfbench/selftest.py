"""Self-test of the benchmark harness (about 40 s).

    python3 perfbench/selftest.py

Checks that
* the default seed generates the README example config byte-for-byte,
  and each seed always generates the same config;
* the metric tables in run.py match BENCHMARK.json;
* a traced and an untraced benchmark sweep write the same criterion.csv
  and oracle.csv, byte for byte, as a plain `gaugecavity sweep` of the
  same config, and the traced run's layer self times account for its
  sweep time;
* the checker accepts real output with an extra column inserted, and
  counts corrupted output (a perturbed margin, a missing row, a wrong
  oracle ground energy, a wrong anharmonic margin) as a failed sweep;
* run.py exits non-zero, printing no result, in a directory that holds
  only BENCHMARK.json and perfbench/.
"""

import csv
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys

import check
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_runs", "selftest")


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"SELFTEST FAIL: {what}")
    print(f"ok   {what}")


def _rewrite_csv(path: str, edit) -> None:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = list(reader.fieldnames), list(reader)
    _write_csv(path, *edit(fields, rows))


def _write_csv(path: str, fields: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _corrupted(src: str, name: str, csv_name: str, edit) -> str:
    dst = os.path.join(WORK, name)
    shutil.copytree(src, dst)
    _rewrite_csv(os.path.join(dst, csv_name), edit)
    return dst


def test_configs() -> None:
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme_block = re.search(r"```json\n(.*?)```", fh.read(), re.S).group(1)
    _expect(workloads.make_config("readme-sweep", workloads.DEFAULT_SEED) == readme_block,
            "default seed reproduces the README config byte-for-byte")
    for w in workloads.WORKLOADS:
        _expect(workloads.make_config(w, 11) == workloads.make_config(w, 11),
                f"{w}: the same seed gives the same config")
        grids = {json.dumps(json.loads(workloads.make_config(w, s))["sweep"])
                 for s in range(20)}
        _expect(len(grids) > 1, f"{w}: the seed moves the sweep grid")


def test_metric_tables() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    _expect([(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END),
            "end_to_end metrics match BENCHMARK.json")
    _expect([(m["name"], m["unit"]) for m in bench["per_layer"]] == list(run.PER_LAYER),
            "per_layer metrics match BENCHMARK.json")
    _expect({w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS),
            "BENCHMARK.json names only workloads run.py knows")


def test_sweep_outputs(references: dict) -> str:
    """Runs the benchmark traced on readme-sweep; returns an untraced output dir."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "readme-sweep", "--seed", "0",
                           "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    _expect(proc.returncode == 0, "traced readme-sweep run exits 0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _expect(result["correct"] and result["failed"] == 0, "traced run is correct")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    _expect(set(metrics) == {name for name, _ in run.PER_LAYER},
            "traced run emits every per-layer metric")
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    _expect(abs(self_sum + metrics["untraced_s"] - metrics["trace.sweep_s"]) < 1e-6,
            "layer self times plus untraced_s add up to the traced sweep_s")
    _expect(0 <= metrics["untraced_s"] < 0.05 * metrics["trace.sweep_s"],
            f"untraced remainder is small ({metrics['untraced_s']:.4f} s)")

    bench_dir = os.path.join(ROOT, ".perfbench_runs", "readme-sweep-seed0-trace1")
    plain = os.path.join(WORK, "plain")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "gaugecavity.cli", "sweep", "--config",
                           os.path.join(bench_dir, "config.json"), "--out", plain],
                          cwd=ROOT, env=env, timeout=180)
    _expect(proc.returncode == 0, "plain gaugecavity sweep exits 0")
    for tag in ("sweep0", "trace1"):
        for name in ("criterion.csv", "oracle.csv"):
            _expect(filecmp.cmp(os.path.join(plain, name),
                                os.path.join(bench_dir, tag, name), shallow=False),
                    f"{tag}/{name} is byte-identical to the plain sweep's")
    return os.path.join(bench_dir, "sweep0")


def test_checker(out_dir: str, references: dict) -> None:
    config = workloads.make_config("readme-sweep", 0)

    def failed(workload, cfg, path):
        res = {"returncode": 0, "out_dir": path}
        return bool(run.sweep_violations(workload, cfg, res, references))

    _expect(not failed("readme-sweep", config, out_dir), "checker accepts real output")

    def extra_column(fields, rows):
        for r in rows:
            r["ground_gap"] = "0.5"
        return fields[:3] + ["ground_gap"] + fields[3:], rows
    path = _corrupted(out_dir, "extra-column", "criterion.csv", extra_column)
    _expect(not failed("readme-sweep", config, path),
            "checker reads columns by name (extra column accepted)")

    def bump_margin(fields, rows):
        row = next(r for r in rows if r["gauge"] == "dipole" and r["tau"] == "+"
                   and float(r["param_value"]) > 0.2)
        row["margin"] = repr(float(row["margin"]) * (1 + 1e-6))
        return fields, rows

    def drop_row(fields, rows):
        return fields, rows[:-1]

    def bump_energy(fields, rows):
        rows[5]["ground_energy"] = repr(float(rows[5]["ground_energy"]) + 1e-6)
        return fields, rows

    for name, csv_name, edit in (("margin", "criterion.csv", bump_margin),
                                 ("missing-row", "criterion.csv", drop_row),
                                 ("energy", "oracle.csv", bump_energy)):
        path = _corrupted(out_dir, name, csv_name, edit)
        _expect(failed("readme-sweep", config, path),
                f"corrupted output ({name}) counts as failed")

    # The anharmonic reference path, on output built from the references.
    anh_config = workloads.make_config("anharmonic-criterion", 0)
    margins = references["anharmonic-criterion"]["margin"]
    fields = ["schema_version", "point_index", "param_name", "param_value",
              "gauge", "q_index", "tau", "margin"]
    rows = [{"schema_version": "1", "point_index": str(i), "param_name": "charge",
             "param_value": repr(c), "gauge": g, "q_index": "0", "tau": t,
             "margin": repr(margins[f"{c!r}|dipole|{t}"] if g == "dipole" else -1.0)}
            for i, c in enumerate(json.loads(anh_config)["sweep"]["values"])
            for g in ("dipole", "coulomb") for t in "+-"]
    anh_dir = os.path.join(WORK, "anharmonic")
    os.makedirs(anh_dir)
    with open(os.path.join(anh_dir, "summary.json"), "w") as fh:
        json.dump({"invariant_results": {"all_passed": True}}, fh)
    _write_csv(os.path.join(anh_dir, "criterion.csv"), fields, rows)
    _expect(not failed("anharmonic-criterion", anh_config, anh_dir),
            "checker accepts reference anharmonic margins")
    path = _corrupted(anh_dir, "anharmonic-margin", "criterion.csv", bump_margin)
    _expect(failed("anharmonic-criterion", anh_config, path),
            "corrupted output (anharmonic margin) counts as failed")


def test_bare_directory() -> None:
    bare = os.path.join(WORK, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "readme-sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    _expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
            "run.py fails without printing a result when the sources are absent")


def main() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    references = check.load_references()
    test_configs()
    test_metric_tables()
    test_bare_directory()
    out_dir = test_sweep_outputs(references)
    test_checker(out_dir, references)
    print("SELFTEST PASS")


if __name__ == "__main__":
    main()
