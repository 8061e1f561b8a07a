"""Closed-loop benchmark of `gaugecavity sweep`: one client, one sweep at a time.

    python3 perfbench/run.py --workload readme-sweep --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 60      # every workload in turn

Each sweep runs in a fresh interpreter (perfbench/child.py) that calls the
CLI entry point `gaugecavity.cli.main(["sweep", ...])` on the generated
config, exactly as a user would.  Every sweep's outputs are checked
(perfbench/check.py); a sweep that exits non-zero, raises or fails the
check counts as failed.  Sweeps repeat while the next one is expected to
end within `--seconds`; there is always at least one.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced sweeps and reports the per-layer metrics of the median traced
sweep.  The last line of standard output is the JSON result; the lines
before it name every metric with its unit and record the environment.
The full record, and the raw spans of traced sweeps, go to .perfbench_runs/
in the checkout.  With `--workload all` the last line combines the
workloads' results, with each metric named `<workload>/<metric>`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import check
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

END_TO_END = (("setup_s", "s"), ("sweep_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("operators.eigh.calls", "count"), ("operators.eigh.self_s", "s"),
    ("operators.eigh.work_d3", "count"), ("operators.eigh.redundant_fraction", "1"),
    ("matter.build.calls", "count"), ("matter.build.self_s", "s"),
    ("matter.spectrum.calls", "count"), ("matter.spectrum.self_s", "s"),
    ("matter.couplings_from_ground.calls", "count"),
    ("matter.couplings_from_ground.self_s", "s"),
    ("matter.para_current.calls", "count"), ("matter.para_current.self_s", "s"),
    ("matter.sum_rule.self_s", "s"),
    ("gauge.coupling_f.calls", "count"), ("gauge.coupling_f.self_s", "s"),
    ("gauge.dressed_h.self_s", "s"),
    ("gauge.diamagnetic_D.calls", "count"), ("gauge.diamagnetic_D.self_s", "s"),
    ("bogoliubov.calls", "count"), ("bogoliubov.self_s", "s"),
    ("response.lehmann_sum.calls", "count"), ("response.lehmann_sum.self_s", "s"),
    ("criterion.evaluate.calls", "count"), ("criterion.evaluate.self_s", "s"),
    ("criterion.evaluate.p50_ms", "ms"), ("criterion.evaluate.p90_ms", "ms"),
    ("oracle.assemble.calls", "count"), ("oracle.assemble.self_s", "s"),
    ("oracle.dim_max", "count"), ("oracle.nnz_sum", "count"),
    ("oracle.lanczos.calls", "count"), ("oracle.lanczos.self_s", "s"),
    ("oracle.lanczos.failures", "count"), ("oracle.observables.self_s", "s"),
    ("cli.check.self_s", "s"), ("cli.self_s", "s"),
    ("setup.import_s", "s"), ("setup.validate_s", "s"),
    ("trace.sweep_s", "s"), ("trace.overhead_s", "s"), ("untraced_s", "s"),
)
# Fresh interpreters that only import and validate, so setup_s is a median
# even when a run has room for a single sweep.
SETUP_RUNS = 3
# Every run must end within 180 s; no sweep starts that is expected to end
# after this many seconds, and none may run past it.
DEADLINE_S = 170.0


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _run_child(mode: str, config_path: str, work: str, tag: str, timeout: float) -> dict:
    out_dir = os.path.join(work, tag)
    result_path = os.path.join(work, tag + ".result.json")
    log_path = os.path.join(work, tag + ".log")
    with open(log_path, "w") as log:
        try:
            subprocess.run([sys.executable, CHILD, mode, config_path, out_dir, result_path],
                           stdout=log, stderr=subprocess.STDOUT, timeout=timeout,
                           cwd=ROOT, check=False)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s", "out_dir": out_dir}
    try:
        with open(result_path) as fh:
            res = json.load(fh)
    except (OSError, ValueError) as exc:
        res = {"error": f"no result from child ({exc}); see {log_path}"}
    res["out_dir"] = out_dir
    return res


def sweep_violations(workload: str, config_text: str, res: dict,
                     references: dict) -> list[str]:
    """Why one sweep counts as failed; empty when it succeeded."""
    if "error" in res:
        return [res["error"]]
    if res["returncode"] != 0:
        return [f"sweep exited {res['returncode']}"]
    return check.check_outputs(workload, config_text, res["out_dir"], references)


def _program_timings(res: dict) -> dict:
    """The stage timings the program itself writes to summary.json."""
    try:
        with open(os.path.join(res["out_dir"], "summary.json")) as fh:
            return json.load(fh)["timings"]
    except (OSError, ValueError, KeyError):
        return {}


def _median_index(values: list[float]) -> int:
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


class BenchError(Exception):
    """A run that cannot produce a result (exit code in .code)."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; print its report lines and return the JSON result."""
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "gaugecavity", "cli.py")):
        raise BenchError(f"no gaugecavity sources under {ROOT}/src", code=2)
    work = os.path.join(ROOT, ".perfbench_runs", f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config_text = workloads.make_config(workload, seed)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        fh.write(config_text)
    references = check.load_references()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    setups = []
    for i in range(SETUP_RUNS):
        res = _run_child("setup", config_path, work, f"setup{i}", remaining())
        if "error" in res:
            raise BenchError(f"setup failed:\n{res['error']}")
        setups.append(res)
    environment = dict(setups[0]["environment"], commit=_git_commit(),
                       source_sha256=_source_digest())

    sweeps = []  # (mode, child result, violations)
    modes = ("sweep",) if trace == 0 else ("sweep", "trace")
    # Whole rounds only (a round is one sweep, or an untraced and a traced
    # one): another starts when, at the mean round time so far, it would
    # end within `seconds`.
    measure_start = time.monotonic()
    rounds, longest = 0, 0.0
    while True:
        t = time.monotonic()
        for mode in modes:
            res = _run_child(mode, config_path, work, f"{mode}{len(sweeps)}", remaining())
            sweeps.append((mode, res, sweep_violations(workload, config_text,
                                                       res, references)))
        rounds += 1
        longest = max(longest, time.monotonic() - t)
        elapsed = time.monotonic() - measure_start
        if elapsed * (rounds + 1) / rounds > seconds or remaining() < 1.5 * longest:
            break

    failed = sum(1 for _, _, v in sweeps if v)
    for mode, res, violations in sweeps:
        for v in violations[:5]:
            print(f"FAILED {mode} {res['out_dir']}: {v}")
    timed = [(mode, res) for mode, res, _ in sweeps if "sweep_s" in res]
    untraced = [res for mode, res in timed if mode == "sweep"]
    traced = [res for mode, res in timed if mode == "trace"]
    if not untraced or (trace and not traced):
        raise BenchError("no sweep completed")
    starts = setups + [res for _, res in timed]
    sweep_s = statistics.median(r["sweep_s"] for r in untraced)

    if trace == 0:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in starts),
            "sweep_s": sweep_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        units = dict(END_TO_END)
    else:
        pick = traced[_median_index([r["sweep_s"] for r in traced])]
        layers = pick["layers"]
        metrics = {name: layers[name] for name, _ in PER_LAYER if name in layers}
        metrics["setup.import_s"] = statistics.median(r["import_s"] for r in starts)
        metrics["setup.validate_s"] = statistics.median(r["validate_s"] for r in starts)
        metrics["trace.sweep_s"] = pick["sweep_s"]
        metrics["trace.overhead_s"] = pick["sweep_s"] - sweep_s
        metrics["untraced_s"] = pick["sweep_s"] - layers["traced_s"]
        units = dict(PER_LAYER)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment, "config": config_text,
        "attempted": len(sweeps), "failed": failed,
        "failed_fraction": failed / len(sweeps),
        "samples": [{"mode": mode, "violations": v,
                     **{k: res[k] for k in ("setup_s", "sweep_s", "peak_rss_mb")
                        if k in res},
                     "program_timings": _program_timings(res)}
                    for mode, res, v in sweeps],
        "metrics": metrics,
    }
    with open(os.path.join(work, "record.json"), "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"workload {workload} seed {seed} trace {trace}: "
          f"{len(sweeps)} sweeps ({len(untraced)} untraced, {len(traced)} traced), "
          f"{len(starts)} fresh interpreters; record in {os.path.relpath(work, ROOT)}")
    print("environment " + json.dumps(environment, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(f"{'failed_fraction':40s} {failed / len(sweeps):14.6g} 1")
    return {
        "correct": failed == 0,
        "attempted": len(sweeps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
