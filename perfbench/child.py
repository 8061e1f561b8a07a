"""One fresh interpreter of a benchmark run.

    python3 perfbench/child.py MODE CONFIG OUT_DIR RESULT_JSON

MODE is `setup` (import the package and validate the config), `sweep`
(setup, then one `gaugecavity sweep` through the CLI entry point) or
`trace` (the same sweep with spans recorded around each layer).  The
package is imported from the checkout's `src`; nothing of numpy or the
package is imported before the setup clock starts.
"""

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                            pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[pkg.__name__] = fn()
                    break
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                     if k in os.environ},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(mode: str, config_path: str, out_dir: str) -> dict:
    with open(config_path) as fh:
        text = fh.read()
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import gaugecavity
    from gaugecavity import cli
    t1 = time.perf_counter()
    cli.validate_config(text)
    t2 = time.perf_counter()
    origin = os.path.dirname(os.path.abspath(gaugecavity.__file__))
    if origin != os.path.join(SRC, "gaugecavity"):
        raise RuntimeError(f"gaugecavity imported from {origin}, not {SRC}")
    result = {"import_s": t1 - t0, "validate_s": t2 - t1, "setup_s": t2 - t0}
    if mode == "setup":
        result["environment"] = _environment()
        return result

    tracer = None
    if mode == "trace":
        import spans
        tracer = spans.Tracer()
        spans.instrument(tracer)
    t3 = time.perf_counter()
    rc = cli.main(["sweep", "--config", config_path, "--out", out_dir])
    result["sweep_s"] = time.perf_counter() - t3
    result["returncode"] = rc
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        with open(out_dir + ".spans.json", "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "raised"],
                       "spans": tracer.spans}, fh)
    return result


if __name__ == "__main__":
    mode, config_path, out_dir, result_path = sys.argv[1:5]
    try:
        res = main(mode, config_path, out_dir)
    except Exception:
        res = {"error": traceback.format_exc()}
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(res, fh)
    sys.exit(0 if "error" not in res and res.get("returncode", 0) == 0 else 1)
