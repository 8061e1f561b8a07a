"""Span tracing around the package's public functions, from outside it.

`instrument` replaces each traced function at every module binding its
callers use (for example `lehmann_sum` as bound in criterion, oracle and
response), and each traced method on its class.  Spans are kept in memory
with their parent, and `layer_metrics` folds them into per-layer counts
and self times (a span's duration minus its children's).
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time

# span name -> [(module, function or Class.method), ...]
TRACED = {
    "operators.eigh": [("operators", "eigh")],
    "matter.build": [("matter", "build_two_level_ensemble"),
                     ("matter", "build_anharmonic_dipole"),
                     ("matter", "build_ring_lattice")],
    "matter.spectrum": [("matter", "matter_spectrum")],
    "matter.couplings_from_ground": [("matter", "MatterSpectrum.couplings_from_ground")],
    "matter.para_current": [("matter", "MatterModel.para_current")],
    "matter.sum_rule": [("matter", "trk_sum"), ("matter", "MatterSpectrum.table")],
    "gauge.coupling_f": [("gauge", "coupling_f"), ("gauge", "coupling_f_magnetic"),
                         ("gauge", "coupling_f_electric")],
    "gauge.dressed_h": [("gauge", "dressed_matter_hamiltonian")],
    "gauge.diamagnetic_D": [("gauge", "diamagnetic_D")],
    "bogoliubov": [("bogoliubov", "diagonalize_block"),
                   ("bogoliubov", "adapt_degenerate_branches"),
                   ("bogoliubov", "coupling_g"),
                   ("bogoliubov", "exact_branch_coupling"),
                   ("bogoliubov", "numeric_block_eigen"),
                   ("bogoliubov", "verify_symplectic")],
    "response.lehmann_sum": [("response", "lehmann_sum")],
    "criterion.evaluate": [("criterion", "evaluate")],
    "oracle.assemble": [("oracle", "full_hamiltonian")],
    "oracle.lanczos": [("oracle", "lowest_eigenpairs")],
    "oracle.observables": [("oracle", "photon_coherence"),
                           ("oracle", "transverse_field_expectation")],
    "cli.check": [("cli", "run_check")],
    "cli": [("cli", "run_sweep")],
}


class Tracer:
    """In-memory span recorder for one single-threaded sweep."""

    def __init__(self):
        # [name, parent index or None, start, end, raised]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.eigh_dims: list[int] = []
        self.eigh_digests: list[bytes] = []
        self.oracle_dims: list[int] = []
        self.oracle_nnz: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "operators.eigh":
                self._note_eigh(args[0] if args else kwargs["h"])
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else None,
                    time.perf_counter(), None, False]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if name == "oracle.assemble":
                self.oracle_dims.append(int(result.h.shape[0]))
                self.oracle_nnz.append(int(result.h.nnz))
            return result
        return traced

    def _note_eigh(self, op):
        # Hashed before the span opens, so the cost lands on the caller.
        entries = op.entries
        self.eigh_dims.append(int(entries.shape[0]))
        digest = hashlib.blake2b(entries.tobytes(), digest_size=16)
        digest.update(repr((entries.shape, entries.dtype.str)).encode())
        self.eigh_digests.append(digest.digest())


def instrument(tracer: Tracer) -> None:
    """Wrap every traced function at each binding in the loaded package."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "gaugecavity" or n.startswith("gaugecavity."))]
    for name, targets in TRACED.items():
        for mod_name, attr in targets:
            home = sys.modules[f"gaugecavity.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(home, attr)
            wrapped = tracer.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-span-name calls and self time, plus the layer-specific counts.

    `calls` counts outermost spans of a name (coupling_f calling its
    magnetic and electric parts is one call); `self_s` sums every span's
    own time, so the self times of all names add up to the root span.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for name in TRACED:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for i, (name, parent, start, end, _) in enumerate(spans):
        out[f"{name}.self_s"] += (end - start) - child_time[i]
        if parent is None or spans[parent][0] != name:
            out[f"{name}.calls"] += 1
    evaluate_ms = [(end - start) * 1e3 for name, _, start, end, _ in spans
                   if name == "criterion.evaluate"]
    out["criterion.evaluate.p50_ms"] = _percentile(evaluate_ms, 0.5)
    out["criterion.evaluate.p90_ms"] = _percentile(evaluate_ms, 0.9)
    out["operators.eigh.work_d3"] = sum(d ** 3 for d in tracer.eigh_dims)
    calls = len(tracer.eigh_digests)
    out["operators.eigh.redundant_fraction"] = (
        (calls - len(set(tracer.eigh_digests))) / calls if calls else 0.0)
    out["oracle.dim_max"] = max(tracer.oracle_dims, default=0)
    out["oracle.nnz_sum"] = sum(tracer.oracle_nnz)
    out["oracle.lanczos.failures"] = sum(1 for s in spans
                                         if s[0] == "oracle.lanczos" and s[4])
    out["traced_s"] = sum(v for k, v in out.items() if k.endswith(".self_s"))
    return out
