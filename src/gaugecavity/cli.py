"""Sweep configuration, execution, and report emission.

The only external surface: `gaugecavity sweep --config cfg.json --out DIR
[--threads N]` writes criterion.csv, summary.json and (when enabled)
oracle.csv; `gaugecavity check --config cfg.json` runs the invariant
suites only.  Exit codes: 0 success, 1 runtime failure, 2 config failure.

criterion.csv is byte-identical across repeated runs of the same config
and seed: rows are emitted in deterministic parameter order and floats
are serialised with shortest round-trip repr.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .criterion import evaluate
from .errors import ConfigError, GaugecavityError
from .gauge import (GaugePreset, GaugeSpec, ModeSpec, dressed_matter_hamiltonian, lwl_mode,
                    make_gauge, ring_mode)
from .matter import (MAX_ANHARMONIC_DIM, MAX_ENSEMBLE_SIZE, MatterModel, ModelKind,
                     build_anharmonic_dipole, build_ring_lattice, build_two_level_ensemble,
                     matter_spectrum)
from .operators import Statevector

SCHEMA_VERSION = 1
CSV_HEADER = ("schema_version,point_index,param_name,param_value,gauge,alpha,"
              "q_index,tau,lhs,rhs,electric_part,magnetic_part,margin,condensed,"
              "beta_re,beta_im")
ORACLE_HEADER = ("schema_version,point_index,param_name,param_value,gauge,"
                 "fock_cutoff,ground_energy,parity_gap,coherence_abs,"
                 "occupation,et_max")

SWEEPABLE = {
    "two_level_ensemble": {"dipole_scale", "gap", "volume"},
    "anharmonic_dipole": {"charge", "frequency", "quartic", "volume"},
    "ring_lattice": {"hopping", "charge"},
}
GAUGE_NAMES = {p.value for p in GaugePreset}


@dataclass(frozen=True)
class SweepConfig:
    model: dict
    gauges: tuple[dict, ...]
    modes: tuple[dict, ...]
    sweep: dict
    oracle: dict
    output: dict
    seed: int
    raw: dict = field(repr=False, default_factory=dict)


def _typed(value, types) -> bool:
    """isinstance that never counts a JSON boolean as a number."""
    return isinstance(value, types) and not isinstance(value, bool)


def _non_finite_paths(node, path: str = "") -> list[str]:
    """Paths of every NaN or infinite number anywhere in the parsed config."""
    if isinstance(node, float) and not math.isfinite(node):
        return [path]
    if isinstance(node, dict):
        return [p for key, val in node.items()
                for p in _non_finite_paths(val, f"{path}.{key}" if path else key)]
    if isinstance(node, list):
        return [p for i, val in enumerate(node) for p in _non_finite_paths(val, f"{path}[{i}]")]
    return []


def validate_config(text: str) -> SweepConfig:
    """Parse and validate a JSON sweep config, collecting every violation."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config: must be a JSON object"])
    errors: list[str] = []

    def need(section, key, types, pred=None, msg=""):
        val = section[1].get(key)
        if key not in section[1]:
            errors.append(f"{section[0]}.{key}: missing")
        elif not _typed(val, types):
            errors.append(f"{section[0]}.{key}: expected {types}, got {type(val).__name__}")
        elif pred is not None and not pred(val):
            errors.append(f"{section[0]}.{key}: {msg} (got {val!r})")

    model = raw.get("model")
    if not isinstance(model, dict):
        errors.append("model: missing or not an object")
        model = {}
    kind = model.get("kind")
    if kind not in SWEEPABLE:
        errors.append(f"model.kind: must be one of {sorted(SWEEPABLE)}, got {kind!r}")
    if kind == "two_level_ensemble":
        need(("model", model), "count", int, lambda v: 1 <= v <= MAX_ENSEMBLE_SIZE,
             f"must lie in [1, {MAX_ENSEMBLE_SIZE}]")
        need(("model", model), "gap", (int, float), lambda v: v > 0, "must be > 0")
        need(("model", model), "dipole_moment", list,
             lambda v: len(v) == 3 and all(_typed(x, (int, float)) for x in v),
             "must be a 3-vector")
        need(("model", model), "volume", (int, float), lambda v: v > 0, "must be > 0")
    elif kind == "anharmonic_dipole":
        need(("model", model), "levels", int, lambda v: v >= 4, "must be >= 4")
        need(("model", model), "mass", (int, float), lambda v: v > 0, "must be > 0")
        need(("model", model), "frequency", (int, float), lambda v: v > 0, "must be > 0")
        need(("model", model), "quartic", (int, float), lambda v: v >= 0, "must be >= 0")
        need(("model", model), "charge", (int, float))
        need(("model", model), "volume", (int, float), lambda v: v > 0, "must be > 0")
        if "axes" in model:
            need(("model", model), "axes", int, lambda v: v in (1, 3), "must be 1 or 3")
        levels = model.get("levels")
        if model.get("axes") == 3 and _typed(levels, int) and levels ** 3 > MAX_ANHARMONIC_DIM:
            errors.append(f"model.levels: 3-axis dimension {levels ** 3} exceeds "
                          f"{MAX_ANHARMONIC_DIM}")
    elif kind == "ring_lattice":
        need(("model", model), "sites", int, lambda v: v >= 4, "must be >= 4")
        need(("model", model), "hopping", (int, float), lambda v: v > 0, "must be > 0")
        need(("model", model), "charge", (int, float))
        if model.get("volume") is not None:
            need(("model", model), "volume", (int, float), lambda v: v > 0, "must be > 0")

    gauge_raw = raw.get("gauge")
    gauges: list[dict] = []
    if isinstance(gauge_raw, dict):
        gauge_list = [gauge_raw]
    elif isinstance(gauge_raw, list) and gauge_raw:
        gauge_list = gauge_raw
    else:
        errors.append("gauge: missing, or not an object or a non-empty list")
        gauge_list = []
    for i, g in enumerate(gauge_list):
        if not isinstance(g, dict):
            errors.append(f"gauge[{i}]: must be an object, got {g!r}")
            continue
        preset = g.get("preset")
        if preset not in GAUGE_NAMES:
            errors.append(f"gauge[{i}].preset: must be one of {sorted(GAUGE_NAMES)}, got {preset!r}")
            continue
        if not isinstance(g.get("lwl", True), bool):
            errors.append(f"gauge[{i}].lwl: must be true or false, got {g['lwl']!r}")
        alpha = g.get("alpha")
        if preset == "alpha_lwl":
            if not _typed(alpha, (int, float)) or not 0.0 <= alpha <= 1.0:
                errors.append(f"gauge[{i}].alpha: must lie in [0, 1], got {alpha!r}")
        elif alpha is not None:
            errors.append(f"gauge[{i}].alpha: only valid for alpha_lwl")
        gauges.append(dict(g))

    modes_raw = raw.get("modes")
    modes: list[dict] = []
    if not isinstance(modes_raw, list) or not modes_raw:
        errors.append("modes: must be a non-empty list")
    else:
        for i, m in enumerate(modes_raw):
            if not isinstance(m, dict):
                errors.append(f"modes[{i}]: must be an object")
                continue
            if "ring_index" in m:
                if not _typed(m["ring_index"], int) or m["ring_index"] == 0:
                    errors.append(f"modes[{i}].ring_index: must be a nonzero integer")
                if kind != "ring_lattice":
                    errors.append(f"modes[{i}].ring_index: requires a ring_lattice model")
                optional = ("nu", "volume")
            else:
                nu = m.get("nu")
                if not _typed(nu, (int, float)) or nu <= 0:
                    errors.append(f"modes[{i}].nu: must be > 0, got {nu!r}")
                optional = ("volume",)
            for key in optional:
                val = m.get(key)
                if val is not None and (not _typed(val, (int, float)) or val <= 0):
                    errors.append(f"modes[{i}].{key}: must be > 0, got {val!r}")
            modes.append(dict(m))

    sweep = raw.get("sweep")
    if not isinstance(sweep, dict):
        errors.append("sweep: missing or not an object")
        sweep = {}
    param = sweep.get("parameter")
    allowed = (SWEEPABLE.get(kind, set()) | {"alpha"}) if kind else {"alpha"}
    if param not in allowed:
        errors.append(f"sweep.parameter: must be one of {sorted(allowed)}, got {param!r}")
    if "values" in sweep:
        vals = sweep["values"]
        if not isinstance(vals, list) or not vals:
            errors.append("sweep.values: must be a non-empty list")
        elif not all(_typed(v, (int, float)) for v in vals):
            errors.append(f"sweep.values: must all be numbers, got {vals!r}")
    else:
        steps = sweep.get("steps")
        if not _typed(steps, int) or steps < 1:
            errors.append(f"sweep.steps: must be an integer >= 1, got {steps!r}")
        for key in ("start", "stop"):
            if not _typed(sweep.get(key), (int, float)):
                errors.append(f"sweep.{key}: must be a number, got {sweep.get(key)!r}")
        if sweep.get("scale", "linear") not in ("linear", "log"):
            errors.append(f"sweep.scale: must be linear or log, got {sweep.get('scale')!r}")
    if param == "alpha" and any(g.get("preset") != "alpha_lwl" for g in gauges):
        errors.append("sweep.parameter=alpha requires every gauge preset to be alpha_lwl")
    # an explicit mode volume must be the one the model is built with (the
    # ring's default volume is its site count)
    model_volume = model.get("volume")
    if kind == "ring_lattice" and model_volume is None:
        model_volume = model.get("sites")
    for i, m in enumerate(modes):
        vol = m.get("volume")
        if not _typed(vol, (int, float)) or vol <= 0:
            continue  # absent, or already reported
        if param == "volume":
            errors.append(f"modes[{i}].volume: must be omitted when sweep.parameter is volume")
        elif _typed(model_volume, (int, float)) and \
                abs(vol - model_volume) > 1e-12 * max(1.0, abs(model_volume)):
            errors.append(f"modes[{i}].volume: {vol!r} differs from model volume "
                          f"{model_volume!r}")

    oracle = raw.get("oracle", {"enabled": False})
    if not isinstance(oracle, dict):
        errors.append("oracle: must be an object")
        oracle = {"enabled": False}
    elif not isinstance(oracle.get("enabled", False), bool):
        errors.append(f"oracle.enabled: must be true or false, got {oracle['enabled']!r}")
    elif oracle.get("enabled"):
        fock = oracle.get("fock_cutoff", 40)
        if not _typed(fock, int) or fock < 2:
            errors.append(f"oracle.fock_cutoff: must be an integer >= 2, got {fock!r}")
        points = oracle.get("points")
        if points is not None and (not _typed(points, int) or points < 1):
            errors.append(f"oracle.points: must be an integer >= 1, got {points!r}")

    output = raw.get("output", {})
    if not isinstance(output, dict):
        errors.append("output: must be an object")
        output = {}

    seed = raw.get("seed", 0)
    if not _typed(seed, int):
        errors.append(f"seed: must be an integer, got {seed!r}")
        seed = 0

    # a non-finite number is named once, ahead of the checks it also fails
    non_finite = _non_finite_paths(raw)
    errors = [f"{p}: must be a finite number" for p in non_finite] + \
        [e for e in errors if e.split(":", 1)[0] not in non_finite]
    if errors:
        raise ConfigError(errors)
    return SweepConfig(model=dict(model), gauges=tuple(gauges), modes=tuple(modes),
                       sweep=dict(sweep), oracle=dict(oracle), output=dict(output),
                       seed=seed, raw=raw)


def _sweep_values(sweep: dict) -> np.ndarray:
    if "values" in sweep:
        return np.asarray(sweep["values"], dtype=float)
    if sweep.get("scale", "linear") == "log":
        return np.geomspace(sweep["start"], sweep["stop"], sweep["steps"])
    return np.linspace(sweep["start"], sweep["stop"], sweep["steps"])


def _build_model(cfg: SweepConfig, param: str, value: float) -> MatterModel:
    m = dict(cfg.model)
    kind = m["kind"]
    if kind == "two_level_ensemble":
        scale = value if param == "dipole_scale" else 1.0
        gap = value if param == "gap" else m["gap"]
        vol = value if param == "volume" else m["volume"]
        d = np.asarray(m["dipole_moment"], dtype=float) * scale
        return build_two_level_ensemble(m["count"], gap, d, vol)
    if kind == "anharmonic_dipole":
        kw = {k: m[k] for k in ("levels", "mass", "frequency", "quartic", "charge", "volume")}
        kw["axes"] = m.get("axes", 1)
        if param in ("charge", "frequency", "quartic", "volume"):
            kw[param] = value
        return build_anharmonic_dipole(**kw)
    if kind == "ring_lattice":
        kw = {"sites": m["sites"], "hopping": m["hopping"], "charge": m["charge"],
              "volume": m.get("volume")}
        if param in ("hopping", "charge"):
            kw[param] = value
        return build_ring_lattice(**kw)
    raise ConfigError([f"model.kind: unknown {kind!r}"])


def _build_gauge(gdict: dict, param: str, value: float) -> GaugeSpec:
    preset = gdict["preset"]
    alpha = value if (param == "alpha" and preset == "alpha_lwl") else gdict.get("alpha")
    return make_gauge(preset, lwl=gdict.get("lwl", True), alpha=alpha)


def _build_modes(cfg: SweepConfig, model: MatterModel) -> list[ModeSpec]:
    out = []
    for m in cfg.modes:
        if "ring_index" in m:
            out.append(ring_mode(model, m["ring_index"], nu=m.get("nu")))
        else:
            out.append(lwl_mode(m["nu"], m.get("volume", model.params.volume)))
    return out


def _phase_point(cfg: SweepConfig, index: int, param: str, value: float) -> list[dict]:
    """criterion.csv records for one sweep sample (deterministic order).

    Every gauge and mode whose dressed Hamiltonian is h_m itself shares
    one bare spectrum.
    """
    model = _build_model(cfg, param, value)
    modes = _build_modes(cfg, model)
    bare = None
    records = []
    for gdict in cfg.gauges:
        gauge = _build_gauge(gdict, param, value)
        for qi, mode in enumerate(modes):
            h = dressed_matter_hamiltonian(model, gauge, [mode])
            if h is not model.h_m:
                spectrum = matter_spectrum(model, h_m=h)
            else:
                if bare is None:
                    bare = matter_spectrum(model)
                spectrum = bare
            for rep in evaluate(model, gauge, mode, spectrum=spectrum):
                records.append(dict(zip(CSV_HEADER.split(","), (
                    SCHEMA_VERSION, index, param, value, gauge.preset.value, gauge.alpha,
                    qi, rep.tau, rep.lhs, rep.rhs, rep.electric_part, rep.magnetic_part,
                    rep.margin, rep.condensed, rep.beta0.real, rep.beta0.imag))))
    return records


def _oracle_point(cfg: SweepConfig, index: int, param: str, value: float) -> list[dict]:
    """oracle.csv records for one sweep sample, one per gauge.

    One k=2 eigensolve per gauge gives the ground energy, the ground vector
    the observables read, and the parity gap.
    """
    from .oracle import full_hamiltonian, lowest_eigenpairs, photon_coherence, \
        transverse_field_expectation

    fock = int(cfg.oracle.get("fock_cutoff", 40))
    model = _build_model(cfg, param, value)
    modes = _build_modes(cfg, model)
    records = []
    for gdict in cfg.gauges:
        gauge = _build_gauge(gdict, param, value)
        system = full_hamiltonian(model, gauge, modes, fock)
        vals, vecs = lowest_eigenpairs(system, k=2)
        state = Statevector(vecs[:, 0] / np.linalg.norm(vecs[:, 0]))
        coh, occ = photon_coherence(state, system, 0, 2)
        et_max = np.max(np.abs(transverse_field_expectation(state, system)))
        records.append(dict(zip(ORACLE_HEADER.split(","), (
            SCHEMA_VERSION, index, param, value, gauge.preset.value, fock, float(vals[0]),
            float(vals[1] - vals[0]), abs(coh), occ, et_max))))
    return records


def _csv_field(value) -> str:
    """Booleans as true/false, integers and labels verbatim, other numbers
    as the shortest round-trip repr of the float."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return repr(float(value))


def _write_csv(path: str, header: str, records: list[dict]) -> None:
    columns = header.split(",")
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for rec in records:
            fh.write(",".join(_csv_field(rec[c]) for c in columns) + "\n")


def _thresholds(records: list[dict]) -> list[dict]:
    """First margin sign change per (gauge, q_index, tau), linearly interpolated."""
    series: dict = {}
    for rec in records:
        key = (rec["gauge"], rec["q_index"], rec["tau"])
        series.setdefault(key, []).append((rec["param_value"], rec["margin"]))
    out = []
    for (gauge_label, qi, tau), pts in sorted(series.items()):
        pts.sort()
        crossing = None
        for (x0, m0), (x1, m1) in zip(pts, pts[1:]):
            if m0 <= 0.0 < m1:
                crossing = x0 if m1 == m0 else x0 + (0.0 - m0) * (x1 - x0) / (m1 - m0)
                break
        out.append({"gauge": gauge_label, "q_index": qi, "tau": tau,
                    "condensed_anywhere": any(m > 0 for _, m in pts),
                    "crossing": crossing})
    return out


def run_check(cfg: SweepConfig) -> dict:
    """Run the invariant suites relevant to the configured model and gauges."""
    from .bogoliubov import diagonalize_block, numeric_block_eigen, verify_symplectic
    from .gauge import DiamagneticMatrix, diamagnetic_D
    from .matter import check_uniform_density, trk_sum

    results = {}
    rng = np.random.default_rng(cfg.seed)
    worst_lam, worst_symp = 0.0, 0.0
    for _ in range(200):
        a, b, c = rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(-1, 1)
        d = np.array([[a, c], [c, b]])
        d = d @ d.T  # symmetric PSD
        dmat = DiamagneticMatrix(d=d, delta_q=rng.uniform(0, 0.5))
        block = diagonalize_block(dmat, 1.0)
        lam_num, _ = numeric_block_eigen(dmat, 1.0)
        worst_lam = max(worst_lam, float(np.max(np.abs(block.lambdas - lam_num))))
        worst_symp = max(worst_symp, verify_symplectic(block))
    results["bogoliubov_lambda_vs_numeric"] = {"max_dev": worst_lam, "tol": 1e-10,
                                               "passed": worst_lam <= 1e-10}
    results["bogoliubov_symplectic"] = {"max_dev": worst_symp, "tol": 1e-11,
                                        "passed": worst_symp <= 1e-11}

    value0 = float(_sweep_values(cfg.sweep)[0])
    param = cfg.sweep["parameter"]
    model = _build_model(cfg, param, value0)
    if model.kind is ModelKind.RING_LATTICE:
        dev = check_uniform_density(model, 0)
        results["ring_uniform_density"] = {"max_dev": dev, "tol": 1e-12,
                                           "passed": dev <= 1e-12}
    if model.momentum_ops is not None:
        spec = matter_spectrum(model)
        s = trk_sum(spec, axis=0, reference_level=0)
        target = model.params.mass * model.params.n_charges / 2.0
        dev = abs(s - target)
        results["trk_sum_rule"] = {"max_dev": dev, "tol": 1e-6, "passed": dev <= 1e-6}
    for gdict in cfg.gauges:
        gauge = _build_gauge(gdict, param, value0)
        modes = _build_modes(cfg, model)
        for mode in modes:
            dmat = diamagnetic_D(model, gauge, mode)
            eigs = np.linalg.eigvalsh(dmat.d)
            key = f"diamagnetic_psd_{gauge.preset.value}"
            results[key] = {"max_dev": float(max(0.0, -eigs[0])), "tol": 1e-14,
                            "passed": eigs[0] >= -1e-14}
    results["all_passed"] = all(v["passed"] for v in results.values()
                                if isinstance(v, dict))
    return results


def run_sweep(cfg: SweepConfig, out_dir: str, threads: int = 1) -> int:
    import os

    t_start = time.monotonic()
    os.makedirs(out_dir, exist_ok=True)
    values = _sweep_values(cfg.sweep)
    param = cfg.sweep["parameter"]
    tasks = list(enumerate(values))
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(
                lambda iv: _phase_point(cfg, iv[0], param, float(iv[1])), tasks))
    else:
        chunks = [_phase_point(cfg, i, param, float(v)) for i, v in tasks]
    records = [r for chunk in chunks for r in chunk]
    _write_csv(os.path.join(out_dir, "criterion.csv"), CSV_HEADER, records)
    t_criterion = time.monotonic() - t_start

    if cfg.oracle.get("enabled"):
        points = cfg.oracle.get("points")
        if points is None:
            idx = range(len(values))
        else:
            idx = sorted({int(i) for i in np.linspace(0, len(values) - 1,
                                                      min(points, len(values)))})
        oracle_records = [r for i in idx
                          for r in _oracle_point(cfg, i, param, float(values[i]))]
        _write_csv(os.path.join(out_dir, "oracle.csv"), ORACLE_HEADER, oracle_records)
    t_total = time.monotonic() - t_start

    summary = {
        "resolved_config": cfg.raw,
        "thresholds": _thresholds(records),
        "invariant_results": run_check(cfg),
        "timings": {"criterion_seconds": t_criterion, "total_seconds": t_total},
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(_plain(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _plain(obj):
    """Recursively coerce numpy scalars so json can serialise the summary."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gaugecavity",
                                     description="photon-condensation criterion sweeps")
    sub = parser.add_subparsers(dest="command", required=True)
    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--threads", type=int, default=1)
    p_check = sub.add_parser("check", help="run invariant suites only")
    p_check.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = validate_config(fh.read())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return 2

    try:
        if args.command == "sweep":
            return run_sweep(cfg, args.out, threads=args.threads)
        results = run_check(cfg)
        for name, res in results.items():
            if isinstance(res, dict):
                status = "PASS" if res["passed"] else "FAIL"
                print(f"{status} {name}: max_dev={res['max_dev']:.3e} tol={res['tol']:.0e}")
        return 0 if results["all_passed"] else 1
    except GaugecavityError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
