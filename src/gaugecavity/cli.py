"""Sweep configuration, execution, and report emission.

The only external surface: `gaugecavity sweep --config cfg.json --out DIR`
writes criterion.csv, summary.json and (when enabled) oracle.csv;
`gaugecavity check --config cfg.json` runs the invariant suites only.
Exit codes: 0 success, 1 runtime failure, 2 config failure.  In a sweep
the invariant check reads the first point's model rather than building
it again; `check` builds its own, and both write the same results.

The criterion stage runs in two steps.  The matter step walks the sweep
points: it builds each point's model, keeps one `criterion.MatterPoint`
per gauge and mode (an 8 x 8 resolvent Gram matrix, <0|f_sigma|0>, D and
Delta_q) and drops the model, so only the first point's model, which the
invariant check reads, stays alive beside the current one.  The stacked
step then runs `criterion.verdicts` once per gauge and mode over every
point, and criterion.csv is written from its arrays.  Ground states come
from `matter.ground_resolvent`, which solves each distinct stored
Hamiltonian once per process, so the matter step, the invariant check and
the oracle share its solves (see the `matter` docstring).

The config schema is the key tables below; `validate_config` walks them
once, and `_build_model` passes the model keys on to the kind's builder.

numpy and scipy each bundle their own OpenBLAS, each with its own pool of
worker threads, and a worker spins for a while after each call.  On a
machine with few cores the pools then fight each other, the main thread
and the oracle workers, so `run_sweep` sets both pools to one thread while
it runs and restores the earlier counts when it returns; `main` does the
same around everything it runs.  One thread also makes the largest
dense solves independent of `OPENBLAS_NUM_THREADS`: those of
`matter.lowest_by_sector` on oracle blocks of up to `oracle.DENSE_LIMIT`
(300) states and on the sectors of large matter Hamiltonians, namely the
Cholesky tests (LAPACK `dpotrf`/`zpotrf`), the lowest-pairs solves
(`dsyevr`/`zheevr`) and the Cholesky solves of
`matter.SectorResolvent.gram` (`dposv`/`zposv`), all of which run in
scipy's OpenBLAS.  Larger blocks are tested and factored by banded
Cholesky, for `matter.shift_invert_lowest` and the Gram solves, which
runs in scipy's OpenBLAS too.  numpy's pool serves, among
others, the full `np.linalg.eigh` of `matter.MatterSpectrum` up to
DENSE_MAX_DIM states, so both pins stay.  Each pool's thread-count
functions are looked up once per process.  Where a library is not found
its pin is skipped.
summary.json records both counts as `blas_threads`.

The oracle points are independent solves.  With the oracle enabled and
more than one CPU in the process's affinity mask, `run_sweep` hands them
to forked worker processes as the sweep starts, one worker per CPU and at
most one per point; the parent meanwhile runs the criterion stage and the
invariant check, then collects the records in point order.  With one CPU
the parent runs the points itself, after the check.  Workers are forked,
not spawned, so that they start from the parent's loaded modules and BLAS
pins with no import of their own; the pool forks them before it starts
its own threads, and OpenBLAS stops its pool threads across a fork.  An
error in a worker is raised in the parent when that point's records are
collected; an error in the parent cancels the points not yet started and
waits for the workers to end.  summary.json records the
worker count as `oracle_workers` (0 when the parent runs the points) and
`timings`: `criterion_seconds` for the criterion stage,
`oracle_seconds` for what the oracle adds after the criterion stage and
the invariant check (the wait for the workers, or the points run in the
parent, and writing oracle.csv; near 0 with the oracle off), and
`total_seconds` for their sum.  In the README example the workers, not
the criterion stage, set the wall time, so its `oracle_seconds` is not
near 0.

criterion.csv and oracle.csv are byte-identical across repeated runs of
the same config and seed on the same machine: rows are emitted in
deterministic parameter order, every sparse eigensolve starts from a
fixed vector seeded with `matter.LANCZOS_SEED`, whatever `matter` keeps
between solves gives the bits a fresh solve gives, and floats are
serialised with shortest round-trip repr.  With
every BLAS call on one thread, both files are also the same for any
`OPENBLAS_NUM_THREADS` and whether workers or the parent run the oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import operator
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__, matter
from .criterion import matter_point, verdicts
from .errors import ConfigError, GaugecavityError
from .gauge import (GaugePreset, GaugeSpec, ModeSpec, lwl_mode, make_gauge, pairing_problem,
                    ring_mode)
from .matter import (MAX_ANHARMONIC_DIM, MAX_ENSEMBLE_SIZE, MAX_RING_SITES, MatterModel,
                     ModelKind, ground_resolvent)
from .operators import Statevector
from .oracle import MAX_FULL_DIM

SCHEMA_VERSION = 1
# package -> thread-count functions of the OpenBLAS in its wheel's
# `<package>.libs`; numpy's build is the 64-bit-integer one
OPENBLAS_THREADS = {"numpy": "scipy_openblas_{}_num_threads64_",
                    "scipy": "scipy_openblas_{}_num_threads"}
CSV_HEADER = ("schema_version,point_index,param_name,param_value,gauge,alpha,"
              "q_index,tau,lhs,rhs,electric_part,magnetic_part,margin,condensed,"
              "beta_re,beta_im")
ORACLE_HEADER = ("schema_version,point_index,param_name,param_value,gauge,"
                 "fock_cutoff,ground_energy,parity_gap,coherence_abs,"
                 "occupation,et_max")

JSON_TYPES = {"number": (int, float), "integer": int, "boolean": bool, "string": str,
              "list": list, "object": dict}
REQUIRED = object()


def _is(value, json_type: str) -> bool:
    """JSON type test in which a boolean is a boolean and nothing else."""
    return isinstance(value, JSON_TYPES[json_type]) and \
        isinstance(value, bool) == (json_type == "boolean")


@dataclass(frozen=True)
class Key:
    """One config key: its JSON type, a rule on its value with the message
    for a value that breaks it, its default (REQUIRED when it must be
    given) and whether a sweep may vary it.  The rules of sweepable keys
    are intervals, so a linear grid whose endpoints obey one obeys it
    everywhere."""

    type: str
    rule: Callable | None = None
    message: str = ""
    default: object = REQUIRED
    sweep: bool = False

    def problem(self, value) -> str | None:
        if not _is(value, self.type):
            return f"expected {self.type}, got {value!r}"
        if self.rule is not None and not self.rule(value):
            return f"{self.message}, got {value!r}"
        return None


def _positive(**kw) -> Key:
    return Key("number", lambda v: v > 0, "must be > 0", **kw)


# kind -> (builder, keys); the builder is a matter function, looked up by
# name when called so that a wrapper installed on the module sees the call
MODELS = {
    "two_level_ensemble": ("build_two_level_ensemble", {
        "count": Key("integer", lambda v: 1 <= v <= MAX_ENSEMBLE_SIZE,
                     f"must lie in [1, {MAX_ENSEMBLE_SIZE}]"),
        "gap": _positive(sweep=True),
        "dipole_moment": Key("list", lambda v: len(v) == 3 and all(_is(x, "number") for x in v),
                             "must be a 3-vector"),
        "volume": _positive(sweep=True),
    }),
    "anharmonic_dipole": ("build_anharmonic_dipole", {
        "levels": Key("integer", lambda v: v >= 4, "must be >= 4"),
        "mass": _positive(),
        "frequency": _positive(sweep=True),
        "quartic": Key("number", lambda v: v >= 0, "must be >= 0", sweep=True),
        "charge": Key("number", sweep=True),
        "volume": _positive(sweep=True),
        "axes": Key("integer", lambda v: v in (1, 3), "must be 1 or 3", default=1),
    }),
    "ring_lattice": ("build_ring_lattice", {
        "sites": Key("integer", lambda v: 4 <= v <= MAX_RING_SITES,
                     f"must lie in [4, {MAX_RING_SITES}]"),
        "hopping": _positive(sweep=True),
        "charge": Key("number", sweep=True),
        "volume": _positive(default=None),  # None: the site count
    }),
}
KIND = Key("string", lambda v: v in MODELS, f"must be one of {sorted(MODELS)}")
# kind -> (matter dimension, photon branches a mode couples) its (valid)
# keys describe; the oracle takes no ring
ORACLE_SIZE = {
    "two_level_ensemble": lambda model: (model["count"] + 1, 1),
    "anharmonic_dipole": lambda model: (model["levels"] ** model["axes"],
                                        2 if model["axes"] == 3 else 1),
}
GAUGE_NAMES = sorted(p.value for p in GaugePreset)
GAUGE = {
    "preset": Key("string", lambda v: v in GAUGE_NAMES, f"must be one of {GAUGE_NAMES}"),
    "alpha": Key("number", lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]", default=None,
                 sweep=True),
}
# a mode is a uniform field (nu) or a ring quasi-momentum (ring_index); its
# volume is the model's
MODE = {
    "nu": _positive(default=None),
    "ring_index": Key("integer", lambda v: v != 0, "must be nonzero", default=None),
}
# a sweep gives values or the grid keys, not both
SWEEP = {
    "parameter": Key("string"),
    "values": Key("list", lambda v: len(v) > 0 and all(_is(x, "number") for x in v),
                  "must be a non-empty list of numbers", default=None),
    "start": Key("number", default=None),
    "stop": Key("number", default=None),
    "steps": Key("integer", lambda v: v >= 1, "must be >= 1", default=None),
    "scale": Key("string", lambda v: v in ("linear", "log"), "must be linear or log",
                 default="linear"),
}
ORACLE = {
    "enabled": Key("boolean", default=False),
    "fock_cutoff": Key("integer", lambda v: v >= 2, "must be >= 2", default=40),
    "points": Key("integer", lambda v: v >= 1, "must be >= 1", default=None),
}
CONFIG = {
    "model": Key("object"),
    "gauge": Key("list", lambda v: len(v) > 0, "must not be empty"),  # or one gauge object
    "modes": Key("list", lambda v: len(v) > 0, "must not be empty"),
    "sweep": Key("object"),
    "oracle": Key("object", default={}),
    "output": Key("object", default={}),  # accepted, and has no keys
    "seed": Key("integer", default=0),
}


def _swept_keys(model_keys: dict) -> dict:
    """Sweep parameter -> the Key whose rule its values obey: the model's
    and the gauge's sweepable keys, and dipole_scale, which multiplies
    dipole_moment."""
    keys = {name: key for table in (model_keys, GAUGE) for name, key in table.items()
            if key.sweep}
    if "dipole_moment" in model_keys:
        keys["dipole_scale"] = Key("number")
    return keys


@dataclass(frozen=True)
class SweepConfig:
    model: dict
    gauges: tuple[dict, ...]
    modes: tuple[dict, ...]
    sweep: dict
    oracle: dict
    seed: int
    raw: dict = field(repr=False, default_factory=dict)


def _non_finite_paths(node, path: str = "") -> list[str]:
    """Paths of every NaN or infinite number anywhere in the parsed config."""
    if isinstance(node, float) and not math.isfinite(node):
        return [path]
    if isinstance(node, dict):
        return [p for key, val in node.items() for p in _non_finite_paths(val, _join(path, key))]
    if isinstance(node, list):
        return [p for i, val in enumerate(node) for p in _non_finite_paths(val, f"{path}[{i}]")]
    return []


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _section(path: str, node, keys: dict, errors: list[str]) -> dict:
    """Check one config object against its key table.  Returns every key of
    the table with its value, its default when absent, or None when it is
    missing or invalid; each violation goes to ``errors``."""
    if not isinstance(node, dict):
        errors.append(f"{path}: expected object, got {node!r}")
        return dict.fromkeys(keys)
    errors += [f"{_join(path, name)}: unknown key" for name in node if name not in keys]
    out = {}
    for name, key in keys.items():
        problem = key.problem(node[name]) if name in node else \
            "missing" if key.default is REQUIRED else None
        if problem is not None:
            errors.append(f"{_join(path, name)}: {problem}")
        out[name] = None if problem else node.get(name, key.default)
    return out


def validate_config(text: str) -> SweepConfig:
    """Parse and validate a JSON sweep config, collecting every violation.

    The returned config holds every key of the tables, with defaults
    filled in; `raw` is the parsed text as given."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config: must be a JSON object"])
    errors: list[str] = []
    top = _section("", dict(raw, gauge=[raw["gauge"]]) if isinstance(raw.get("gauge"), dict)
                   else raw, CONFIG, errors)

    def section(name, keys):
        return dict.fromkeys(keys) if top[name] is None else \
            _section(name, top[name], keys, errors)

    # the model keys depend on its kind
    kind = (top["model"] or {}).get("kind")
    model_keys = MODELS[kind][1] if _is(kind, "string") and kind in MODELS else {}
    if top["model"] is not None and not model_keys:
        top["model"] = {k: v for k, v in top["model"].items() if k == "kind"}
    model = section("model", {"kind": KIND, **model_keys})
    gauge_nodes = top["gauge"] or []
    gauges = [_section(f"gauge[{i}]", g, GAUGE, errors) for i, g in enumerate(gauge_nodes)]
    mode_nodes = top["modes"] or []
    modes = [_section(f"modes[{i}]", m, MODE, errors) for i, m in enumerate(mode_nodes)]
    sweep = section("sweep", SWEEP)
    oracle = section("oracle", ORACLE)
    section("output", {})

    for i, (node, gauge) in enumerate(zip(gauge_nodes, gauges)):
        if gauge["preset"] is not None and (gauge["preset"] == "alpha_lwl") != ("alpha" in node):
            errors.append(f"gauge[{i}].alpha: "
                          f"{'only valid' if 'alpha' in node else 'required'} for alpha_lwl")
    levels = model.get("levels")
    if model.get("axes") == 3 and levels is not None and levels ** 3 > MAX_ANHARMONIC_DIM:
        errors.append(f"model.levels: 3-axis dimension {levels ** 3} exceeds "
                      f"{MAX_ANHARMONIC_DIM}")
    # each coupled branch of each mode multiplies the matter dimension by
    # the Fock cutoff
    fock = oracle["fock_cutoff"]
    if oracle["enabled"] is True and fock is not None and kind in ORACLE_SIZE:
        try:
            dim, branches = ORACLE_SIZE[kind](model)
        except TypeError:  # a size key is invalid, which is reported already
            dim, branches = 0, 0
        slots = branches * len(mode_nodes)
        if dim * fock ** slots > MAX_FULL_DIM:
            power = f" ** {slots}" if slots > 1 else ""
            errors.append(f"oracle.fock_cutoff: matter dimension {dim} x fock_cutoff {fock}"
                          f"{power} = {dim * fock ** slots} exceeds the oracle limit "
                          f"{MAX_FULL_DIM}")

    param = sweep["parameter"]
    swept = _swept_keys(model_keys)
    if param is not None and model_keys and param not in swept:
        errors.append(f"sweep.parameter: must be one of {sorted(swept)}, got {param!r}")
    if top["sweep"] is not None and "values" not in top["sweep"]:
        errors += [f"sweep.{k}: missing, and no values" for k in ("start", "stop", "steps")
                   if k not in top["sweep"]]
    elif top["sweep"] is not None:
        errors += [f"sweep.{k}: not allowed with values"
                   for k in ("start", "stop", "steps", "scale") if k in top["sweep"]]
    if sweep["values"] is not None:
        points = [(f"sweep.values[{i}]", v) for i, v in enumerate(sweep["values"])]
    else:
        points = [(f"sweep.{k}", sweep[k]) for k in ("start", "stop") if sweep[k] is not None]
        if len(points) == 2 and sweep["scale"] == "log" and \
                min(sweep["start"], sweep["stop"]) <= 0 <= max(sweep["start"], sweep["stop"]):
            errors.append("sweep.scale: log needs start and stop nonzero and of one sign")
    if param in swept:
        errors += [f"{path}: {param} {problem}" for path, value in points
                   if (problem := swept[param].problem(value)) is not None]
    if param == "alpha" and any(g["preset"] != "alpha_lwl" for g in gauges):
        errors.append("sweep.parameter=alpha requires every gauge preset to be alpha_lwl")
    for i, (node, mode) in enumerate(zip(mode_nodes, modes)):
        if isinstance(node, dict) and "nu" not in node and "ring_index" not in node:
            errors.append(f"modes[{i}].nu: missing, and no ring_index")
        if mode["ring_index"] is not None and kind != "ring_lattice":
            errors.append(f"modes[{i}].ring_index: requires a ring_lattice model")
        elif mode["ring_index"] is not None and model["sites"] is not None and \
                mode["ring_index"] % model["sites"] == 0:
            errors.append(f"modes[{i}].ring_index: must not be a multiple of model.sites "
                          f"{model['sites']}, got {mode['ring_index']}")
    # gauge.pairing_problem on every gauge and mode whose preset and kind of
    # mode (ring_index, else nu) are given
    rings = {j: "ring_index" in node for j, node in enumerate(mode_nodes)
             if isinstance(node, dict) and {"nu", "ring_index"} & node.keys()}
    errors += [f"gauge[{i}] and modes[{j}]: {problem}"
               for i, gauge in enumerate(gauges) for j, ring in rings.items()
               if gauge["preset"] is not None and model_keys and (problem := pairing_problem(
                   ModelKind(kind), GaugePreset(gauge["preset"]), ring))]
    if oracle["enabled"] is True:
        errors += [f"oracle.enabled: full diagonalization supports uniform-field modes, "
                   f"and modes[{j}] is a ring mode" for j, ring in rings.items() if ring]

    # a non-finite number is named once, ahead of the checks it also fails
    non_finite = _non_finite_paths(raw)
    errors = [f"{p}: must be a finite number" for p in non_finite] + \
        [e for e in errors if e.split(":", 1)[0] not in non_finite]
    if errors:
        raise ConfigError(errors)
    return SweepConfig(model=model, gauges=tuple(gauges), modes=tuple(modes), sweep=sweep,
                       oracle=oracle, seed=top["seed"], raw=raw)


def _sweep_values(sweep: dict) -> np.ndarray:
    if sweep["values"] is not None:
        return np.asarray(sweep["values"], dtype=float)
    if sweep["scale"] == "log":
        return np.geomspace(sweep["start"], sweep["stop"], sweep["steps"])
    return np.linspace(sweep["start"], sweep["stop"], sweep["steps"])


def _build_model(cfg: SweepConfig, param: str, value: float) -> MatterModel:
    builder, keys = MODELS[cfg.model["kind"]]
    kwargs = {name: cfg.model[name] for name in keys}
    if param == "dipole_scale":
        kwargs["dipole_moment"] = np.asarray(kwargs["dipole_moment"], dtype=float) * value
    elif param in kwargs:
        kwargs[param] = value
    return getattr(matter, builder)(**kwargs)


def _point(cfg: SweepConfig, param: str, value: float, modes=None
           ) -> tuple[MatterModel, list[GaugeSpec], list[ModeSpec]]:
    """The model, gauges (in config order) and modes of one sweep sample;
    ``modes``, when given, are taken as they are."""
    model = _build_model(cfg, param, value)
    gauges = [make_gauge(g["preset"], alpha=value if param == "alpha" else g["alpha"])
              for g in cfg.gauges]
    if modes is None:
        modes = [lwl_mode(m["nu"], model.params.volume) if m["ring_index"] is None
                 else ring_mode(model, m["ring_index"], nu=m["nu"]) for m in cfg.modes]
    return model, gauges, modes


def _matter_point(point) -> list[tuple]:
    """The criterion's matter step at one sweep sample ``point`` (model,
    gauges, modes): a (gauge, q_index, `criterion.MatterPoint`) per gauge
    and mode, gauge by gauge, none of which holds the model.  Each dressed
    Hamiltonian's ground resolvent comes from `matter.ground_resolvent`,
    which solves each distinct stored form once: a `dipole_scale` sweep
    diagonalises h_m once."""
    model, gauges, modes = point
    return [(gauge, qi, matter_point(model, gauge, mode))
            for gauge in gauges for qi, mode in enumerate(modes)]


def _criterion_stage(cfg: SweepConfig, param: str, values: np.ndarray
                     ) -> tuple[list[dict], tuple]:
    """criterion.csv records for the sweep, in point, gauge, mode and branch
    order, and the first sample's point: the matter step at every sample,
    then the stacked step (see the module docstring).  The modes are built
    once, unless the sweep varies the volume, which is theirs."""
    first = _point(cfg, param, float(values[0]))
    modes = None if param == "volume" else first[2]
    samples = [_matter_point(first)]
    samples += [_matter_point(_point(cfg, param, float(v), modes)) for v in values[1:]]
    stacks = [verdicts([sample[k][2] for sample in samples]) for k in range(len(samples[0]))]
    header = CSV_HEADER.split(",")
    records = [dict(zip(header, (
        SCHEMA_VERSION, i, param, float(v), gauge.preset.value, gauge.alpha, qi, rep.tau,
        rep.lhs, rep.rhs, rep.electric_part, rep.magnetic_part, rep.margin, rep.condensed,
        rep.beta0.real, rep.beta0.imag)))
        for i, (v, sample) in enumerate(zip(values, samples))
        for (gauge, qi, _), stack in zip(sample, stacks) for rep in stack[i]]
    return records, first


def _oracle_point(cfg: SweepConfig, index: int, param: str, value: float) -> list[dict]:
    """oracle.csv records for one sweep sample, one per gauge.

    One k=2 eigensolve per gauge gives the ground energy, the ground vector
    the observables read, and the parity gap.  `coherence_abs` is the root
    sum of squares of |<a_{q sigma}>| and `occupation` the sum of <a+ a>,
    both over every mode and both polarisations.
    """
    from .oracle import full_hamiltonian, lowest_eigenpairs, photon_coherence, \
        transverse_field_expectation

    fock = cfg.oracle["fock_cutoff"]
    model, gauges, modes = _point(cfg, param, value)
    records = []
    for gauge in gauges:
        system = full_hamiltonian(model, gauge, modes, fock)
        vals, vecs = lowest_eigenpairs(system, k=2)
        state = Statevector(vecs[:, 0] / np.linalg.norm(vecs[:, 0]))
        # both polarisations: a 1-axis dipole along x couples to sigma = 1 only
        photons = [photon_coherence(state, system, i, sigma)
                   for i in range(len(modes)) for sigma in (1, 2)]
        coh = math.hypot(*(abs(c) for c, _ in photons))
        occ = sum(o for _, o in photons)
        et_max = np.max(np.abs(transverse_field_expectation(state, system)))
        records.append(dict(zip(ORACLE_HEADER.split(","), (
            SCHEMA_VERSION, index, param, value, gauge.preset.value, fock, float(vals[0]),
            float(vals[1] - vals[0]), coh, occ, et_max))))
    return records


def _csv_line(values) -> str:
    """One CSV row, formatted in one pass: booleans as true/false, integers
    and labels verbatim, other numbers as the shortest round-trip repr of
    the float."""
    return ",".join([repr(v) if type(v) is float
                     else ("true" if v else "false") if isinstance(v, bool)
                     else str(v) if isinstance(v, (int, str)) else repr(float(v))
                     for v in values])


def _write_csv(path: str, header: str, records: list[dict]) -> None:
    fields = operator.itemgetter(*header.split(","))
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(_csv_line(fields(rec)) + "\n" for rec in records)


def _thresholds(records: list[dict]) -> list[dict]:
    """Per (gauge, q_index, tau): whether any row is condensed, and the first
    point between two rows whose `condensed` flags differ, rising or falling,
    where the margin linearly interpolated between them reaches zero."""
    series: dict = {}
    for rec in records:
        series.setdefault((rec["gauge"], rec["q_index"], rec["tau"]), []).append(rec)
    out = []
    for (gauge_label, qi, tau), recs in sorted(series.items()):
        pts = sorted((r["param_value"], r["margin"], r["condensed"]) for r in recs)
        crossing = next((x0 - m0 * (x1 - x0) / (m1 - m0)
                         for (x0, m0, c0), (x1, m1, c1) in zip(pts, pts[1:]) if c0 != c1),
                        None)
        out.append({"gauge": gauge_label, "q_index": qi, "tau": tau,
                    "condensed_anywhere": any(r["condensed"] for r in recs),
                    "crossing": crossing})
    return out


def _check(dev: float, tol: float) -> dict:
    return {"max_dev": dev, "tol": tol, "passed": dev <= tol}


def run_check(cfg: SweepConfig, point=None) -> dict:
    """Run the invariant suites relevant to the configured model and gauges.

    ``point`` is the first sweep sample's (model, gauges, modes), built
    here when not given.  The TRK sum and the ring's density check read
    h_m's ground state from `matter`, which in a sweep has solved it
    already.
    """
    from .bogoliubov import diagonalize_block, numeric_block_eigen, verify_symplectic
    from .gauge import DiamagneticMatrix, diamagnetic_D
    from .matter import check_uniform_density, trk_sum

    results = {}
    # 200 random blocks, D = m m^T (symmetric PSD) for m = [[a, c], [c, b]]
    draws = np.random.default_rng(cfg.seed).uniform([0, 0, -1, 0], [2, 2, 1, 0.5],
                                                    size=(200, 4))
    m = draws[:, [0, 2, 2, 1]].reshape(-1, 2, 2)
    dmat = DiamagneticMatrix(d=m @ m.transpose(0, 2, 1), delta_q=draws[:, 3])
    block = diagonalize_block(dmat, 1.0)
    lam_num, _ = numeric_block_eigen(dmat, 1.0)
    results["bogoliubov_lambda_vs_numeric"] = _check(
        float(np.max(np.abs(block.lambdas - lam_num))), 1e-10)
    results["bogoliubov_symplectic"] = _check(verify_symplectic(block), 1e-11)

    if point is None:
        point = _point(cfg, cfg.sweep["parameter"], float(_sweep_values(cfg.sweep)[0]))
    model, gauges, modes = point
    if model.kind is ModelKind.RING_LATTICE:
        results["ring_uniform_density"] = _check(check_uniform_density(model), 1e-12)
    if model.momentum_ops is not None:
        s = trk_sum(ground_resolvent(model), axis=0)
        target = model.params.mass * model.params.n_charges / 2.0
        results["trk_sum_rule"] = _check(abs(s - target), 1e-6)
    for gauge in gauges:
        # the worst mode decides: one non-PSD D fails the gauge
        lowest = min(float(np.linalg.eigvalsh(diamagnetic_D(model, gauge, mode).d)[0])
                     for mode in modes)
        results[f"diamagnetic_psd_{gauge.preset.value}"] = _check(max(0.0, -lowest), 1e-14)
    results["all_passed"] = all(v["passed"] for v in results.values()
                                if isinstance(v, dict))
    return results


@functools.cache
def _openblas_pool(package: str):
    """(get, set) thread-count functions of the OpenBLAS bundled in the
    wheel of ``package`` ("numpy" or "scipy"), or None when the library or
    its symbols are not there; looked up once per process, since the
    loaded library does not change."""
    import ctypes
    import glob
    import importlib
    import os

    root = os.path.dirname(os.path.dirname(importlib.import_module(package).__file__))
    for path in sorted(glob.glob(os.path.join(root, f"{package}.libs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # the copy the package loaded, not a second one
        except OSError:
            continue
        get, set_ = (getattr(lib, OPENBLAS_THREADS[package].format(op), None)
                     for op in ("get", "set"))
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


def _blas_threads() -> dict:
    """Current thread count of each bundled OpenBLAS; None where not found."""
    return {package: None if (pool := _openblas_pool(package)) is None else pool[0]()
            for package in OPENBLAS_THREADS}


@contextlib.contextmanager
def _one_blas_thread():
    """Both bundled OpenBLAS pools on one thread inside the block, each
    restored to its earlier count on exit; a pool not found is left alone."""
    pools = [pool for package in OPENBLAS_THREADS
             if (pool := _openblas_pool(package)) is not None]
    previous = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(pools, previous):
            set_(count)


def _oracle_indices(cfg: SweepConfig, count: int) -> list[int]:
    """Sweep indices of the oracle points: none with the oracle off, all
    of them without `points`, else `points` spread evenly over the sweep."""
    if not cfg.oracle["enabled"]:
        return []
    points = cfg.oracle["points"]
    if points is None:
        return list(range(count))
    return sorted({int(i) for i in np.linspace(0, count - 1, min(points, count))})


def run_sweep(cfg: SweepConfig, out_dir: str) -> int:
    """Write criterion.csv, summary.json and, with the oracle enabled,
    oracle.csv to ``out_dir``, with both BLAS pools on one thread and the
    oracle points on worker processes where there is more than one CPU
    (see the module docstring)."""
    import os

    with _one_blas_thread():
        t_start = time.monotonic()
        os.makedirs(out_dir, exist_ok=True)
        values = _sweep_values(cfg.sweep)
        param = cfg.sweep["parameter"]
        oracle_idx = _oracle_indices(cfg, len(values))
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        workers = min(cpus, len(oracle_idx)) if cpus > 1 else 0
        pool = None
        if workers:
            import concurrent.futures
            import multiprocessing

            pool = concurrent.futures.ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))
        try:
            pending = [pool.submit(_oracle_point, cfg, i, param, float(values[i]))
                       for i in oracle_idx] if pool is not None else []
            records, first = _criterion_stage(cfg, param, values)
            _write_csv(os.path.join(out_dir, "criterion.csv"), CSV_HEADER, records)
            t_criterion = time.monotonic() - t_start
            checks = run_check(cfg, first)

            t_wait = time.monotonic()
            if pool is not None:
                oracle_records = [r for future in pending for r in future.result()]
            else:
                oracle_records = [r for i in oracle_idx
                                  for r in _oracle_point(cfg, i, param, float(values[i]))]
            if cfg.oracle["enabled"]:
                _write_csv(os.path.join(out_dir, "oracle.csv"), ORACLE_HEADER, oracle_records)
            t_oracle = time.monotonic() - t_wait
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

        summary = {
            "resolved_config": cfg.raw,
            "thresholds": _thresholds(records),
            "invariant_results": checks,
            "timings": {"criterion_seconds": t_criterion, "oracle_seconds": t_oracle,
                        "total_seconds": t_criterion + t_oracle},
            "oracle_workers": workers,
            "blas_threads": _blas_threads(),
            "schema_version": SCHEMA_VERSION,
            "package_version": __version__,
        }
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            # np.bool_ and numpy integers are no JSON types; .item() gives the Python scalar
            json.dump(summary, fh, indent=2, sort_keys=True, default=lambda o: o.item())
            fh.write("\n")
    return 0


def main(argv=None) -> int:
    """The CLI entry point, run with both OpenBLAS pools on one thread (see
    the module docstring); the earlier counts are restored on return."""
    with _one_blas_thread():
        return _main(argv)


def _main(argv) -> int:
    parser = argparse.ArgumentParser(prog="gaugecavity",
                                     description="photon-condensation criterion sweeps")
    sub = parser.add_subparsers(dest="command", required=True)
    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
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
            return run_sweep(cfg, args.out)
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
