"""Scenario files, batch verification runs, and report emission.

A scenario is a JSON object; parsing fills every default so that
``parse(emit(s)) == s`` byte-for-byte.  Top-level keys:

    name       run label (default "scenario")
    rank       free group rank (default 2)
    seed       RNG seed for matrix ensembles, an int >= 0 (default 0)
    target     model spec for X* (the compared metric), or null
    reference  model spec for X (the window metric), or null
    subset     list of words (strings) for joint-length checks, or null
    matrices   explicit matrix list for spectral checks, or null
    ensemble   {"count", "dim", "scale"} seeded random matrix pairs, or null
    verify     list of check tokens to run, in order
    config     VerifierConfig fields (K, delta, L_values, radius_cap, ...)
    params     per-check knobs (band, C0, alpha, n, ball_radius, f_radius,
               max_f, cert_radius, radius)

Model specs: {"kind": "tree", "weights": [...]},
{"kind": "word-metric", "elements": [...], "weights": [...]},
{"kind": "mobius"|"linear", "matrices": [[[a,b],[c,d]], ...], "delta": ...},
{"kind": "schottky", "stretch": l, "angles": [...], "use": "mobius"|"linear"},
{"kind": "preset", "name": "cor17-default"} (expands at parse time).

Exit codes: 0 clean, 1 violation on exact data, 2 input error, 3 resource cap.
Report files never contain wall-clock data, so equal seeds give
byte-identical reports.
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import math
import platform
import shutil
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache, partial
from itertools import groupby, islice
from pathlib import Path
from typing import Optional

# numpy before the package's modules, so that each binds numpy itself
# rather than the stand-in of lenspec._np
import numpy as np

from . import __version__
from .actions import (HOLDS, HYPOTHESIS_FAILED, INCONCLUSIVE, VIOLATED,
                      exact_div, verdict_of)
from .bounds import (
    ClassTable,
    VerifierConfig,
    WindowRow,
    cobounded_dilation_report,
    dilation_window,
    displacement_sandwich_report,
    joint_vs_dilation_report,
    metric_distance_report,
    pointwise_cover_report,
    ratio_envelope_report,
    spectral_dilation_report,
    table_radius,
    window_lengths,
    word_metric_dilation_report,
)
from .errors import InputError, NumericError, ResourceCapError
from .jsl import bf_lower_check, bochi_rhs, jsr_profile
from .spaces import (
    ClassLengths,
    LinearRepModel,
    MatrixActionModel,
    MobiusModel,
    TreeModel,
    WordMetricModel,
    build_schottky,
    class_lengths,
)
from .words import (ROW_CHUNK, ClassCodes, GeneratingSet, Word, _distinct, _finite_real,
                    _id_groups)

__all__ = [
    "Scenario",
    "RunReport",
    "parse_scenario",
    "emit_scenario",
    "load_scenario",
    "builtin_preset",
    "run",
    "emit",
    "main",
]

VERIFY_TOKENS = (
    "thm13", "thm15", "cor14", "cor17", "anosov",
    "bf", "bochi", "prop31", "lemma25", "lemma32",
)

MODEL_KINDS = ("tree", "word-metric", "mobius", "linear", "schottky", "preset")

_PRESETS = {
    "cor17-default": {
        "kind": "schottky",
        "stretch": 4.0,
        "angles": [0.0, 1.2],
        "delta": math.log(4),
        "use": "mobius",
    },
}

# the VerifierConfig defaults, L_values as the list a scenario file holds
_CONFIG_DEFAULTS = {f.name: list(f.default) if f.name == "L_values" else f.default
                    for f in fields(VerifierConfig)}

_PARAM_DEFAULTS = {
    "alpha": 0.0,
    "band": None,
    "C0": None,
    "n": 4,
    "ball_radius": 6,
    "f_radius": 2,
    "max_f": 12,
    "cert_radius": 6,
    "radius": None,
}
# the integer params and their least values
_INT_PARAMS = {"n": 1, "ball_radius": 0, "f_radius": 0, "max_f": 0,
               "cert_radius": 1, "radius": 0}

_TOP_KEYS = ("name", "rank", "seed", "target", "reference", "subset",
             "matrices", "ensemble", "verify", "config", "params")


@dataclass(frozen=True)
class Scenario:
    """A normalized verification scenario; ``data`` is canonical JSON-ready."""

    data: dict

    @property
    def name(self) -> str:
        return self.data["name"]

    @property
    def rank(self) -> int:
        return self.data["rank"]

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def verify(self) -> tuple:
        return tuple(self.data["verify"])

    @property
    def params(self) -> dict:
        return self.data["params"]

    def config(self) -> VerifierConfig:
        c = dict(self.data["config"])
        c["L_values"] = tuple(c["L_values"])
        return VerifierConfig(**c)


def _fail(path: str, msg: str):
    raise InputError(f"scenario.{path}: {msg}" if path else f"scenario: {msg}")


def _check_num(v, path, *, positive=False, integer=False, least=None):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, f"expected a number, got {type(v).__name__}")
    if not _finite_real(v):
        _fail(path, f"expected a finite number, got {v}")
    if integer and int(v) != v:
        _fail(path, f"expected an integer, got {v}")
    if positive and not v > 0:
        _fail(path, f"must be positive, got {v}")
    if least is not None and v < least:
        _fail(path, f"must be >= {least}, got {v}")
    return v


def _items(v, path, what, n=None):
    """(item, path) of each item of v, failing with ``expected <what>``
    unless v is a list of n items (a nonempty list when n is None)."""
    if not isinstance(v, list) or (len(v) != n if n is not None else not v):
        _fail(path, f"expected {what}")
    return [(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _words(v, path, what, rank):
    """A nonempty list of word strings whose letters are within rank."""
    for e, p in _items(v, path, what):
        if not isinstance(e, str):
            _fail(p, "expected a word string")
        if Word(e).max_index() > rank:
            _fail(p, f"word {e!r} uses letters beyond rank {rank}")
    return v


def _known(obj, known, path, suffix=""):
    """Fail naming the fields of obj outside known, suffix after them."""
    unknown = set(obj) - set(known)
    if unknown:
        _fail(path, f"unknown field(s) {sorted(unknown)}{suffix}")


def _section(raw, key, defaults):
    """The object raw[key] ({} when absent) over a copy of its defaults,
    so that no two parses share a default list.  A field with no default
    fails, and the message lists the known fields."""
    given = raw.get(key, {})
    if not isinstance(given, dict):
        _fail(key, "expected an object")
    _known(given, defaults, key, f" (known: {', '.join(sorted(defaults))})")
    return {**copy.deepcopy(defaults), **given}


def _optional_num(v, path, **kw):
    return None if v is None else _check_num(v, path, **kw)


def _norm_matrix(m, path):
    rows = _items(m, path, "a matrix as a list of rows")
    for row, rp in rows:
        for e, ep in _items(row, rp, f"a row of {len(rows)} entries", len(rows)):
            if not isinstance(e, list):
                _check_num(e, ep)
                continue
            if len(e) != 2:
                _fail(ep, "complex entries are [re, im] number pairs")
            for k, x in enumerate(e):
                _check_num(x, f"{ep}[{k}]")
    return m


def _norm_model(spec, path, rank):
    if spec is None:
        return None
    if not isinstance(spec, dict):
        _fail(path, "expected a model object or null")
    kind = spec.get("kind")
    if kind == "preset":
        _known(spec, ("kind", "name", "use"), path, " for kind 'preset'")
        try:
            expanded = builtin_preset(spec.get("name"))
        except InputError as e:
            _fail(f"{path}.name", str(e))
        if "use" in spec:
            expanded["use"] = spec["use"]
        spec = expanded
        kind = spec["kind"]
    if kind not in MODEL_KINDS:
        _fail(f"{path}.kind",
              f"unknown model kind {kind!r} (known: {', '.join(MODEL_KINDS)})")
    out = {"kind": kind}
    if "preset" in spec:
        out["preset"] = spec["preset"]
    if kind in ("tree", "word-metric"):
        allowed = {"weights"}
        n, what = rank, f"{rank} weights"
        if kind == "word-metric":
            allowed.add("elements")
            out["elements"] = _words(spec.get("elements"), f"{path}.elements",
                                     "a nonempty list of words", rank)
            n, what = len(out["elements"]), "one weight per element"
        w = out["weights"] = spec.get("weights")
        if w is not None:
            for x, xp in _items(w, f"{path}.weights", what, n):
                _check_num(x, xp, positive=True)
    elif kind in ("mobius", "linear"):
        allowed = {"matrices", "delta", "dim" if kind == "mobius" else "alpha"}
        out["matrices"] = [_norm_matrix(m, mp) for m, mp in _items(
            spec.get("matrices"), f"{path}.matrices",
            f"{rank} generator matrices", rank)]
        out["delta"] = _optional_num(spec.get("delta"), f"{path}.delta",
                                     positive=True)
        if kind == "linear":
            out["alpha"] = _optional_num(spec.get("alpha"), f"{path}.alpha")
        if kind == "mobius":
            dim = spec.get("dim")
            if dim is not None and dim not in (2, 3):
                _fail(f"{path}.dim", "hyperbolic dimension must be 2 or 3")
            out["dim"] = dim
    elif kind == "schottky":
        allowed = {"stretch", "angles", "delta", "use"}
        stretch = spec.get("stretch")
        if isinstance(stretch, list):
            for s, sp in _items(stretch, f"{path}.stretch",
                                f"{rank} stretch factors", rank):
                _check_num(s, sp, positive=True)
        else:
            _check_num(stretch, f"{path}.stretch", positive=True)
        angles = spec.get("angles")
        for a, ap in _items(angles, f"{path}.angles",
                            f"{rank} rotation angles", rank):
            _check_num(a, ap)
        use = spec.get("use", "mobius")
        if use not in ("mobius", "linear"):
            _fail(f"{path}.use", "expected 'mobius' or 'linear'")
        delta = _optional_num(spec.get("delta"), f"{path}.delta", positive=True)
        out.update(stretch=stretch, angles=angles, delta=delta, use=use)
    _known(spec, allowed | {"kind", "preset"}, path, f" for kind {kind!r}")
    return out


def _decode(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(
            f"scenario is not valid JSON: {e.msg} at line {e.lineno} "
            f"column {e.colno}"
        ) from None
    except ValueError as e:  # an int of more digits than str() converts
        raise InputError(f"scenario is not valid JSON: {e}") from None


def parse_scenario(source) -> Scenario:
    """Parse and validate a scenario, its JSON text or the object that text
    decodes to, filling every default."""
    raw = _decode(source) if isinstance(source, str) else source
    if not isinstance(raw, dict):
        _fail("", "top level must be a JSON object")
    _known(raw, _TOP_KEYS, "")
    data: dict = {}
    name = raw.get("name", "scenario")
    if not isinstance(name, str):
        _fail("name", "expected a string")
    data["name"] = name
    rank = raw.get("rank", 2)
    _check_num(rank, "rank", positive=True, integer=True)
    data["rank"] = rank = int(rank)
    seed = raw.get("seed", 0)
    _check_num(seed, "seed", integer=True, least=0)
    data["seed"] = int(seed)
    data["target"] = _norm_model(raw.get("target"), "target", rank)
    data["reference"] = _norm_model(raw.get("reference"), "reference", rank)
    subset = raw.get("subset")
    data["subset"] = subset if subset is None else _words(
        subset, "subset", "a nonempty list of word strings", rank)
    mats = raw.get("matrices")
    data["matrices"] = mats if mats is None else [
        _norm_matrix(m, mp)
        for m, mp in _items(mats, "matrices", "a nonempty list of matrices")]
    for i, m in enumerate(mats or ()):
        if len(m) != len(mats[0]):
            _fail(f"matrices[{i}]", f"expected {len(mats[0])}x{len(mats[0])} like "
                                    f"matrices[0], got {len(m)}x{len(m)}")
    ens = raw.get("ensemble")
    if ens is not None:
        if not isinstance(ens, dict):
            _fail("ensemble", "expected an object")
        _known(ens, ("count", "dim", "scale"), "ensemble")
        count = ens.get("count", 1)
        _check_num(count, "ensemble.count", positive=True, integer=True)
        dim = ens.get("dim", 2)
        _check_num(dim, "ensemble.dim", positive=True, integer=True)
        if dim < 2:
            _fail("ensemble.dim", "dimension must be >= 2")
        scale = ens.get("scale", 1.0)
        _check_num(scale, "ensemble.scale", positive=True)
        ens = {"count": int(count), "dim": int(dim), "scale": scale}
    data["ensemble"] = ens
    verify = raw.get("verify", [])
    if not isinstance(verify, list):
        _fail("verify", "expected a list of check tokens")
    for i, t in enumerate(verify):
        if t not in VERIFY_TOKENS:
            _fail(f"verify[{i}]",
                  f"unknown verifier {t!r} (known: {', '.join(VERIFY_TOKENS)})")
    data["verify"] = list(verify)
    cfg = data["config"] = _section(raw, "config", _CONFIG_DEFAULTS)
    for L, Lp in _items(cfg["L_values"], "config.L_values",
                        "a nonempty list of window lengths"):
        _check_num(L, Lp, positive=True)
    par = data["params"] = _section(raw, "params", _PARAM_DEFAULTS)
    if par["band"] is not None:
        for b, bp in _items(par["band"], "params.band", "[alpha, beta]", 2):
            _check_num(b, bp)
    for key, v in par.items():
        if key == "band" or (v is None and key in ("C0", "radius")):
            continue
        least = _INT_PARAMS.get(key)
        _check_num(v, f"params.{key}", integer=least is not None, least=least)
        if least is not None:
            par[key] = int(v)
    scen = Scenario(data=data)
    try:
        scen.config()  # validate config values via the dataclass
    except InputError as e:
        _fail("config", str(e))
    return scen


def emit_scenario(scenario: Scenario) -> str:
    """Canonical scenario text; parse(emit(s)) == s."""
    return json.dumps(scenario.data, sort_keys=True, indent=2) + "\n"


def _read(path) -> str:
    p = Path(path)
    if not p.exists():
        raise InputError(f"scenario file not found: {p}")
    return p.read_text()


def load_scenario(path) -> Scenario:
    return parse_scenario(_read(path))


def builtin_preset(name: str) -> dict:
    if not isinstance(name, str):
        raise InputError("expected a preset name string, "
                         f"got {type(name).__name__}")
    if name not in _PRESETS:
        raise InputError(f"unknown preset {name!r} (known: {sorted(_PRESETS)})")
    out = dict(_PRESETS[name])
    out["preset"] = name
    return out


# ------------------------------------------------------------- model build


def _mat_array(rows) -> np.ndarray:
    cplx = any(isinstance(e, list) for row in rows for e in row)
    if cplx:
        return np.array([[complex(e[0], e[1]) if isinstance(e, list) else e
                          for e in row] for row in rows], dtype=np.complex128)
    return np.array(rows, dtype=np.float64)


def build_model(spec: Optional[dict], rank: int):
    """Instantiate an action model from a normalized scenario model spec."""
    if spec is None:
        return None
    kind = spec["kind"]
    if kind == "tree":
        w = spec.get("weights")
        return TreeModel(rank, weights=tuple(w) if w else None)
    if kind == "word-metric":
        gens = GeneratingSet(rank, [Word(e) for e in spec["elements"]],
                             spec.get("weights"))
        return WordMetricModel(gens)
    if kind in ("mobius", "linear"):
        # the optional fields the spec gives, the model's defaults otherwise
        cls, opt = ((MobiusModel, "dim") if kind == "mobius"
                    else (LinearRepModel, "alpha"))
        kw = {k: spec[k] for k in ("delta", opt) if spec.get(k) is not None}
        return cls([_mat_array(m) for m in spec["matrices"]], **kw)
    if kind == "schottky":
        action = build_schottky(spec["stretch"], spec["angles"],
                                delta=spec.get("delta"))
        return action.linear if spec.get("use") == "linear" else action.mobius
    raise InputError(f"unknown model kind {kind!r}")


def _ensemble_pairs(ens: dict, seed: int) -> list:
    """Seeded random unit-|det| matrix pairs for spectral checks: each
    standard normal draw m with |det m| >= 1e-12 becomes m / |det m|^(1/dim).
    The ensemble's ``scale`` would cancel in that normalisation, so the
    draw never reads it: no scale can overflow, underflow or round it."""
    rng = np.random.default_rng(seed)
    dim = ens["dim"]
    out = []
    for _ in range(ens["count"]):
        pair = []
        while len(pair) < 2:
            m = rng.standard_normal((dim, dim))
            det = abs(np.linalg.det(m))
            if det >= 1e-12:
                pair.append(m / det ** (1.0 / dim))
        out.append(pair)
    return out


# --------------------------------------------------------- serialization


def _num(v):
    if isinstance(v, bool) or v is None or isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    return str(v)


def _jsonable(obj):
    if isinstance(obj, WindowRow):
        return {
            "class": str(obj.rep),
            "ref": _jsonable(obj.ref_length),
            "target": _jsonable(obj.target_length),
            "ratio": _jsonable(obj.ratio),
            "straddles": obj.straddles,
        }
    if isinstance(obj, Word):
        return str(obj)
    if isinstance(obj, GeneratingSet):
        return {"elements": [str(e) for e in obj.elements],
                "weights": [_num(w) for w in obj.weights]}
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _jsonable(getattr(obj, k))
                for k in obj.__dataclass_fields__}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return _num(obj)


_VERDICT_RANK = {HOLDS: 0, INCONCLUSIVE: 1, HYPOTHESIS_FAILED: 2, VIOLATED: 3}


def _worst(verdicts) -> str:
    return max(verdicts, key=_VERDICT_RANK.__getitem__, default=HOLDS)


# ------------------------------------------------------------ verifier glue


def _require(cond, what):
    if not cond:
        raise InputError(what)


def _require_both(target, reference, who):
    _require(target is not None and reference is not None,
             f"{who} needs target and reference models")


def _entry(reports) -> dict:
    """A check's entry: its reports, and the worst of their verdicts."""
    return {"reports": [_jsonable(r) for r in reports],
            "verdict": _worst(r.verdict for r in reports)}


def _subset_reference(scen: Scenario) -> WordMetricModel:
    """The word metric of the scenario's subset."""
    subset = scen.data["subset"]
    _require(subset is not None,
             "this check needs a word-metric reference or a subset")
    return WordMetricModel(GeneratingSet(scen.rank,
                                         [Word(e) for e in subset]))


def _spectral_instances(scen: Scenario, target):
    if scen.data["matrices"] is not None:
        return [[_mat_array(m) for m in scen.data["matrices"]]]
    if scen.data["ensemble"] is not None:
        return _ensemble_pairs(scen.data["ensemble"], scen.seed)
    if isinstance(target, MatrixActionModel):
        return [[target.matrix(Word((i,))) for i in range(1, scen.rank + 1)]]
    raise InputError("this check needs matrices, an ensemble, or a matrix "
                     "target model")


def _run_token(token: str, scen: Scenario, cfg: VerifierConfig,
               target, reference, *, tables: Optional[dict] = None,
               subset_reference=None) -> dict:
    """One verifier's entry.  ``subset_reference()`` gives the word metric
    of the subset (built per call when not given), so that the checks of a
    run can share it and, through ``tables``, its evaluation."""
    p = scen.params
    if subset_reference is None:
        subset_reference = partial(_subset_reference, scen)
    tol = cfg.tolerance
    if token in ("thm13", "cor17"):
        _require_both(target, reference, f"verifier {token}")
        variant = "tight" if token == "thm13" else "plain-log4"
        return _entry(cobounded_dilation_report(target, reference, cfg,
                                                variant, tables=tables))
    if token == "thm15":
        _require(target is not None, "verifier thm15 needs a target model")
        ref = (reference if isinstance(reference, WordMetricModel)
               else subset_reference())
        return _entry(word_metric_dilation_report(target, ref, cfg,
                                                  tables=tables))
    if token == "cor14":
        _require_both(target, reference, "verifier cor14")
        _require(p["band"] is not None,
                 "verifier cor14 needs params.band = [alpha, beta]")
        return _entry(ratio_envelope_report(target, reference, p["band"][0],
                                            p["band"][1], cfg, C0=p["C0"],
                                            tables=tables))
    if token == "anosov":
        _require(isinstance(target, MatrixActionModel),
                 "verifier anosov needs a matrix target model")
        cert = target.certificate(p["cert_radius"])
        entry = {"certificate": _jsonable(cert),
                 "verdict": HOLDS if cert.ok else INCONCLUSIVE}
        if cert.ok and reference is not None and isinstance(target,
                                                            LinearRepModel):
            # past a certificate that holds, the verdict is the reports'
            entry.update(_entry(spectral_dilation_report(
                target, reference, cfg, alpha=p["alpha"],
                cert_radius=p["cert_radius"], tables=tables)))
        return entry
    if token == "bf":
        _require(target is not None and scen.data["subset"] is not None,
                 "verifier bf needs a target model and a subset")
        words = [Word(e) for e in scen.data["subset"]]
        check = bf_lower_check(target, words, n_max=cfg.n_max, tol=tol,
                               K=cfg.K, frontier_cap=cfg.frontier_cap)
        half_lo, joint_hi = check.pair_half.lo, check.joint.hi
        verdict = verdict_of(half_lo, half_lo, joint_hi, joint_hi, tol,
                             truncated=False)
        return {"reports": [_jsonable(check)], "verdict": verdict}
    if token == "bochi":
        instances = _spectral_instances(scen, target)
        rows = []
        verdicts = []
        for mats in instances:
            jsr = jsr_profile(mats, cfg.n_max, cap=cfg.frontier_cap).bracket
            rhs = bochi_rhs(mats, cap=cfg.frontier_cap)
            verdicts.append(verdict_of(jsr.lo, jsr.hi, rhs.value, rhs.value, tol,
                                       truncated=rhs.partial))
            rows.append({
                "jsr": _jsonable(jsr),
                "rhs": _num(rhs.value),
                "j_used": rhs.j_used,
                "partial": rhs.partial,
                "ok": verdicts[-1] == HOLDS,
            })
        return {"reports": rows, "verdict": _worst(verdicts)}
    if token == "prop31":
        _require(target is not None and scen.data["subset"] is not None,
                 "verifier prop31 needs a target model and a subset")
        return _entry([joint_vs_dilation_report(target, subset_reference(),
                                                cfg, tables=tables)])
    if token == "lemma25":
        _require(target is not None, "verifier lemma25 needs a target model")
        return _entry([displacement_sandwich_report(target, p["n"],
                                                    p["ball_radius"], cfg)])
    if token == "lemma32":
        _require(target is not None, "verifier lemma32 needs a target model")
        return _entry([pointwise_cover_report(target, p["ball_radius"],
                                              p["f_radius"], cfg,
                                              max_f=p["max_f"])])
    raise InputError(f"unknown verifier token {token!r}")


def _table_radius(token: str, scen: Scenario, cfg: VerifierConfig, target,
                  reference, subset_reference) -> Optional[int]:
    """The radius of the class table that ``_run_token`` reads for the
    check ``token``, None for a check that reads none.  It only sets how far
    a run's class walk reaches: a check that raises before its table is
    built may still be given one, and None where finding it raises."""
    try:
        if token in ("thm13", "cor17", "cor14", "anosov"):
            if target is None or reference is None or (
                    token == "anosov" and not isinstance(target, LinearRepModel)):
                return None
            ref, lengths = reference, window_lengths(cfg)
        elif token == "thm15" and target is not None:
            ref = (reference if isinstance(reference, WordMetricModel)
                   else subset_reference())
            lengths = window_lengths(cfg, 2)
        elif token == "prop31" and target is not None:
            ref, lengths = subset_reference(), [(max(cfg.L_values),)]
        else:
            return None
        return table_radius(ref, [w for pair in lengths for w in pair], cfg)
    except InputError:
        return None


# ------------------------------------------------------------- run + emit


@dataclass
class RunReport:
    """Deterministic run output; no wall-clock data inside."""

    scenario: dict
    entries: list
    verdict: str
    exit_code: int
    env: dict
    # the classes of classes.csv (a _class_listing), rendered as written
    classes: object = None

    def to_json(self) -> str:
        body = {
            "scenario": self.scenario,
            "entries": self.entries,
            "verdict": self.verdict,
            "exit_code": self.exit_code,
            "env": self.env,
        }
        return json.dumps(body, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"


_CSV_HEADER = ("class", "ref_lo", "ref_hi", "target_lo", "target_hi",
               "ratio_lo", "ratio_hi")
_CSV_HEADER_LINE = ",".join(_CSV_HEADER) + "\n"


def _csv_cell(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return v


def _class_listing(scen: Scenario, cfg: VerifierConfig, target, reference, *,
                   tables: Optional[dict] = None):
    """The classes of classes.csv with their lengths: the ClassTable of
    (target, reference), the ClassLengths of the one model given, None
    when neither is.  Every step of classes.csv that can raise
    ResourceCapError (the class walk, the length evaluation) runs here;
    rendering the rows (``_csv_chunks``) raises none."""
    primary = target if target is not None else reference
    if primary is None:
        return None
    radius = _listing_radius(scen, cfg, reference)
    if target is None or reference is None:
        codes = ClassCodes.walk(scen.rank, radius, cfg.class_cap)
        return class_lengths(primary, codes, cfg.window_k_max)
    return ClassTable(target, reference, radius, config=cfg, tables=tables)


def _listing_radius(scen: Scenario, cfg: VerifierConfig, reference) -> int:
    """The radius of classes.csv: params.radius, else the reference's
    window of the largest L, capped at radius_cap."""
    if scen.params["radius"] is not None:
        return int(scen.params["radius"])
    if reference is None:
        return cfg.radius_cap
    return table_radius(reference, [max(cfg.L_values)], cfg)


def _ascii_rows(texts) -> np.ndarray:
    """The ASCII strings ``texts`` as an (N, W) uint8 array, one string a
    row, NUL-padded to the longest."""
    texts = np.array(texts, dtype=np.bytes_)
    return texts.view(np.uint8).reshape(len(texts), texts.itemsize)


def _name_chunks(codes: ClassCodes):
    """The names of the classes of ``codes``, one chunk per array of
    ``codes.row_chunks()``, each an (N, W) uint8 array of their ASCII
    bytes, NUL-padded: within rank 26 the ASCII byte of each code, past
    it the text of one ``codes.names()``."""
    if codes.rank <= 26:
        for rows in codes.row_chunks():
            # code c is letter c//2 + 1, its inverse (upper case) when c is
            # odd: see words._letters_in_order
            yield (rows >> 1) + np.uint8(ord("a")) - ((rows & 1) << 5)
        return
    names = codes.names()
    for rows in codes.row_chunks():
        yield _ascii_rows(list(islice(names, len(rows))))


def _typed(v) -> tuple:
    """v as a key on which its text, and the text of exact_div's value
    with it, depend alone: with its type, and a float with its sign, since
    1 and 1.0, or 0.0 and -0.0, are equal values with different texts."""
    if isinstance(v, float):
        return float, v, math.copysign(1.0, v)
    return type(v), v


# the widest text of a float or of an int below 2**53 in size: the repr of
# -2.2250738585072014e-308
_TEXT_WIDTH = 24


def _text_table(values, text, blank: bool) -> np.ndarray:
    """The texts ``text(v)`` of the sequence ``values`` (an array is read
    as Python numbers), and an empty last one when ``blank``, as a (K, W)
    uint8 array of NUL-padded ASCII rows, W the widest text.

    The texts are rendered a ROW_CHUNK slice of values at a time into one
    table _TEXT_WIDTH bytes wide (widened where a slice holds a longer
    text, as an exact ratio can), then cut to W: no list of every text is
    built."""
    table = np.zeros((len(values) + blank, _TEXT_WIDTH), np.uint8)
    width = 0
    for start in range(0, len(values), ROW_CHUNK):
        part = values[start:start + ROW_CHUNK]
        rows = _ascii_rows(list(map(text, part.tolist() if isinstance(part, np.ndarray)
                                    else part)))
        if rows.shape[1] > table.shape[1]:
            table = np.pad(table, ((0, 0), (0, rows.shape[1] - table.shape[1])))
        table[start:start + len(rows), :rows.shape[1]] = rows
        width = max(width, rows.shape[1])
    return np.ascontiguousarray(table[:, :width])


def _field_bytes(n: int, text, floats=None, cols=(), blank=None) -> tuple:
    """A classes.csv column of n rows over the whole listing as (texts,
    index): ``texts`` its distinct texts as a (K, W) uint8 array of
    NUL-padded ASCII rows (``_text_table``), row i's field
    texts[index[i]], "" where the mask ``blank`` holds.  Each distinct key
    is rendered once, by ``text``; the index is in the least type that
    holds K.

    Where a float64 column ``floats`` fixes each text (cells all floats,
    or all ints below 2**53 in size), the keys are its bits, never its
    values (0.0 and -0.0 differ in text), found by ``_distinct``.
    Otherwise the rows off ``blank`` are numbered by the ``_typed`` keys of
    their entries in the sequences ``cols``, each key a tuple of the values
    its text depends on, built once per group of rows that hold the same
    objects, or a column's same bits (``_id_groups``)."""
    if floats is not None:
        keys, index = _distinct(floats.view(np.int64))
        distinct = keys.view(np.float64)
    else:
        rows = np.arange(n) if blank is None else np.flatnonzero(~blank)
        firsts, groups = _id_groups(cols, rows)
        keys = {}
        number = [keys.setdefault(tuple(_typed(col[i]) for col in cols), len(keys))
                  for i in firsts]
        distinct = list(keys)
        index = np.zeros(n, np.min_scalar_type(len(distinct)))
        index[rows] = np.take(np.array(number, index.dtype), groups)
    if blank is not None:
        index[blank] = len(distinct)
    return _text_table(distinct, text, blank is not None), index


def _length_fields(side: ClassLengths) -> list:
    """The lo and hi columns of a ClassLengths, one object when a point:
    keyed by the float column when ``kinds`` is {float}, or {int} with
    every length below 2**53 in size, else by ``_typed`` of each length."""
    kinds, n = side.kinds, len(side)

    def field(values, floats):
        if kinds == {float}:
            return _field_bytes(n, str, floats)
        if kinds == {int} and np.all(np.abs(floats) < 2.0 ** 53):
            return _field_bytes(n, lambda v: str(int(v)), floats)
        return _field_bytes(n, lambda k: str(k[0][1]), cols=(values,))

    lo = field(side.lo, side.lo_f)
    return [lo, lo if side.point else field(side.hi, side.hi_f)]


def _ratio_fields(table) -> list:
    """The ratio_lo and ratio_hi columns of a ClassTable, blank off
    ``positive``, one object when both sides are points.

    Without ``exact_pairs`` each cell is the float of the table's ratio
    column.  With it, a cell of ratio_lo is keyed by its typed pair
    (tgt.lo, ref.hi) and one of ratio_hi by (tgt.hi, ref.lo), so
    exact_div runs once per distinct pair of the listing."""
    n, point = len(table), table.tgt.point and table.ref.point
    blank = ~table.positive
    if not table.exact_pairs:
        lo = _field_bytes(n, str, table.lo, blank=blank)
        return [lo, lo if point else _field_bytes(n, str, table.hi, blank=blank)]

    def text(key):
        return str(exact_div(key[0][1], key[1][1]))

    def field(tops, bottoms):
        return _field_bytes(n, text, cols=(tops, bottoms), blank=blank)

    lo = field(table.tgt.lo, table.ref.hi)
    return [lo, lo if point else field(table.tgt.hi, table.ref.lo)]


def _number_fields(classes) -> list:
    """The six number columns of classes.csv (ref_lo, ref_hi, target_lo,
    target_hi, ratio_lo, ratio_hi) of a _class_listing, each as the
    (texts, index) of ``_field_bytes`` over the whole listing.  Columns
    that hold one sequence are one object: a point's lo and hi, the ratio
    columns of two points, and the blank columns of a one-model listing
    (one text zero bytes wide)."""
    if isinstance(classes, ClassLengths):
        blank = np.zeros((1, 0), np.uint8), np.broadcast_to(np.intp(0), (len(classes),))
        return [blank, blank, *_length_fields(classes), blank, blank]
    return [*_length_fields(classes.ref), *_length_fields(classes.tgt),
            *_ratio_fields(classes)]


# the bytes of the padded layout of one piece of classes.csv, which bounds
# the temporaries of writing it
_PIECE_BYTES = 1 << 18


def _csv_chunks(classes):
    """The rows of classes.csv (without its header) of a _class_listing,
    as ASCII bytes: one uint8 array per piece of a row chunk of its
    classes (``ClassCodes.row_chunks``), a chunk cut into pieces of at most
    _PIECE_BYTES of layout (one piece where its rows fit).

    A piece is laid out in one (N, W) uint8 array, kept for the chunk: the
    names (``_name_chunks``), then "," and the field of each column, then a
    newline, every part NUL-padded.  Each number column's texts are made
    once for the whole listing (``_number_fields``), before the first
    chunk; a piece gathers its rows' fields from them by the index, once
    per run of adjacent columns that are one object, and lays them out
    once per column.  Every text is str() of its cell's value (a float's
    repr), "" where a cell has none.  No cell or name holds a NUL, a
    comma, a quote or a newline, so dropping the NULs leaves the rows.
    """
    runs = []
    for _, run in groupby(_number_fields(classes), key=id):
        run = list(run)
        runs.append((run[0], len(run)))
    stop = 0
    for names in _name_chunks(classes.classes):
        start, stop = stop, stop + len(names)
        # the first byte of each field, past its comma, then the row width
        widths = [texts.shape[1] for (texts, _), k in runs for _ in range(k)]
        at = np.cumsum([names.shape[1] + 1] + [1 + w for w in widths]).tolist()
        step = max(1, min(len(names), _PIECE_BYTES // at[-1]))
        layout = np.zeros((step, at[-1]), np.uint8)
        layout[:, np.subtract(at, 1)] = np.frombuffer(b"," * len(widths) + b"\n", np.uint8)
        for lo in range(0, len(names), step):
            hi = min(lo + step, len(names))
            rows = layout[:hi - lo]
            rows[:, :names.shape[1]] = names[lo:hi]
            col = 0
            for (texts, index), k in runs:
                field = np.take(texts, index[start + lo:start + hi], axis=0)
                for _ in range(k):
                    rows[:, at[col]:at[col] + texts.shape[1]] = field
                    col += 1
            flat = rows.ravel()
            yield flat[flat != 0]


def _write_classes(fh, classes):
    """Write classes.csv, header first, a row chunk at a time: the bytes
    to a binary file, their text to a text one (io.TextIOBase)."""
    text = isinstance(fh, io.TextIOBase)
    fh.write(_CSV_HEADER_LINE if text else _CSV_HEADER_LINE.encode())
    fh.writelines(str(c, "ascii") if text else c for c in _csv_chunks(classes))


def _first_cells(classes, k: int) -> list:
    """The cells of the first k rows of classes.csv, one tuple per class:
    the class as a string, then the numbers, "" where a cell has no value.
    The lengths are the sides' entries, the ratios the table's
    ``ratio_lo`` and ``ratio_hi`` where ``positive``: where that value is a
    float it is the ratio column's entry, so the cells read as the rows'
    texts."""
    out = []
    for i, name in enumerate(islice(classes.classes.names(), k)):
        if isinstance(classes, ClassLengths):
            out.append((name, "", "", classes.lo[i], classes.hi[i], "", ""))
            continue
        ratios = ((classes.ratio_lo(i), classes.ratio_hi(i))
                  if classes.positive[i] else ("", ""))
        out.append((name, classes.ref.lo[i], classes.ref.hi[i],
                    classes.tgt.lo[i], classes.tgt.hi[i], *ratios))
    return out


def _models(scen: Scenario):
    """The scenario's (target, reference) models; either may be None."""
    return (build_model(scen.data["target"], scen.rank),
            build_model(scen.data["reference"], scen.rank))


def _env(scen: Scenario) -> dict:
    return {"package": "lenspec", "version": __version__,
            "python": platform.python_version(), "seed": scen.seed}


def run(scenario: Scenario, *, with_classes: bool = False) -> RunReport:
    """Execute the scenario's verifiers in order.

    Resource-cap errors are captured per verifier and the run continues;
    input errors propagate (the scenario itself is wrong).
    """
    cfg = scenario.config()
    target, reference = _models(scenario)
    # one class walk per rank, one evaluation per model and one subset
    # word metric for the whole run
    tables: dict = {}
    subset_reference = cache(partial(_subset_reference, scenario))
    # the largest radius of the run's class tables, so that it walks the
    # classes of its rank once
    radii = [_table_radius(token, scenario, cfg, target, reference, subset_reference)
             for token in scenario.verify]
    if with_classes and target is not None and reference is not None:
        radii.append(_listing_radius(scenario, cfg, reference))
    tables["radius", scenario.rank] = max((r for r in radii if r is not None), default=0)
    entries = []
    capped = False
    for token in scenario.verify:
        t0 = time.perf_counter()
        try:
            entry = _run_token(token, scenario, cfg, target, reference,
                               tables=tables, subset_reference=subset_reference)
        except ResourceCapError as e:
            capped = True
            entry = {"status": "resource-cap", "error": str(e),
                     "verdict": INCONCLUSIVE}
        else:
            entry.setdefault("status", "ok")
        print(f"[{scenario.name}] {token}: {entry['verdict']} "
              f"({time.perf_counter() - t0:.2f}s)", file=sys.stderr)
        entries.append({"token": token, **entry})
    classes = None
    if with_classes:
        try:
            classes = _class_listing(scenario, cfg, target, reference,
                                     tables=tables)
        except ResourceCapError as e:
            capped = True
            print(f"[{scenario.name}] classes.csv left out: resource cap: {e}",
                  file=sys.stderr)
    verdict = _worst(e["verdict"] for e in entries)
    exit_code = 1 if verdict == VIOLATED else 3 if capped else 0
    return RunReport(scenario=scenario.data, entries=entries, verdict=verdict,
                     exit_code=exit_code, env=_env(scenario), classes=classes)


def _entry_rows(report: RunReport) -> str:
    """The token,status,verdict rows of the entries; no cell holds a comma."""
    return "".join(f"{e['token']},{e['status']},{e['verdict']}\n"
                   for e in report.entries)


def emit(report: RunReport, out_dir, fmt: str = "json") -> list:
    """Write report.json (always) and classes.csv (when rows are present)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "report.json"]
    paths[0].write_text(report.to_json())
    if report.classes:
        p = out / "classes.csv"
        with p.open("wb") as fh:
            _write_classes(fh, report.classes)
        paths.append(p)
    if fmt == "csv" and not report.classes:
        p = out / "entries.csv"
        p.write_text("token,status,verdict\n" + _entry_rows(report))
        paths.append(p)
    return paths


# ----------------------------------------------------------------- CLI


def _load(args) -> Scenario:
    """The scenario of --scenario with the command line's values in place of
    the file's: --seed, --max-frontier and verify's tokens edit the decoded
    file, and one parse_scenario validates the result."""
    raw = _decode(_read(args.scenario))
    opts = vars(args)
    # a file of the wrong shape is left for parse_scenario to name
    if isinstance(raw, dict):
        if opts.get("seed") is not None:
            raw["seed"] = opts["seed"]
        if opts.get("max_frontier") is not None:
            cfg = raw.setdefault("config", {})
            if isinstance(cfg, dict):
                cfg["frontier_cap"] = opts["max_frontier"]
        if opts.get("tokens"):
            raw["verify"] = opts["tokens"]
    return parse_scenario(raw)


def _copy_to_stdout(path: Path) -> None:
    with path.open() as fh:
        shutil.copyfileobj(fh, sys.stdout)


def _output(report: RunReport, args, preview=None) -> None:
    """--out through emit, then stdout: in JSON ``preview()`` when given,
    else report.json; in CSV the entries, then the classes.csv rows.  A
    file emit wrote is copied, not rendered again."""
    written = emit(report, args.out, args.format) if args.out else []
    for p in written:
        print(f"wrote {p}", file=sys.stderr)
    if args.format == "json":
        if preview is None and written:
            _copy_to_stdout(written[0])
        else:
            sys.stdout.write((preview or report.to_json)())
        return
    sys.stdout.write(_entry_rows(report))
    if written[1:] and written[1].name == "classes.csv":
        _copy_to_stdout(written[1])
    elif report.classes is not None:
        _write_classes(sys.stdout, report.classes)


def _cmd_verify(args) -> int:
    scen = _load(args)
    report = run(scen, with_classes=args.format == "csv" or args.out is not None)
    _output(report, args)
    return report.exit_code


def _cmd_spectrum(args) -> int:
    scen = _load(args)
    target, reference = _models(scen)
    if target is None and reference is None:
        raise InputError("spectrum needs a target or reference model")
    classes = _class_listing(scen, scen.config(), target, reference)
    report = RunReport(scenario=scen.data, entries=[], verdict=HOLDS,
                       exit_code=0, env=_env(scen), classes=classes)

    def preview():
        first = [dict(zip(_CSV_HEADER, map(_csv_cell, c)))
                 for c in _first_cells(classes, 20)]
        return json.dumps({"classes": len(classes), "first": first},
                          indent=2, sort_keys=True) + "\n"

    _output(report, args, preview)
    return 0


def _cmd_dilation(args) -> int:
    scen = _load(args)
    cfg = scen.config()
    target, reference = _models(scen)
    _require_both(target, reference, "dilation")
    # the largest window first: the smaller ones take its classes and lengths
    tables: dict = {}
    out = {}
    for L in sorted(cfg.L_values, reverse=True):
        ws = dilation_window(target, reference, L, cfg, tables=tables)
        out[str(L)] = {
            "sup": _jsonable(ws.value),
            "attained": str(ws.attained) if ws.attained else None,
            "classes": ws.count,
            "truncated": ws.truncated,
        }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_jsr(args) -> int:
    scen = _load(args)
    target = build_model(scen.data["target"], scen.rank)
    entry = _run_token("bochi", scen, scen.config(), target, None)
    print(json.dumps({"instances": entry["reports"], "verdict": entry["verdict"]},
                     indent=2, sort_keys=True))
    return 1 if entry["verdict"] == VIOLATED else 0


def _cmd_delta(args) -> int:
    scen = _load(args)
    target, reference = _models(scen)
    _require_both(target, reference, "delta")
    rep = metric_distance_report(target, reference, scen.config())
    print(json.dumps(_jsonable(rep), indent=2, sort_keys=True))
    return 0


def _parser() -> argparse.ArgumentParser:
    """Each subcommand takes --scenario and only the options it reads:
    --seed and --max-frontier where the scenario's values are run, --out
    and --format where a report or class listing is written."""
    parser = argparse.ArgumentParser(
        prog="lenspec",
        description="Length-spectrum comparison toolkit: windowed dilations, "
                    "joint stable lengths, and inequality verification runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd, helptext, overrides, outputs in (
        ("spectrum", _cmd_spectrum,
         "enumerate conjugacy classes with length brackets", True, True),
        ("dilation", _cmd_dilation,
         "windowed dilation sup between two models", False, False),
        ("jsr", _cmd_jsr,
         "joint spectral radius bracket and spectral upper bound", True, False),
        ("delta", _cmd_delta,
         "symmetrized log-dilation distance between two models", False, False),
        ("verify", _cmd_verify, "run named inequality checks", True, True),
    ):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(cmd=cmd)
        if name == "verify":
            p.add_argument("tokens", nargs="*", metavar="token",
                           help=f"checks to run (default: scenario's verify "
                                f"list); one of {', '.join(VERIFY_TOKENS)}")
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        if overrides:
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario seed")
            p.add_argument("--max-frontier", type=int, default=None,
                           help="override the frontier/product cap")
        if outputs:
            p.add_argument("--out", default=None, help="output directory")
            p.add_argument("--format", choices=("json", "csv"), default="json",
                           help="stdout format")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.cmd(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except ResourceCapError as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
