"""Scenario parsing, run determinism, emit outputs, and exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from lenspec import bounds, cli
from lenspec.actions import anosov_certificate
from lenspec.cli import (
    RunReport,
    _num,
    builtin_preset,
    emit,
    emit_scenario,
    load_scenario,
    main,
    parse_scenario,
    run,
)
from lenspec.errors import InputError
from lenspec.spaces import TreeModel, build_schottky
from lenspec.words import ClassCodes, Word, iter_class_reps
from test_bounds import _count_work

SCEN_DIR = Path(__file__).resolve().parents[1] / "src" / "lenspec" / "scenarios"
SHIPPED = sorted(SCEN_DIR.glob("*.json"))


# ------------------------------------------------------- parse and emit


def test_shipped_scenarios_present():
    names = {p.stem for p in SHIPPED}
    assert names == {
        "bf-tree", "identical-actions", "jsr-ensemble", "schottky-cobounded",
        "schottky-linear", "tree-pair", "word-metric-window",
    }


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_roundtrip_shipped(path):
    scen = load_scenario(path)
    assert parse_scenario(emit_scenario(scen)) == scen


def test_parse_fills_defaults():
    scen = parse_scenario("{}")
    assert scen.name == "scenario"
    assert scen.rank == 2
    assert scen.seed == 0
    assert scen.verify == ()
    assert scen.data["target"] is None
    assert scen.data["config"]["K"] == 1e4
    assert scen.data["config"]["frontier_cap"] == 1_000_000
    assert scen.params["n"] == 4
    assert scen.params["band"] is None
    # config() must construct cleanly from pure defaults
    assert scen.config().L_values == (8,)


def test_default_l_values_are_not_shared():
    first = parse_scenario("{}")
    first.data["config"]["L_values"].append(99)
    assert parse_scenario("{}").data["config"]["L_values"] == [8]


def test_builtin_preset_golden():
    got = builtin_preset("cor17-default")
    assert got == {
        "kind": "schottky",
        "stretch": 4.0,
        "angles": [0.0, 1.2],
        "delta": math.log(4),
        "use": "mobius",
        "preset": "cor17-default",
    }
    with pytest.raises(InputError, match="unknown preset"):
        builtin_preset("nope")


def test_preset_expands_in_scenario():
    scen = parse_scenario(json.dumps({
        "target": {"kind": "preset", "name": "cor17-default"},
    }))
    t = scen.data["target"]
    assert t["kind"] == "schottky"
    assert t["preset"] == "cor17-default"
    assert t["stretch"] == 4.0
    assert t["use"] == "mobius"
    # expansion is stable under the canonical round trip
    assert parse_scenario(emit_scenario(scen)) == scen


# an int beyond the float range: math.isfinite raises on it
HUGE = 10 ** 400

BAD = [
    ('{"verify": ["thm99"]}',
     r"scenario\.verify\[0\]: unknown verifier 'thm99'"),
    ('{"bogus": 1}', r"scenario: unknown field\(s\) \['bogus'\]"),
    ('{"target": {"kind": "cone"}}',
     r"scenario\.target\.kind: unknown model kind 'cone'"),
    ('{"rank": 2.5}', r"scenario\.rank: expected an integer"),
    ('{"rank": true}', r"scenario\.rank: expected a number, got bool"),
    ('{"rank": Infinity}', r"scenario\.rank: expected a finite number"),
    ('{"target": {"kind": "tree", "weights": [1]}}',
     r"scenario\.target\.weights: expected 2 weights"),
    ('{"target": {"kind": "tree", "weights": [1, 0]}}',
     r"scenario\.target\.weights\[1\]: must be positive"),
    ('{"target": {"kind": "tree", "spokes": 3}}',
     r"scenario\.target: unknown field\(s\) \['spokes'\]"),
    ('{"subset": ["c"]}', r"scenario\.subset\[0\]: .*beyond rank 2"),
    ('{"config": {"zmax": 1}}',
     r"scenario\.config: unknown field\(s\) \['zmax'\]"),
    ('{"config": {"L_values": []}}',
     r"scenario\.config\.L_values: expected a nonempty list"),
    ('{"params": {"band": [1]}}',
     r"scenario\.params\.band: expected \[alpha, beta\]"),
    ('{"matrices": [[[1, 0], [0]]]}',
     r"scenario\.matrices\[0\]\[1\]: expected a row of 2 entries"),
    ('{"ensemble": {"count": 1, "dim": 1}}',
     r"scenario\.ensemble\.dim: dimension must be >= 2"),
    ('{"target": {"kind": "schottky", "stretch": 2, "angles": [0, 0],'
     ' "use": "windmill"}}',
     r"scenario\.target\.use: expected 'mobius' or 'linear'"),
    ('{"target": {"kind": "word-metric", "elements": []}}',
     r"scenario\.target\.elements: expected a nonempty list"),
    ('{"target": {"kind": "preset", "name": ["x"]}}',
     r"scenario\.target\.name: expected a preset name string, got list"),
    (f'{{"rank": {HUGE}}}', r"scenario\.rank: expected a finite number"),
    (f'{{"seed": {HUGE}}}', r"scenario\.seed: expected a finite number"),
    (f'{{"target": {{"kind": "tree", "weights": [1, {HUGE}]}}}}',
     r"scenario\.target\.weights\[1\]: expected a finite number"),
    ('{"seed": 1' + "0" * 5000 + "}", r"scenario is not valid JSON: .*digits"),
    # each field a kind does not read is named, not dropped
    ('{"target": {"kind": "preset", "name": "cor17-default", "delta": 5}}',
     r"scenario\.target: unknown field\(s\) \['delta'\] for kind 'preset'"),
    ('{"target": {"kind": "preset", "name": "cor17-default",'
     ' "stretch": 2, "angles": [0, 0]}}',
     r"scenario\.target: unknown field\(s\) \['angles', 'stretch'\] "
     r"for kind 'preset'"),
    ('{"target": {"kind": "mobius", "matrices": [[[2, 0], [0, 0.5]],'
     ' [[1, 1], [0, 1]]], "alpha": 0}}',
     r"scenario\.target: unknown field\(s\) \['alpha'\] for kind 'mobius'"),
    ('{"target": {"kind": "linear", "matrices": [[[2, 0], [0, 0.5]],'
     ' [[1, 1], [0, 1]]], "dim": 3}}',
     r"scenario\.target: unknown field\(s\) \['dim'\] for kind 'linear'"),
    # each list, word, field-set and optional-number shape, message whole
    ('{"subset": []}',
     r"^scenario\.subset: expected a nonempty list of word strings$"),
    ('{"subset": [1]}', r"^scenario\.subset\[0\]: expected a word string$"),
    ('{"target": {"kind": "word-metric", "elements": [1]}}',
     r"^scenario\.target\.elements\[0\]: expected a word string$"),
    ('{"target": {"kind": "word-metric", "elements": ["c"]}}',
     r"^scenario\.target\.elements\[0\]: word 'c' uses letters beyond "
     r"rank 2$"),
    ('{"target": {"kind": "word-metric", "elements": ["a", "b"],'
     ' "weights": [1]}}',
     r"^scenario\.target\.weights: expected one weight per element$"),
    ('{"target": {"kind": "mobius", "matrices": [[[2, 0], [0, 0.5]]]}}',
     r"^scenario\.target\.matrices: expected 2 generator matrices$"),
    ('{"target": {"kind": "mobius", "matrices": [[], [[1, 1], [0, 1]]]}}',
     r"^scenario\.target\.matrices\[0\]: expected a matrix as a list of "
     r"rows$"),
    ('{"matrices": []}',
     r"^scenario\.matrices: expected a nonempty list of matrices$"),
    ('{"matrices": [[[1, [0]], [0, 1]]]}',
     r"^scenario\.matrices\[0\]\[0\]\[1\]: complex entries are \[re, im\] "
     r"number pairs$"),
    ('{"matrices": [[[1, [0, true]], [0, 1]]]}',
     r"^scenario\.matrices\[0\]\[0\]\[1\]\[1\]: expected a number, "
     r"got bool$"),
    ('{"target": {"kind": "schottky", "stretch": [2], "angles": [0, 0]}}',
     r"^scenario\.target\.stretch: expected 2 stretch factors$"),
    ('{"target": {"kind": "schottky", "stretch": [2, 0], "angles": [0, 0]}}',
     r"^scenario\.target\.stretch\[1\]: must be positive, got 0$"),
    ('{"target": {"kind": "schottky", "stretch": -1, "angles": [0, 0]}}',
     r"^scenario\.target\.stretch: must be positive, got -1$"),
    ('{"target": {"kind": "schottky", "stretch": 2, "angles": [0]}}',
     r"^scenario\.target\.angles: expected 2 rotation angles$"),
    ('{"target": {"kind": "schottky", "stretch": 2, "angles": ["x", 0]}}',
     r"^scenario\.target\.angles\[0\]: expected a number, got str$"),
    ('{"target": {"kind": "schottky", "stretch": 2, "angles": [0, 0],'
     ' "delta": 0}}',
     r"^scenario\.target\.delta: must be positive, got 0$"),
    ('{"target": {"kind": "mobius", "matrices": [[[2, 0], [0, 0.5]],'
     ' [[1, 1], [0, 1]]], "delta": -1}}',
     r"^scenario\.target\.delta: must be positive, got -1$"),
    ('{"target": {"kind": "linear", "matrices": [[[2, 0], [0, 0.5]],'
     ' [[1, 1], [0, 1]]], "alpha": "x"}}',
     r"^scenario\.target\.alpha: expected a number, got str$"),
    ('{"ensemble": {"count": 1, "size": 3}}',
     r"^scenario\.ensemble: unknown field\(s\) \['size'\]$"),
    ('{"params": {"gamma": 1}}',
     r"^scenario\.params: unknown field\(s\) \['gamma'\] \(known: C0, alpha, "
     r"ball_radius, band, cert_radius, f_radius, max_f, n, radius\)$"),
    ('{"config": {"L_values": [1, 0]}}',
     r"^scenario\.config\.L_values\[1\]: must be positive, got 0$"),
    ('{"params": {"band": [1, "x"]}}',
     r"^scenario\.params\.band\[1\]: expected a number, got str$"),
    ('{"params": {"cert_radius": 0}}',
     r"^scenario\.params\.cert_radius: must be >= 1, got 0$"),
]


@pytest.mark.parametrize("text,match", BAD, ids=range(len(BAD)))
def test_parse_errors_name_the_field(text, match):
    with pytest.raises(InputError, match=match):
        parse_scenario(text)


def test_parse_error_json_syntax_carries_position():
    with pytest.raises(InputError, match=r"not valid JSON.*line 2"):
        parse_scenario('{\n  "name": }')


def test_load_scenario_missing_file():
    with pytest.raises(InputError, match="scenario file not found"):
        load_scenario("/no/such/scenario.json")


# ----------------------------------------------------------- run + emit


def test_run_identical_actions_all_hold():
    scen = load_scenario(SCEN_DIR / "identical-actions.json")
    rep = run(scen)
    assert rep.verdict == "holds"
    assert rep.exit_code == 0
    assert [e["token"] for e in rep.entries] == ["thm13", "thm15", "prop31"]
    assert all(e["verdict"] == "holds" for e in rep.entries)
    assert rep.env["package"] == "lenspec"
    assert rep.env["seed"] == 0


def test_run_entries_follow_verify_order():
    scen = parse_scenario(json.dumps({
        "target": {"kind": "tree"},
        "subset": ["a", "A", "b", "B"],
        "verify": ["prop31", "bf"],
        "config": {"n_max": 6},
    }))
    rep = run(scen)
    assert [e["token"] for e in rep.entries] == ["prop31", "bf"]


@pytest.mark.parametrize("name", ["identical-actions", "schottky-cobounded",
                                  "tree-pair"])
def test_an_entry_does_not_depend_on_the_order_of_the_checks(name):
    # the checks of a run share class walks, lengths, the subset word metric
    # and the models' certificates; none of it may move another check's
    # entry
    raw = json.loads((SCEN_DIR / f"{name}.json").read_text())
    outputs = []
    for tokens in (raw["verify"], raw["verify"][::-1]):
        rep = run(parse_scenario({**raw, "verify": tokens}), with_classes=True)
        entries = {e["token"]: json.dumps(e, sort_keys=True) for e in rep.entries}
        outputs.append((entries, b"".join(cli._csv_chunks(rep.classes))))
    assert outputs[0] == outputs[1]


def test_run_report_bytes_are_deterministic():
    scen = load_scenario(SCEN_DIR / "jsr-ensemble.json")
    a = run(scen).to_json()
    b = run(scen).to_json()
    assert a == b
    assert a.endswith("\n")
    body = json.loads(a)
    assert body["verdict"] == "holds"
    assert len(body["entries"][0]["reports"]) == 10


def test_seed_override_changes_ensemble_output():
    scen = load_scenario(SCEN_DIR / "jsr-ensemble.json")
    base = run(scen)
    other = run(parse_scenario({**scen.data, "seed": 7}))
    assert other.env["seed"] == 7
    assert other.to_json() != base.to_json()
    # random unit-det pairs still satisfy the spectral upper bound
    assert other.verdict == "holds"


# a non-standard word metric, whose joint length enumerates the levels of
# S^n: a standard one is read as its tree, with no level
CAP_SCENARIO = {
    "name": "cap-probe",
    "target": {"kind": "word-metric", "elements": ["a", "A", "b", "B", "ab"]},
    "subset": ["a", "A", "b", "B"],
    "verify": ["bf"],
    "config": {"n_max": 10},
}


def test_run_captures_resource_cap(tmp_path):
    rep = run(parse_scenario({**CAP_SCENARIO,
                              "config": {"n_max": 10, "frontier_cap": 500}}))
    assert rep.exit_code == 3
    assert rep.entries[0]["status"] == "resource-cap"
    assert rep.entries[0]["verdict"] == "inconclusive"
    assert "level 6 frontier would exceed cap 500" in rep.entries[0]["error"]
    # the capped run still serializes
    json.loads(rep.to_json())


def test_run_maps_class_cap_to_exit_3():
    data = {"target": {"kind": "tree"}, "reference": {"kind": "tree"},
            "verify": ["thm13"], "config": {"L_values": [4], "class_cap": 50}}
    rep = run(parse_scenario(json.dumps(data)))
    assert rep.exit_code == 3
    assert rep.entries[0]["status"] == "resource-cap"
    assert "class enumeration exceeds cap 50" in rep.entries[0]["error"]


_CLASS_CAPPED = {"target": {"kind": "tree"}, "reference": {"kind": "tree"},
                 "config": {"L_values": [4], "class_cap": 50}}


@pytest.mark.parametrize("verify", [["thm13"], []], ids=["thm13", "no-checks"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_class_cap_in_classes_csv_keeps_the_report(tmp_path, capsys, verify,
                                                   fmt):
    # the classes.csv walk hits the class cap: report.json and stdout are
    # still written with exit code 3, classes.csv is left out, and stderr
    # names the cap
    p = tmp_path / "capped.json"
    p.write_text(json.dumps({**_CLASS_CAPPED, "verify": verify}))
    out = tmp_path / "out"
    code = main(["verify", "--scenario", str(p), "--out", str(out),
                 "--format", fmt])
    captured = capsys.readouterr()
    assert code == 3
    body = json.loads((out / "report.json").read_text())
    assert body["exit_code"] == 3
    assert body["verdict"] == ("inconclusive" if verify else "holds")
    assert not (out / "classes.csv").exists()
    assert "classes.csv left out: resource cap: class enumeration exceeds cap 50" \
        in captured.err
    if fmt == "json":
        assert json.loads(captured.out) == body
        assert captured.out == (out / "report.json").read_text()
    else:
        assert (out / "entries.csv").exists()
        assert captured.out == "".join(f"{t},resource-cap,inconclusive\n"
                                       for t in verify)


# each shipped scenario's work in a run with its classes.csv: the radius of
# each class walk, and the model class and radius of each evaluation; the
# checks and the listing read one walk per rank, made to the largest radius
# any of them reads, and one evaluation per model while its radius does not
# grow
_RUN_WORK = {
    "bf-tree": ([12], [("TreeModel", 12)]),
    "identical-actions": ([12], [("TreeModel", 8), ("TreeModel", 8),
                                    ("WordMetricModel", 12), ("TreeModel", 12)]),
    "jsr-ensemble": ([], []),
    "schottky-cobounded": ([12], [("TreeModel", 12), ("MobiusModel", 12)]),
    "schottky-linear": ([10], [("TreeModel", 10), ("LinearRepModel", 10)]),
    "tree-pair": ([12], [("TreeModel", 12), ("TreeModel", 12),
                         ("WordMetricModel", 12)]),
    "word-metric-window": ([10], [("WordMetricModel", 10), ("TreeModel", 10)]),
}


@pytest.mark.parametrize("name", sorted(_RUN_WORK))
def test_a_run_walks_and_evaluates_each_radius_once(monkeypatch, name):
    walks, evaluated = _count_work(monkeypatch)
    monkeypatch.setattr(cli, "class_lengths", bounds.class_lengths)
    run(load_scenario(SCEN_DIR / f"{name}.json"), with_classes=True)
    kinds = [(type(model).__name__, radius) for model, radius in evaluated]
    assert (walks, kinds) == _RUN_WORK[name]


def test_a_planned_walk_past_the_cap_walks_each_table_alone(monkeypatch):
    # identical-actions reads tables of radius 8 (thm13), 12 (thm15) and 4
    # (prop31, classes.csv); a class_cap of 10,000 admits the walk of
    # radius 8 (2,785 prefixes) but not that of 12: thm13's walk to the
    # run's radius 12 falls back to its own 8, and thm15 alone is capped
    data = json.loads((SCEN_DIR / "identical-actions.json").read_text())
    data["config"]["class_cap"] = 10_000
    walks, _ = _count_work(monkeypatch)
    rep = run(parse_scenario(json.dumps(data)), with_classes=True)
    assert [(e["token"], e["status"]) for e in rep.entries] == [
        ("thm13", "ok"), ("thm15", "resource-cap"), ("prop31", "ok")]
    assert rep.exit_code == 3 and len(rep.classes) == 50
    assert walks == [12, 8, 12]


def test_verify_walks_the_classes_once(monkeypatch, tmp_path):
    # tree-pair's tables against the tree and against the subset's word
    # metric, and its classes.csv, all read one walk of radius 12
    walks = []
    walk = ClassCodes.walk.__func__

    def counting(cls, rank, radius, *args, **kwargs):
        walks.append((rank, radius))
        return walk(cls, rank, radius, *args, **kwargs)

    monkeypatch.setattr(ClassCodes, "walk", classmethod(counting))
    assert main(["verify", "--scenario", str(SCEN_DIR / "tree-pair.json"),
                 "--out", str(tmp_path)]) == 0
    assert walks == [(2, 12)]
    assert (tmp_path / "classes.csv").exists()


def test_emit_writes_report_and_classes(tmp_path):
    scen = load_scenario(SCEN_DIR / "identical-actions.json")
    rep = run(scen, with_classes=True)
    paths = emit(rep, tmp_path)
    assert [p.name for p in paths] == ["report.json", "classes.csv"]
    body = json.loads((tmp_path / "report.json").read_text())
    assert body["exit_code"] == 0
    lines = (tmp_path / "classes.csv").read_text().splitlines()
    assert lines[0] == "class,ref_lo,ref_hi,target_lo,target_hi,ratio_lo,ratio_hi"
    assert len(lines) > 1
    # identical actions: every ratio column is exactly 1
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[5] == cells[6] == "1"


def test_emit_csv_fallback_entries(tmp_path):
    scen = load_scenario(SCEN_DIR / "jsr-ensemble.json")
    rep = run(scen)
    paths = emit(rep, tmp_path, fmt="csv")
    assert [p.name for p in paths] == ["report.json", "entries.csv"]
    lines = (tmp_path / "entries.csv").read_text().splitlines()
    assert lines == ["token,status,verdict", "bochi,ok,holds"]


def test_num_serialization_rules():
    assert _num(Fraction(5, 4)) == "5/4"
    assert _num(math.inf) == "inf"
    assert _num(-math.inf) == "-inf"
    assert _num(True) is True
    assert _num(3) == 3
    assert _num(1.5) == 1.5
    assert _num(None) is None


def test_to_json_rejects_raw_nan():
    rep = RunReport(scenario={}, entries=[{"x": math.nan}], verdict="holds",
                    exit_code=0, env={})
    with pytest.raises(ValueError):
        rep.to_json()


# ------------------------------------------------------------ main()


def test_main_verify_writes_outputs(tmp_path, capsys):
    code = main(["verify", "--scenario", str(SCEN_DIR / "tree-pair.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "classes.csv").exists()
    body = json.loads(capsys.readouterr().out)
    assert body["verdict"] == "holds"
    assert [e["token"] for e in body["entries"]] == [
        "thm13", "thm15", "prop31", "lemma25", "lemma32", "cor14"]


def test_main_verify_token_args_override(capsys):
    # tokens on the command line replace the scenario's verify list
    code = main(["verify", "bf",
                 "--scenario", str(SCEN_DIR / "tree-pair.json")])
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    assert [e["token"] for e in body["entries"]] == ["bf"]


def test_main_float_tie_is_inconclusive(tmp_path, capsys):
    # the window sup at 2L is l[B] and the reference sup is l[BBBBB]/5:
    # equal lengths whose floats differ by one ulp, which refutes nothing
    p = tmp_path / "ulp.json"
    p.write_text(json.dumps({
        "name": "ulp", "target": {"kind": "preset", "name": "cor17-default"},
        "reference": {"kind": "word-metric", "elements": ["a", "A", "b", "B"]},
        "verify": ["thm15"], "config": {"L_values": [2], "K": 0,
                                        "tolerance": 0}}))
    code = main(["verify", "--scenario", str(p)])
    report = json.loads(capsys.readouterr().out)["entries"][0]["reports"][0]
    assert report["reference_dilation"]["lo"] > report["bound_value"]
    assert report["verdict"] == "inconclusive"
    assert code == 0


def test_main_bad_token_exits_2(capsys):
    code = main(["verify", "thm99",
                 "--scenario", str(SCEN_DIR / "bf-tree.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "input error:" in err
    assert "verify[0]" in err


def test_main_missing_scenario_exits_2(capsys):
    assert main(["verify", "--scenario", "/no/such.json"]) == 2
    assert "scenario file not found" in capsys.readouterr().err


def test_main_frontier_cap_exits_3(tmp_path, capsys):
    p = tmp_path / "cap.json"
    p.write_text(json.dumps(CAP_SCENARIO))
    code = main(["verify", "--scenario", str(p), "--max-frontier", "500"])
    assert code == 3
    body = json.loads(capsys.readouterr().out)
    assert body["entries"][0]["status"] == "resource-cap"


def test_bf_prices_an_out_of_budget_word_at_its_spelling_cost(tmp_path, capsys):
    # bf measures each subset word in a non-standard word metric; with
    # every weight 8 a cost of 32 is four steps, too few for (ab)^5, so the
    # joint engine takes its spelling cost 40, a certified upper bound
    p = tmp_path / "search.json"
    p.write_text(json.dumps({
        "target": {"kind": "word-metric",
                   "elements": ["a", "A", "b", "B", "ab", "BA"],
                   "weights": [8] * 6},
        "subset": ["ab"], "verify": ["bf"], "config": {"n_max": 5}}))
    out = tmp_path / "out"
    assert main(["verify", "--scenario", str(p), "--out", str(out)]) == 0
    body = json.loads((out / "report.json").read_text())
    assert body["exit_code"] == 0
    [entry] = body["entries"]
    assert (entry["token"], entry["status"], entry["verdict"]) == (
        "bf", "ok", "holds")
    joint = entry["reports"][0]["joint"]
    assert (joint["lo"], joint["hi"], joint["certified"]) == ("8", "8", True)


def test_word_length_searches_no_further_than_a_spelling(tmp_path, capsys):
    # with every weight 3, aaaaaaaa costs 24, inside the budget of 32, but
    # a search to cost 32 reaches 200,000 elements first; spelt letter by
    # letter it costs 24, which bounds the search
    p = tmp_path / "search.json"
    p.write_text(json.dumps({
        "target": {"kind": "word-metric",
                   "elements": ["a", "A", "b", "B", "ab", "BA"],
                   "weights": [3] * 6},
        "subset": ["aa"], "verify": ["bf"], "config": {"n_max": 4}}))
    assert main(["verify", "--scenario", str(p)]) == 0
    [entry] = json.loads(capsys.readouterr().out)["entries"]
    assert (entry["token"], entry["status"], entry["verdict"]) == (
        "bf", "ok", "holds")


def test_main_spectrum_json_counts_and_previews_rows(capsys):
    # tree-pair: target weights (1, 2) against the unit tree, radius 8
    code = main(["spectrum", "--scenario", str(SCEN_DIR / "tree-pair.json")])
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    reps = iter_class_reps(2, 8)
    assert body["classes"] == len(reps)
    want = []
    for rep in reps[:20]:
        n, t = len(rep), sum(1 if abs(x) == 1 else 2 for x in rep)
        # int lengths stay JSON numbers; Fraction ratios are their text
        want.append({"class": str(Word(rep)), "ref_lo": n, "ref_hi": n,
                     "target_lo": t, "target_hi": t,
                     "ratio_lo": str(Fraction(t, n)),
                     "ratio_hi": str(Fraction(t, n))})
    assert body["first"] == want


def test_main_spectrum_json_keeps_cell_types(tmp_path, capsys):
    # Fraction lengths render as text, blank cells as ""; the weight 0.5
    # is the Fraction 1/2, so the tree's lengths are Fractions
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"target": {"kind": "tree", "weights": [0.5, 1]},
                             "params": {"radius": 1}}))
    assert main(["spectrum", "--scenario", str(p)]) == 0
    first = json.loads(capsys.readouterr().out)["first"]
    assert first[0] == {"class": "a", "ref_lo": "", "ref_hi": "",
                        "target_lo": "1/2", "target_hi": "1/2",
                        "ratio_lo": "", "ratio_hi": ""}
    assert first[2]["target_lo"] == "1"
    p.write_text(json.dumps({
        "target": {"kind": "tree"},
        "reference": {"kind": "word-metric",
                      "elements": ["a", "A", "b", "B", "ab", "BA"]},
        "params": {"radius": 1}}))
    assert main(["spectrum", "--scenario", str(p)]) == 0
    first = json.loads(capsys.readouterr().out)["first"]
    # the word metric's hi is a Fraction even where it is whole
    assert first[0] == {"class": "a", "ref_lo": "1/2", "ref_hi": "1",
                        "target_lo": 1, "target_hi": 1,
                        "ratio_lo": "1", "ratio_hi": "2"}


def test_thm13_exact_brackets_of_a_float_tree_are_exact_sums(tmp_path, capsys):
    # a tree with float weights against the unit tree: every exact
    # bracket is a sum of the Fractions the weights equal, or a ratio
    p = tmp_path / "s.json"
    p.write_text(json.dumps({
        "rank": 2, "target": {"kind": "tree", "weights": [0.1, 0.2]},
        "reference": {"kind": "tree"}, "verify": ["thm13"],
        "config": {"L_values": [4], "delta": 0}}))
    assert main(["verify", "--scenario", str(p), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rep = json.loads((tmp_path / "report.json").read_text())["entries"][0]["reports"][0]
    weight = {"a": Fraction(0.1), "b": Fraction(0.2)}
    exact = []

    def value(bracket):
        exact.append(bracket)
        lo, hi = Fraction(str(bracket["lo"])), Fraction(str(bracket["hi"]))
        assert lo == hi
        return lo

    for row in rep["diagnostics"]:
        target = sum(weight[c.lower()] for c in row["class"])
        assert value(row["target"]) == target
        assert value(row["ref"]) == len(row["class"])
        assert value(row["ratio"]) == target / len(row["class"])
    assert value(rep["window_sup"]) == value(rep["reference_dilation"]) == weight["b"]

    def exact_brackets(o):
        if isinstance(o, dict):
            yield from [o] if o.get("exact") is True else []
            for v in o.values():
                yield from exact_brackets(v)
        elif isinstance(o, list):
            for v in o:
                yield from exact_brackets(v)

    assert len(list(exact_brackets(rep))) == len(exact) > 2


def test_main_verify_csv_stdout_equals_classes_csv(tmp_path, capsys):
    code = main(["verify", "--scenario", str(SCEN_DIR / "word-metric-window.json"),
                 "--format", "csv", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    classes = (tmp_path / "classes.csv").read_text()
    assert classes.startswith("class,ref_lo,ref_hi,target_lo,target_hi,"
                              "ratio_lo,ratio_hi\n")
    assert out == "thm15,ok,holds\n" + classes


def test_main_spectrum_csv(tmp_path, capsys):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({
        "target": {"kind": "tree"},
        "params": {"radius": 2},
    }))
    code = main(["spectrum", "--scenario", str(p), "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("class,ref_lo")
    # 4 classes at length 1 plus 8 at length 2, reference columns blank
    assert len(lines) == 1 + 12
    cells = lines[1].split(",")
    assert cells[1] == "" and cells[2] == ""
    assert cells[3] == cells[4] == "1"


def test_main_dilation_reports_window_sups(capsys):
    code = main(["dilation",
                 "--scenario", str(SCEN_DIR / "tree-pair.json")])
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    assert set(body) == {"4", "8"}
    for L in body:
        assert body[L]["sup"]["lo"] == "2"
        assert body[L]["attained"] == "b"
        assert not body[L]["truncated"]


def test_main_jsr_subcommand(capsys):
    code = main(["jsr", "--scenario", str(SCEN_DIR / "jsr-ensemble.json")])
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    assert body["verdict"] == "holds"
    assert len(body["instances"]) == 10
    assert all(row["ok"] for row in body["instances"])
    assert all(row["j_used"] == 16 for row in body["instances"])


def test_main_jsr_verdict_is_the_worst_over_instances(tmp_path, capsys,
                                                      monkeypatch):
    # a violated instance followed by an inconclusive one stays violated;
    # exact brackets, since float data never refutes
    from lenspec.actions import LengthBracket

    brackets = iter([LengthBracket(Fraction(5), Fraction(6)),
                     LengthBracket(Fraction(1), Fraction(6))])
    monkeypatch.setattr(cli, "jsr_profile",
                        lambda mats, n_max, cap: SimpleNamespace(
                            bracket=next(brackets)))
    monkeypatch.setattr(cli, "bochi_rhs",
                        lambda mats, cap: SimpleNamespace(
                            value=2, j_used=16, partial=False))
    p = tmp_path / "jsr.json"
    p.write_text(json.dumps({"ensemble": {"count": 2, "dim": 2},
                             "verify": ["bochi"]}))
    code = main(["jsr", "--scenario", str(p)])
    body = json.loads(capsys.readouterr().out)
    assert [row["ok"] for row in body["instances"]] == [False, False]
    assert body["verdict"] == "violated"
    assert code == 1


def test_main_delta_subcommand(capsys):
    code = main(["delta",
                 "--scenario", str(SCEN_DIR / "identical-actions.json")])
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    assert body["verdict"] == "holds"
    assert body["delta"]["lo"] == 0
    assert body["delta"]["hi"] == 0


# ----------------------------------- subcommand options and overrides

# the dests each subcommand's parser sets: verify and spectrum write
# outputs and run the scenario's seed and caps, jsr runs the seed and the
# product cap, dilation and delta read the scenario only
SUBCOMMAND_DESTS = {
    "verify": ["format", "max_frontier", "out", "scenario", "seed", "tokens"],
    "spectrum": ["format", "max_frontier", "out", "scenario", "seed"],
    "jsr": ["max_frontier", "scenario", "seed"],
    "dilation": ["scenario"],
    "delta": ["scenario"],
}


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = cli._parser()
    got = {}
    for command in SUBCOMMAND_DESTS:
        args = vars(parser.parse_args([command, "--scenario", "s.json"]))
        got[command] = sorted(set(args) - {"command", "cmd"})
    assert got == SUBCOMMAND_DESTS
    assert sum(map(len, got.values())) == 16


REMOVED_FLAGS = [(command, flag)
                 for command in ("dilation", "delta")
                 for flag in (["--out", "d"], ["--format", "csv"],
                              ["--seed", "3"], ["--max-frontier", "5"])]
REMOVED_FLAGS += [("jsr", ["--out", "d"]), ("jsr", ["--format", "csv"])]


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS,
                         ids=[f"{c}{f[0]}" for c, f in REMOVED_FLAGS])
def test_a_flag_the_subcommand_does_not_read_exits_2(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", str(SCEN_DIR / "tree-pair.json"), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def _listing(target, reference, radius):
    scen = SimpleNamespace(rank=2, params={"radius": radius})
    return cli._class_listing(scen, bounds.VerifierConfig(), target, reference)


def test_first_cells_of_a_one_model_listing_past_its_end():
    model = TreeModel(2, [1, 2])
    classes = _listing(model, None, 1)
    cells = cli._first_cells(classes, 20)
    assert len(cells) == len(classes) == 4
    assert cells == [(name, "", "", model.class_length(r),
                      model.class_length(r), "", "")
                     for name, r in zip(classes.classes.names(),
                                        classes.classes.reps)]
    assert cli._first_cells(classes, 0) == []


def test_first_cells_of_a_table_are_its_csv_rows_past_its_end():
    # two matrix models: every ratio cell is a float of the ratio columns
    act = build_schottky(4.0, [0.0, 1.2])
    classes = _listing(act.mobius, act.linear, 1)
    cells = cli._first_cells(classes, 20)
    assert len(cells) == len(classes) == 4
    rows = b"".join(cli._csv_chunks(classes)).decode().splitlines()
    assert [",".join(map(str, c)) for c in cells] == rows
    # a list held under two names is one column: one table of texts
    fields = cli._number_fields(classes)
    assert fields[0] is fields[1] and fields[2] is fields[3] and fields[4] is fields[5]
    assert len({id(f) for f in fields}) == 3


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_csv_out_renders_classes_csv_once(tmp_path, capsys, monkeypatch,
                                          command):
    # stdout copies the written classes.csv rather than rendering it again
    rendered = []
    chunks = cli._csv_chunks

    def counting(classes):
        rendered.append(len(classes))
        return chunks(classes)

    monkeypatch.setattr(cli, "_csv_chunks", counting)
    code = main([command, "--scenario", str(SCEN_DIR / "tree-pair.json"),
                 "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    assert len(rendered) == 1
    out = capsys.readouterr().out
    classes = (tmp_path / "classes.csv").read_text()
    tokens = json.loads((SCEN_DIR / "tree-pair.json").read_text())["verify"]
    entries = "".join(f"{t},ok,holds\n" for t in tokens)
    assert out == (entries if command == "verify" else "") + classes


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_csv_without_out_prints_the_file_rows_to_a_text_stdout(tmp_path, command):
    # classes.csv is written as bytes; with no --out its rows go as text to
    # a stdout that has no binary buffer (a StringIO), the same rows
    scenario = str(SCEN_DIR / "word-metric-window.json")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([command, "--scenario", scenario, "--format", "csv"]) == 0
    assert not hasattr(out, "buffer")
    with contextlib.redirect_stdout(io.StringIO()) as written:
        assert main([command, "--scenario", scenario, "--format", "csv",
                     "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "classes.csv").read_bytes()
    assert rows.count(b"\n") > 1000 and written.getvalue().endswith(rows.decode())
    assert out.getvalue() == written.getvalue()


def test_command_line_values_equal_an_edited_scenario_file(tmp_path, capsys):
    # --seed, --max-frontier and tokens are the file's values replaced
    src = SCEN_DIR / "tree-pair.json"
    data = json.loads(src.read_text())
    data.update(seed=5, verify=["prop31", "bf"])
    data["config"]["frontier_cap"] = 20_000
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data))
    outputs = []
    for argv in (["prop31", "bf", "--scenario", str(src), "--seed", "5",
                  "--max-frontier", "20000"],
                 ["--scenario", str(edited)]):
        out = tmp_path / f"out{len(outputs)}"
        assert main(["verify", *argv, "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out,
                        (out / "report.json").read_text(),
                        (out / "classes.csv").read_text()))
    assert outputs[0] == outputs[1]
    body = json.loads(outputs[0][1])
    assert body["scenario"]["seed"] == 5 == body["env"]["seed"]
    assert body["scenario"]["config"]["frontier_cap"] == 20_000
    assert [e["token"] for e in body["entries"]] == ["prop31", "bf"]


@pytest.mark.parametrize("command,file_seed,extra", [
    ("verify", None, ["--seed", "-1"]),
    ("jsr", -3, []),
], ids=["verify-option", "jsr-file"])
def test_negative_seed_exits_2_naming_the_field(tmp_path, capsys, command,
                                                file_seed, extra):
    # the seed seeds numpy's generator, which takes no negative seed
    data = json.loads((SCEN_DIR / "jsr-ensemble.json").read_text())
    if file_seed is not None:
        data["seed"] = file_seed
    p = tmp_path / "seeded.json"
    p.write_text(json.dumps(data))
    assert main([command, "--scenario", str(p), *extra]) == 2
    assert "input error: scenario.seed: must be >= 0" in capsys.readouterr().err


def test_max_frontier_is_validated_as_the_file_value_is(capsys):
    code = main(["verify", "--scenario", str(SCEN_DIR / "tree-pair.json"),
                 "--max-frontier", "0"])
    assert code == 2
    assert ("input error: scenario.config: frontier_cap must be an int >= 1"
            in capsys.readouterr().err)


# ------------------------------------------------ malformed config/params

# one scenario whose checks read every probed field: a malformed value
# must stop the parse (exit 2, the field named), not crash a check (exit 1,
# the code of a certified violation) or run
PROBE_BASE = {
    "target": {"kind": "tree"},
    "reference": {"kind": "word-metric", "elements": ["a", "A", "b", "B", "ab"]},
    "subset": ["a", "b"],
    "verify": ["thm15", "bf", "lemma25", "lemma32"],
    "config": {"L_values": [2]},
    "params": {"ball_radius": 3},
}

PROBES = [
    ("config", "n_max", "x"),
    ("config", "radius_cap", "12"),
    ("config", "K", None),
    ("config", "frontier_cap", "9"),
    ("config", "window_k_max", 0),
    ("config", "class_cap", 1.5),
    ("config", "tolerance", True),
    ("config", "diagnostics_cap", -1),
    ("params", "n", "4"),
    ("params", "ball_radius", 2.5),
    ("params", "max_f", None),
    ("params", "C0", "x"),
    ("config", "K", HUGE),
    ("config", "L_values", [HUGE]),
    ("params", "C0", HUGE),
]


@pytest.mark.parametrize("section,key,value", PROBES,
                         ids=[f"{s}.{k}={v!r:.20}" for s, k, v in PROBES])
def test_malformed_config_and_params_exit_2_naming_the_field(
        tmp_path, capsys, section, key, value):
    data = json.loads(json.dumps(PROBE_BASE))
    data[section][key] = value
    p = tmp_path / "probe.json"
    p.write_text(json.dumps(data))
    assert main(["verify", "--scenario", str(p)]) == 2
    err = capsys.readouterr().err
    assert "input error:" in err
    assert key in err


def test_the_probe_base_runs_clean(tmp_path, capsys):
    p = tmp_path / "probe.json"
    p.write_text(json.dumps(PROBE_BASE))
    assert main(["verify", "--scenario", str(p)]) == 0


def test_integer_params_are_stored_as_ints():
    scen = parse_scenario(json.dumps({"params": {"n": 3.0, "radius": 4.0}}))
    assert scen.params["n"] == 3 and type(scen.params["n"]) is int
    assert scen.params["radius"] == 4 and type(scen.params["radius"]) is int
    assert parse_scenario(emit_scenario(scen)) == scen


# ------------------------------------------------ explicit matrix models


def _run_main(tmp_path, capsys, data, *argv):
    """(exit code, stdout JSON, scenario) of one main() call on data."""
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(data))
    scen = load_scenario(p)
    assert parse_scenario(emit_scenario(scen)) == scen
    code = main([*argv, "--scenario", str(p)])
    return code, json.loads(capsys.readouterr().out), scen


def test_explicit_mobius_target_runs_thm13(tmp_path, capsys):
    code, body, scen = _run_main(tmp_path, capsys, {
        "target": {"kind": "mobius",
                   "matrices": [[[2, 1], [1, 1]], [[1, 1], [1, 2]]]},
        "reference": {"kind": "tree"},
        "verify": ["thm13"],
        "config": {"L_values": [4], "radius_cap": 8},
    }, "verify")
    assert scen.data["target"] == {"kind": "mobius", "delta": None, "dim": None,
                                   "matrices": [[[2, 1], [1, 1]], [[1, 1], [1, 2]]]}
    assert code == 0
    (entry,) = body["entries"]
    assert entry["verdict"] == "holds"
    assert [r["verdict"] for r in entry["reports"]] == ["holds"]
    assert entry["reports"][0]["coverage"]["window"]["truncated"] is False


def test_anosov_certifies_at_cert_radius_below_the_preset_one(tmp_path, capsys):
    # the preset's model carries a radius-6 certificate from its build
    code, body, _ = _run_main(tmp_path, capsys, {
        "target": {"kind": "preset", "name": "cor17-default"},
        "verify": ["anosov"],
        "params": {"cert_radius": 3},
    }, "verify")
    assert code == 0
    cert = body["entries"][0]["certificate"]
    mob = build_schottky(4.0, [0.0, 1.2], delta=math.log(4)).mobius
    assert cert["radius"] == 3
    assert cert["mu"] == anosov_certificate(mob, radius=3).mu


def test_anosov_past_the_certificate_ball_cap_exits_3(tmp_path):
    # radius 40 in rank 2 is about 2.4e19 words: the ball's precount
    # refuses it before any product is taken
    data = json.loads((SCEN_DIR / "schottky-linear.json").read_text())
    data["params"]["cert_radius"] = 40
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(data))
    path = [str(SCEN_DIR.parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-m", "lenspec", "verify",
                           "--scenario", str(p)],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 3, proc.stderr
    (entry,) = json.loads(proc.stdout)["entries"]
    assert entry["status"] == "resource-cap"
    assert "ball of radius 40 in rank 2 exceeds cap 2000000" in entry["error"]


def test_linear_target_with_complex_entries_runs_anosov(tmp_path, capsys):
    # [re, im] pairs: a = [[2, 1], [0, 1+i]], b = [[1, -i], [2i, 1]]
    mats = [[[[2, 0], [1, 0]], [[0, 0], [1, 1]]],
            [[[1, 0], [0, -1]], [[0, 2], [1, 0]]]]
    code, body, scen = _run_main(tmp_path, capsys, {
        "target": {"kind": "linear", "matrices": mats},
        "reference": {"kind": "tree"},
        "verify": ["anosov"],
        "config": {"L_values": [20], "radius_cap": 6},
    }, "verify")
    assert scen.data["target"]["matrices"] == mats
    assert code == 0
    (entry,) = body["entries"]
    assert entry["certificate"]["ok"] is True
    assert entry["verdict"] == "holds"
    # the spectral window needs more than radius_cap: truncated, and still
    # holding, since only a refutation needs the whole window
    (report,) = entry["reports"]
    assert report["verdict"] == "holds"
    assert report["coverage"]["window"]["truncated"] is True


def test_top_level_matrices_run_through_jsr(tmp_path, capsys):
    code, body, scen = _run_main(tmp_path, capsys, {
        "matrices": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
        "verify": ["bochi"],
    }, "jsr")
    assert scen.data["matrices"] == [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]
    assert code == 0
    assert body["verdict"] == "holds"
    (row,) = body["instances"]
    assert row["ok"] is True and row["partial"] is False
    assert row["j_used"] == 16
    # the golden-ratio growth of the products: log((1 + sqrt 5) / 2)
    assert row["jsr"]["lo"] == pytest.approx(math.log((1 + 5 ** 0.5) / 2))


# ------------------------------------------- models a check cannot take


@pytest.mark.parametrize("token,elements", [
    ("lemma25", ["a", "A", "b", "B", "ab", "BA"]),
    ("lemma32", ["a", "A", "b", "B"]),
    ("lemma32", ["a", "A", "b", "B", "ab", "BA"]),
])
def test_word_metric_target_exits_2_naming_its_kind(tmp_path, capsys, token,
                                                     elements):
    # lemma25 and lemma32 take trees and matrix models only; exit 1 is the
    # code of a certified violation, so a word metric must not crash there
    p = tmp_path / "scen.json"
    p.write_text(json.dumps({
        "target": {"kind": "word-metric", "elements": elements},
        "verify": [token],
    }))
    assert main(["verify", "--scenario", str(p)]) == 2
    err = capsys.readouterr().err
    assert "input error:" in err
    assert "WordMetricModel" in err


# ------------------------------------- inputs that must not crash a check


@pytest.mark.parametrize("entry,message", [
    (HUGE, "expected a finite number"),
    (math.inf, "expected a finite number, got inf"),
    (math.nan, "expected a finite number, got nan"),
    ("1", "expected a number, got str"),
], ids=["huge-int", "inf", "nan", "str"])
@pytest.mark.parametrize("where", ["jsr", "mobius-dim-3"])
def test_complex_matrix_parts_are_checked_numbers(tmp_path, capsys, where,
                                                  entry, message):
    # a bad [re, im] part is an input error naming the part: not a crash
    # (exit 1, the code of a certified violation) nor a numeric failure
    mats = [[[[entry, 0], 0], [0, 1]], [[1, 1], [1, 2]]]
    if where == "jsr":
        command, path = "jsr", "matrices[0][0][0][0]"
        data = {"matrices": mats, "verify": ["bochi"]}
    else:
        command, path = "verify", "target.matrices[0][0][0][0]"
        data = {"target": {"kind": "mobius", "dim": 3, "matrices": mats},
                "reference": {"kind": "tree"}, "verify": ["thm13"],
                "config": {"L_values": [4], "radius_cap": 4}}
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(data))
    assert main([command, "--scenario", str(p)]) == 2
    err = capsys.readouterr().err
    assert f"input error: scenario.{path}: {message}" in err


@pytest.mark.parametrize("data,command", [
    ({"target": {"kind": "tree"}, "subset": [""], "verify": ["thm15"]},
     "verify"),
    ({"target": {"kind": "tree"}, "subset": ["", "aA"], "verify": ["prop31"]},
     "verify"),
    ({"target": {"kind": "tree"},
      "reference": {"kind": "word-metric", "elements": [""]},
      "verify": ["thm15"]}, "verify"),
    ({"target": {"kind": "word-metric", "elements": [""]}}, "spectrum"),
], ids=["thm15-subset", "prop31-subset", "thm15-reference", "spectrum"])
def test_word_metric_of_the_identity_only_exits_2(tmp_path, capsys, data,
                                                   command):
    # no nontrivial element: an input error, not a ValueError from max()
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(data))
    assert main([command, "--scenario", str(p)]) == 2
    assert ("input error: a word metric needs a nontrivial element"
            in capsys.readouterr().err)


ONE_BY_ONE = {"kind": "linear", "matrices": [[[2.0]], [[3.0]]]}


@pytest.mark.parametrize("data,command", [
    ({"target": ONE_BY_ONE, "reference": {"kind": "tree"},
      "verify": ["anosov"]}, "verify"),
    ({"target": {"kind": "tree"}, "reference": ONE_BY_ONE,
      "verify": ["cor14"], "params": {"band": [0.5, 2.0]}}, "verify"),
    ({"target": {**ONE_BY_ONE, "alpha": 0}, "verify": ["lemma25"]}, "verify"),
    ({"target": {"kind": "tree"}, "reference": ONE_BY_ONE}, "dilation"),
], ids=["anosov-target", "cor14-reference", "lemma25-alpha-0",
        "dilation-reference"])
def test_one_by_one_linear_model_has_no_singular_gap(tmp_path, capsys, data,
                                                     command):
    # a 1x1 matrix has one singular value: an input error, not an
    # IndexError (exit 1, the code of a certified violation)
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(data))
    assert main([command, "--scenario", str(p)]) == 2
    assert ("input error: a singular gap needs matrices of size 2 or more"
            in capsys.readouterr().err)


# ------------------------------------------------------------ entry points


def test_importing_the_cli_reads_no_package_metadata():
    # the version in a report's env is the package's __version__
    code = ("import sys, lenspec, lenspec.cli\n"
            "assert 'importlib.metadata' not in sys.modules\n"
            "scen = lenspec.cli.parse_scenario('{}')\n"
            "assert lenspec.cli._env(scen)['version'] == lenspec.__version__\n")
    path = [str(SCEN_DIR.parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_python_m_lenspec_prints_what_main_prints(capsys):
    argv = ["verify", "--scenario", str(SCEN_DIR / "bf-tree.json")]
    path = [str(SCEN_DIR.parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-m", "lenspec", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize("command,data,code,message", [
    ("jsr", {"matrices": [[[0, 1], [0, 0]], [[0, 1], [0, 0]]]}, 2,
     "numeric failure: zero matrix reached"),
    ("spectrum", {"target": {"kind": "tree"}, "reference": {"kind": "tree"},
                  "config": {"class_cap": 5}}, 3, "resource cap:"),
], ids=["numeric-failure", "resource-cap"])
def test_main_maps_numeric_failure_and_resource_cap(tmp_path, capsys, command,
                                                    data, code, message):
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(data))
    assert main([command, "--scenario", str(p)]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "bochi"], ["jsr"]],
                         ids=["verify", "jsr"])
def test_mixed_size_top_level_matrices_exit_2(tmp_path, capsys, argv):
    # the parent stacked them for the JSR levels and died in numpy, exit 1
    p = tmp_path / "scen.json"
    p.write_text(json.dumps({"matrices": [[[2.0]], [[1.0, 1.0], [0.0, 1.0]]],
                             "verify": ["bochi"]}))
    assert main([*argv, "--scenario", str(p)]) == 2
    err = capsys.readouterr().err
    assert "scenario.matrices[1]: expected 1x1 like matrices[0], got 2x2" in err


def test_a_tiny_ensemble_scale_still_draws(tmp_path):
    # each scaled draw had |det| < 1e-12 and was drawn again, for ever; a
    # subprocess with a timeout fails where the loop would hang the suite
    p = tmp_path / "scen.json"
    p.write_text(json.dumps({"ensemble": {"count": 2, "dim": 2, "scale": 1e-9},
                             "verify": ["bochi"]}))
    path = [str(SCEN_DIR.parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-m", "lenspec", "verify",
                           "--scenario", str(p)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "holds"


@pytest.mark.parametrize("scale", [1e-200, 1e-9, 1e200])
def test_an_ensemble_scale_leaves_the_draw_as_at_scale_one(tmp_path, capsys,
                                                            scale):
    # the scale cancels in the unit-|det| normalisation; scaling the draw
    # first underflowed (1e-200: non-finite entries), overflowed (1e200:
    # a zero matrix) or moved the brackets' last bits (1e-9)
    def entries(s):
        p = tmp_path / "scen.json"
        p.write_text(json.dumps({"ensemble": {"count": 3, "dim": 2, "scale": s},
                                 "verify": ["bochi"]}))
        assert main(["verify", "--scenario", str(p)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"]["ensemble"]["scale"] == s
        return report["entries"]

    assert entries(scale) == entries(1.0)


# matrix targets with extreme entries: numpy's LinAlgError from a singular
# inverse, and complex abs of a NaN determinant raising OverflowError (an
# errno left by numpy's overflow, seen once no warning is printed), each
# once escaped main as exit 1; exit 1 is reserved for a violation
_EXTREME_MATRIX_TARGETS = {
    "singular-inverse": {
        "target": {"kind": "mobius", "matrices": [[[1.3e308, 1e308], [2, 1e308]],
                                                  [[3, 5e-324], [-1e308, 1e-200]]]},
        "reference": {"kind": "tree"}, "verify": ["thm13", "lemma25"],
        "config": {"L_values": [4], "radius_cap": 6}},
    "space-overflow": {
        "target": {"kind": "mobius", "dim": 3, "matrices": [
            [[[-1, 1], [1e-200, 1e-154]], [[-1, 2], [1e-200, 1e200]]],
            [[[1e308, 5e-324], [1e200, 3]], [[1e200, 3], [1.3e308, 1.3e308]]]]},
        "reference": {"kind": "tree"}, "verify": ["thm13"],
        "config": {"L_values": [4], "radius_cap": 6}},
}


@pytest.mark.parametrize("action", ["default", "ignore"])
@pytest.mark.parametrize("name", sorted(_EXTREME_MATRIX_TARGETS))
def test_extreme_matrix_targets_exit_2(tmp_path, capsys, name, action):
    p = tmp_path / "scen.json"
    p.write_text(json.dumps(_EXTREME_MATRIX_TARGETS[name]))
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        assert main(["verify", "--scenario", str(p)]) == 2
    assert capsys.readouterr().err.startswith("input error: generator")
