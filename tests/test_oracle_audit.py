"""An audit of shipped reports against lengths computed apart from the
package (``_oracle``): trees, and word metrics read as their trees.

Each scenario runs in-process at seed 0, once, and its report.json and
classes.csv are walked.  On two trees every diagnostics row must hold the
oracle's reference, target and ratio brackets, exact.  Every window sup
the report gives untruncated, up to radius 8, must equal the sup over an
independent enumeration of the classes, from the cyclic cores of all
reduced words of that length: its value, the counts of its coverage, the
attained class and the ratios of its rows.  The claims of prop31 and bf
(the joint bracket), lemma32 (the cover) and lemma25 (the sandwich) are
checked against the oracle's lengths too.  Where one side is a tree and
the other not, the tree's bracket of every row is checked, and where the
reference is the tree, the counts of each untruncated window up to radius
8.  Every tree cell of every classes.csv must be the oracle's length, text
for text, and so must each ratio cell between two trees.  Matrix claims
wait for outward-rounded matrix lengths.
"""

import io
import json
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

import _oracle
from _oracle import canonical, classes, parse, tree_length, tree_weights
from lenspec import cli

SCEN_DIR = Path(__file__).resolve().parents[1] / "src" / "lenspec" / "scenarios"
SHIPPED = sorted(p.stem for p in SCEN_DIR.glob("*.json"))
# windows up to this radius are checked against the enumeration
MAX_RADIUS = 8


@cache
def _run(name: str) -> tuple:
    """(report.json as data, classes.csv text or None) of a shipped
    scenario run at seed 0."""
    report = cli.run(cli.load_scenario(SCEN_DIR / f"{name}.json"),
                     with_classes=True)
    if report.classes is None:
        return json.loads(report.to_json()), None
    out = io.StringIO()
    cli._write_classes(out, report.classes)
    return json.loads(report.to_json()), out.getvalue()


def _reference_spec(token: str, scen: dict) -> dict:
    """The reference model spec a check's windows divide by."""
    subset = {"kind": "word-metric", "elements": scen["subset"], "weights": None}
    if token == "prop31" or (token == "thm15"
                             and scen["reference"]["kind"] != "word-metric"):
        return subset
    return scen["reference"]


def _exact(bracket: dict, value: Fraction) -> bool:
    return (bracket["exact"] and Fraction(bracket["lo"]) == value
            and Fraction(bracket["hi"]) == value)


def _audit_window(rank, tgt, ref, report, key, value, rows):
    """Check one window of a report against the enumeration; returns the
    number of classes it checked."""
    cov = report["coverage"][key]
    L = Fraction(cov["L"])
    for row in rows:
        word = parse(row["class"])
        assert canonical(word) == word, row
        lo, lt = tree_length(ref, word), tree_length(tgt, word)
        assert 0 < lo <= L, row
        assert _exact(row["ref"], lo) and _exact(row["target"], lt), row
        assert _exact(row["ratio"], lt / lo) and row["straddles"] is False, row
    # a class of length <= L has at most L / (least weight) letters
    radius = int(L / min(ref))
    if cov["truncated"] or radius > MAX_RADIUS:
        return 0
    ratios = {}
    for word in classes(rank, radius):
        length = tree_length(ref, word)
        if length <= L:
            ratios[word] = tree_length(tgt, word) / length
    assert (cov["classes"], cov["excluded"], cov["straddled"], cov["empty"]) \
        == (len(ratios), 0, 0, not ratios)
    sup = max(ratios.values(), default=Fraction(0))
    assert _exact(value, sup), (key, value, sup)
    attained = report["extras"].get("attained")
    if key == "window" and attained is not None:
        assert ratios[parse(attained)] == sup
    if rows:
        top = sorted(ratios.values(), reverse=True)[:len(rows)]
        assert sorted((Fraction(r["ratio"]["hi"]) for r in rows),
                      reverse=True) == top
        assert len({r["class"] for r in rows}) == len(rows) == min(16, len(ratios))
    return len(ratios)


# the untruncated windows of radius <= 8 of each scenario: thm13, thm15,
# prop31 and cor14 windows, and the reference windows of thm13 and cor14
@pytest.mark.parametrize("name,audited", [("tree-pair", 8),
                                          ("identical-actions", 4)])
def test_tree_reports_match_the_oracle(name, audited):
    report = _run(name)[0]
    data = report["scenario"]
    tgt = tree_weights(data["target"], data["rank"])
    checked = windows = 0
    for entry in report["entries"]:
        ref = tree_weights(_reference_spec(entry["token"], data), data["rank"])
        for rep in entry.get("reports", []):
            if "coverage" not in rep or "diagnostics" not in rep:
                continue
            assert tgt is not None and ref is not None, entry["token"]
            for key, field in (("window", "window_sup"),
                               ("reference", "reference_dilation")):
                if key in rep["coverage"]:
                    rows = rep["diagnostics"] if key == "window" else []
                    n = _audit_window(data["rank"], tgt, ref, rep, key,
                                      rep[field], rows)
                    checked += n
                    windows += n > 0
    assert windows == audited and checked > 0


def _entry(name: str, token: str) -> tuple:
    """(the scenario data, the one report of ``token``) at seed 0."""
    report = _run(name)[0]
    entry, = (e for e in report["entries"] if e["token"] == token)
    rep, = entry["reports"]
    return report["scenario"], rep


@pytest.mark.parametrize("name", ["tree-pair", "identical-actions"])
def test_prop31_joint_bracket_matches_the_oracle(name):
    data, rep = _entry(name, "prop31")
    weights = tree_weights(data["target"], data["rank"])
    subset = [parse(s) for s in data["subset"]]
    lo, hi = _oracle.joint_bracket(weights, subset, data["config"]["n_max"])
    extras = rep["extras"]
    assert (Fraction(extras["joint_lo"]), Fraction(extras["joint_hi"])) == (lo, hi)
    # on a tree the joint length is half the largest stable length over S^2
    assert lo == hi == max(tree_length(weights, _oracle.concat(s, t))
                           for s in subset for t in subset) / 2


def test_lemma32_cover_holds_with_equality_on_the_oracle():
    data, rep = _entry("tree-pair", "lemma32")
    weights = tree_weights(data["target"], data["rank"])
    F = [parse("" if f == "e" else f) for f in rep["F"]]
    C = Fraction(rep["C"])
    ball = _oracle.ball(data["rank"], rep["ball_radius"])
    gaps = [_oracle.displacement(weights, g)
            - max(tree_length(weights, _oracle.concat(g, f)) for f in F)
            for g in ball]
    assert rep["checked"] == len(ball)
    assert max(gaps) == C


def test_lemma25_sandwich_holds_on_the_oracle():
    data, rep = _entry("tree-pair", "lemma25")
    weights = tree_weights(data["target"], data["rank"])
    n, D = rep["n"], max(weights) / 2
    assert Fraction(rep["scale"]) == D and Fraction(rep["bound"]) == (n + 2) * D
    s_n = _oracle.displacement_ball(weights, (n + 2) * D)
    assert [parse(g) for g in rep["s_n"]["elements"]] == s_n
    assert rep["extras"]["s_n_size"] == len(s_n)
    ball = _oracle.ball(data["rank"], data["params"]["ball_radius"])
    assert rep["checked"] == len(ball) and rep["violations"] == []
    for g in ball:
        k = _oracle.pieces(weights, g, (n + 2) * D)
        assert n * D * k - n * D <= _oracle.displacement(weights, g) <= (n + 2) * D * k


def test_bf_pair_half_and_joint_bracket_match_the_oracle():
    data, rep = _entry("bf-tree", "bf")
    weights = tree_weights(data["target"], data["rank"])
    subset = [parse(s) for s in data["subset"]]
    joint = _oracle.joint_bracket(weights, subset, data["config"]["n_max"])
    half = max(tree_length(weights, _oracle.concat(s, t))
               for s in subset for t in subset) / 2
    # the package's tree engine gives the joint length exactly; the
    # oracle's levels S^1..S^10 bracket it, their lo already exact
    assert _exact(rep["pair_half"], half) and _exact(rep["joint"], half)
    assert joint[0] == half <= joint[1]


@pytest.mark.parametrize("name,side", [("word-metric-window", "target"),
                                       ("schottky-cobounded", "ref"),
                                       ("schottky-linear", "ref")])
def test_the_tree_side_of_every_row_matches_the_oracle(name, side):
    report = _run(name)[0]
    data = report["scenario"]
    weights = tree_weights(data["target" if side == "target" else "reference"],
                           data["rank"])
    rows = windows = 0
    for entry in report["entries"]:
        for rep in entry.get("reports", []):
            for row in rep.get("diagnostics", []):
                word = parse(row["class"])
                assert _exact(row[side], tree_length(weights, word)), row
                rows += 1
            if side == "target":
                continue
            # the reference is the tree: its windows' counts are the
            # oracle's classes of length <= L
            for cov in rep.get("coverage", {}).values():
                L = Fraction(cov["L"])
                if cov["truncated"] or L / min(weights) > MAX_RADIUS:
                    continue
                inside = sum(tree_length(weights, w) <= L
                             for w in classes(data["rank"], int(L / min(weights))))
                assert (cov["classes"], cov["excluded"], cov["straddled"],
                        cov["empty"]) == (inside, 0, 0, not inside), cov
                windows += 1
    assert rows > 0
    assert windows == {"word-metric-window": 0, "schottky-cobounded": 8,
                       "schottky-linear": 0}[name]


@cache
def _letters_length(weights: tuple, letters: tuple):
    """The oracle's class length of a word with these letters, sorted:
    a tree length is a sum over the letters of the cyclic core, so words
    with one multiset of core letters share it."""
    return _oracle.class_length(list(weights), letters)


@pytest.mark.parametrize("name", SHIPPED)
def test_tree_cells_of_classes_csv_match_the_oracle(name):
    report, text = _run(name)
    if text is None:
        assert name == "jsr-ensemble"
        return
    data = report["scenario"]
    rank = data["rank"]
    specs = data["reference"], data["target"]
    # each side's tree weights, None for a side absent or with no tree
    trees = [spec and tree_weights(spec, rank) for spec in specs]
    trees = [weights and tuple(weights) for weights in trees]
    lines = text.splitlines()
    assert lines[0] == "class,ref_lo,ref_hi,target_lo,target_hi,ratio_lo,ratio_hi"
    names, checked = [], 0
    for line in lines[1:]:
        name_, *cells = line.split(",")
        word = parse(name_)
        names.append(word)
        letters = tuple(sorted(map(abs, _oracle.cyclic_core(word))))
        lengths = []
        for spec, weights, pair in zip(specs, trees, (cells[0:2], cells[2:4])):
            if spec is None:
                assert pair == ["", ""], line
            elif weights is not None:
                length = _letters_length(weights, letters)
                assert pair == [str(length)] * 2, line
                lengths.append(length)
                checked += 1
        if None in specs:
            assert cells[4:] == ["", ""], line
        elif len(lengths) == 2:
            assert cells[4:] == [str(Fraction(lengths[1]) / lengths[0])] * 2, line
    assert checked > 0
    # every class of the listing's radius, once, when the oracle can
    # enumerate them
    radius = max(map(len, names))
    if radius <= MAX_RADIUS:
        assert sorted(names) == sorted(classes(rank, radius))
