"""Outside-in layer tracing for the lenspec benchmark.

The tracer wraps public entry points of ``lenspec.words``, ``actions``,
``spaces``, ``bounds``, ``jsl`` and ``cli`` from the benchmark's side; no
file of the package changes.  A function is rebound in every lenspec
module that holds it under its name (``lenspec.bounds.iter_class_reps``
and ``lenspec.cli.iter_class_reps`` both go through the wrapper), and
methods are rebound on the class that defines them.

Each wrapper belongs to a layer, a group and a key:

- ``layer`` collects self time: a call's duration minus the time of the
  wrapped calls made inside it.
- ``group`` guards re-entry: a call made while another call of the same
  group is open (``displacement_of_powers`` calling ``displacement``) adds
  neither time nor a count, so no time is counted twice.
- ``key`` names the inclusive time and the call count.

Per-class calls (class lengths, displacements, word lengths, stable-length
brackets) are only aggregated as count plus total time.  Every other
wrapped call also records a span (id, parent, item, name, start, end) in
memory; ``write_spans`` writes them out when the run ends.  Times come
from the clock the tracer is given; the benchmark's leaves out the host
calibration blocks (``hostspeed.HostClock.now``).
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

MODULES = ("lenspec", "lenspec.words", "lenspec.actions", "lenspec.spaces",
           "lenspec.jsl", "lenspec.bounds", "lenspec.cli")

MODEL_KIND = {"TreeModel": "tree", "MobiusModel": "mobius",
              "LinearRepModel": "linear", "WordMetricModel": "word-metric"}


class Tracer:
    def __init__(self, clock):
        self.clock = clock                 # the time source of every span
        self.totals = defaultdict(float)   # key -> inclusive seconds
        self.counts = defaultdict(int)     # key -> calls, or counted units
        self.self_time = defaultdict(float)  # layer -> exclusive seconds
        self.spans = []
        self.item = None
        self._open = defaultdict(int)      # group -> open calls
        self._child = []                   # child seconds of each open call
        self._span_ids = []                # ids of open calls that have spans

    def wrap(self, fn, layer, key, *, group=None, span=True, after=None):
        """A wrapper of ``fn`` that accounts its calls under ``key``.

        ``after(tracer, result, args, kwargs, seconds)`` runs after each
        outermost call of the group that returned normally.
        """
        group = group or key
        open_ = self._open
        child = self._child
        totals, counts, self_time = self.totals, self.counts, self.self_time
        span_ids, spans = self._span_ids, self.spans
        clock = self.clock
        tracer = self

        def wrapper(*args, **kwargs):
            depth = open_[group]
            open_[group] = depth + 1
            frame = [0.0]
            child.append(frame)
            if span:
                sid = len(spans)
                spans.append(None)
                span_ids.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child.pop()
                open_[group] = depth
                self_time[layer] += dt - frame[0]
                if child:
                    child[-1][0] += dt
                if depth == 0:
                    totals[key] += dt
                    counts[key] += 1
                if span:
                    span_ids.pop()
                    spans[sid] = (sid, span_ids[-1] if span_ids else None,
                                  tracer.item, key, layer, t0, t0 + dt)
            if after is not None and depth == 0:
                after(tracer, result, args, kwargs, dt)
            return result

        return wrapper

    def install(self):
        """Rebind every traced entry point of the imported lenspec modules."""
        import importlib

        mods = [importlib.import_module(m) for m in MODULES]
        words, actions, spaces, jsl, bounds, cli = mods[1:]

        def rebind(fn, layer, key, **kw):
            w = self.wrap(fn, layer, key, **kw)
            hit = False
            for mod in mods:
                if getattr(mod, fn.__name__, None) is fn:
                    setattr(mod, fn.__name__, w)
                    hit = True
            if not hit:
                raise RuntimeError(f"{fn.__name__} is not bound in any lenspec module")

        def method(cls, name, layer, key, **kw):
            fn = cls.__dict__[name]
            setattr(cls, name, self.wrap(fn, layer, key, **kw))

        # words
        rebind(words.iter_class_reps, "words", "words.class_reps",
               after=_add_len("words.classes"))
        rebind(words.enumerate_ball, "words", "words.ball",
               after=_add_len("words.ball_words"))
        rebind(words.word_length, "words", "words.word_length", span=False)
        # spaces: per-class evaluation by model kind, and displacements
        for cls, name in ((spaces.TreeModel, "class_length"),
                          (spaces.MobiusModel, "class_length"),
                          (spaces.LinearRepModel, "class_length"),
                          (spaces.WordMetricModel, "class_length_bracket")):
            method(cls, name, "spaces",
                   f"spaces.class_eval.{MODEL_KIND[cls.__name__]}",
                   group="spaces.class_eval", span=False)
        for cls in (spaces.TreeModel, spaces.WordMetricModel,
                    spaces.MobiusModel, spaces.LinearRepModel):
            method(cls, "displacement", "spaces", "spaces.displacement",
                   span=False)
        for cls in (actions.ActionModel, spaces.MatrixActionModel):
            method(cls, "displacement_of_powers", "spaces",
                   "spaces.displacement", span=False)
        # actions
        rebind(actions.anosov_certificate, "actions", "actions.certificate")
        rebind(actions.stable_length_bracket, "actions", "actions.bracket",
               span=False)
        # bounds
        method(bounds.ClassTable, "__init__", "bounds", "bounds.table",
               after=_table_classes)
        for fn in (bounds.cobounded_dilation_report,
                   bounds.word_metric_dilation_report,
                   bounds.spectral_dilation_report,
                   bounds.ratio_envelope_report,
                   bounds.joint_vs_dilation_report,
                   bounds.displacement_sandwich_report,
                   bounds.pointwise_cover_report,
                   bounds.metric_distance_report,
                   bounds.dilation_window,
                   bounds.displacement_ball):
            rebind(fn, "bounds", "bounds.report", after=_add_reports)
        # jsl
        rebind(jsl.tree_joint_profile, "jsl", "jsl.tree_dp")
        rebind(jsl.joint_stable_profile, "jsl", "jsl.joint",
               after=_products_engine)
        rebind(jsl.jsr_profile, "jsl", "jsl.jsr_profile",
               after=_jsr_products)
        rebind(jsl.bochi_rhs, "jsl", "jsl.bochi_rhs", after=_bochi_products)
        # cli
        rebind(cli.main, "cli", "cli.main", after=_per_scenario)
        rebind(cli.load_scenario, "cli", "cli.parse")
        rebind(cli.parse_scenario, "cli", "cli.parse")
        rebind(cli.build_model, "cli", "cli.build")
        rebind(cli.emit, "cli", "cli.emit", after=_output_bytes)

    def write_spans(self, path):
        """Write the recorded spans as JSON lines; returns the count."""
        with open(path, "w") as fh:
            for sid, parent, item, name, layer, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "item": item,
                                     "name": name, "layer": layer,
                                     "start": t0, "end": t1}) + "\n")
        return len(self.spans)


def _add_len(key):
    def after(tracer, result, args, kwargs, dt):
        tracer.counts[key] += len(result)
    return after


def _table_classes(tracer, result, args, kwargs, dt):
    tracer.counts["bounds.table_classes"] += len(args[0].reps)


def _add_reports(tracer, result, args, kwargs, dt):
    tracer.counts["bounds.reports"] += (len(result)
                                        if isinstance(result, list) else 1)


def _products_engine(tracer, result, args, kwargs, dt):
    if result.engine != "tree-dp":
        tracer.totals["jsl.products"] += dt
        tracer.counts["jsl.products"] += 1


def _dense_products(tracer, n_mats, levels):
    """Computed, not counted: a dense scan of ``levels`` levels forms sum_j |S|^j."""
    tracer.counts["jsl.dense_products"] += sum(n_mats ** j
                                               for j in range(1, levels + 1))


def _jsr_products(tracer, result, args, kwargs, dt):
    n_max = args[1] if len(args) > 1 else kwargs.get("n_max", 8)
    _dense_products(tracer, len(args[0]), n_max)


def _bochi_products(tracer, result, args, kwargs, dt):
    _dense_products(tracer, len(args[0]), result.j_used)


def _per_scenario(tracer, result, args, kwargs, dt):
    if tracer.item is not None:
        tracer.totals[f"cli.verify.{tracer.item}"] += dt


def _output_bytes(tracer, result, args, kwargs, dt):
    tracer.counts["cli.output_bytes"] += sum(os.path.getsize(p) for p in result)


def layer_metrics(tracer, scenarios):
    """Per-layer metrics as {name: (value, unit)} from one traced pass."""
    t, c = tracer.totals, tracer.counts
    out = {
        "words.class_reps_s": (t["words.class_reps"], "s"),
        "words.classes": (c["words.classes"], "count"),
        "words.ball_s": (t["words.ball"], "s"),
        "words.ball_words": (c["words.ball_words"], "count"),
        "words.word_length_s": (t["words.word_length"], "s"),
        "words.word_length_calls": (c["words.word_length"], "count"),
    }
    for kind in MODEL_KIND.values():
        out[f"spaces.class_eval_s.{kind}"] = (t[f"spaces.class_eval.{kind}"], "s")
        out[f"spaces.class_evals.{kind}"] = (c[f"spaces.class_eval.{kind}"], "count")
    out.update({
        "spaces.displacement_s": (t["spaces.displacement"], "s"),
        "spaces.displacements": (c["spaces.displacement"], "count"),
        "actions.certificate_s": (t["actions.certificate"], "s"),
        "actions.certificates": (c["actions.certificate"], "count"),
        "actions.bracket_s": (t["actions.bracket"], "s"),
        "actions.brackets": (c["actions.bracket"], "count"),
        "bounds.tables": (c["bounds.table"], "count"),
        "bounds.table_classes": (c["bounds.table_classes"], "count"),
        "bounds.table_s": (t["bounds.table"], "s"),
        "bounds.reports": (c["bounds.reports"], "count"),
        "bounds.self_s": (tracer.self_time["bounds"], "s"),
        "jsl.tree_dp_s": (t["jsl.tree_dp"], "s"),
        "jsl.tree_dp_calls": (c["jsl.tree_dp"], "count"),
        "jsl.jsr_profile_s": (t["jsl.jsr_profile"], "s"),
        "jsl.bochi_rhs_s": (t["jsl.bochi_rhs"], "s"),
        "jsl.dense_products": (c["jsl.dense_products"], "count"),
        "jsl.products_s": (t["jsl.products"], "s"),
        "jsl.products_calls": (c["jsl.products"], "count"),
        "cli.parse_s": (t["cli.parse"], "s"),
        "cli.build_s": (t["cli.build"], "s"),
        "cli.emit_s": (t["cli.emit"], "s"),
        "cli.output_bytes": (c["cli.output_bytes"], "bytes"),
        "cli.self_s": (tracer.self_time["cli"], "s"),
    })
    for name in scenarios:
        out[f"cli.verify.{name}_s"] = (t[f"cli.verify.{name}"], "s")
    return out
