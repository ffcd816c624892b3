"""Length-spectrum comparison toolkit for free group actions.

Stable translation lengths, windowed dilations between marked length
spectra, joint stable lengths of finite subsets, joint spectral radii,
and executable checks of the comparison inequalities relating them, on
concrete models: weighted trees, word metrics, Mobius actions on the
hyperbolic plane and 3-space, and singular-value pseudo-metrics of
linear representations.

``import lenspec`` imports none of its modules: a public name imports the
module that defines it on first use (PEP 562), and the modules import
numpy on their first array.  A tree joint length thus runs without numpy.
"""

from importlib import import_module

# module -> the public names it defines, which the package re-exports
_EXPORTS = {
    "actions": ("HOLDS", "HYPOTHESIS_FAILED", "INCONCLUSIVE", "VIOLATED",
                "ActionModel", "AnosovCertificate", "LengthBracket",
                "anosov_certificate", "exact_div", "stable_length_bracket"),
    "bounds": ("ClassTable", "CoverReport", "DeltaReport", "DilationReport",
               "SandwichReport", "VerifierConfig", "WindowSup",
               "cobounded_dilation_report", "dilation_window",
               "displacement_ball", "displacement_sandwich_report",
               "joint_vs_dilation_report", "metric_distance_report",
               "pointwise_cover_report", "ratio_envelope_report",
               "spectral_dilation_report", "window_comparison_bound",
               "word_metric_dilation_report"),
    "errors": ("InputError", "NumericError", "ResourceCapError",
               "SearchExhaustedError"),
    "jsl": ("BfCheck", "BochiBound", "BochiConstants", "JointLengthProfile",
            "JsrProfile", "bf_lower_check", "bochi_rhs", "joint_stable_profile",
            "jsr_profile", "tree_joint_profile"),
    "spaces": ("LinearRepModel", "MatrixActionModel", "MobiusModel",
               "SchottkyAction", "TreeModel", "WordMetricModel",
               "build_schottky"),
    "words": ("ConjClass", "GeneratingSet", "Word", "cyclic_reduce",
              "enumerate_ball", "free_reduce", "iter_class_reps", "word_length"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
