"""Counting surjections of pro-p groups onto unipotent groups, two ways.

The names below load with their submodule on first access (PEP 562), so a
closed-form count never imports numpy or the brute-force engines."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "census": (
        "CensusReport",
        "GroupModel",
        "cp_count",
        "epi_count",
        "local_field_model",
        "model_presentation",
        "nu_extensions",
        "nu_local_closed",
        "preset_model",
        "reports_to_csv",
        "tmp_closed",
        "tmp_enumerate",
        "tmp_enumerate_forms",
        "un_quotient_decision",
        "z1_closed",
    ),
    "fp": ("BudgetError", "FpVector"),
    "forms": (
        "cup_chain",
        "cup_grams",
        "load_input_file",
        "trilinear_trace",
        "triple_tensors",
    ),
    "oracle": (
        "ORACLE_BUDGET",
        "ORACLE_BUDGET_EXTENDED",
        "count_epi_bruteforce",
        "count_lifts_bruteforce",
        "cup_defining_check",
        "massey_system_exists",
    ),
    "unipotent": (
        "ExponentToken",
        "P_INFINITY",
        "aut_order",
        "triangle_pairs",
    ),
    "verify": ("format_table", "run_suite", "suite_passed"),
    "words": (
        "Comm",
        "Gen",
        "Pow",
        "Presentation",
        "Prod",
        "RamifiedRelatorData",
        "demushkin_presentation",
        "free_presentation",
        "free_product",
        "preset",
        "preset_tensor",
        "ramified_presentation",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SOURCE})
