"""Exact L-space decisions for small Seifert fibered spaces, and certified
classification of the twist families of Dehn surgeries produced by seiferters.
Each name of ``__all__`` is imported from its module when first read (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# each exported name and the module that defines it
_MODULES = {name: module for module, names in (
    ("rationals", "INF is_finite simplest_between"),
    ("seifert", "Base Classification DegenerateEuler SeifertForm Tag UnsupportedFiberCount "
                "classify h1_order mirror normalize"),
    ("lspace", "FoliationWitness IntervalKind LSpaceVerdict Reason ThirdSlotThreshold decide "
               "third_slot_threshold"),
    ("twist", "FamilyMember FamilyReport Piece PointVerdict Run SeiferterData classify_family "
              "evaluate_point h1_consistency limit_space surgered_space surgery_slope"),
    ("families", "ALL_N FamilySpec Guarantee GuaranteeKind PreconditionFailed "
                 "TorusKnotDegenerate build_family catalog check_guarantee check_reports "
                 "distinctness_bound eudave_munoz_rp2_family family_kinds find_family "
                 "linking_guarantee satellite_guarantee torus_pq_candidates "
                 "unknot_seiferter_data unknot_seiferter_family"),
) for name in names.split()}

__all__ = list(_MODULES)


def __getattr__(name):
    # any other name, a module's among them, is not found here, so that
    # ``from seifert_lspace import families`` imports the module
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULES[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
