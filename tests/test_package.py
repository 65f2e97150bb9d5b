"""How the package loads: the lazy names of ``seifert_lspace`` and the
modules each entry point imports, each counted in a fresh interpreter."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seifert_lspace

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every name the package exported when its __init__ imported every module
EXPORTS = [
    "INF", "is_finite", "simplest_between",
    "Base", "Classification", "DegenerateEuler", "SeifertForm", "Tag", "UnsupportedFiberCount",
    "classify", "h1_order", "mirror", "normalize",
    "FoliationWitness", "IntervalKind", "LSpaceVerdict", "Reason", "ThirdSlotThreshold",
    "decide", "third_slot_threshold",
    "FamilyMember", "FamilyReport", "Piece", "PointVerdict", "Run", "SeiferterData",
    "classify_family", "evaluate_point", "h1_consistency", "limit_space", "surgered_space",
    "surgery_slope",
    "ALL_N", "FamilySpec", "Guarantee", "GuaranteeKind", "PreconditionFailed",
    "TorusKnotDegenerate", "build_family", "catalog", "check_guarantee", "check_reports",
    "distinctness_bound", "eudave_munoz_rp2_family", "family_kinds", "find_family",
    "linking_guarantee", "satellite_guarantee", "torus_pq_candidates",
    "unknot_seiferter_data", "unknot_seiferter_family",
]

# the modules neither the decide verb nor the set-up path may load
HEAVY = ("dataclasses", "inspect")


def _printed(code: str):
    """The value of the last line ``code`` prints in a fresh interpreter
    that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get(
        "PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return ast.literal_eval(out.splitlines()[-1])


def _loaded(code: str, names) -> list:
    """The modules of ``names`` in ``sys.modules`` after ``code`` runs in a
    fresh interpreter that imports the package from src/."""
    return _printed(f"import sys\n{code}\nprint([m for m in {list(names)!r} "
                    f"if m in sys.modules])")


class TestLazyInit:
    def test_all_lists_exactly_the_exports(self):
        assert sorted(seifert_lspace.__all__) == sorted(EXPORTS)
        assert len(seifert_lspace.__all__) == len(EXPORTS)

    @pytest.mark.parametrize("name", EXPORTS)
    def test_each_name_imports_from_its_module(self, name):
        namespace = {}
        exec(f"from seifert_lspace import {name}", namespace)
        owners = [m for m in ("rationals", "seifert", "lspace", "twist", "families")
                  if namespace[name] is getattr(
                      importlib.import_module(f"seifert_lspace.{m}"), name, object())]
        assert owners, name
        assert name in dir(seifert_lspace)
        assert getattr(seifert_lspace, name) is namespace[name]

    def test_star_import_gives_the_exports(self):
        namespace = {}
        exec("from seifert_lspace import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(EXPORTS)

    def test_a_module_name_falls_through_to_the_module(self):
        from seifert_lspace import families, formats
        assert families is sys.modules["seifert_lspace.families"]
        assert formats is sys.modules["seifert_lspace.formats"]
        assert families.catalog is seifert_lspace.catalog

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            seifert_lspace.no_such_name
        with pytest.raises(ImportError):
            exec("from seifert_lspace import no_such_name", {})
        assert seifert_lspace.__version__ == "0.1.0"

    def test_importing_the_package_loads_no_module(self):
        modules = [f"seifert_lspace.{m}" for m in ("rationals", "seifert", "lspace", "twist",
                                                   "families", "formats", "corpus", "cli")]
        assert _loaded("import seifert_lspace", modules) == []
        assert _loaded("from seifert_lspace import decide", modules) == modules[:3]
        assert _loaded("from seifert_lspace import catalog", modules) == modules[:5]


class TestModuleSets:
    """What a verb runs is all it loads: deterministic gates on
    ``sys.modules``, no wall clock."""

    def test_decide_loads_no_twist_family(self):
        code = ("from seifert_lspace.cli import main\n"
                "assert main(['decide', 'SFS[S2; -1; 1/2, 1/3, 1/5]']) == 0")
        assert _loaded(code, ["seifert_lspace.twist", "seifert_lspace.families",
                              "seifert_lspace.corpus", *HEAVY]) == []

    def test_set_up_loads_no_writer_and_no_parser(self):
        # perfbench's set-up: import the CLI, then build the catalog
        code = ("import seifert_lspace.cli\n"
                "from seifert_lspace import families\n"
                "families.catalog()")
        assert _loaded(code, ["seifert_lspace.formats", "seifert_lspace.corpus", "argparse",
                              "json", *HEAVY]) == []

    def test_the_verbs_of_one_form_build_no_text_table(self):
        # formats' table of small ints' texts is built by the first window
        # written: decide, h1, normalize and threshold, as text and as
        # JSON, leave it unbuilt, and a family run after them builds it
        form = "SFS[S2; -1; 1/2, 1/3, 1/5]"
        argvs = [[verb, *mode, *args]
                 for verb, args in (("decide", [form]), ("h1", [form]), ("normalize", [form]),
                                    ("threshold", ["--", "-1", "1/3", "1/5"]))
                 for mode in ([], ["--json"], ["--json", "--float"])]
        code = ("from seifert_lspace.cli import main\n"
                "from seifert_lspace import formats\n"
                f"for argv in {argvs!r}:\n"
                "    assert main(argv) in (0, 1), argv\n"
                "built = formats._small_texts.cache_info().currsize\n"
                "main(['family', 'run', 'tunnel2-A', '--window=0..3'])\n"
                "print([built, formats._small_texts.cache_info().currsize])")
        assert _printed(code) == [0, 1]

    def test_the_gates_see_what_a_family_run_loads(self):
        # the same check run on a verb that needs them finds them
        code = ("from seifert_lspace.cli import main\n"
                "main(['family', 'run', 'tunnel2-A', '--window=0..1', '--json'])")
        assert _loaded(code, ["seifert_lspace.twist", "seifert_lspace.families",
                              "seifert_lspace.formats", "argparse", "json"]) == \
            ["seifert_lspace.twist", "seifert_lspace.families", "seifert_lspace.formats",
             "argparse", "json"]
