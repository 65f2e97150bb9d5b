"""Embedded example corpus for the ``reproduce`` command.

Each case replays one worked example at desk scale: a single decision with
its certificate, a homology identity over a window, a slope polynomial, or a
whole-family guarantee.  Everything is self-contained data plus a checker, so
``reproduce`` needs no files or network.  A case's ``run`` yields its checks
as ``(label, got, want)`` triples; a check passes when ``got == want``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .rationals import INF
from .seifert import h1_order, normalize
from .lspace import FoliationWitness, IntervalKind, decide, third_slot_threshold
from .twist import classify_family, evaluate_point, h1_consistency, limit_space, surgered_space
from . import families as fam


class Case(NamedTuple):
    name: str
    description: str
    run: Callable[[], Iterable[tuple[str, object, object]]]


def _decide_case(text_b, slopes, want_lspace, want_witness=None, want_dual=None):
    v = decide(normalize(text_b, slopes))
    yield "is_lspace", v.is_lspace, want_lspace
    if want_witness is not None:
        yield "witness", v.witness, FoliationWitness(*want_witness)
    if want_dual is not None:
        yield "witness_is_dual", v.witness_is_dual, want_dual


def _case_euler_zero_triple():
    yield from _decide_case(-2, (Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)),
                            False, want_witness=(2, 1), want_dual=True)


def _case_unknot_limits():
    for m in (0, -1):
        d = fam.unknot_seiferter_data(m, 3)
        yield f"limit m={m} is L-space", decide(limit_space(d)).is_lspace, True
    lim = limit_space(fam.unknot_seiferter_data(3, 3))
    yield "limit m=3 normal form", repr(lim), "SFS[S2; -2; 2/3, 2/3, 2/3]"
    yield "limit m=3 not L-space", decide(lim).is_lspace, False


def _case_decide_spots():
    yield from _decide_case(-1, (Fraction(1, 2), Fraction(2, 3), Fraction(4, 5)), True)
    yield from _decide_case(-1, (Fraction(1, 7), Fraction(1, 3), Fraction(1, 2)),
                            False, want_witness=(5, 2), want_dual=False)
    yield from _decide_case(1, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)), True)
    f = normalize(-1, (Fraction(1, 2), Fraction(1, 2)))
    yield "S2(-1; 1/2, 1/2) is S2 x S1, not an L-space", decide(f).is_lspace, False
    yield from _decide_case(0, (Fraction(2, 3), Fraction(1, 2), INF), True)


def _case_trefoil_candidate():
    got = fam.torus_pq_candidates(3, 2, 5)
    yield "candidate list", got, [(3, Fraction(2, 3), Fraction(1, 2))]
    yield "guarantee", fam.linking_guarantee(3, 2, 5), fam.ALL_N


def _case_trefoil_family():
    spec = fam.find_family("K(3,2;5,n)")
    yield "all n are L-space surgeries", fam.check_guarantee(spec), (True, [])
    pole = evaluate_point(spec.members[0], 0)
    yield ("pole n=0 is a connected sum and an L-space",
           (pole.tag.value, pole.verdict.is_lspace), ("ConnectedSumOfLensSpaces", True))
    yield "slope at n=1", evaluate_point(spec.members[0], 1).slope, 31


def _case_unknot_grid_sample():
    d = fam.unknot_seiferter_data(0, 3)
    bad = [n for n in range(-10, 11)
           if decide(surgered_space(d, n)).is_lspace != (n != 0)]
    yield "L-space exactly away from n=0", bad, []
    bad = [n for n in range(-10, 11) if not h1_consistency(d, n)]
    yield "homology matches the surgery slope", bad, []


def _case_tunnel2():
    for which, poly in (("A", lambda n: 196 * n + 71), ("B", lambda n: 100 * n + 71)):
        d = fam.build_family(f"tunnel2-{which}").members[0].data
        report = classify_family(d)
        bad = [n for n in range(-100, 101) if not report.lspace_at(n)
               or h1_order(surgered_space(d, n)) != abs(poly(n))]
        yield f"family {which}: L-space and |H1| = |{poly(1) - poly(0)}n+71|", bad, []


def _case_sporadic_slopes():
    bad = [p for p in range(1, 21)
           if p * (6 * p + 1) + (4 * p + 1) ** 2 != 22 * p * p + 9 * p + 1
           or (3 * p + 1) * (2 * p + 1) + (4 * p + 1) ** 2 != 22 * p * p + 13 * p + 2
           or -((3 * p + 2) * (2 * p + 1) + (4 * p + 3) ** 2) != -22 * p * p - 31 * p - 11
           or -((6 * p + 5) * (p + 1) + (4 * p + 3) ** 2) != -22 * p * p - 35 * p - 14]
    yield "slope polynomials, p = 1..20", bad, []


def _case_berge_vii_viii():
    s = fam.build_family("berge-vii", a=2, b=3)
    yield "(2,3) VII guarantee", repr(s.guarantee), "L-space for n <= 2"
    s = fam.build_family("berge-viii", a=-2, b=5)
    yield "(-2,5) VIII guarantee", repr(s.guarantee), "L-space for all n"
    out = fam.build_family("berge-vii", a=1, b=2)
    yield "(1,2) degenerates to a torus knot", isinstance(out, fam.TorusKnotDegenerate), True


def _case_cable_exterior_h1():
    vals = [h1_order(normalize(0, (Fraction(2, 3), Fraction(-2, 5), Fraction(x))))
            for x in range(-10, 11)]
    yield "|H1| window", vals, [abs(4 + 15 * x) for x in range(-10, 11)]
    yield "value 1 never attained", 1 in vals, False


def _case_threshold():
    t = third_slot_threshold(-2, Fraction(2, 3), Fraction(2, 3))
    yield "kind", t.kind, IntervalKind.DOWN_CLOSED
    yield "boundary", t.boundary, Fraction(1, 2)
    yield "attained", t.attained, True


def _case_satellite_and_distinctness():
    yield "satellite boundary case", fam.satellite_guarantee(2, 4, 1), True
    try:
        fam.satellite_guarantee(3, 8, 1)
        rejected = False
    except fam.PreconditionFailed:
        rejected = True
    yield "satellite precondition rejected", rejected, True
    yield "distinctness (5,3,4)", fam.distinctness_bound(5, 3, 4), False
    yield "distinctness (2,0,2)", fam.distinctness_bound(2, 0, 2), True


def _case_eudave_munoz():
    for l, slope, indices in ((1, 8, (1, 2)), (2, 40, (2, 5)), (-1, 16, (1, 4))):
        s = fam.eudave_munoz_rp2_family(l)
        got = (12 * l * l - 4 * l, (abs(l), abs(-3 * l + 1)))
        yield f"l={l} slope and indices", got, (slope, indices)
        yield f"l={l} guarantee", s.guarantee, fam.ALL_N


def _case_catalog_guarantees():
    for spec in fam.catalog():
        yield spec.name, fam.check_guarantee(spec), (True, [])


CASES = (
    Case("euler-zero-triple", "dual witness for S2(-2; 2/3, 2/3, 2/3)",
         _case_euler_zero_triple),
    Case("unknot-limits", "limit spaces of the unknot families at m = 0, -1, 3",
         _case_unknot_limits),
    Case("decide-spots", "assorted single decisions with certificates",
         _case_decide_spots),
    Case("trefoil-candidate", "base form for the linking-5 seiferter of the trefoil",
         _case_trefoil_candidate),
    Case("trefoil-family", "the linking-5 trefoil family is all-n",
         _case_trefoil_family),
    Case("unknot-grid-sample", "unknot family (m=0, p=3): verdicts and homology",
         _case_unknot_grid_sample),
    Case("tunnel2", "tunnel-number-two families: verdicts and homology",
         _case_tunnel2),
    Case("sporadic-slopes", "sporadic Berge slope polynomials",
         _case_sporadic_slopes),
    Case("berge-vii-viii", "type VII/VIII parameter mapping",
         _case_berge_vii_viii),
    Case("cable-exterior-h1", "|H1(S2(2/3, -2/5, x))| = |4 + 15x|",
         _case_cable_exterior_h1),
    Case("threshold-down-closed", "exact third-slope threshold at b = -2",
         _case_threshold),
    Case("satellite-distinctness", "satellite guarantee and surgery-distance bound",
         _case_satellite_and_distinctness),
    Case("eudave-munoz", "projective-base family slopes and indices",
         _case_eudave_munoz),
    Case("catalog-guarantees", "every catalog family confirms its guarantee",
         _case_catalog_guarantees),
)


def run_corpus(only: str | None = None, cases=CASES, emit=print):
    """Run the corpus; returns (n_passed, n_failed, failed_names)."""
    selected = list(cases)
    if only is not None:
        selected = [c for c in cases if c.name == only]
        if not selected:
            selected = [c for c in cases if only in c.name]
        if not selected:
            raise KeyError(only)
    passed, failed = 0, []
    for case in selected:
        checks = list(case.run())
        bad = [(label, got, want) for label, got, want in checks if got != want]
        if bad:
            failed.append(case.name)
            emit(f"FAIL {case.name}: {case.description}")
            for label, got, want in bad:
                emit(f"     {label}: got {got!r}, want {want!r}")
        else:
            passed += 1
            emit(f"PASS {case.name}: {case.description} ({len(checks)} checks)")
    return passed, len(failed), failed
