"""Catalog families and their arithmetic guarantee checkers."""

import re
from fractions import Fraction
from math import gcd

import pytest

from seifert_lspace import (ALL_N, Guarantee, GuaranteeKind, PointVerdict, Run,
                            PreconditionFailed, Tag, TorusKnotDegenerate, build_family,
                            catalog, check_guarantee, classify, classify_family,
                            decide, distinctness_bound, eudave_munoz_rp2_family,
                            find_family, h1_order, linking_guarantee, normalize,
                            satellite_guarantee, surgered_space,
                            torus_pq_candidates, unknot_seiferter_data,
                            unknot_seiferter_family)
from seifert_lspace.families import _KINDS, _merged, _parameters, family_kinds

from oracles import fraction_member_point, loop_torus_pq_candidates, shown


def F(n, d=1):
    return Fraction(n, d)


N_GE_M1 = Guarantee(GuaranteeKind.N_GE, -1)


class TestLinkingGuarantee:
    def test_examples(self):
        assert linking_guarantee(3, 2, 5) == ALL_N
        assert linking_guarantee(13, 2, 9) == ALL_N
        assert linking_guarantee(5, 3, 2) == N_GE_M1

    def test_boundary(self):
        # l^2 = 16 equals 2pq = 16: the all-n case includes the boundary
        assert linking_guarantee(4, 2, 4) == ALL_N
        assert linking_guarantee(4, 2, 3) == N_GE_M1


class TestTorusPqCandidates:
    def test_trefoil(self):
        assert torus_pq_candidates(3, 2, 5) == [(3, F(2, 3), F(1, 2))]

    def test_meridian(self):
        assert torus_pq_candidates(3, 2, 1) == [(-1, F(2, 3), F(1, 2))]

    def test_no_integral_section(self):
        assert torus_pq_candidates(3, 2, 6) == []  # gcd(l, pq) > 1

    def test_closed_form_matches_the_loop(self):
        for p in range(2, 40):
            for q in range(2, 40):
                if gcd(p, q) == 1:
                    for l in range(1, 60):
                        assert torus_pq_candidates(p, q, l) == \
                            loop_torus_pq_candidates(p, q, l), (p, q, l)

    def test_requires_coprime_pq(self):
        with pytest.raises(PreconditionFailed):
            torus_pq_candidates(4, 2, 3)

    @pytest.mark.parametrize("p,q,l", [(3, 2, 5), (5, 2, 7), (5, 2, 3), (4, 3, 5),
                                       (5, 3, 7), (5, 3, 4), (13, 2, 9), (7, 3, 10)])
    def test_h1_identity_on_window(self, p, q, l):
        from seifert_lspace import INF
        assert torus_pq_candidates(p, q, l), (p, q, l)
        for B, r1, r2 in torus_pq_candidates(p, q, l):
            for n in range(-20, 21):
                raw = (r1, r2, INF) if n == 0 else (r1, r2, F(1, n))
                got = classify(normalize(B, raw)).h1
                assert got == abs(p * q + n * l * l)

    def test_all_n_guarantee_forces_b_out_of_middle(self):
        for p, q, l in ((3, 2, 5), (13, 2, 9), (7, 2, 9), (7, 4, 11), (5, 3, 6)):
            if linking_guarantee(p, q, l) != ALL_N:
                continue
            for B, _, _ in torus_pq_candidates(p, q, l):
                assert B >= 1 or B <= -3


class TestTwistedTorusFamilies:
    def test_p_plus_q(self):
        spec = build_family("p+q", p=5, q=2)
        assert spec.guarantee == ALL_N
        assert 49 > 2 * 5 * 2

    def test_block_4p1(self):
        spec = build_family("k4p1", p=1)
        assert spec.guarantee == ALL_N
        assert spec.members[0].data.m == 12
        assert spec.members[0].data.l == 5

    def test_p_minus_q(self):
        spec = build_family("p-q", p=5, q=2)
        assert spec.guarantee == N_GE_M1
        assert spec.members[0].data.l == 3

    def test_parameter_validation(self):
        with pytest.raises(PreconditionFailed):
            build_family("p+q", p=4, q=2)
        with pytest.raises(PreconditionFailed):
            build_family("k4p1", p=0)

    def test_k2p2_intermediate_slope_identity(self):
        # the K(2p+3, 2p+1; 2p+2) base surgery arises from a lens surgery at
        # -8p^2-16p-7 by one twist along a circle of linking number 2p+2
        for p in range(1, 21):
            assert -8 * p * p - 16 * p - 7 + (2 * p + 2) ** 2 == (-2 * p - 1) * (2 * p + 3)


class TestUnknotFamilies:
    def test_m0_p3_first_twist(self):
        d = unknot_seiferter_data(0, 3)
        assert surgered_space(d, 1) == normalize(-2, (F(2, 3), F(1, 3)))
        assert decide(surgered_space(d, 1)).is_lspace
        assert d.m + 1 * d.l ** 2 == 9

    def test_m0_p3_zero_twist_is_product(self):
        d = unknot_seiferter_data(0, 3)
        assert classify(surgered_space(d, 0)).tag is Tag.S2XS1

    def test_m_minus1_p3_pole_at_one(self):
        d = unknot_seiferter_data(-1, 3)
        f = surgered_space(d, 1)
        assert classify(f).tag is Tag.CONNECTED_SUM_LENS
        assert decide(f).is_lspace

    def test_validation(self):
        with pytest.raises(PreconditionFailed):
            unknot_seiferter_family(1, 3)
        with pytest.raises(PreconditionFailed):
            unknot_seiferter_data(0, 4)
        with pytest.raises(PreconditionFailed):
            unknot_seiferter_data(1, 3)  # p = 2m + 1
        with pytest.raises(PreconditionFailed):
            unknot_seiferter_data(2, 3)  # p = 2m - 1

    def test_linking_number(self):
        assert unknot_seiferter_data(-2, 5).l == 7


class TestTunnel2:
    def test_forms_at_zero(self):
        a = build_family("tunnel2-a").members[0].data
        f = surgered_space(a, 0)
        assert f == normalize(-1, (F(4, 5), F(5, 7), F(1, 2)))
        assert decide(f).is_lspace
        b = build_family("tunnel2-b").members[0].data
        f = surgered_space(b, 0)
        assert f == normalize(-1, (F(5, 7), F(4, 5), F(1, 2)))
        assert decide(f).is_lspace

    def test_negative_member_still_lspace(self):
        a = build_family("tunnel2-a").members[0].data
        assert surgered_space(a, -1) is not None
        assert decide(surgered_space(a, -1)).is_lspace
        assert a.m + (-1) * a.l ** 2 == -125


class TestBergeSporadic:
    def test_kind_a(self):
        spec = build_family("spor-a", p=2)
        d = spec.members[0].data
        assert d.l == 9 and d.m == 26
        assert spec.guarantee == ALL_N
        assert d.m + d.l ** 2 == 107 == 22 * 4 + 9 * 2 + 1

    def test_kind_b(self):
        spec = build_family("spor-b", p=1)
        d = spec.members[0].data
        assert (d.m, d.l) == (12, 5)
        assert d.m + d.l ** 2 == 37 == 22 + 13 + 2

    def test_kind_d(self):
        spec = build_family("spor-d", p=1)
        d = spec.members[0].data
        assert (d.m, d.l) == (22, 7)
        assert 49 >= 2 * 11 * 2
        assert spec.guarantee == ALL_N
        slope, _ = fraction_member_point(spec.members[0], -1)
        assert slope == -(22 + 35 + 14)

    def test_slope_polynomials(self):
        for p in range(1, 21):
            assert p * (6 * p + 1) + (4 * p + 1) ** 2 == 22 * p * p + 9 * p + 1
            assert (3 * p + 1) * (2 * p + 1) + (4 * p + 1) ** 2 == 22 * p * p + 13 * p + 2
            assert -((3 * p + 2) * (2 * p + 1) + (4 * p + 3) ** 2) == -(22 * p * p + 31 * p + 11)
            assert -((6 * p + 5) * (p + 1) + (4 * p + 3) ** 2) == -(22 * p * p + 35 * p + 14)

    def test_parameter_validation(self):
        with pytest.raises(PreconditionFailed):
            build_family("spor-a", p=1)
        # a fifth sporadic kind is an unknown family kind
        with pytest.raises(KeyError):
            build_family("spor-e", p=2)


class TestBergeViiViii:
    def test_positive_product_bounds_n(self):
        spec = build_family("berge-vii", a=2, b=3)
        assert spec.guarantee == Guarantee(GuaranteeKind.N_LE, 2)
        spec = build_family("berge-viii", a=2, b=3)
        assert spec.guarantee == Guarantee(GuaranteeKind.N_LE, 0)

    def test_negative_product_all_n(self):
        spec = build_family("berge-viii", a=-2, b=5)
        assert spec.guarantee == ALL_N

    def test_degenerate_parameters(self):
        assert isinstance(build_family("berge-vii", a=1, b=2), TorusKnotDegenerate)
        assert isinstance(build_family("berge-vii", a=-2, b=3), TorusKnotDegenerate)

    def test_coprimality_required(self):
        with pytest.raises(PreconditionFailed):
            build_family("berge-vii", a=2, b=4)


class TestSatelliteAndDistinctness:
    def test_satellite(self):
        assert satellite_guarantee(2, 4, 1) is True
        assert satellite_guarantee(2, 12, 2) is True
        with pytest.raises(PreconditionFailed):
            satellite_guarantee(3, 8, 1)

    def test_distinctness(self):
        assert distinctness_bound(5, 3, 3) is True
        assert distinctness_bound(5, 3, 4) is False
        assert distinctness_bound(2, 0, 2) is True


class TestEudaveMunoz:
    def test_slopes_and_indices(self):
        s = eudave_munoz_rp2_family(1)
        assert "slope 8" in s.description and "(1, 2)" in s.description
        s = eudave_munoz_rp2_family(2)
        assert "slope 40" in s.description and "(2, 5)" in s.description
        s = eudave_munoz_rp2_family(-1)
        assert "slope 16" in s.description and "(1, 4)" in s.description

    def test_rejects_zero(self):
        with pytest.raises(PreconditionFailed):
            eudave_munoz_rp2_family(0)

    def test_members_are_lspace_everywhere(self):
        report = classify_family(eudave_munoz_rp2_family(1).members[0])
        points = [r for r in shown(report, -5, 5) if isinstance(r, PointVerdict)]
        assert len(points) == 11 and all(pv.verdict.is_lspace for pv in points)
        assert report.tail_pos.is_lspace


class TestRegressionContract:
    @pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.name)
    def test_catalog_guarantees_confirmed(self, spec):
        ok, problems = check_guarantee(spec)
        assert ok, problems

    def test_failures_inside_gap_segments_are_checked(self):
        # both tails are L-space; the not-L-space run 8..14 lies between
        # them, a segment, and every claim must see it there
        from seifert_lspace import FamilyMember, FamilySpec, SeiferterData, check_reports
        data = SeiferterData(b=-1, r1=F(9, 10), r2=F(11, 12),
                             alpha=-1, beta=1, alpha3=6, beta3=-7)
        assert [n for n in range(0, 30) if not decide(surgered_space(data, n)).is_lspace] \
            == list(range(8, 15))
        for mirrored, kind, bound, problem in (
                (False, GuaranteeKind.N_LE, 7, None),
                (False, GuaranteeKind.N_LE, 10, "fails at n=[8..10] <= 10"),
                (False, GuaranteeKind.N_GE, 12, "fails at n=[12..14] >= 12"),
                (False, GuaranteeKind.ALL_N, None, "not an L-space at n=[8..14]"),
                (True, GuaranteeKind.N_GE, -7, None),
                (True, GuaranteeKind.N_GE, -10, "fails at n=[-10..-8] >= -10"),
                (True, GuaranteeKind.N_LE, -12, "fails at n=[-14..-12] <= -12")):
            member = FamilyMember(data=data, mirrored=mirrored)
            report = classify_family(member)
            assert report.tail_pos.is_lspace and report.tail_neg.is_lspace
            assert [(r.from_n, r.to_n) for r in report.rows[1:-1]
                    if isinstance(r, Run) and not r.is_lspace] == \
                [(-14, -8) if mirrored else (8, 14)]
            spec = FamilySpec("seg", "", (), Guarantee(kind, bound), (member,))
            assert check_reports(spec, [report]) == \
                ((True, []) if problem is None else (False, [f"seg: {problem}"]))

    def test_one_sided_guarantees_see_the_opposite_tail(self):
        # every n >= 335 fails, and only the positive tail says so; a
        # guarantee for n <= 400 must report it, and for the mirror n >= -400
        from seifert_lspace import FamilyMember, FamilySpec, SeiferterData, check_reports
        data = SeiferterData(b=-1, r1=F(1, 3), r2=F(1997, 3000),
                             alpha=1, beta=0, alpha3=1, beta3=1)
        for mirrored, kind, bound, text in ((False, GuaranteeKind.N_LE, 400, "[335..400] <= 400"),
                                            (True, GuaranteeKind.N_GE, -400,
                                             "[-400..-335] >= -400")):
            member = FamilyMember(data=data, mirrored=mirrored)
            reports = [classify_family(member)]

            def check(bound):
                spec = FamilySpec("eps", "", (), Guarantee(kind, bound), (member,))
                return check_reports(spec, reports)

            assert check(bound) == (False, [f"eps: fails at n={text}"])
            assert check(-334 if mirrored else 334) == (True, [])
            # a bound at the tail's finite end meets it in one index
            end, op = (-335, ">=") if mirrored else (335, "<=")
            assert check(end) == (False, [f"eps: fails at n=[{end}] {op} {end}"])

    def test_failing_indices_merge_into_ranges(self):
        # n >= 335 fails.  The report names the failing tail alone, also
        # where a window shows its first members; split into single members
        # 335..340 and a tail from 341, its failures read as ranges, not one
        # index at a time
        from seifert_lspace import (FamilyMember, FamilyReport, FamilySpec, SeiferterData,
                                    check_reports)
        from seifert_lspace.twist import evaluate_point
        data = SeiferterData(b=-1, r1=F(1, 3), r2=F(1997, 3000),
                             alpha=1, beta=0, alpha3=1, beta3=1)

        def split(member, lo, hi):
            # the report, and its rows with lo..hi, where the failing tail
            # begins, cut out of the tail as singles
            report = classify_family(member)
            singles = tuple(evaluate_point(member, n) for n in range(lo, hi + 1))
            assert not any(p.verdict.is_lspace for p in singles)
            tn, *rows, tp = report.rows
            if member.mirrored:
                assert tn.to_n == hi and not tn.is_lspace
                rows = (tn._replace(to_n=lo - 1), *singles, *rows, tp)
            else:
                assert tp.from_n == lo and not tp.is_lspace
                rows = (tn, *rows, *singles, tp._replace(from_n=hi + 1))
            return report, FamilyReport(report.member, rows)

        member = FamilyMember(data=data)
        spec = FamilySpec("eps", "", (), Guarantee(GuaranteeKind.N_GE, 0), (member,))
        report, with_singles = split(member, 335, 340)
        assert check_reports(spec, [report]) == (False, [
            "eps: positive tail not certified L-space"])
        assert check_reports(spec, [with_singles]) == (False, [
            "eps: fails at n=[335..340] >= 0", "eps: positive tail not certified L-space"])
        # overlapping and adjacent ranges of points and segments join
        assert _merged([(7, 7), (1, 3), (4, 4), (2, 5), (9, 12), (10, 10), (13, 13)]) \
            == [(1, 5), (7, 7), (9, 13)]
        mirror = FamilyMember(data=data, mirrored=True)
        spec = FamilySpec("eps", "", (), Guarantee(GuaranteeKind.N_LE, 0), (mirror,))
        assert check_reports(spec, [split(mirror, -340, -335)[1]])[1][0] \
            == "eps: fails at n=[-340..-335] <= 0"
        # the failing tail joins the failing singles next to it
        for member, kind, bound, window, text in (
                (member, GuaranteeKind.N_LE, 400, (335, 340), "[335..400] <= 400"),
                (mirror, GuaranteeKind.N_GE, -400, (-340, -335), "[-400..-335] >= -400")):
            spec = FamilySpec("eps", "", (), Guarantee(kind, bound), (member,))
            for r in split(member, *window):
                assert check_reports(spec, [r]) == (False, [f"eps: fails at n={text}"])

    def test_exceptions_in_a_tail_are_checked(self):
        # n = 5 lies in the positive tail of the windowless report, but it is
        # an L-space, so it is no exception, whatever the window
        from seifert_lspace import FamilySpec, check_reports
        members = unknot_seiferter_family(-1, 3).members
        spec = FamilySpec("x", "", (), Guarantee(GuaranteeKind.ALL_N_EXCEPT, exceptions=(5,)),
                          members)
        assert classify_family(members[0]).tail_pos.from_n <= 5
        want = (False, ["x: failures [] != expected [5]"])
        assert check_guarantee(spec) == want
        assert check_reports(spec, [classify_family(members[0])]) == want

    def test_windowless_reports_match_pointwise_verdicts(self):
        from seifert_lspace import FamilyMember, SeiferterData
        alpha0 = [SeiferterData(b=b, r1=F(1, 3), r2=r2, alpha=0, beta=-1, alpha3=1, beta3=0)
                  for b in (-2, -1, 0) for r2 in (F(1, 2), F(2, 3))]
        members = [m for spec in catalog() for m in spec.members]
        members += [FamilyMember(data=d, mirrored=mirrored, offset=7)
                    for d in alpha0 for mirrored in (False, True)]
        kinds = set()
        for member in members:
            report = classify_family(member)
            if member.rp2:
                kinds.add("rp2")
            elif member.data.alpha == 0:
                kinds.add("alpha0-s2xs1" if len(report.rows) > 1 else "alpha0")
            for n in range(-200, 201):
                want = decide(fraction_member_point(member, n)[1]).is_lspace
                assert report.lspace_at(n) is want, (member, n)
        assert kinds == {"rp2", "alpha0", "alpha0-s2xs1"}

    @pytest.mark.parametrize("spec", catalog(), ids=lambda s: s.name)
    def test_family_run_checks_what_check_guarantee_checks(self, spec, capsys):
        import json

        from seifert_lspace.cli import main
        rc = main(["family", "run", spec.name, "--window=-50..50", "--json"])
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        assert (outputs["guarantee_confirmed"], outputs["problems"]) == check_guarantee(spec)
        assert rc == 0

    def test_catalog_is_built_once(self):
        assert catalog() is catalog()

    def test_find_family(self):
        assert find_family("tunnel2-A").name == "tunnel2-A"
        assert find_family("K(3,2;5,n)").name == "K(3,2;5,n)"
        # a kind that takes no parameters, in any case
        for name in ("tunnel2-a", "TUNNEL2-A", "Tunnel2-b"):
            assert find_family(name) == find_family("tunnel2-" + name[-1].upper())
        # a substring of several catalog names is ambiguous, and the error
        # names them all
        with pytest.raises(ValueError, match=r"^ambiguous family 'tunnel2': tunnel2-A, "
                                             r"tunnel2-B$"):
            find_family("tunnel2")
        with pytest.raises(ValueError, match=r"'unknot': unknot\[m=0,p=3\], "
                                             r"unknot\[m=-1,p=3\], unknot\[m=-3,p=5\]$"):
            find_family("unknot")
        with pytest.raises(KeyError):
            find_family("no-such-family")
        # a kind that takes parameters, named without them, names them
        for name, params in (("p+q", "p, q"), ("K4P1", "p"), ("berge-vii", "a, b")):
            with pytest.raises(PreconditionFailed, match=rf"^family kind '{re.escape(name)}' "
                                                         rf"takes parameters {params}; use "
                                                         r"--params$"):
                find_family(name)


class TestRecords:
    """Guarantee, FamilySpec and TorusKnotDegenerate are NamedTuples: the
    reprs the CLI prints, immutable fields, and equality by value, which as
    tuples includes plain tuples of the same fields."""

    def test_guarantee_reprs(self, capsys):
        from seifert_lspace.cli import main
        assert [repr(g) for g in (ALL_N, N_GE_M1, Guarantee(GuaranteeKind.N_LE, 2),
                                  Guarantee(GuaranteeKind.ALL_N_EXCEPT, exceptions=(0,)))] == [
            "L-space for all n", "L-space for n >= -1", "L-space for n <= 2",
            "L-space for all n except [0]"]
        assert main(["family", "list"]) == 0
        out = capsys.readouterr().out
        assert [line[25:53].rstrip() for line in out.splitlines()] == \
            [repr(s.guarantee) for s in catalog()]
        assert main(["family", "run", "unknot[m=0,p=3]", "--window=0..0"]) == 0
        assert "claimed: L-space for all n except [0]  -> confirmed" in capsys.readouterr().out

    def test_fields_and_equality(self):
        spec = build_family("berge-vii", a=2, b=3)
        degenerate = build_family("berge-vii", a=1, b=2)
        assert degenerate == TorusKnotDegenerate(1, 2) == (1, 2)
        assert repr(degenerate) == "TorusKnotDegenerate(a=1, b=2)"
        assert (spec.name, spec.params, spec.guarantee) == \
            ("berge-VII[a=2,b=3]", (("a", 2), ("b", 3)), Guarantee(GuaranteeKind.N_LE, 2))
        assert repr(spec).startswith("FamilySpec(name='berge-VII[a=2,b=3]', description=")
        assert spec == build_family("berge-vii", a=2, b=3) and hash(spec) == hash(tuple(spec))
        assert ALL_N == (GuaranteeKind.ALL_N, None, ())
        for obj, name in ((spec, "members"), (degenerate, "a"), (ALL_N, "kind")):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)


class TestBuildFamily:
    def test_kinds_cover_catalog_shapes(self):
        assert {"p+q", "p-q", "unknot", "spor-a", "berge-vii", "em-rp2"} <= set(family_kinds())
        spec = build_family("p+q", p=7, q=3)
        assert spec.members[0].data.l == 10 and spec.members[0].data.m == 21
        spec = build_family("unknot", m=-2, p=5)
        assert spec.members[0].data.l == 7
        assert isinstance(build_family("berge-vii", a=1, b=2), TorusKnotDegenerate)
        with pytest.raises(KeyError):
            build_family("nope", p=1)

    def test_missing_parameter_names_the_kinds_parameters(self):
        with pytest.raises(PreconditionFailed) as err:
            build_family("p+q", p=7)
        assert str(err.value) == "family kind 'p+q' takes parameters p, q"

    def test_unknown_parameter_names_the_kinds_parameters(self):
        with pytest.raises(PreconditionFailed) as err:
            build_family("unknot", m=-2, p=5, q=1)
        assert str(err.value) == "family kind 'unknot' takes parameters m, p"
        with pytest.raises(PreconditionFailed) as err:
            build_family("tunnel2-a", p=1)
        assert str(err.value) == "family kind 'tunnel2-a' takes parameters none"

    def test_catalog_has_one_source(self):
        # every catalog spec is rebuilt, equal, by a kind from its own
        # params, and the parameters of every kind are the keys of its specs
        def rebuilds(kind, spec):
            try:
                return build_family(kind, **dict(spec.params)) == spec
            except PreconditionFailed:
                return False

        specs_of = {kind: [] for kind in family_kinds()}
        for spec in catalog():
            kinds = [kind for kind in family_kinds() if rebuilds(kind, spec)]
            assert kinds, spec.name
            for kind in kinds:
                specs_of[kind].append(spec)
        for kind, specs in specs_of.items():
            assert specs, kind
            for spec in specs:
                assert _parameters(_KINDS[kind]) == tuple(name for name, _ in spec.params), \
                    (kind, spec.name)

    def test_built_families_check_out(self):
        for kind, params in (("p+q", {"p": 7, "q": 3}), ("spor-b", {"p": 2}),
                             ("unknot", {"m": -2, "p": 5}), ("em-rp2", {"l": -3})):
            spec = build_family(kind, **params)
            ok, problems = check_guarantee(spec)
            assert ok, problems
