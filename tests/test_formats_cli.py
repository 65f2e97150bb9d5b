"""Text grammar, JSON round-trips, CLI verbs and exit codes."""

import argparse
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import sys
import time
import tracemalloc
from contextlib import contextmanager, redirect_stdout
from copy import deepcopy
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seifert_lspace import INF, Base, SeifertForm, formats, normalize
from seifert_lspace.cli import MAX_WINDOW, _window, build_parser, main
from seifert_lspace.corpus import CASES, Case, run_corpus
from seifert_lspace.families import catalog, family_kinds
from seifert_lspace.formats import ParseError, dumps, form_json, parse_form, rational_json
from seifert_lspace.lspace import decide
from seifert_lspace.rationals import int_text
from seifert_lspace.seifert import classify
from seifert_lspace.twist import FamilyMember, PointVerdict, SeiferterData, evaluate_point

import sweep
from oracles import add_approx, fraction_parse_form, point_json, points, scan_lines


def F(n, d=1):
    return Fraction(n, d)


# the epsilon = 10^-3 scan over 2 * 10^4 indices
_SCAN = ["twist-scan", "--b", "-1", "--r1", "1/3", "--r2", "1997/3000", "--alpha", "1",
         "--beta", "0", "--alpha3", "1", "--beta3", "1", "--window=-20000..0"]


def _traced_peak(argv) -> int:
    """The peak of the memory tracemalloc traces while ``main(argv)``
    prints to os.devnull; main must exit 0."""
    with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def _str_all(values) -> list:
    """[str(x) for x in values], with sys.get_int_max_str_digits() lifted
    while it runs where the interpreter has that limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return [str(x) for x in values]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class TestGrammar:
    def test_basic_forms(self):
        assert parse_form("SFS[S2; -2; 2/3, 2/3, 2/3]") == \
            normalize(-2, (F(2, 3),) * 3)
        assert parse_form("SFS[RP2]") == SeifertForm(base=Base.RP2)
        assert parse_form("SFS[S2; 4]") == normalize(4, ())

    def test_raw_slopes_are_normalized(self):
        assert parse_form("SFS[S2; 0; 5/3, 1/2]") == normalize(0, (F(5, 3), F(1, 2)))

    def test_infinite_slopes(self):
        f = parse_form("SFS[S2; 3; 1/2, 2/3, inf]")
        assert f.degenerate == 1
        assert parse_form("SFS[S2; 3; 1/2, 1/0]") == parse_form("SFS[S2; 3; 1/2, -1/0]")
        assert parse_form("SFS[S2; 3; 1/2, 1/00]") == parse_form("SFS[S2; 3; 1/2, -7/000]") \
            == parse_form("SFS[S2; 3; 1/2, inf]")

    def test_whitespace_tolerated(self):
        assert parse_form("  SFS[ S2 ; -1 ; 1/2 , 2/3 ]  ") == \
            normalize(-1, (F(1, 2), F(2, 3)))

    def test_errors_carry_positions(self):
        huge = "9" * 5000
        for text in ("SFS[S2; x]", "SFS(S2; 1)", "SFS[S2; 1; 1/2,]",
                     "SFS[T2; 1]", "SFS[S2; 1; 0/0]", "SFS[S2; 1] junk",
                     "SFS[S2; 1; 00/0]", "SFS[S2; 1; -00/0]", "SFS[S2; 1; 1/2, -0/000]",
                     f"SFS[S2; {huge}; 1/2]", f"SFS[S2; 1; 1/{huge}]",
                     f"SFS[S2; 1; 1/2, -{huge}]"):
            with pytest.raises(ParseError) as err:
                parse_form(text)
            assert err.value.pos >= 0
            assert "^" in err.value.annotate()
        with pytest.raises(ParseError, match="integer too long") as err:
            parse_form(f"SFS[S2; 1; 1/2, -{huge}]")
        assert err.value.pos == len("SFS[S2; 1; 1/2, ")

    digits = st.text("0123456789", min_size=1, max_size=3)
    integers = st.builds("{}{}".format, st.sampled_from(["", "-"]), digits)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        # token soup: mostly rejected, at every position
        st.lists(st.sampled_from(["SFS", "S2", "RP2", "inf", "-", "/", "[", "]", ";",
                                  ",", " ", "x", "Q", "s2", "é", "\t", "\u00a0", "\u0663"]
                                 + list("0123456789")), max_size=24).map("".join),
        # grammar-shaped: mostly accepted, with raw, zero and degenerate slopes
        st.builds("SFS[S2; {}; {}]".format, integers,
                  st.lists(st.builds("{}/{}".format, integers, digits) | integers
                           | st.just("inf"), max_size=5).map(", ".join))))
    def test_fuzz_gives_form_or_parse_error(self, text):
        # the same form, or the same error at the same place, as the
        # Fraction-based parser
        _assert_parses_like_fraction_parser(text)
        try:
            f = parse_form(text)
        except ParseError as err:
            assert 0 <= err.pos <= len(text)
            return
        assert isinstance(f, SeifertForm)
        assert parse_form(repr(f)) == f

    def test_matches_fraction_parser_on_seeded_forms(self):
        # raw slopes with integer parts and numerators up to 10^20,
        # unreduced, integral, degenerate and 0/0 slopes, odd spacing, and a
        # corrupted character in some texts
        rng = random.Random(6)
        space = ("", " ", "  ", "\t", "\n", "\u2003")

        def num():
            return str(rng.randint(-10 ** rng.choice((1, 3, 20)), 10 ** rng.choice((1, 3, 20))))

        def slope():
            u = rng.random()
            if u < 0.05:
                return rng.choice(("inf", "1/0", "-3/00", "0/0", "0"))
            return num() if u < 0.15 else f"{num()}/{rng.randint(0, 10 ** rng.choice((1, 3, 20)))}"

        for _ in range(5000):
            parts = ["SFS", "[", "S2", ";", num(), ";"]
            for i in range(rng.randint(0, 4)):
                parts += ([","] if i else []) + [slope()]
            parts.append("]")
            if rng.random() < 0.03:
                parts[2:] = ["RP2", "]"]
            text = "".join(rng.choice(space) + p for p in parts) + rng.choice(space)
            if rng.random() < 0.1:
                i = rng.randrange(len(text) + 1)
                text = text[:i] + rng.choice("x,;/-[]é7 ") + text[i:]
            _assert_parses_like_fraction_parser(text)

    def test_round_trip_through_repr(self):
        for text in ("SFS[S2; -2; 2/3, 2/3, 2/3]", "SFS[RP2]", "SFS[S2; 4]",
                     "SFS[S2; 3; 1/2, 2/3, inf]"):
            f = parse_form(text)
            assert parse_form(repr(f)) == f

    def test_many_slopes_sort_like_fractions(self):
        # one sort by cross-multiplication, not an insertion per slope:
        # 20,000 slopes, with integer parts and integral and degenerate
        # ones, in the order sorted(key=Fraction) gives their remainders
        rng = random.Random(15)
        slopes = [F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4)) for _ in range(20000)]
        text = "SFS[S2; 0; " + ", ".join(f"{r.numerator}/{r.denominator}" for r in slopes) + ", inf]"
        t0 = time.perf_counter()
        f = parse_form(text)
        dt = time.perf_counter() - t0
        assert f.pairs == tuple(sorted(((r % 1).as_integer_ratio() for r in slopes if r % 1),
                                       key=lambda pq: F(*pq)))
        assert (f.b, f.degenerate) == (sum(math.floor(r) for r in slopes), 1)
        assert dt < 5.0, f"20,000 slopes parsed in {dt:.2f} s (budget 5 s)"
        # the oracle sorts by insertion, so it is compared at a few hundred
        _assert_parses_like_fraction_parser(text[:text.index(",", 3000)] + "]")

    def test_rejection_is_linear(self):
        text = "SFS[S2; 1; " + "1/2 , " * 10 ** 5 + "x]"
        t0 = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_form(text)
        dt = time.perf_counter() - t0
        assert (err.value.message, err.value.pos) == ("expected a slope", 600011)
        assert dt < 10.0, f"10^5-slope rejection in {dt:.2f} s (budget 10 s)"


def _python_calls(fn, *args) -> list:
    """The names of the Python-level functions fn(*args) calls, itself
    included, in order: the "call" events of a profile, which C functions
    do not raise."""
    names, before = [], sys.getprofile()

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(before)
    return names[1:]  # the first is fn's own call


class TestTextToVerdictCalls:
    """A gate on the count of Python-level calls from a form's text to its
    verdict's JSON, with no wall clock: a call costs about as much as the
    arithmetic of a small form's decision."""

    @staticmethod
    def calls(text):
        return _python_calls(lambda: formats.verdict_json(decide(parse_form(text))))

    def test_three_fibers_no_witness(self):
        # 13 calls before decide sent a three-fiber form straight to
        # _decide_small, with no classify, h1_order or property reads
        for b in (0, 3, -3, -7):
            names = self.calls(f"SFS[S2; {b}; 1/2, 1/3, 1/5]")
            assert len(names) <= 6, names
        # b = -1 with no witness: the witness search ends at its first test
        names = self.calls("SFS[S2; -1; 1/2, 2/3, 3/4]")
        assert len(names) <= 8, names
        assert not {"classify", "h1_order", "_decide_classified"} & set(names)

    def test_witness(self):
        # 18 calls with the dataclass witness's __init__ and __post_init__
        for text in ("SFS[S2; -1; 1/3, 1/3, 1/3]", "SFS[S2; -1; 1/7, 1/3, 1/2]",
                     "SFS[S2; -2; 2/3, 2/3, 2/3]"):
            names = self.calls(text)
            assert len(names) <= 9 and "__init__" not in names, (text, names)

    def test_integral_fourth_slope_sorts_by_insertion(self):
        # 21 calls, six of them cmp_to_key's lambda, before four raw slopes
        # were sorted by insertion
        for text in ("SFS[S2; -3; 2, 3/4, 2/3, 1/2]", "SFS[S2; -3; 1/2, 3/4, 2/3, 2]",
                     "SFS[S2; -2; 5/4, 2/3, -1/2, 1]"):
            names = self.calls(text)
            assert "<lambda>" not in names and len(names) <= 9, (text, names)

    def test_other_forms_are_classified(self):
        for text in ("SFS[RP2]", "SFS[S2; 0; 1/2, inf]", "SFS[S2; -1; 1/2, 1/2]"):
            assert "classify" in self.calls(text), text


def _assert_parses_like_fraction_parser(text):
    try:
        want = fraction_parse_form(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            parse_form(text)
        assert (got.value.message, got.value.pos) == (err.message, err.pos), text
        return
    # the one grammar: a text the oracle takes is one _FORM match, so
    # parse_form reads it without walking its tokens
    assert formats._FORM.fullmatch(text), text
    f = parse_form(text)
    assert f == want and repr(f) == repr(want), text


class TestJson:
    def test_rational_round_trip(self):
        for x in (F(2, 3), F(-25, 6), F(10 ** 40 + 1, 10 ** 30 + 3)):
            assert rational_json(x) == {"num": x.numerator, "den": x.denominator}

    def test_infinite_encoding(self):
        assert rational_json(INF) == {"num": 1, "den": 0}

    def test_form_round_trip_bit_exact(self):
        big = F(10 ** 30 + 1, 2 * 10 ** 30 + 1)
        f = normalize(-7, (big, F(1, 2), INF))
        obj = json.loads(json.dumps(form_json(f)))
        assert SeifertForm(base=Base(obj["base"]), b=obj["b"],
                           pairs=tuple((r["num"], r["den"]) for r in obj["slopes"]),
                           degenerate=obj["degenerate"]) == f

    def test_float_mode_only_adds_approx(self):
        # dumps with approx writes an approx on each finite pair a float
        # holds, and nothing on the infinite pair, the pair past the float
        # range or anything that is not a pair; the payload is left as it is
        big = {"num": 10 ** 400, "den": 1}
        payload = {"x": rational_json(F(2, 3)), "inf": rational_json(INF), "n": 3,
                   "l": [rational_json(F(-25, 6)), big, "num"], "none": rational_json(None)}
        want = {"x": {"num": 2, "den": 3, "approx": 2 / 3},
                "inf": {"num": 1, "den": 0}, "n": 3,
                "l": [{"num": -25, "den": 6, "approx": -25 / 6},
                      {"num": 10 ** 400, "den": 1}, "num"],
                "none": None}
        assert dumps(payload, approx=True) == json.dumps(want, indent=2)
        assert payload["x"] == {"num": 2, "den": 3}
        assert dumps(payload) == json.dumps(payload, indent=2)


def _random_points(rng):
    """(points whose ints all have under 4300 digits, points with longer
    ones): members of random seiferters, mirrored and offset, rp2 members,
    and forms picked for their shapes, each with its verdict."""
    points = []
    for _ in range(150):
        if rng.random() < 0.1:
            alpha, beta, alpha3, beta3 = 1, rng.randint(-6, 6), 0, 1  # degenerate fiber
        else:
            alpha3 = rng.choice([1, 2, 3, 5, rng.randint(1, 40)])
            alpha = rng.choice([0, rng.randint(-9, 9)])
            if math.gcd(alpha, alpha3) != 1:
                continue
            beta3 = (pow(alpha, -1, alpha3) if alpha3 > 1 else 0) + alpha3 * rng.randint(-4, 4)
            beta = (alpha * beta3 - 1) // alpha3
        d1 = rng.randint(2, 12)
        r1 = F(rng.randint(1, d1 - 1), d1)
        r2 = 1 - r1 if rng.random() < 0.2 else F(rng.randint(1, 10), 11)
        data = SeiferterData(b=rng.randint(-5, 4), r1=r1, r2=r2, alpha=alpha, beta=beta,
                             alpha3=alpha3, beta3=beta3, m=rng.randint(-50, 50),
                             l=rng.randint(0, 5))
        member = FamilyMember(data=data, mirrored=rng.random() < 0.5,
                              offset=rng.randint(-20, 20))
        pole = -member.offset
        for n in (pole - 1, pole, pole + 1, rng.randint(-60, 60), rng.randint(-10 ** 6, 10 ** 6)):
            points.append(evaluate_point(member, n))
    points.append(evaluate_point(FamilyMember(rp2=True), rng.randint(-9, 9)))
    for text in ("SFS[S2; 0; inf, inf]", "SFS[S2; 1; inf]", "SFS[S2; 1; 1/2, inf]",
                 "SFS[S2; 1; 1/2, 2/3, inf]", "SFS[S2; -1; 1/2, 1/2]", "SFS[S2; 4]",
                 "SFS[S2; -2; 2/3, 2/3, 2/3]", "SFS[S2; -1; 1/7, 1/3, 1/2]",
                 "SFS[S2; -1; 1/3, 1/3, 1/2]"):
        form = parse_form(text)
        points.append(PointVerdict(rng.randint(-9, 9), rng.choice([None, 7]), form,
                                   classify(form).tag, decide(form)))
    rng.shuffle(points)
    # n and m_n past 10^4400, and a slope whose num and den have 4400 digits
    N = 10 ** 4400 + rng.randint(0, 10 ** 6)
    huge = [evaluate_point(FamilyMember(data=SeiferterData(
                b=-1, r1=F(1, 3), r2=F(2, 3) - F(1, 1000), alpha=1, beta=0, alpha3=1,
                beta3=1, m=5, l=2), mirrored=mirrored, offset=3), n)
            for mirrored in (False, True) for n in (N, -N)]
    return points, huge


class TestPointLayouts:
    """``dumps`` writes a ``PointVerdict`` as ``point_json`` of it, with
    ``approx`` as ``add_approx`` of that, at any depth."""

    @staticmethod
    def _payload(points):
        return {"points": points, "first": points[0], "last": [points[-1]],
                "deep": [{"window": [-1, 1], "points": points[:5],
                          "slope": {"num": 1, "den": 3}}, points[-5:]]}

    @staticmethod
    def _oracle(o, approx):
        def tree(o):
            if type(o) is PointVerdict:
                return point_json(o)
            if type(o) is dict:
                return {k: tree(v) for k, v in o.items()}
            if type(o) is list:
                return [tree(v) for v in o]
            return o
        t = tree(o)
        return add_approx(t) if approx else t

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_dict_oracle(self, seed):
        points, huge = _random_points(random.Random(seed))
        shapes = {(len(p.form.pairs), p.form.degenerate > 0, p.verdict.witness is not None,
                   p.verdict.witness_is_dual) for p in points}
        assert {(0, True, False, False), (2, True, False, False), (3, False, True, True),
                (3, False, True, False), (3, False, False, False)} <= shapes
        assert any(p.form.base is Base.RP2 for p in points)
        assert any(p.slope is None for p in points if p.form.base is Base.S2)
        with _unlimited_int_digits():
            assert len(str(huge[0].n)) > 4300
            assert max(len(str(q)) for p in huge for _, q in p.form.pairs) > 4300
        for approx in (False, True):
            payload = self._payload(points)
            want = self._oracle(payload, approx)
            got = dumps(payload, approx)
            assert got == dumps(want)
            assert got == json.dumps(want, indent=2)
            payload = self._payload(huge + points[:5])
            assert dumps(payload, approx) == dumps(self._oracle(payload, approx))

    def test_form_text_fills_the_skeleton_of_its_shape(self):
        # the layout writes the text's skeleton, and a point fills in b and
        # the pairs; past 4300 digits they go through int_text
        big = 10 ** 4400 + 7
        forms = [parse_form(text) for text in ("SFS[S2; 3; inf, inf]", "SFS[S2; -4; 2/7, inf]",
                                               "SFS[S2; 1; 1/2, 2/3, inf]", "SFS[RP2]")]
        forms += [SeifertForm(b=big, pairs=((1, big), (3, big))),
                  SeifertForm(b=-big, pairs=((1, 3), (big - 1, big)), degenerate=1)]
        shapes = {(f.base, len(f.pairs), f.degenerate) for f in forms}
        assert {(Base.S2, 0, 2), (Base.S2, 1, 1), (Base.S2, 2, 1), (Base.RP2, 0, 0)} <= shapes
        points = [PointVerdict(-3, None, f, classify(f).tag, decide(f)) for f in forms]
        points += _random_points(random.Random(4))[1]
        for approx in (False, True):
            with _unlimited_int_digits():
                got = json.loads(dumps(points, approx))
                assert len(str(big)) > 4300
            assert [p["seifert_form"]["text"] for p in got] == [repr(p.form) for p in points]
            assert dumps(points, approx) == dumps(self._oracle(points, approx))


class TestStretchWriter:
    """``dumps`` writes the ``Piece``s of a shown window as their members,
    each a piece of one member, would: byte for byte, at any indent, with
    and without ``approx``; and ``report_lines`` writes the window's text
    lines as the former per-member lines of ``oracles.shown`` would."""

    @staticmethod
    def _members(rng):
        """300 seeded seiferters, mirrored and offset, and seiferters whose
        member at n = -offset has Euler number zero, each with windows by
        its pole and by 0; seiferters whose limit slope is a fixed slope
        shifted by an integer, and two whose witness moves with the largest
        slope of the tested triple; the alpha = 0 lens families of the catalog
        and an rp2 member; windows of indices past 10^4400; seiferters whose
        fixed slopes have denominators past 10^4400; and the epsilon = 10^-3
        scan on a window whose pieces hold more than a chunk of members."""
        from test_twist import _huge_seiferter, _random_seiferter
        out = []
        for k in range(300):
            d = _random_seiferter(rng) if k % 3 else _huge_seiferter(rng)
            for mirrored in (False, True):
                member = FamilyMember(data=d, mirrored=mirrored, offset=rng.randint(-9, 9))
                pole = -d.alpha3 // d.alpha if d.alpha else 0
                pole = -pole - member.offset if mirrored else pole - member.offset
                for lo in (pole - rng.randint(0, 12), rng.randint(-40, 20)):
                    out.append((member, lo, lo + rng.randint(0, 24)))
        for _ in range(40):
            # S2(b; r1, r2, u/v) with b + r1 + r2 + u/v = 0 at j = 0
            b = rng.choice([-1, -2])
            r1, r2 = F(rng.randint(1, 6), 7), F(rng.randint(1, 10), 11)
            r3 = -b - r1 - r2
            if not 0 < r3 < 1:
                continue
            u, v = r3.numerator, r3.denominator
            alpha = pow(u, -1, v) if v > 1 else 1
            d = SeiferterData(b=b, r1=min(r1, r2), r2=max(r1, r2), alpha=alpha,
                              beta=(alpha * u - 1) // v, alpha3=v, beta3=u,
                              m=rng.randint(-9, 9), l=rng.randint(0, 3))
            member = FamilyMember(data=d, mirrored=rng.random() < 0.5,
                                  offset=rng.randint(-9, 9))
            lo = -member.offset - rng.randint(0, 5)
            out.append((member, lo, lo + rng.randint(5, 10)))
        for b, r, whole in ((-1, F(1, 3), 0), (-2, F(2, 5), -1), (-1, F(4, 7), 2)):
            # beta/alpha = whole + r: f tends to the shifted fixed slope r
            alpha, beta = r.denominator, whole * r.denominator + r.numerator
            # beta * alpha3 = -1 mod alpha makes the determinant one
            alpha3 = -pow(beta, -1, alpha) % alpha + alpha * rng.randint(0, 3)
            beta3 = (1 + beta * alpha3) // alpha
            d = SeiferterData(b=b, r1=r, r2=F(5, 6), alpha=alpha, beta=beta, alpha3=alpha3,
                              beta3=beta3, m=1, l=2)
            for mirrored in (False, True):
                out.append((FamilyMember(data=d, mirrored=mirrored), -60, 60))
        for b, r1, r2 in ((-1, F(1, 10), F(1, 5)), (-2, F(4, 5), F(9, 10))):
            # f(j) = 1/(j + 1) is the largest of the tested triple for
            # j = 1..3, and the simplest fraction in (1/5, 1 - f(j)) moves
            d = SeiferterData(b=b, r1=r1, r2=r2, alpha=1, beta=0, alpha3=1, beta3=1, l=1)
            out.append((FamilyMember(data=d), -3, 20))
        lens = next(s for s in catalog() if s.name == "unknot[m=0,p=3]").members[0]
        assert lens.data.alpha == 0
        lens3 = FamilyMember(data=SeiferterData(b=-1, r1=F(1, 2), r2=F(1, 3), alpha=0, beta=-1,
                                                alpha3=1, beta3=0))
        out += [(lens, -30, 30), (lens3, -6, 6), (FamilyMember(rp2=True), -4, 4)]
        N = 10 ** 4400
        for member, _, _ in out[:40:4]:
            out.append((member, N, N + 3))
            out.append((member, -N - 3, -N))
        for b, r1, r2 in ((-1, F(1, 3), F(N, N + 1)), (-2, F(1, N + 1), F(N - 1, N + 1))):
            d = SeiferterData(b=b, r1=r1, r2=r2, alpha=1, beta=0, alpha3=1, beta3=1, m=5, l=2)
            for mirrored in (False, True):
                out.append((FamilyMember(data=d, mirrored=mirrored, offset=3), -12, 12))
        d = SeiferterData(b=-1, r1=F(1, 3), r2=F(1997, 3000), alpha=1, beta=0, alpha3=1,
                          beta3=1, m=2, l=1)
        out.append((FamilyMember(data=d), -700, 400))
        return out

    @staticmethod
    def _cut(member, rows, members) -> set:
        """The kinds of cut between two neighbouring rows of a window, from
        the last member of the left and the first of the right: the pole (a
        single, or between them), an integer f(n) or an integer crossing,
        the Euler-zero member, an S3 lens member, a threshold boundary, or
        the moving pair crossing r1 or r2."""
        from seifert_lspace.twist import Piece
        (r, s), a, b = rows, members[0][-1], members[1][0]
        kinds = set()
        for p in (a, b):
            if p.form.degenerate:
                kinds.add("pole")
            elif p.verdict.reason.value == "InfiniteH1":
                kinds.add("euler")
            elif p.tag.value == "S3":
                kinds.add("S3")
            elif len(p.form.pairs) == 2 and member.data.alpha:
                kinds.add("integer")
        if type(r) is Piece is type(s) and r.slot is not None:
            # f(n) is (beta n + beta3) / (alpha n + alpha3) in the frame
            alpha, alpha3 = member.frame[2], member.frame[4]
            if (alpha * a.n + alpha3) * (alpha * b.n + alpha3) < 0:
                kinds.add("pole")
            elif a.form.b != b.form.b:
                kinds.add("integer")
            else:
                if a.verdict.is_lspace != b.verdict.is_lspace and "euler" not in kinds:
                    kinds.add("threshold")
                kinds |= {(2, 1): {"r2"}, (1, 0): {"r1"}, (2, 0): {"r1", "r2"}}.get(
                    (r.slot, s.slot), set())
        return kinds

    def test_chunks_convert_each_value_once(self, monkeypatch):
        # range columns of steps up to 3 either way beside n, overlapping,
        # apart and equal, over one to three chunks, near 0 (where they are
        # cut from the table of small ints' texts), across the table's top
        # and far past it: each chunk gives each column the texts of its own
        # values, and converts no value of a step twice, unless a third part
        # of that step overlaps two apart
        from seifert_lspace.twist import Piece
        rng, texts, converted = random.Random(7), formats._texts, []
        monkeypatch.setattr(formats, "_texts", lambda r: converted.append(r) or texts(r))
        for _ in range(1500):
            lo = rng.choice((0, formats._SMALL, 10 ** 6)) + rng.randint(-30, 30)
            size = rng.choice((1, 2, 5, 9, 256, 257, 600))
            columns = [None] * 6
            for j in rng.sample(range(4), rng.randint(0, 4)):
                step, start = rng.choice((1, 2, 3, -1, -2, -3)), lo + rng.randint(-12, 12)
                columns[j] = range(start, start + step * size, step) if size > 1 else None
            cols = dict(zip("nmbpd", (range(lo, lo + size), *columns)))
            converted.clear()
            i = 0
            for n, got in formats._chunks(Piece(None, lo, lo + size - 1, None, None), columns):
                want = {c: texts(col[i:i + n]) for c, col in cols.items() if col is not None}
                assert got == want, (lo, size, columns)
                values = [(r.step, v) for r in converted for v in r]
                parts = [col[i:i + n] for col in cols.values() if col is not None]
                chained = any(x.step == y.step and min(x) > max(y)
                              and sum(z.step == x.step for z in parts) > 2
                              for x in parts for y in parts)
                assert chained or len(values) == len(set(values)), (lo, size, columns)
                converted.clear()
                i += n
            assert i == size

    _STEPS = (1, 2, 3, 1000, -1, -2, -3, -1000)

    @settings(max_examples=300, deadline=None)
    # descending ranges that end at the table's first text, -4096, with the
    # stop one step past it at -4097 (which as a slice stop would wrap) and
    # below; and ranges that end at its last, 4095, and one past it
    @example([(-4096, 2, 3, -1)])
    @example([(-4096, 6, 3, -3), (-4096, 4, 3, -2)])
    @example([(4095, -2, 3, 1), (4095, -1, 3, 1), (4095, 0, 2, -1)])
    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from((0, -4096, 4095, 10 ** 6, -10 ** 6)), st.integers(-40, 40),
                  st.integers(0, 60), st.sampled_from(_STEPS)),
        # a text past the digit limit is a slow conversion, so these are short
        st.tuples(st.just(10 ** 4400), st.integers(-5, 5), st.integers(0, 4),
                  st.sampled_from(_STEPS))), min_size=1, max_size=5))
    def test_range_texts_match_str(self, parts):
        # ranges of either step near 0, across either end of the table of
        # small ints' texts, far past it and past the digit limit, empty
        # and of one member, through one runs dict as _chunks passes them
        table, runs = formats._small_texts(), {}
        for centre, offset, size, step in parts:
            part = range(centre + offset, centre + offset + size * step, step)
            assert formats._range_texts(part, runs, table) == _str_all(part), part

    def test_matches_the_point_path(self):
        from seifert_lspace.twist import Piece, Run, classify_family
        rng = random.Random(1)
        shapes, kinds, cuts = set(), set(), set()
        for member, lo, hi in self._members(rng):
            report = classify_family(member)
            rows = [r for r in report.pieces(lo, hi) if type(r) is not Run]
            members = [[evaluate_point(member, n) for n in range(r.lo, r.hi + 1)]
                       if type(r) is Piece else [r] for r in rows]
            oracle = [p for ps in members for p in ps]
            for r, ps in zip(rows, members):
                if type(r) is not Piece:
                    kinds.add(r.tag.value)
                    # dumps writes a single as a piece of one member, with none
                    single = Piece(None, r.n, r.n, r, None)
                    assert single.columns() == (None,) * 6 and list(points(single)) == [r]
                    continue
                # the expansion of the text lines' oracle is the point path too
                assert list(points(r)) == ps, (member, r)
                v = r.first.verdict
                shapes.add((r.first.form.b, r.slot))
                kinds.update((v.reason.value, r.first.tag.value,
                              "witness" if v.witness else "no witness",
                              "huge" if abs(r.lo) > 10 ** 4300 else "small"))
                if any(q > 10 ** 4300 for _, q in r.first.form.pairs):
                    kinds.add("huge fixed slope")
                if r.hi - r.lo >= formats._CHUNK:
                    kinds.add("chunks")
                if len({p.verdict.witness for p in ps}) > 1:
                    # the slot in the triple _decide_small tests: at base -2
                    # the complements, in reverse order
                    slot = 2 - r.slot if v.witness_is_dual else r.slot
                    kinds.add(f"witness moves at slot {slot}")
                if len({p.verdict.search_bound for p in ps}) > 1:
                    kinds.add("bound moves")
                ranges = [c for c in (range(r.lo, r.hi + 1), *r.columns()[:4]) if c is not None]
                if len(set(ranges)) < len(ranges):
                    # two moving columns are one range, as den is n: the
                    # writers convert it to text once a chunk for both
                    kinds.add("shared texts")
                if any(x != y and x.step == y.step and set(x) & set(y)
                       for x in ranges for y in ranges):
                    # two moving columns overlap, as den = n + 1 and n: the
                    # writers convert their union and slice it
                    kinds.add("overlapping texts")
            for i in range(len(rows) - 1):
                cut = self._cut(member, rows[i:i + 2], members[i:i + 2])
                cuts |= cut
                if type(rows[i]) is Piece is type(rows[i + 1]):
                    # a piece is maximal: its neighbour differs in shape
                    assert cut, (member, rows[i], rows[i + 1])
            depth = rng.randint(0, 2)
            for approx in (False, True):
                got, want = {"points": rows}, {"points": oracle}
                for _ in range(depth):
                    got, want = [got, 1], [want, 1]
                assert dumps(got, approx) == dumps(want, approx), (member, lo, hi, approx)
            # the text lines, member by member, a chunk of lines a text
            lines = "\n".join(formats.report_lines(report, (lo, hi))).split("\n")
            assert lines == list(scan_lines(report, (lo, hi))), (member, lo, hi)
            if any(line.endswith(" (gap exception)") for line in lines):
                kinds.add("gap exception")
        # every shape of the piece layouts, and the members of lens-space
        # and rp2 pieces
        assert {(b, s) for b in (-1, -2) for s in (0, 1, 2)} <= shapes
        assert {"InfiniteH1", "Witness", "DualWitness", "NoWitnessExhaustive", "BLarge",
                "witness", "no witness", "huge", "small", "LensSpace", "S3", "RP2Base",
                "LensNotS2xS1", "witness moves at slot 1", "witness moves at slot 2",
                "bound moves", "gap exception", "huge fixed slope", "chunks",
                "shared texts", "overlapping texts"} <= kinds
        assert {"r1", "r2", "integer", "threshold", "euler", "pole", "S3"} <= cuts


# any code point, with the ones JSON escapes specially drawn often; built from
# integers so that no unicode table has to be computed on a cold cache
json_chars = (st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001F600a')
              | st.integers(0, 0x10FFFF).map(chr))
json_texts = st.lists(json_chars, max_size=8).map("".join)
json_trees = st.recursive(
    st.none() | st.booleans() | st.floats()
    | st.integers() | st.integers(min_value=2 ** 64, max_value=2 ** 200).map(lambda n: -n)
    | st.integers(min_value=2 ** 64, max_value=2 ** 200) | json_texts,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(json_texts, children, max_size=4)),
    max_leaves=12)
# {"num", "den"} pairs, either key first, with den = 0, negative nums and
# values past the float range, and dicts with num, den and a third key, in
# trees of JSON values; every int has under 4,300 digits
pair_ints = st.integers(-10 ** 30, 10 ** 30) | st.sampled_from(
    [0, 10 ** 400, -10 ** 400, 10 ** 4000, -10 ** 4000 - 1])
json_pairs = st.builds(lambda num, den, den_first: ({"den": den, "num": num} if den_first
                                                    else {"num": num, "den": den}),
                       pair_ints, pair_ints, st.booleans())
approx_trees = st.recursive(
    json_pairs | st.none() | st.booleans() | st.floats() | st.integers() | json_texts,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(json_texts, children, max_size=4)
                      | st.builds(lambda pair, key, value: {**pair, key: value}, json_pairs,
                                  json_texts.filter(lambda k: k not in ("num", "den")),
                                  children)),
    max_leaves=12)


class TestDumps:
    @settings(max_examples=100, deadline=None)
    @given(json_trees)
    def test_matches_stdlib_indent_2(self, tree):
        assert dumps(tree) == json.dumps(tree, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(approx_trees)
    def test_float_mode_matches_the_approx_oracle(self, tree):
        # each pair with den != 0 and a value a float holds gains "approx"
        # as its last member, and the tree itself is left as it is
        before = repr(tree)
        assert dumps(tree, approx=True) == json.dumps(add_approx(deepcopy(tree)), indent=2)
        assert repr(tree) == before

    def test_dump_writes_what_dumps_returns(self):
        # more texts than one batch, and a document of one scalar
        tree = {"a": [{"n": k, "s": str(k), "x": None} for k in range(3000)], "b": True}
        for o in (tree, [tree, 10 ** 5000], 7):
            for approx in (False, True):
                fp = io.StringIO()
                formats.dump(o, fp, approx)
                assert fp.getvalue() == dumps(o, approx) + "\n"

    def test_rejects_types_outside_the_cli_payloads(self):
        for bad in (F(1, 2), {1: 2}, {"k": {3}}, (1, 2), {"a": [{"b": {1: "x"}}]},
                    {"a": {"b": {None: 1}}}, [1, (2,)]):
            with pytest.raises(TypeError):
                dumps(bad)

    def test_scalar_members(self):
        # ints past 4300 digits, which json.dumps cannot write, as a dict
        # value and as list items
        big = 7 * 10 ** 5000 + 1
        text = int_text(big)
        assert dumps({"a": big, "b": [-big, 1]}) == \
            '{\n  "a": ' + text + ',\n  "b": [\n    -' + text + ',\n    1\n  ]\n}'
        assert dumps([big]) == "[\n  " + text + "\n]"
        # at the smallest limit Python allows, ints just under it and past
        # it are all written in full: int_text converts those past it by
        # halves
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            edge = [10 ** 639 - 1, -(10 ** 639 - 1), 10 ** 639, 10 ** 640, -10 ** 700]
            assert dumps({"x": edge}) == \
                '{\n  "x": [\n' + ",\n".join("    " + int_text(v) for v in edge) + "\n  ]\n}"
        finally:
            sys.set_int_max_str_digits(limit)
        for tree in (
                {"t": True, "i": 1, "f": 1.0, "l": [True, 1, 1.0, False, 0, 0.0, None, "1"]},
                [True, 1, 1.0, {"t": True, "i": 1, "f": 1.0}],
                {"p": float("inf"), "m": float("-inf"), "n": float("nan"), "z": -0.0,
                 "l": [float("inf"), float("nan")]},
                # keys with format characters, and empty containers
                {"%s": 1, "a%%b": [{"%": "%s", "%(x)s": None}], "": {}, "e": []}):
            assert dumps(tree) == json.dumps(tree, indent=2)

    @pytest.mark.parametrize("argv", [
        ["decide", "SFS[S2; -2; 2/3, 2/3, 2/3]", "--float", "--json"],
        ["h1", "SFS[S2; 0; 2/3, -2/5]", "--json"],
        ["normalize", "SFS[S2; 0; 5/3, 1/2]", "--json"],
        ["threshold", "--float", "--json", "--", "-1", "1/3", "1997/3000"],
        ["twist-scan", "--b", "-1", "--r1", "1/3", "--r2", "1997/3000", "--alpha", "1",
         "--beta", "0", "--alpha3", "1", "--beta3", "1", "--window=-5..5", "--json"],
        ["family", "list", "--json"],
        ["family", "run", "tunnel2-B", "--window=-5..5", "--float", "--json"],
        ["reproduce", "--only", "tunnel2", "--json"],
    ])
    def test_cli_json_is_stdlib_indent_2(self, argv, capsys):
        main(argv)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestCliDecide:
    def test_exit_codes(self, capsys):
        assert main(["decide", "SFS[S2; -2; 2/3, 2/3, 2/3]"]) == 1
        assert main(["decide", "SFS[S2; 1; 1/2, 1/3, 1/7]"]) == 0
        assert main(["decide", "SFS[S2; 0; 1/2, 1/3, 1/5, 1/7]"]) == 2
        assert main(["decide", "SFS[S2; nope]"]) == 2
        capsys.readouterr()

    def test_witness_reported(self, capsys):
        main(["decide", "SFS[S2; -2; 2/3, 2/3, 2/3]", "--json"])
        out = json.loads(capsys.readouterr().out)
        v = out["outputs"]["verdict"]
        assert v["is_lspace"] is False
        assert v["witness"] == {"k": 2, "a": 1}
        assert v["witness_is_dual"] is True

    def test_json_and_text_agree(self, capsys):
        main(["decide", "SFS[S2; -1; 1/7, 1/3, 1/2]", "--json"])
        payload = json.loads(capsys.readouterr().out)
        main(["decide", "SFS[S2; -1; 1/7, 1/3, 1/2]"])
        text = capsys.readouterr().out
        assert payload["outputs"]["verdict"]["witness"] == {"k": 5, "a": 2}
        assert "k=5, a=2" in text

    def test_deterministic_output(self, capsys):
        runs = []
        for _ in range(2):
            main(["decide", "SFS[S2; -1; 1/7, 1/3, 1/2]", "--json"])
            payload = json.loads(capsys.readouterr().out)
            payload.pop("elapsed_ms")
            runs.append(payload)
        assert runs[0] == runs[1]


class TestCliOtherVerbs:
    def test_h1(self, capsys):
        assert main(["h1", "SFS[S2; 0; 2/3, -2/5]"]) == 0
        assert "|H1| = 4" in capsys.readouterr().out
        assert main(["h1", "SFS[S2; -1; 1/2, 1/2]"]) == 0
        assert "infinite" in capsys.readouterr().out

    def test_normalize(self, capsys):
        assert main(["normalize", "SFS[S2; 0; 5/3, 1/2]"]) == 0
        assert "SFS[S2; 1; 1/2, 2/3]" in capsys.readouterr().out

    def test_threshold(self, capsys):
        assert main(["threshold", "--", "-2", "2/3", "2/3"]) == 0
        assert "r <= 1/2" in capsys.readouterr().out

    def test_twist_scan(self, capsys):
        rc = main(["twist-scan", "--b", "-1", "--r1", "2/3", "--r2", "1/3",
                   "--alpha", "0", "--beta", "-1", "--alpha3", "1", "--beta3", "0",
                   "--m", "0", "--l", "3", "--window=-5..5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "S2xS1" in out
        assert "n >= 6" in out
        # r2 = 2/3 - 1/1000: one L-space segment between the window and the
        # not-L-space tail from n = 335
        argv = ["twist-scan", "--b", "-1", "--r1", "1/3", "--r2", "1997/3000",
                "--alpha", "1", "--beta", "0", "--alpha3", "1", "--beta3", "1",
                "--window=-5..5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "segment: L-space for all 6 <= n <= 334" in out
        assert "not an L-space for all n >= 335" in out
        assert main(argv + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)["outputs"]["report"]
        assert [p["n"] for p in report["points"]] == list(range(-5, 6))
        assert report["segments"] == [{
            "from_n": 6, "to_n": 334, "is_lspace": True, "band_base": -1,
            "threshold": {"b": -1, "r1": {"num": 1, "den": 3},
                          "r2": {"num": 1997, "den": 3000}, "kind": "UpClosed",
                          "boundary": {"num": 1, "den": 335}, "attained": True}}]

    def test_float_mode_leaves_out_approx_past_the_float_range(self, capsys):
        # the limit slope 10^400 is beyond the largest float: it keeps its
        # exact num/den and has no approx, while a form's slopes keep theirs
        N = 10 ** 400
        rc = main(["twist-scan", "--b", "-1", "--r1", "1/3", "--r2", "1/2",
                   "--alpha", "1", "--beta", str(N), "--alpha3", "1", "--beta3", str(N + 1),
                   "--window=0..1", "--json", "--float"])

        def strict(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads(capsys.readouterr().out, parse_constant=strict)["outputs"]["report"]
        assert rc == 0
        for tail in (report["tail_pos"], report["tail_neg"]):
            assert tail["limit_slope"] == {"num": N, "den": 1}
        assert report["points"][0]["seifert_form"]["slopes"][0] == {
            "num": 1, "den": 3, "approx": 1 / 3}

    @pytest.mark.parametrize("argv", [
        *(["family", "run", spec.name, "--window=-20..20"] for spec in catalog()),
        *(["twist-scan", "--b", "-1", "--r1", "1/3", "--r2", f"{2 * 10 ** e - 3}/{3 * 10 ** e}",
           "--alpha", "1", "--beta", "0", "--alpha3", "1", "--beta3", "1", "--window=-50..50"]
          for e in range(3, 7))])
    def test_float_is_a_pass_over_the_payload(self, argv, capsys):
        # --float adds approx = num/den to each finite pair (all of these
        # lie in the float range) and changes nothing else
        outputs = []
        for mode in (["--json", "--float"], ["--json"]):
            main(argv + mode)
            outputs.append(json.loads(capsys.readouterr().out)["outputs"])
        with_float, exact = outputs

        def strip(o):
            if isinstance(o, list):
                return [strip(v) for v in o]
            if not isinstance(o, dict):
                return o
            if "num" in o and "den" in o:
                if o["den"] == 0:
                    assert "approx" not in o
                else:
                    assert o.pop("approx") == o["num"] / o["den"]
                assert o.keys() == {"num", "den"}
                return o
            return {k: strip(v) for k, v in o.items()}

        assert strip(with_float) == exact

    def test_twist_scan_rejects_bad_determinant(self, capsys):
        rc = main(["twist-scan", "--b", "-1", "--r1", "2/3", "--r2", "1/3",
                   "--alpha", "2", "--beta", "1", "--alpha3", "1", "--beta3", "2"])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["family", "run", "K(3,2;5,n)"],
        ["twist-scan", "--b", "-1", "--r1", "1/3", "--r2", "1997/3000", "--alpha", "1",
         "--beta", "0", "--alpha3", "1", "--beta3", "1"]])
    def test_window_past_the_limit_exits_2_at_once(self, argv, capsys):
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as err:
            main(argv + ["--window=-1000000000000..1000000000000"])
        assert err.value.code == 2
        assert time.perf_counter() - t0 < 1.0
        assert f"at most {MAX_WINDOW} indices" in capsys.readouterr().err

    @pytest.mark.parametrize("window, reason", [
        ("5..1", "empty window"),
        ("5", "window must look like a..b"),
        ("a..b", "window ends must be integers"),
        # an end past int()'s 4300-digit limit is an integer too long to read
        pytest.param("0.." + "1" * 4400, "window end too long", id="4400-digit-hi"),
        pytest.param("-" + "1" * 4301 + "..0", "window end too long", id="4301-digit-lo")])
    def test_bad_window_names_its_reason(self, window, reason, capsys):
        with pytest.raises(SystemExit) as err:
            main(["family", "run", "tunnel2-A", f"--window={window}"])
        assert err.value.code == 2
        assert f"error: argument --window: {reason}\n" in capsys.readouterr().err

    def test_window_limit_is_inclusive(self):
        assert MAX_WINDOW == 10 ** 6
        assert _window("-500000..499999") == (-500000, 499999)
        with pytest.raises(argparse.ArgumentTypeError):
            _window("-500000..500000")

    def test_family_list_and_run(self, capsys):
        assert main(["family", "list"]) == 0
        out = capsys.readouterr().out
        assert "tunnel2-A" in out and "K(3,2;5,n)" in out
        assert main(["family", "run", "tunnel2-A", "--window=-10..10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outputs"]["guarantee_confirmed"] is True
        assert main(["family", "run", "does-not-exist"]) == 2
        capsys.readouterr()
        # a kind that takes no parameters runs by its name, as its catalog
        # family does
        assert main(["family", "run", "tunnel2-a", "--window=-2..2"]) == 0
        by_kind = capsys.readouterr().out
        assert main(["family", "run", "tunnel2-A", "--window=-2..2"]) == 0
        assert by_kind == capsys.readouterr().out

    def test_family_run_classifies_each_member_once(self, capsys, monkeypatch):
        from seifert_lspace import PointVerdict, classify_family, find_family, twist
        spec = find_family("tunnel2-B")
        gap_points = sum(isinstance(r, PointVerdict) and not -5 <= r.n <= 5
                         for m in spec.members for r in classify_family(m).rows)
        calls = []
        point, columns = twist.evaluate_point, twist.Piece.columns

        def counting_point(member, n):
            calls.append(n)
            return point(member, n)

        def counting_columns(piece):
            calls.extend(range(piece.lo + 1, piece.hi + 1))
            return columns(piece)

        # every member is evaluated once: the singles and the first member
        # of each piece by evaluate_point, the others by their piece's
        # columns; the window's members once each, in text and in JSON
        monkeypatch.setattr(twist, "evaluate_point", counting_point)
        monkeypatch.setattr(twist.Piece, "columns", counting_columns)
        for extra in ([], ["--json"]):
            calls.clear()
            assert main(["family", "run", "tunnel2-B", "--window=-5..5"] + extra) == 0
            capsys.readouterr()
            assert len(calls) == len(spec.members) * 11 + gap_points
            assert set(range(-5, 6)) <= set(calls)

    def test_json_builds_no_text_lines(self, capsys, monkeypatch):
        from seifert_lspace import find_family
        spec = find_family("tunnel2-B")
        reports = []
        report_lines = formats.report_lines

        def counting(report, window):
            reports.append(report)
            return report_lines(report, window)

        # cli writes a report's text lines through formats.report_lines,
        # which the verb imports when it runs
        monkeypatch.setattr(formats, "report_lines", counting)
        argv = ["family", "run", "tunnel2-B", "--window=-5..5"]
        assert main(argv + ["--json"]) == 0
        capsys.readouterr()
        assert reports == []
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(reports) == len(spec.members)
        member_lines = [line for line in out
                        if not line.startswith(("family ", "claimed: ", "member "))]
        assert member_lines == [line for r in reports
                                for text in report_lines(r, (-5, 5))
                                for line in text.split("\n")]

    def test_text_builds_no_json(self, capsys, monkeypatch):
        from seifert_lspace import formats
        # every member's JSON text is written by _write_piece, a single's
        # as a piece of one member
        calls = []
        write_piece = formats._write_piece

        def counting_piece(piece, *args):
            calls.extend(range(piece.lo, piece.hi + 1))
            return write_piece(piece, *args)

        monkeypatch.setattr(formats, "_write_piece", counting_piece)
        argv = ["family", "run", "tunnel2-B", "--window=-5..5"]
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == []
        assert main(argv + ["--json"]) == 0
        capsys.readouterr()
        assert set(range(-5, 6)) <= set(calls)

    def test_json_points_cost_no_recursion(self, capsys, monkeypatch):
        # each point is written into a cached layout: after a warm-up run
        # that derives the layouts, a window 100 times wider makes no more
        # dumps calls
        from seifert_lspace import formats
        calls = []
        inner = formats.dumps

        def counting(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(formats, "dumps", counting)
        counts = []
        for window in ("-1000..1000", "-10..10", "-1000..1000"):
            calls.clear()
            argv = ["family", "run", "tunnel2-B", f"--window={window}", "--json"]
            assert main(argv) == 0
            capsys.readouterr()
            counts.append(len(calls))
        assert counts[1] == counts[2]

    def test_text_scan_streams_its_lines(self):
        # the window's members are evaluated and printed one at a time, so
        # the peak does not grow with the window
        peak = _traced_peak(_SCAN)
        assert peak < 2 * 2 ** 20, peak

    def test_text_scan_builds_its_text_table_within_the_bound(self):
        # the table of small ints' texts, built inside the traced scan, is a
        # fixed cost that the same bound holds
        formats._small_texts.cache_clear()
        peak = _traced_peak(_SCAN)
        assert formats._small_texts.cache_info().currsize == 1
        assert peak < 2 * 2 ** 20, peak

    def test_json_scan_streams_its_pieces(self):
        # each chunk of a piece's members is written as soon as it is
        # joined, so the peak of a --json scan does not grow with the window
        for extra in ([], ["--float"]):
            peak = _traced_peak(_SCAN + ["--json"] + extra)
            assert peak < 3 * 2 ** 20, (extra, peak)

    def test_json_scan_builds_its_text_table_within_the_bound(self):
        for extra in ([], ["--float"]):
            formats._small_texts.cache_clear()
            peak = _traced_peak(_SCAN + ["--json"] + extra)
            assert formats._small_texts.cache_info().currsize == 1
            assert peak < 3 * 2 ** 20, (extra, peak)

    def test_elapsed_ms_covers_the_window(self, capsys, monkeypatch):
        # the window is evaluated and encoded as the envelope is written;
        # elapsed_ms, its last member, is timed when the writer reaches it
        from seifert_lspace import formats
        calls = []
        write_piece = formats._write_piece

        def slow(*args):
            calls.append(1)
            time.sleep(0.05)
            return write_piece(*args)

        monkeypatch.setattr(formats, "_write_piece", slow)
        assert main(["family", "run", "tunnel2-B", "--window=-50..50", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert calls and payload["elapsed_ms"] >= 50 * len(calls), (len(calls), payload)

    def test_decisions_and_layouts_grow_with_pieces_not_windows(self, capsys, monkeypatch):
        # a shown window costs one decision and one split layout per piece:
        # every catalog family over -1000..1000 and the epsilon = 10^-3 scan
        # over 10^5 indices have a few pieces per side of the pole, however
        # wide the window; a single is written as a piece of one member.  In
        # JSON the layout is _piece_layout's, in text _line_layout's, and a
        # form's text is built once per piece and once for each member's
        # limit space line
        from seifert_lspace import formats, twist
        decided, layouts, pieces, reprs = [], [], [], []
        decide_small, cut = twist._decide_small, twist.FamilyReport.pieces
        form_repr = SeifertForm.__repr__

        def counting_decide(*args):
            decided.append(1)
            return decide_small(*args)

        def counting(layout):
            def counting_layout(*args):
                layouts.append(1)
                return layout(*args)
            return counting_layout

        def counting_repr(form):
            reprs.append(1)
            return form_repr(form)

        def counting_pieces(*args):
            # a single counts toward the pieces but not toward the members
            # they show
            for row in cut(*args):
                if type(row) is not twist.Run:
                    pieces.append(row.hi - row.lo + 1 if type(row) is twist.Piece else 0)
                yield row

        monkeypatch.setattr(twist, "_decide_small", counting_decide)
        monkeypatch.setattr(formats, "_piece_layout", counting(formats._piece_layout))
        monkeypatch.setattr(formats, "_line_layout", counting(formats._line_layout))
        monkeypatch.setattr(twist.FamilyReport, "pieces", counting_pieces)
        monkeypatch.setattr(SeifertForm, "__repr__", counting_repr)
        scan = ["twist-scan", "--b", "-1", "--r1", "1/3", "--r2", "1997/3000", "--alpha", "1",
                "--beta", "0", "--alpha3", "1", "--beta3", "1", "--window=-100000..0"]
        runs = [(["family", "run", s.name, "--window=-1000..1000"], len(s.members))
                for s in catalog()] + [(scan, 1)]
        for (argv, count), mode in itertools.product(runs, (["--json"], [])):
            decided.clear(), layouts.clear(), pieces.clear(), reprs.clear()
            assert main(argv + mode) in (0, 1)
            capsys.readouterr()
            # at most six runs a side, each cut at r1 and r2, and the
            # Euler-zero member
            assert len(decided) <= len(layouts) == len(pieces) <= 38 * count, (argv, mode)
            assert len(reprs) <= len(pieces) + count, (argv, mode)
            # the window is shown by its pieces, but for a few singles
            lo, hi = map(int, argv[-1].split("=")[1].split(".."))
            assert sum(pieces) > count * (hi - lo + 1) - 10, (argv, mode)

    def test_each_moving_column_is_converted_once_a_chunk(self, capsys, monkeypatch):
        # both writers take a chunk's texts from _chunks, which converts each
        # moving column once, and a range equal to one it has converted in
        # the chunk, as den is to n along a torus knot's family, not again:
        # every catalog family over -1000..1000 converts at most this many
        # values, where converting each column wherever it is written took
        # 180,903 in JSON and 124,913 in text; and with the range columns of
        # one step converted as their union where they overlap, as den and
        # n do along the alpha = alpha3 = 1 families (den = n + 1), at most
        # the tighter count; and with every range within [-4096, 4096) cut
        # from the table of small ints' texts, at most the tightest
        from seifert_lspace import formats
        texts, chunks = formats._texts, formats._chunks
        converted = [[]]  # the values of each conversion, a list a chunk

        def counting_texts(values):
            values = list(values)
            converted[-1].append(values)
            return texts(values)

        def counting_chunks(*args):
            converted.append([])
            for chunk in chunks(*args):
                yield chunk
                converted.append([])

        monkeypatch.setattr(formats, "_texts", counting_texts)
        monkeypatch.setattr(formats, "_chunks", counting_chunks)
        for mode, bound, tight, tabled in ((["--json"], 116_985, 101_077, 40_678),
                                           ([], 113_933, 98_025, 37_565)):
            converted[:] = [[]]
            for s in catalog():
                assert main(["family", "run", s.name, "--window=-1000..1000"] + mode) in (0, 1)
                capsys.readouterr()
            total = sum(len(v) for chunk in converted for v in chunk)
            assert total <= bound and total <= tight and total <= tabled, (mode, total)
            for chunk in converted:
                assert len({tuple(v) for v in chunk}) == len(chunk), (mode, chunk)

    def test_verbs_back_to_back_in_one_process(self, capsys):
        # main reuses one parser; each call of a verb prints and returns what
        # its first call did, also after a call that argparse rejected
        runs = [["decide", "SFS[S2; -1; 1/7, 1/3, 1/2]"],
                ["threshold", "--", "-1", "2/5", "1/2"],
                ["family", "run", "tunnel2-B", "--window=-5..5"],
                ["reproduce", "--only", "tunnel2"],
                ["family", "run", "K(3,2;5,n)", "--window=-1000000000000..1000000000000"]]
        first = {}
        for argv in runs * 3:
            try:
                rc = main(argv)
            except SystemExit as err:
                rc = err.code
            got = rc, capsys.readouterr()
            assert first.setdefault(tuple(argv), got) == got, argv
        assert [first[tuple(argv)][0] for argv in runs] == [1, 0, 0, 0, 2]
        assert build_parser() is build_parser()

    def test_family_run_with_params(self, capsys):
        assert main(["family", "run", "p+q", "--params", "p=7,q=3",
                     "--window=-3..3"]) == 0
        assert "K(7,3;10,n)" in capsys.readouterr().out
        assert main(["family", "run", "p+q", "--params", "p=7"]) == 2
        assert capsys.readouterr().err == "error: family kind 'p+q' takes parameters p, q\n"
        assert main(["family", "run", "p+q", "--params", "p=7,q=3,r=1"]) == 2
        assert capsys.readouterr().err == "error: family kind 'p+q' takes parameters p, q\n"
        assert main(["family", "run", "berge-vii", "--params", "a=1,b=2"]) == 0
        assert "torus knot" in capsys.readouterr().out

    def test_family_run_rejects_a_repeated_parameter(self, capsys):
        # the second value must not silently replace the first
        for params in ("p=3,p=5,q=2", "p=3,q=2,p=3", "p=3, p =5,q=2"):
            assert main(["family", "run", "p+q", "--params", params]) == 2
            got = capsys.readouterr()
            assert (got.out, got.err) == ("", "error: parameter 'p' given twice\n"), params

    def test_family_run_names_a_parameter_that_is_not_an_integer(self, capsys):
        for params, value in (("p=x,q=2", "'x'"), ("p=1.5,q=2", "'1.5'"), ("p=,q=2", "''")):
            for mode in ((), ("--json",)):
                assert main(["family", "run", "p+q", "--params", params, *mode]) == 2
                got = capsys.readouterr()
                assert (got.out, got.err) == (
                    "", f"error: parameter 'p' must be an integer, not {value}\n"), params
        # what int() reads stays a value: underscores, spaces, other scripts' digits
        for params in ("p=1_0,q=3", "p= 3,q=2", "p=٣,q=2"):
            assert main(["family", "run", "p+q", "--params", params, "--window=0..1"]) == 0
            assert capsys.readouterr().err == "", params

    def test_family_run_names_the_families_an_ambiguous_name_matches(self, capsys):
        assert main(["family", "run", "berge"]) == 2
        got = capsys.readouterr()
        assert (got.out, got.err) == ("", "error: ambiguous family 'berge': berge-spor-a[p=2], "
                                          "berge-spor-b[p=1], berge-spor-c[p=1], "
                                          "berge-spor-d[p=1], berge-VII[a=2,b=3], "
                                          "berge-VIII[a=-2,b=5]\n")
        assert main(["family", "run", "tunnel2", "--json"]) == 2
        assert capsys.readouterr().err == \
            "error: ambiguous family 'tunnel2': tunnel2-A, tunnel2-B\n"
        # one match, and a kind that takes no parameters, still run
        for name in ("spor-d", "tunnel2-b"):
            assert main(["family", "run", name, "--window=0..1"]) == 0, name
            capsys.readouterr()

    def test_family_run_with_30_digit_params(self, capsys):
        # the base form is solved for, not searched for among p*q pairs
        p = 10 ** 29
        assert main(["family", "run", "p+q", "--params", f"p={p},q={p + 1}", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["outputs"]["guarantee_confirmed"]

    def test_family_run_degenerate_params_json(self, capsys):
        assert main(["family", "run", "berge-vii", "--params", "a=1,b=2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("elapsed_ms")
        assert payload == {"command": "family",
                           "inputs": {"name": "berge-vii", "window": [-50, 50]},
                           "outputs": {"degenerate": True, "torus_knot": {"a": 1, "b": 2}}}


@contextmanager
def _unlimited_int_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class TestHugeIntegers:
    """Answers whose integers exceed Python's 4300-digit string-conversion
    limit are printed in full; the CLI runs under the default limit and the
    check reads its output with the limit lifted."""

    def test_decide_and_h1_print_the_exact_order(self, capsys):
        d1, d3, d7 = (int("1" + "0" * 1500 + k) for k in "137")
        form = f"SFS[S2; -1; 1/{d1}, 1/{d3}, 1/{d7}]"
        h1 = abs(d1 * d3 * d7 - d3 * d7 - d1 * d7 - d1 * d3)
        rc = main(["decide", form, "--json"])
        out = capsys.readouterr().out
        assert rc in (0, 1)
        assert main(["decide", form]) == rc
        text = capsys.readouterr().out
        assert main(["h1", form]) == 0
        h1_text = capsys.readouterr().out
        with _unlimited_int_digits():
            assert len(str(h1)) > 4300
            assert json.loads(out)["outputs"]["classification"]["h1"] == h1
            assert f", |H1| = {h1}\n" in text
            assert h1_text.endswith(f"|H1| = {h1}\n")

    def test_normalize_prints_the_exact_section_term(self, capsys):
        nines = "9" * 4300
        form = f"SFS[S2; {nines}; {nines}]"
        # b = 2 * (10^4300 - 1), one digit past the limit
        b_text = "1" + "9" * 4299 + "8"
        assert main(["normalize", form]) == 0
        assert capsys.readouterr().out == f"SFS[S2; {b_text}]\n"
        assert main(["normalize", form, "--json"]) == 0
        out = capsys.readouterr().out
        with _unlimited_int_digits():
            got = json.loads(out)["outputs"]["form"]
        assert got["b"] == 2 * (10 ** 4300 - 1)
        assert got["text"] == f"SFS[S2; {b_text}]"


    def test_twist_scan_text_prints_slopes_past_the_limit(self, capsys):
        # m_n = m + n*l^2 has 4401 digits at n = 1
        l = 10 ** 2200
        rc = main(["twist-scan", "--b", "3", "--r1", "1/2", "--r2", "2/3", "--alpha", "1",
                   "--beta", "0", "--alpha3", "0", "--beta3", "1", "--m", "6",
                   "--l", str(l), "--window=0..1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"m_n={int_text(6 + l * l)}  " in out

    def test_twist_scan_text_prints_indices_past_the_limit(self, capsys):
        # a window just below 10^4300: the tail starts at the 4301-digit 10^4300
        N = 10 ** 4300
        rc = main(["twist-scan", "--b", "3", "--r1", "1/2", "--r2", "2/3", "--alpha", "1",
                   "--beta", "0", "--alpha3", "0", "--beta3", "1", "--m", "6",
                   "--l", "5", f"--window={N - 2}..{N - 1}"])
        out = capsys.readouterr().out
        assert rc == 0
        for n in (N - 2, N - 1):
            assert f"n={int_text(n)}  m_n={int_text(6 + 25 * n)}  " in out
        assert f"for all n >= {int_text(N)}" in out


    @pytest.mark.parametrize("kind, param", [("spor-a", "p"), ("spor-b", "p"), ("spor-c", "p"),
                                             ("spor-d", "p"), ("em-rp2", "l")])
    def test_family_builders_write_their_text_past_the_limit(self, kind, param, capsys):
        # a 4,000-digit parameter: the base slope of each builder's text has
        # about 8,000 digits
        value = 10 ** 3999 + 1
        for mode in ("--json", "--float"):
            rc = main(["family", "run", kind, "--params", f"{param}={value}", "--window=0..1",
                       mode])
            got = capsys.readouterr()
            assert rc in (0, 1)
            assert "error:" not in got.out + got.err
        if kind == "em-rp2":
            assert f"base slope {int_text(12 * value * value - 4 * value)}," in got.out


class TestGoldenJson:
    def test_decide_payload_schema(self, capsys):
        main(["decide", "SFS[S2; -2; 2/3, 2/3, 2/3]", "--json"])
        payload = json.loads(capsys.readouterr().out)
        payload.pop("elapsed_ms")
        assert payload == {
            "command": "decide",
            "inputs": {"form": "SFS[S2; -2; 2/3, 2/3, 2/3]"},
            "outputs": {
                "form": {
                    "base": "S2", "b": -2,
                    "slopes": [{"num": 2, "den": 3}] * 3,
                    "degenerate": 0,
                    "text": "SFS[S2; -2; 2/3, 2/3, 2/3]",
                },
                "classification": {"tag": "SmallSFS", "h1": None, "h1_infinite": True},
                "verdict": {
                    "is_lspace": False,
                    "reason": "InfiniteH1",
                    "witness": {"k": 2, "a": 1},
                    "witness_is_dual": True,
                    "search_bound": 2,
                    "infinite_h1": True,
                },
            },
        }

    def test_threshold_payload_schema(self, capsys):
        main(["threshold", "--json", "--", "-2", "2/3", "2/3"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["outputs"]["threshold"] == {
            "b": -2,
            "r1": {"num": 2, "den": 3},
            "r2": {"num": 2, "den": 3},
            "kind": "DownClosed",
            "boundary": {"num": 1, "den": 2},
            "attained": True,
        }


class TestReproduce:
    def test_full_corpus_passes(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert out.count("PASS") == len(CASES)

    def test_only_filter(self, capsys):
        assert main(["reproduce", "--only", "tunnel2"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 1
        assert main(["reproduce", "--only", "no-such-case"]) == 2
        capsys.readouterr()

    def test_tunnel2_checks_are_live(self, monkeypatch):
        """The tunnel-number-two case reads the verdict from the family's
        report and |H1| from ``surgered_space``, apart from the report: a
        wrong value of either at one n fails both families at that n."""
        from seifert_lspace import corpus
        from seifert_lspace.twist import FamilyReport
        assert [got for _, got, _ in corpus._case_tunnel2()] == [[], []]
        space, lspace_at = corpus.surgered_space, FamilyReport.lspace_at
        # the form of member 38 has |H1| = |m_38|, not |m_37|
        monkeypatch.setattr(corpus, "surgered_space",
                            lambda d, n: space(d, n + (n == 37)))
        assert [got for _, got, _ in corpus._case_tunnel2()] == [[37], [37]]
        monkeypatch.undo()
        monkeypatch.setattr(FamilyReport, "lspace_at",
                            lambda report, n: lspace_at(report, n) != (n == -12))
        assert [got for _, got, _ in corpus._case_tunnel2()] == [[-12], [-12]]

    def test_perturbed_expectation_fails_naming_case(self, capsys):
        bad = Case("broken-case", "a deliberately wrong expectation",
                   lambda: [("always wrong", 1, 2)])
        lines = []
        passed, failed, names = run_corpus(cases=CASES[:2] + (bad,), emit=lines.append)
        assert failed == 1 and names == ["broken-case"]
        assert any("FAIL broken-case" in ln for ln in lines)
        assert "     always wrong: got 1, want 2" in lines

    def test_every_case_yields_passing_triples(self):
        assert len({case.name for case in CASES}) == len(CASES)
        for case in CASES:
            checks = list(case.run())
            assert checks, case.name
            for check in checks:
                assert type(check) is tuple and len(check) == 3, (case.name, check)
                label, got, want = check
                assert isinstance(label, str) and got == want, (case.name, check)


def _pinned_argvs():
    """Every catalog ``family run`` on a window around 0 and one far out,
    the epsilon = 10^-3..10^-6 twist scans on -50..50 and on a window at the
    start of their not-L-space tail (near 10^e/3), and ``reproduce`` and
    ``family list``."""
    out = []
    for spec in catalog():
        for window in ("-3..3", "200..260"):
            for mode in ((), ("--json",)):
                out.append(["family", "run", spec.name, f"--window={window}", *mode])
    for e in range(3, 7):
        r2 = Fraction(2, 3) - Fraction(1, 10 ** e)
        k3 = 10 ** e // 3
        for window in ("-50..50", f"{k3 - 3}..{k3 + 3}"):
            for mode in ((), ("--json", "--float")):
                out.append(["twist-scan", "--b", "-1", "--r1", "1/3",
                            "--r2", f"{r2.numerator}/{r2.denominator}",
                            "--alpha", "1", "--beta", "0", "--alpha3", "1",
                            "--beta3", "1", f"--window={window}", *mode])
    for argv in (["reproduce"], ["family", "list"]):
        out += [argv, argv + ["--json"]]
    return out


# sha256 of the pinned invocations' exit codes and stdout, elapsed_ms
# blanked; a change that alters CLI output on purpose updates it
PINNED_OUTPUT_SHA256 = "21a135b0b593e0b433494e29c4de4abad167f3fd59566f875def8d96ac67e41e"


class TestPinnedOutput:
    def test_cli_bytes_are_unchanged(self, capsys):
        h = hashlib.sha256()
        argvs = _pinned_argvs()
        assert len(argvs) == 96
        for argv in argvs:
            rc = main(argv)
            out = re.sub(r'"elapsed_ms": [^,\n]*', '"elapsed_ms": 0',
                         capsys.readouterr().out)
            h.update(f"{' '.join(argv)}\n{rc}\n{out}".encode())
        assert h.hexdigest() == PINNED_OUTPUT_SHA256


_FORMS = ("SFS[S2; -2; 2/3, 2/3, 2/3]", "SFS[S2; -1; 1/7, 1/3, 1/2]",
          "SFS[S2; 1; 1/2, 1/3, 1/7]", "SFS[S2; 0; 2/3, -2/5]", "SFS[S2; -1; 1/2, 1/2]",
          "SFS[S2; 3; 1/2, 2/3, inf]", "SFS[S2; 0; 5/3, 1/2]", "SFS[RP2]",
          "SFS[S2; -1; 1/3, 1997/3000, 123456789012345678/999999999999999989]")
_MODES = ((), ("--float",), ("--json",), ("--json", "--float"))


def _verb_argvs():
    """What the 96 pinned invocations leave out: decide, h1, normalize and
    threshold in all four modes, every catalog ``family run`` under
    --json --float, and the error paths of the verbs."""
    out = [[verb, form, *mode] for verb in ("decide", "h1", "normalize")
           for form in _FORMS for mode in _MODES]
    for b, r1, r2 in (("-2", "2/3", "2/3"), ("-1", "1/3", "1997/3000"), ("-1", "2/5", "1/2"),
                      ("0", "1/2", "1/3"), ("-1", "1/2", "1/2"), ("1", "1/3", "1/5"),
                      ("-3", "1/2", "1/3")):
        out += [["threshold", *mode, "--", b, r1, r2] for mode in _MODES]
    out += [["family", "run", spec.name, "--window=-3..3", "--json", "--float"]
            for spec in catalog()]
    scan = ["twist-scan", "--b", "-1", "--r1", "2/3", "--r2", "1/3", "--alpha3", "1"]
    for argv in (["family", "run", "nope"],
                 ["family", "run", "p+q", "--params", "p7"],
                 ["family", "run", "p+q", "--params", "p=x"],
                 ["family", "run", "p+q", "--params", "p=7"],
                 ["family", "run", "nope-kind", "--params", "p=7"],
                 ["family", "run", "p+q", "--params", "p=4,q=6"],
                 ["family", "run", "berge-vii", "--params", "a=1,b=2"],
                 ["reproduce", "--only", "no-such-case"],
                 ["decide", "SFS[S2; nope]"], ["h1", "SFS[S2; 1; 1/2,]"],
                 ["normalize", "SFS(S2; 1)"],
                 ["decide", "SFS[S2; 0; 1/2, 1/3, 1/5, 1/7]"],
                 ["h1", "SFS[S2; 0; 1/2, 1/3, 1/5, 1/7]"],
                 ["threshold", "--", "-1", "1/0", "1/2"],
                 ["threshold", "--", "-1", "x", "1/2"],
                 scan + ["--alpha", "2", "--beta", "1", "--beta3", "2"],
                 scan[:4] + ["5/3"] + scan[5:] + ["--alpha", "0", "--beta", "-1",
                                                  "--beta3", "0"]):
        k = argv.index("--") if "--" in argv else len(argv)
        out += [argv, argv[:k] + ["--json"] + argv[k:]]
    return out


# sha256 of _verb_argvs' exit codes, stdout with elapsed_ms blanked, and
# stderr; a change that alters CLI output on purpose updates it
VERB_OUTPUT_SHA256 = "bd767e606222ba969a4aa133aade346c1259a88221297dd168ce62f613e1b92d"


class TestPinnedVerbOutput:
    def test_cli_bytes_are_unchanged(self, capsys):
        h = hashlib.sha256()
        for argv in _verb_argvs():
            rc = main(argv)
            got = capsys.readouterr()
            out = re.sub(r'"elapsed_ms": [^,\n]*', '"elapsed_ms": 0', got.out)
            h.update(f"{' '.join(argv)}\n{rc}\n{out}\n{got.err}".encode())
        assert h.hexdigest() == VERB_OUTPUT_SHA256


# sha256 of each group of tests/sweep.py: its invocations' argv, exit code,
# stdout with elapsed_ms blanked and stderr.  A change that alters CLI
# output on purpose updates the groups that moved and names them in
# CHANGES.md; "usage" holds argparse's and the interpreter's wording, so it
# is pinned on sweep.USAGE_PYTHON only
SWEEP_SHA256 = {
    "decide": "8153db13732f6fbaac8a37c55edf58760e2dafe744e49c6d07c530fc4f22aac8",
    "h1": "f6e40a49dab2ec4d207bf007329b1f1e37300c45c06fa89e1677bc18cdec795c",
    "normalize": "100399dd14c521565a7dca4471e37dd7aa315c7f6539c7dc255189b2059abe81",
    "threshold": "7b4b6859a72760cb7888d30fa23949ca77eb94fcc49de0107ea33e110a07f76a",
    "twist-scan": "f0dd239e9684d61257dfd73494523c0c28a4ae3c527de225e246e4ec32fb9487",
    "family list": "8b473955e2337357f4401554f45ae77ae887b3c0ce7f2819371fe65797512ff9",
    "reproduce": "2e9294376f673de9f235bacd67155b694e19ea17cd9fdc5b7b5b5a626908f3f5",
    "family run K(3,2;5,n)": "5deee8a6087d20a5f9dc64ca6b137ce276804a568ce784fc30cf31cd74608ee3",
    "family run K(5,2;7,n)": "25521b88e0328f92f988800bb23718f363924466a5d98e29e4ffc256ca9c2f5a",
    "family run K(5,2;3,n)": "044f092a5ab8cc4c970b6e58787dc2568f3a8827fefd68d0e778feff8dde42d5",
    "family run K(4,3;5,n)": "8017d687978c98cf8655a972fd53983e6f9e5d650d9f5fc617d212cbee81d443",
    "family run K(5,3;7,n)": "c019a862545900cff922f10afea9f8a15bb39a444b966018f0c11550ae6dea17",
    "family run K(5,3;4,n)": "bb56deb266a46d5b3ce91903d0842ffde9fc741e7e832a197dd3054bec1c5184",
    "family run unknot[m=0,p=3]":
        "d497d46fb0e1c3edac82cc8a022a416c1ff24a9e0c112e695334f82bf6a1caf2",
    "family run unknot[m=-1,p=3]":
        "a3ad0b9faaf43bb0a2c876de5f0a9012db1193490e7ecc6ef076f0f234a017f0",
    "family run unknot[m=-3,p=5]":
        "06b5c0486f3fa1e3be62c748e2d975ac539f3a9e73ef36855268b2ab4ae5a3dd",
    "family run tunnel2-A": "f82d5e4145c2db08c0323957ea8722323cf4ea639b1f9cb7078dacd230406934",
    "family run tunnel2-B": "a0cbb71db766548842cae98a8f93ab33b150ecc41af445cb58cc42616754706f",
    "family run berge-spor-a[p=2]":
        "e691acebef78c416b36f3e81be8075be84b302d13125d6f97fe81740a368da47",
    "family run berge-spor-b[p=1]":
        "27f46b165963a4126f89060c4f848191018704e0db4dee2d67c2a797878ba872",
    "family run berge-spor-c[p=1]":
        "fc8f34bcd989aec1b391f1af2a8823546b45eda471183b05f5c947f35f874a0c",
    "family run berge-spor-d[p=1]":
        "957f44be5fae71230525bc373965a6b6e1da7c8f78539168ec8cbf9a72861fdd",
    "family run berge-VII[a=2,b=3]":
        "408b145b3f518d5aa9ffd21a6339574db947f8bdd8bcd83070d6aff72545c614",
    "family run berge-VIII[a=-2,b=5]":
        "a478121f2724278ce51a4044dda370377d84be01967e598ef712873fb7853446",
    "family run em-rp2[l=1]": "614c8b4e751c7165ebb20f7997b25e1368bd4c21b03dc78263f197a3ceeb2bfe",
    "family run em-rp2[l=2]": "9e7c5e0a3bbea60439b0ce626754178a32183c306a262c96326f06947fe9e60e",
    "family run tunnel2-a": "d05f4c3a7856c61488c789fac40333cb94ad1943b7c51a77239aa4cbbf5262aa",
    "family run tunnel2-b": "4e6a3a4f8aea850f5c82320212c3a54c2d0f41c88a6d00d4840c2ee6aa1e9e72",
    "family run p+q": "b35f41cd8432717f6038d69f047409e2af6873c59b221430628074c0f7c77205",
    "family run p-q": "d9f782af7a33a06a03f55c80535fffb5b8322926994535021bb5b3ebf31fd13a",
    "family run k4p1": "611e08d4b9b9cc1bac67b45c3a813c1446143f1659f72ce2ef992ea200fa0a43",
    "family run k4p3": "4ce482be8ebd544e6e8891230a0299d31805fa0b37a1755bc9c2a5ba8426388f",
    "family run k2p2": "9c6ac4823ffa1e137d0a1df57092fb5a0815bde13e3f599a51706ae23231d790",
    "family run unknot": "6009de438c40f08d2b367b0649fad295bc14d3b4570ea9fff5dde7fdc2369aff",
    "family run spor-a": "f0b87f710189bd1acc0604c94f66ef7d9107483b79cfd43a9224397b045f2a46",
    "family run spor-b": "07ef4750d197b9c651431983d4750ce699a8a48d1a1de989303d1780bddaf7a0",
    "family run spor-c": "53da740be8b6789e22b6188c677d9a6578e68cfa1cba0bcf83e02a9890a454e1",
    "family run spor-d": "5e0cbc7c6667bc9906438aef472f9d8fc0b681bf30fb3044424d103de277e798",
    "family run berge-vii": "c9cf4a5dc676ff2e1563cb81a8d20bbbce53c6e89b651e87cab7b8b9e013fb26",
    "family run berge-viii": "8e45339bfab6149fb0128fff55a5c602aec388985ff55318e1237e278c863002",
    "family run em-rp2": "4d5596db90657577b6bdc9e6480a705cd8da56be40eda81c4be7cf0a1876a0ef",
    "family run errors": "fb9e4f796ed54d150d44b9caaa390f739583d584ab5ca84edc26646dd736ae13",
    "usage": "dff6dcb41834362bfcf4e77830651a5c96afa7cc1c7864c701b04665abd00d5f",
}


class TestPinnedSweep:
    def test_every_group_is_pinned(self):
        groups = sweep.groups()
        assert list(groups) == list(SWEEP_SHA256)
        assert sum(map(len, groups.values())) >= 1219

    @pytest.mark.parametrize("group", list(SWEEP_SHA256))
    def test_group_bytes_are_unchanged(self, group):
        if group == "usage" and sys.version_info[:2] != sweep.USAGE_PYTHON:
            pytest.skip("argparse's and the interpreter's wording differ across versions")
        assert sweep.digest(map(sweep.record, sweep.groups()[group])) == SWEEP_SHA256[group]


def _parser_rows(parser, path=()):
    """Each parser's defaults, a verb by name, and (option strings, dest,
    type, default, required, help, metavar) of each of its arguments, for
    the parser and every subparser under it, keyed by the verbs' path."""
    rows = [(path, {k: getattr(v, "__name__", v) for k, v in parser._defaults.items()})]
    for a in parser._actions:
        rows.append((path, tuple(a.option_strings), a.dest, getattr(a.type, "__name__", a.type),
                     a.default, a.required, a.help, a.metavar))
        if isinstance(a, argparse._SubParsersAction):
            for name, sub in a.choices.items():
                rows += _parser_rows(sub, path + (name,))
    return rows


_HELP = (("-h", "--help"), "help", None, "==SUPPRESS==", False,
         "show this help message and exit", None)
_JSON = (("--json",), "json", None, False, False, "machine-readable output", None)
_FLOAT = (("--float",), "float", None, False, False,
          "with --json, attach decimal approximations (display only); text output is unchanged",
          None)
_WINDOW = (("--window",), "window", "_window", (-50, 50), False,
           "twist window, e.g. --window=-50..50", "a..b")
_FORM_HELP = "a form, or - for stdin"

# every argument of every parser, as the parser declared them before its
# verbs were wired by one call each; the option names, types and defaults
# are the CLI's interface, so this list changes only on purpose
PARSER_ROWS = [
    ((), {}),
    ((), *_HELP),
    ((), (), "command", None, None, True, None, None),
    (("decide",), {"fn": "cmd_decide"}),
    (("decide",), *_HELP),
    (("decide",), (), "form", None, None, True,
     'e.g. "SFS[S2; -2; 2/3, 2/3, 2/3]", or - for stdin', None),
    (("decide",), *_JSON),
    (("decide",), *_FLOAT),
    (("h1",), {"fn": "cmd_h1"}),
    (("h1",), *_HELP),
    (("h1",), (), "form", None, None, True, _FORM_HELP, None),
    (("h1",), *_JSON),
    (("h1",), *_FLOAT),
    (("normalize",), {"fn": "cmd_normalize"}),
    (("normalize",), *_HELP),
    (("normalize",), (), "form", None, None, True, _FORM_HELP, None),
    (("normalize",), *_JSON),
    (("normalize",), *_FLOAT),
    (("threshold",), {"fn": "cmd_threshold"}),
    (("threshold",), *_HELP),
    (("threshold",), (), "b", "int", None, True, None, None),
    (("threshold",), (), "r1", None, None, True, None, None),
    (("threshold",), (), "r2", None, None, True, None, None),
    (("threshold",), *_JSON),
    (("threshold",), *_FLOAT),
    (("twist-scan",), {"fn": "cmd_twist_scan"}),
    (("twist-scan",), *_HELP),
    (("twist-scan",), ("--b",), "b", "int", None, True, None, None),
    (("twist-scan",), ("--r1",), "r1", None, None, True, None, None),
    (("twist-scan",), ("--r2",), "r2", None, None, True, None, None),
    (("twist-scan",), ("--alpha",), "alpha", "int", None, True, None, None),
    (("twist-scan",), ("--beta",), "beta", "int", None, True, None, None),
    (("twist-scan",), ("--alpha3",), "alpha3", "int", None, True, None, None),
    (("twist-scan",), ("--beta3",), "beta3", "int", None, True, None, None),
    (("twist-scan",), ("--m",), "m", "int", 0, False, None, None),
    (("twist-scan",), ("--l",), "l", "int", 0, False, None, None),
    (("twist-scan",), *_WINDOW),
    (("twist-scan",), *_JSON),
    (("twist-scan",), *_FLOAT),
    (("family",), {}),
    (("family",), *_HELP),
    (("family",), (), "action", None, None, True, None, None),
    (("family", "list"), {"fn": "cmd_family", "action": "list"}),
    (("family", "list"), *_HELP),
    (("family", "list"), *_JSON),
    (("family", "list"), *_FLOAT),
    (("family", "run"), {"fn": "cmd_family", "action": "run"}),
    (("family", "run"), *_HELP),
    (("family", "run"), (), "name", None, None, True,
     "catalog name, a family kind that takes no parameters such as tunnel2-a, "
     "or a family kind when --params is given", None),
    (("family", "run"), ("--params",), "params", None, None, False,
     "named integer parameters; the name is then a family kind such as p+q, unknot, "
     "spor-a, berge-vii, em-rp2", "p=2,q=3"),
    (("family", "run"), *_WINDOW),
    (("family", "run"), *_JSON),
    (("family", "run"), *_FLOAT),
    (("reproduce",), {"fn": "cmd_reproduce"}),
    (("reproduce",), *_HELP),
    (("reproduce",), ("--only",), "only", None, None, False, "run a single case by name", None),
    (("reproduce",), *_JSON),
    (("reproduce",), *_FLOAT),
]


class TestParser:
    def test_every_argument_is_pinned(self):
        assert _parser_rows(build_parser()) == PARSER_ROWS


class TestFormFromStdin:
    """decide, h1 and normalize read the form from stdin when it is "-": a
    text past the longest argument Linux passes (131,072 bytes) reaches the
    parser, and a form read so prints what the same form as an argument
    prints, its inputs.form included."""

    def test_a_10e5_slope_text_is_rejected_within_budget(self, capsys, monkeypatch):
        text = "SFS[S2; 0; " + ", ".join(f"1/{k}" for k in range(2, 100002)) + "]"
        assert len(text) > 131072
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        t0 = time.perf_counter()
        rc = main(["decide", "-"])
        dt = time.perf_counter() - t0
        got = capsys.readouterr()
        assert (rc, got.out, got.err) == (2, "", "error: 100000 exceptional fibers\n")
        assert dt < 5.0, f"10^5-slope text through stdin in {dt:.2f} s (budget 5 s)"

    @pytest.mark.parametrize("verb", ["decide", "h1", "normalize"])
    def test_stdin_prints_what_the_argument_prints(self, verb, capsys, monkeypatch):
        for form in (*_FORMS, "SFS[S2; 1; 1/2,]", "SFS[S2; 0; 1/2, 1/3, 1/5, 1/7]"):
            for mode in _MODES:
                got = []
                for arg in (form, "-"):
                    monkeypatch.setattr(sys, "stdin", io.StringIO(form))
                    rc = main([verb, *mode, arg])
                    out, err = capsys.readouterr()
                    got.append((rc, re.sub(r'"elapsed_ms": [^,\n]*', "", out), err))
                assert got[0] == got[1], (verb, form, mode)


_UNICODE_DIGITS = ("\u0660", "\uff10", "\u0966")  # Arabic-Indic, fullwidth, Devanagari zeros


class TestArgvFuzz:
    """A seeded argv fuzzer over every verb and all four modes, in process.
    Every call exits 0, 1 or 2; an exit of 2 prints exactly one error:
    line; --json output parses.  Inputs valid by construction (grammar
    forms of at most three finite slopes, slopes in (0, 1), det-1 seiferter
    data, and every --params kind at 1, 100 and 4,000 digits) exit 0 or 1.
    At 4,400 digits a parameter is past the parser's 4300-digit limit, so
    its call exits 2 with that error."""

    @staticmethod
    def _run(argv, capsys):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse rejects the arguments
            rc = e.code
        out, err = capsys.readouterr()
        assert rc in (0, 1, 2), (argv, rc)
        if rc == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
        elif "--json" in argv:
            with _unlimited_int_digits():
                json.loads(out)
        return rc, err

    @staticmethod
    def _digits(rng, n):
        """The decimal text of an n-digit natural number, its digits
        sometimes written in another Unicode script."""
        text = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=n - 1))
        if rng.random() < 0.1:
            zero = ord(rng.choice(_UNICODE_DIGITS))
            text = "".join(chr(zero + int(c)) for c in text)
        return text

    def _integer(self, rng, long=True):
        """(text, digit count) of a signed integer, up to 4,400 digits."""
        n = rng.choice([1, 1, 2, 18, 60] + ([4000, 4400] if long else []))
        return rng.choice(["", "-"]) + self._digits(rng, n), n

    def _form(self, rng):
        """(text, valid): a form text of the grammar, sometimes with a
        character inserted; valid when it parses and classification
        covers it."""
        if rng.random() < 0.05:
            return "SFS[RP2]", True
        b, n = rng.choice([self._integer(rng), ("-1", 1), ("-2", 1)])
        valid, slopes = n <= 4300, []
        for _ in range(rng.choice([0, 1, 2, 3, 3, 3, 4])):
            kind = rng.random()
            if kind < 0.1:
                slopes.append("inf")
                valid = False
                continue
            if kind > 0.6:  # a small slope, where witnesses are common
                q = rng.randint(2, 12)
                slopes.append(f"{rng.randint(1, q - 1)}/{q}")
                continue
            num, n = self._integer(rng)
            den = "0" if kind < 0.15 else self._digits(rng, rng.choice([1, 2, 18, 60, 4300]))
            valid = valid and kind >= 0.15 and n <= 4300
            slopes.append(f"{num}/{den}" if kind > 0.3 else num)
        valid = valid and len(slopes) <= 3
        text = f"SFS[S2; {b}" + (f"; {', '.join(slopes)}]" if slopes else "]")
        if rng.random() < 0.1:
            i = rng.randrange(len(text) + 1)
            text, valid = text[:i] + rng.choice("x,;/-[]\u00e9 ") + text[i:], False
        return text, valid

    def _unit(self, rng):
        """(text, valid) of a slope argument, in (0, 1) when valid."""
        if rng.random() < 0.1:
            return rng.choice(["1/0", "x", "3/2", "0", "-1/2", "1/2/3"]), False
        q = rng.choice([2, 3, 7, 10 ** 18 + 9, 10 ** 60 + 7])
        return f"{rng.randint(1, q - 1)}/{q}", True

    def _seiferter(self, rng):
        """twist-scan options of det-1 data with entries up to 10^400, or
        with a determinant off by one."""
        big = 10 ** rng.choice([1, 18, 400])
        while True:
            alpha3 = rng.randint(1, big)
            alpha = rng.randint(-big, big)
            if math.gcd(alpha, alpha3) == 1:
                break
        beta3 = (pow(alpha, -1, alpha3) if alpha3 > 1 else 0) + alpha3 * rng.randint(-4, 4)
        beta = (alpha * beta3 - 1) // alpha3 + (rng.random() < 0.1)
        return [f"--alpha={alpha}", f"--beta={beta}", f"--alpha3={alpha3}", f"--beta3={beta3}",
                f"--b={rng.randint(-5, 5)}", f"--m={rng.randint(-big, big)}",
                f"--l={rng.randint(0, big)}"], (alpha * beta3 - beta * alpha3 == 1)

    def test_seeded_argv_fuzz(self, capsys):
        rng = random.Random(17)
        names = [spec.name for spec in catalog()]
        cases = [c.name for c in CASES]
        t0 = time.perf_counter()
        calls, seen = 0, set()
        for _ in range(300):
            mode = list(rng.choice(_MODES))
            verb = rng.choice(["decide", "h1", "normalize", "threshold", "twist-scan",
                               "family", "reproduce"])
            valid = True
            if verb in ("decide", "h1", "normalize"):
                form, valid = self._form(rng)
                argv = [verb, *mode, "--", form]
            elif verb == "threshold":
                (r1, ok1), (r2, ok2) = self._unit(rng), self._unit(rng)
                b, _ = self._integer(rng, long=False)
                argv, valid = ["threshold", *mode, "--", b, r1, r2], ok1 and ok2
            elif verb == "twist-scan":
                (r1, ok1), (r2, ok2) = self._unit(rng), self._unit(rng)
                data, ok = self._seiferter(rng)
                lo = rng.choice([0, -3, 10 ** 18, -10 ** 400])
                argv = ["twist-scan", *mode, f"--r1={r1}", f"--r2={r2}", *data,
                        f"--window={lo}..{lo + rng.randint(0, 3)}"]
                valid = ok and ok1 and ok2
            elif verb == "family":
                lo = rng.randint(-20, 20)
                argv = rng.choice([["family", "list", *mode],
                                   ["family", "run", rng.choice(names), *mode,
                                    f"--window={lo}..{lo + rng.randint(0, 6)}"]])
            else:
                argv = ["reproduce", *mode, "--only", rng.choice(cases)]
            rc, _ = self._run(argv, capsys)
            calls += 1
            seen.add(rc)
            if valid:
                assert rc in (0, 1), (argv, rc)
        for kind in family_kinds():
            for n in (1, 100, 4000, 4400):
                x = 10 ** (n - 1) + 1 if n > 1 else 2
                with _unlimited_int_digits():  # to write the 4,400-digit parameters
                    params = {"p+q": f"p={x},q={x + 1}", "p-q": f"p={x + 1},q={x}",
                              "unknot": f"m={-x},p={2 * x + 1}", "berge-vii": f"a={x},b={x + 1}",
                              "berge-viii": f"a={x},b={x + 1}", "em-rp2": f"l={x}",
                              "tunnel2-a": None, "tunnel2-b": None}
                    params = params.get(kind, f"p={x}")
                if params is None:
                    # a kind without parameters runs by its name, in any case
                    argv = ["family", "run", rng.choice([kind, kind.upper()]),
                            *rng.choice([[], ["--params="]]), "--window=0..1", "--json"]
                else:
                    argv = ["family", "run", kind, "--params", params, "--window=0..1", "--json"]
                rc, err = self._run(argv, capsys)
                calls += 1
                if n < 4300 or params is None:
                    assert rc in (0, 1), (kind, n, err)
                else:
                    assert rc == 2 and err.startswith("error: Exceeds the limit (4300 digits)"), \
                        (kind, n, err)
        dt = time.perf_counter() - t0
        assert seen == {0, 1, 2}
        assert dt < 5.0, f"{calls} fuzzed calls in {dt:.2f} s (budget 5 s)"
