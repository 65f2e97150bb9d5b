"""Acceptance suite: every desk-scale claim, at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
All equalities are exact; the only tolerances are wall-clock budgets.
"""

import random
import time
from fractions import Fraction

from seifert_lspace import (INF, FoliationWitness, PointVerdict, Run, build_family,
                            classify, classify_family, catalog, decide, limit_space,
                            linking_guarantee, normalize, surgered_space,
                            third_slot_threshold, torus_pq_candidates,
                            unknot_seiferter_data, ALL_N)

from oracles import (fraction_member_point, naive_witness, random_triple, random_unit_fraction,
                     shown)


def F(n, d=1):
    return Fraction(n, d)


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""),
          flush=True)
    assert ok, f"{name}: {detail}"


def _best_time(fn, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_01_dual_witness_and_limit_verdicts():
    f = normalize(-2, (F(2, 3), F(2, 3), F(2, 3)))
    v = decide(f)
    ok = (not v.is_lspace and v.witness == FoliationWitness(2, 1)
          and v.witness_is_dual)
    for m in (-1, 0):
        lim = limit_space(unknot_seiferter_data(m, 3))
        ok = ok and decide(lim).is_lspace
    dt = _best_time(lambda: decide(f))
    ok = ok and dt < 1e-3
    _report("dual witness (k=2, a=1) and small-m limit verdicts", ok,
            f"decide in {dt * 1000:.3f} ms")


def test_02_mirror_duality_bulk():
    rng = random.Random(1201)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(10_000):
        t = random_triple(rng, 60)
        a = decide(normalize(-1, t))
        b = decide(normalize(-2, tuple(1 - r for r in t)))
        if a.is_lspace != b.is_lspace:
            bad += 1
    dt = time.perf_counter() - t0
    _report("mirror duality on 10^4 random triples", bad == 0 and dt < 5.0,
            f"{bad} discrepancies in {dt:.2f} s (budget 5 s)")


def test_03_decide_matches_naive_enumerator():
    rng = random.Random(1301)
    naive_witness((F(1, 3), F(1, 3), F(1, 3)), kmax=1000)  # build the pair table
    t0 = time.perf_counter()
    bad = 0
    for _ in range(10_000):
        t = random_triple(rng, 60)
        v = decide(normalize(-1, t))
        w = naive_witness(t, kmax=1000)
        if v.is_lspace != (w is None):
            bad += 1
        elif w is not None and v.witness is not None and (v.witness.k, v.witness.a) != w:
            bad += 1
        elif w is not None and v.witness is None:
            bad += 1
    dt = time.perf_counter() - t0
    _report("agreement with the unpruned k <= 1000 enumerator on 10^4 triples",
            bad == 0 and dt < 30.0,
            f"{bad} discrepancies in {dt:.2f} s (budget 30 s)")


def test_04_third_slot_up_closed_and_boundary_exact():
    rng = random.Random(1401)
    values = sorted({F(n, d) for d in range(2, 61) for n in range(1, d)})
    bad = 0
    for _ in range(1000):
        r1 = random_unit_fraction(rng, 60)
        r2 = random_unit_fraction(rng, 60)
        t = third_slot_threshold(-1, r1, r2)
        seen_true = False
        for r in values:
            cur = decide(normalize(-1, (r1, r2, r))).is_lspace
            if (seen_true and not cur) or (t.contains(r) != cur):
                bad += 1
                break
            seen_true = seen_true or cur
    _report("third-slot L-space set up-closed; exact boundary matches sweep "
            "(10^3 pairs, all denominators <= 60)", bad == 0, f"{bad} bad pairs")


def test_05_unknot_twist_grid():
    t0 = time.perf_counter()
    bad = []
    for m in range(-5, 1):
        for p in (3, 5, 7, 9):
            d = unknot_seiferter_data(m, p)
            for n in range(-30, 31):
                form = surgered_space(d, n)
                v = decide(form)
                want_l = not (m == 0 and n == 0)
                slope = m + n * (p - m) ** 2
                h = classify(form).h1
                h_ok = (h is INF and slope == 0) or h == abs(slope)
                if v.is_lspace != want_l or not h_ok:
                    bad.append((m, p, n))
    dt = time.perf_counter() - t0
    _report("unknot twist grid: verdicts and |H1| = |m + n(p-m)^2|",
            not bad and dt < 10.0, f"{len(bad)} bad points in {dt:.2f} s (budget 10 s)")


def test_06_tunnel_two_families():
    t0 = time.perf_counter()
    bad = []
    for which, coeff in (("A", 196), ("B", 100)):
        d = build_family(f"tunnel2-{which}").members[0].data
        for n in range(-100, 101):
            form = surgered_space(d, n)
            if not decide(form).is_lspace or classify(form).h1 != abs(coeff * n + 71):
                bad.append((which, n))
    dt = time.perf_counter() - t0
    _report("tunnel-number-two families: all L-spaces with |H1| = |196n+71|, |100n+71|",
            not bad and dt < 2.0, f"{len(bad)} bad points in {dt:.2f} s (budget 2 s)")


def test_07_trefoil_family():
    cands = torus_pq_candidates(3, 2, 5)
    ok = cands == [(3, F(2, 3), F(1, 2))]
    ok = ok and linking_guarantee(3, 2, 5) == ALL_N
    from seifert_lspace import find_family
    report = classify_family(find_family("K(3,2;5,n)").members[0])
    points = {r.n: r for r in shown(report, -50, 50) if isinstance(r, PointVerdict)}
    ok = ok and all(pv.verdict.is_lspace for pv in points.values())
    ok = ok and points[0].tag.value == "ConnectedSumOfLensSpaces"
    ok = ok and report.tail_pos.is_lspace
    ok = ok and report.tail_neg.is_lspace
    _report("trefoil family: unique base form, all-n guarantee, L-space window "
            "including the connected-sum pole", ok)


def test_08_berge_slope_identities():
    bad = []
    for p in range(1, 21):
        if p * (6 * p + 1) + (4 * p + 1) ** 2 != 22 * p * p + 9 * p + 1:
            bad.append(("a", p))
        if (3 * p + 1) * (2 * p + 1) + (4 * p + 1) ** 2 != 22 * p * p + 13 * p + 2:
            bad.append(("b", p))
        if -((3 * p + 2) * (2 * p + 1) + (4 * p + 3) ** 2) != -22 * p * p - 31 * p - 11:
            bad.append(("c", p))
        if -((6 * p + 5) * (p + 1) + (4 * p + 3) ** 2) != -22 * p * p - 35 * p - 14:
            bad.append(("d", p))
    _report("sporadic Berge slope polynomials, p = 1..20, exact", not bad, str(bad))


def test_09_cable_exterior_homology_window():
    from seifert_lspace import h1_order
    vals = [h1_order(normalize(0, (F(2, 3), F(-2, 5), F(x)))) for x in range(-10, 11)]
    want = [abs(4 + 15 * x) for x in range(-10, 11)]
    ok = vals == want and 1 not in vals
    _report("|H1(S2(2/3, -2/5, x))| = |4+15x| on [-10, 10], never 1", ok)


def test_10_tail_soundness_and_performance():
    rng = random.Random(1001)
    bad = []
    for spec in catalog():
        for member in spec.members:
            runs = [r for r in shown(classify_family(member), -20, 20) if isinstance(r, Run)]
            for tail in (runs[-1], runs[0]):
                for _ in range(20):
                    off = rng.randint(0, 10 ** 4)
                    n = tail.from_n + off if tail.to_n is None else tail.to_n - off
                    _, form = fraction_member_point(member, n)
                    if decide(form).is_lspace is not tail.is_lspace:
                        bad.append((spec.name, n))
    ok = not bad

    worst = [normalize(-1, (F(1, 997), F(499, 1000), F(1, 2))),
             normalize(-1, (F(1, 500), F(499, 1000), F(1, 2))),
             normalize(-2, (F(1, 2), F(501, 1000), F(998, 999))),
             normalize(-1, (F(1, 999), F(499, 1000), F(500, 999)))]
    slowest = max(_best_time(lambda f=f: decide(f)) for f in worst)
    ok = ok and slowest < 1e-3

    d1 = build_family("tunnel2-a").members[0].data
    d2 = unknot_seiferter_data(3, 3)
    t0 = time.perf_counter()
    count = 0
    for n in range(-25000, 25001):
        count += decide(surgered_space(d1, n)).is_lspace
    for n in range(-25000, 25000):
        count += decide(surgered_space(d2, n)).is_lspace
    scan = time.perf_counter() - t0
    ok = ok and scan < 5.0
    _report("tail certificates sound at 20 spot checks per side; "
            "worst decide and 10^5-point mixed scan in budget", ok,
            f"{len(bad)} tail misses; worst decide {slowest * 1000:.3f} ms "
            f"(budget 1 ms); scan {scan:.2f} s (budget 5 s), {count} L-spaces")
