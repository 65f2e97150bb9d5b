"""Seeded inputs for the three workloads, with answers known independently of
the library.

Every generator takes a ``random.Random`` built from the workload seed, so a
seed fixes the inputs byte for byte.  The expected answers come from an
unpruned witness enumerator (batch forms) or from the construction itself
(deep strata, catalog commands); none of them calls the search code.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

MAX_DEN = 60  # batch slopes keep denominators <= 60, so every witness has k < 60

# coprime (k, a) with 0 < a <= k/2, grouped by k, for the batch oracle
_PAIRS = [(k, tuple(a for a in range(1, k // 2 + 1) if gcd(a, k) == 1))
          for k in range(2, MAX_DEN + 1)]


def _verdict(is_lspace, reason, witness=None, dual=False, bound=None, infinite=False):
    """The verdict in the shape ``formats.verdict_json`` emits."""
    return {"is_lspace": is_lspace, "reason": reason,
            "witness": None if witness is None else {"k": witness[0], "a": witness[1]},
            "witness_is_dual": dual, "search_bound": bound, "infinite_h1": infinite}


def enumerate_witness(t):
    """First (k, a) in lexicographic order with t < (1/k, a/k, (k-a)/k)
    componentwise, scanning every coprime pair up to MAX_DEN; None if none."""
    (p1, q1), (p2, q2), (p3, q3) = ((s.numerator, s.denominator) for s in t)
    for k, alist in _PAIRS:
        if k * p1 >= q1:
            continue
        for a in alist:
            if a * q2 > k * p2 and (k - a) * q3 > k * p3:
                return k, a
    return None


def expected_three(b, slopes):
    """Verdict for S2(b; r1, r2, r3), slopes normalized into (0, 1)."""
    infinite = b + sum(slopes) == 0
    if b >= 0 or b <= -3:
        return _verdict(True, "BLarge")
    dual = b == -2
    t = sorted(1 - r for r in slopes) if dual else sorted(slopes)
    w = enumerate_witness(t)
    bound = (t[0].denominator - 1) // t[0].numerator
    if infinite:
        return _verdict(False, "InfiniteH1", w, dual and w is not None, bound, True)
    if w is not None:
        return _verdict(False, "DualWitness" if dual else "Witness", w, dual, bound)
    return _verdict(True, "NoWitnessExhaustive", bound=bound)


def _unit_slope(rng):
    q = rng.randint(2, MAX_DEN)
    return Fraction(rng.randint(1, q - 1), q)


def _raw_text(rng, b, slopes, degenerate):
    """Text of S2(b; slopes, inf...) with random integer parts folded out of b."""
    parts = []
    for r in slopes:
        w = rng.randint(-2, 2)
        b -= w
        parts.append(f"{r.numerator + w * r.denominator}/{r.denominator}")
    if rng.random() < 0.1:  # an integral slope, which normalization folds into b
        w = rng.randint(-2, 2)
        b -= w
        parts.append(str(w))
    parts += [rng.choice(("inf", "1/0", "-1/0")) for _ in range(degenerate)]
    rng.shuffle(parts)
    return f"SFS[S2; {b}; {', '.join(parts)}]"


def batch_forms(rng, n, answers=True):
    """n raw text forms and their expected ``verdict_json`` output (None
    unless ``answers``).

    Mostly three fibers over normalized base -1 or -2; about 2% each have two
    fibers, a degenerate fiber, or the projective base.
    """
    out = []
    for _ in range(n):
        u = rng.random()
        if u < 0.02:
            out.append(("SFS[RP2]", _verdict(True, "RP2Base")))
        elif u < 0.04:
            k = rng.randint(0, 2)
            slopes = [_unit_slope(rng) for _ in range(k)]
            reason = "ConnectedSumOfLSpaces" if k == 2 else "LensNotS2xS1"
            out.append((_raw_text(rng, rng.randint(-3, 1), slopes, 1), _verdict(True, reason)))
        elif u < 0.06:
            b = rng.randint(-2, 1)
            slopes = [_unit_slope(rng) for _ in range(2)]
            if b + sum(slopes) == 0:
                want = _verdict(False, "InfiniteH1", infinite=True)
            else:
                want = _verdict(True, "LensNotS2xS1")
            out.append((_raw_text(rng, b, slopes, 0), want))
        else:
            v = rng.random()
            b = -1 if v < 0.46 else -2 if v < 0.92 else rng.choice((-4, -3, 0, 1))
            slopes = [_unit_slope(rng) for _ in range(3)]
            out.append((_raw_text(rng, b, slopes, 0),
                        expected_three(b, slopes) if answers else None))
    return out


@dataclass(frozen=True)
class DeepOp:
    """One adversarial stratum: ``kind`` is "decide" or "threshold";
    ``size`` is the denominator that sets the stratum's scale."""
    kind: str
    variant: str
    size: int
    b: int
    slopes: tuple
    expected: dict = field(compare=False)

    def key(self):
        return f"{self.kind} {self.variant} {self.size} {self.b} " + \
            " ".join(map(str, self.slopes))


def _decide_strata(rng, d):
    """No-witness and late-witness triples at N ~ 10^d, plus their b = -2 duals.

    With s2 = m/(2m+1) and s3 = 1/2 the smallest witness is (2m+3, m+1),
    because m/(2m+1) and 1/2 are Stern-Brocot neighbours; it counts only when
    2m+3 < N, as s1 = 1/N caps k below N.
    """
    base = 10 ** d
    n = base + rng.randrange(max(1, base // 50))
    ops = []
    for variant, m in (("no-witness", n + rng.randrange(max(1, base // 50))),
                       ("late-witness", min((9 * n) // 20, (n - 4) // 2)
                        - rng.randrange(max(1, base // 100)))):
        triple = (Fraction(1, n), Fraction(m, 2 * m + 1), Fraction(1, 2))
        if variant == "no-witness":
            want = [True, "NoWitnessExhaustive", None]
        else:
            want = [False, "Witness", (2 * m + 3, m + 1)]
        assert sum(triple) != 1  # the Euler number stays nonzero
        ops.append(DeepOp("decide", variant, n, -1, triple,
                          _verdict(want[0], want[1], want[2], False, n - 1)))
        dual_reason = "DualWitness" if want[2] else want[1]
        ops.append(DeepOp("decide", variant + "-dual", n, -2,
                          tuple(sorted(1 - r for r in triple)),
                          _verdict(want[0], dual_reason, want[2], want[2] is not None, n - 1)))
    return ops


def _threshold_stratum(rng, d):
    """third_slot_threshold(-1, 1/N, 1/3) with N = 1 mod 3: the boundary is
    (2K-1)/(3K) for K = N - 2, the last k = 2 mod 3 below N, and attained."""
    base = 10 ** d
    n = base + rng.randrange(max(1, base // 50))
    n += (1 - n) % 3
    k = n - 2
    want = {"kind": "UpClosed", "boundary": Fraction(2 * k - 1, 3 * k), "attained": True}
    return DeepOp("threshold", "decade", n, -1, (Fraction(1, n), Fraction(1, 3)), want)


def _narrow_gap(rng, bits):
    """third_slot_threshold(-1, lo, 1 - hi) for Stern-Brocot neighbours
    lo < hi < 1/2 whose denominators reach ``bits`` bits.

    lo > 1/3 keeps the k-loop at k = 2, so the work is the Stern-Brocot
    descent between lo and hi; the boundary is 1/(den lo + den hi), the
    denominator of their mediant, and it is attained.
    """
    h1, k1, h0, k0 = 0, 1, 1, 0  # convergents of [0; 2, a2, a3, ...]
    a, terms = 2, 1
    while True:
        h1, k1, h0, k0 = a * h1 + h0, a * k1 + k0, h1, k1
        if k1.bit_length() >= bits and terms >= 3:
            break
        a = rng.randint(1, 5)
        terms += 1
    lo, hi = sorted((Fraction(h1, k1), Fraction(h0, k0)))
    assert abs(h1 * k0 - h0 * k1) == 1 and Fraction(1, 3) < lo < hi < Fraction(1, 2)
    q = lo.denominator + hi.denominator
    want = {"kind": "UpClosed", "boundary": Fraction(1, q), "attained": True}
    return DeepOp("threshold", "narrow-gap", k1, -1, (lo, 1 - hi), want)


def deep_ops(rng, decades, gap_bits):
    ops = []
    for d in decades:
        ops += _decide_strata(rng, d)
    for d in decades:
        ops.append(_threshold_stratum(rng, d))
    for bits in gap_bits:
        ops.append(_narrow_gap(rng, bits))
    return ops


@dataclass(frozen=True)
class CatalogOp:
    """One ``cli.main`` invocation.  ``kind`` is "family", "scan" or
    "reproduce"; ``tails`` is how many tail certificates it reports."""
    kind: str
    argv: tuple
    tails: int = 0
    expected: dict = field(default_factory=dict, compare=False)


def scan_tail_start(e):
    """First n of the certified positive tail of the seiferter
    b=-1, r1=1/3, r2=2/3-10^-e, (alpha, beta, alpha3, beta3) = (1, 0, 1, 1)."""
    return int("3" * (e - 2) + "35")


def catalog_ops(rng, specs, window, scan_exponents, reproduce_only, reproduce_repeat):
    """Family runs over ``window`` for each (name, member count) in specs,
    the twist scans at epsilon = 10^-e with seeded --m and --l, and
    ``reproduce_repeat`` runs of ``reproduce``."""
    ops = [CatalogOp("family", ("family", "run", name, f"--window={-window}..{window}", "--json"),
                     2 * members)
           for name, members in specs]
    for e in scan_exponents:
        r2 = Fraction(2, 3) - Fraction(1, 10 ** e)
        m, l = rng.randint(-50, 50), rng.randint(0, 5)
        argv = ("twist-scan", "--b", "-1", "--r1", "1/3",
                "--r2", f"{r2.numerator}/{r2.denominator}",
                "--alpha", "1", "--beta", "0", "--alpha3", "1", "--beta3", "1",
                "--m", str(m), "--l", str(l), "--window=-50..50", "--json")
        ops.append(CatalogOp("scan", argv, 2, {"from_n": scan_tail_start(e), "m": m, "l": l}))
    if reproduce_only is None:  # the whole corpus: 14 cases
        op = CatalogOp("reproduce", ("reproduce", "--json"), 0, {"passed": 14})
    else:
        op = CatalogOp("reproduce", ("reproduce", "--only", reproduce_only, "--json"),
                       0, {"passed": 1})
    return ops + [op] * reproduce_repeat


def inputs_digest(forms, deep, catalog):
    """sha256 over a canonical text of every generated input."""
    h = hashlib.sha256()
    for text, _ in forms:
        h.update(text.encode() + b"\n")
    for op in deep:
        h.update(op.key().encode() + b"\n")
    for op in catalog:
        h.update(" ".join(op.argv).encode() + b"\n")
    return h.hexdigest()
