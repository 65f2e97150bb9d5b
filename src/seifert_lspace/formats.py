"""Text grammar and JSON encoding.

Text forms are ``SFS[S2; b; r1, r2, ...]`` (slopes may be raw: any rational,
``inf``, or ``n/0`` for a degenerate fiber) and ``SFS[RP2]``.  All JSON
numbers are exact integer pairs {"num": ..., "den": ...}; a decimal
approximation is attached only when explicitly requested and never feeds back
into any computation.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .rationals import INF, format_rational, is_finite
from .seifert import Base, Classification, SeifertForm, normalize
from .lspace import LSpaceVerdict, ThirdSlotThreshold
from .twist import FamilyReport, PointVerdict, Segment, TailCertificate


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        self.message = message
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos}")

    def annotate(self) -> str:
        return f"{self.message} at position {self.pos}\n  {self.text}\n  {' ' * self.pos}^"


_TOKEN = re.compile(r"\s*(-?\d+/\d+|-?\d+|inf|[A-Za-z]\w*|[\[\];,])")


def _tokens(text: str):
    out, i = [], 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m:
            if text[i:].strip():
                raise ParseError("unexpected character", text, i)
            break
        out.append((m.group(1), m.start(1)))
        i = m.end()
    return out


def parse_form(text: str) -> SeifertForm:
    """Parse the SFS grammar into a normalized form."""
    toks = _tokens(text)
    pos = 0

    def expect(value):
        nonlocal pos
        if pos >= len(toks) or toks[pos][0] != value:
            at = toks[pos][1] if pos < len(toks) else len(text)
            raise ParseError(f"expected {value!r}", text, at)
        pos += 1

    def peek():
        return toks[pos][0] if pos < len(toks) else None

    expect("SFS")
    expect("[")
    base = peek()
    if base not in ("S2", "RP2"):
        at = toks[pos][1] if pos < len(toks) else len(text)
        raise ParseError("expected base 'S2' or 'RP2'", text, at)
    pos += 1
    if base == "RP2":
        expect("]")
        if pos != len(toks):
            raise ParseError("trailing input", text, toks[pos][1])
        return SeifertForm(base=Base.RP2)
    expect(";")
    tok, at = toks[pos] if pos < len(toks) else (None, len(text))
    if tok is None or not re.fullmatch(r"-?\d+", tok):
        raise ParseError("expected integer section term", text, at)
    b = int(tok)
    pos += 1
    slopes = []
    if peek() == ";":
        pos += 1
        while True:
            tok, at = toks[pos] if pos < len(toks) else (None, len(text))
            if tok is None:
                raise ParseError("expected a slope", text, at)
            if tok == "inf":
                slopes.append(INF)
            elif re.fullmatch(r"-?\d+/0", tok):
                if tok.startswith("0/") or tok == "-0/0":
                    raise ParseError("0/0 is not a slope", text, at)
                slopes.append(INF)
            elif re.fullmatch(r"-?\d+(/\d+)?", tok):
                n, _, d = tok.partition("/")
                slopes.append(Fraction(int(n), int(d) if d else 1))
            else:
                raise ParseError("expected a slope", text, at)
            pos += 1
            if peek() == ",":
                pos += 1
                continue
            break
    expect("]")
    if pos != len(toks):
        raise ParseError("trailing input", text, toks[pos][1])
    return normalize(b, slopes)


def format_form(f: SeifertForm) -> str:
    return repr(f)


def rational_json(x, float_mode=False):
    if x is None:
        return None
    if not is_finite(x):
        out = {"num": 1, "den": 0}
    else:
        out = {"num": x.numerator, "den": x.denominator}
    if float_mode and out["den"]:
        out["approx"] = out["num"] / out["den"]
    return out


def rational_from_json(obj):
    if obj is None:
        return None
    if obj["den"] == 0:
        return INF
    return Fraction(obj["num"], obj["den"])


def form_json(f: SeifertForm, float_mode=False):
    return {
        "base": f.base.value,
        "b": f.b,
        "slopes": [rational_json(r, float_mode) for r in f.slopes],
        "degenerate": f.degenerate,
        "text": format_form(f),
    }


def form_from_json(obj) -> SeifertForm:
    if obj["base"] == "RP2":
        return SeifertForm(base=Base.RP2)
    return SeifertForm(base=Base.S2, b=obj["b"],
                       slopes=tuple(rational_from_json(r) for r in obj["slopes"]),
                       degenerate=obj["degenerate"])


def classification_json(c: Classification):
    from .rationals import INF as _inf
    out = {"tag": c.tag.value}
    if c.h1 is None:
        out["h1"] = None
        out["h1_infinite"] = False
    elif c.h1 is _inf:
        out["h1"] = None
        out["h1_infinite"] = True
    else:
        out["h1"] = c.h1
        out["h1_infinite"] = False
    if c.summands is not None:
        out["summands"] = list(c.summands)
    return out


def verdict_json(v: LSpaceVerdict):
    return {
        "is_lspace": v.is_lspace,
        "reason": v.reason.value,
        "witness": None if v.witness is None else {"k": v.witness.k, "a": v.witness.a},
        "witness_is_dual": v.witness_is_dual,
        "search_bound": v.search_bound,
        "infinite_h1": v.infinite_h1,
    }


def threshold_json(t: ThirdSlotThreshold, float_mode=False):
    return {
        "b": t.b,
        "r1": rational_json(t.r1, float_mode),
        "r2": rational_json(t.r2, float_mode),
        "kind": t.kind.value,
        "boundary": rational_json(t.boundary, float_mode),
        "attained": t.attained,
    }


def tail_json(t: TailCertificate, float_mode=False):
    out = {
        "side": "pos" if t.side > 0 else "neg",
        "status": t.status.value,
        "is_lspace": t.is_lspace,
        "from_n": t.from_n,
        "limit_slope": rational_json(t.limit, float_mode),
        "band_base": t.band_base,
    }
    if t.threshold is not None:
        out["threshold"] = threshold_json(t.threshold, float_mode)
        out["direction"] = t.approach
        if t.mirrored:
            out["mirrored"] = True
    return out


def segment_json(s: Segment, float_mode=False):
    out = {
        "from_n": s.from_n,
        "to_n": s.to_n,
        "is_lspace": s.is_lspace,
        "band_base": s.band_base,
        "threshold": None if s.threshold is None else threshold_json(s.threshold, float_mode),
    }
    if s.mirrored:
        out["mirrored"] = True
    return out


def point_json(p: PointVerdict, float_mode=False):
    return {
        "n": p.n,
        "m_n": p.slope,
        "seifert_form": form_json(p.form, float_mode),
        "tag": p.tag.value,
        "verdict": verdict_json(p.verdict),
    }


def report_json(r: FamilyReport, float_mode=False):
    return {
        "window": list(r.window),
        "points": [point_json(r.points[n], float_mode) for n in sorted(r.points)],
        "segments": [segment_json(s, float_mode) for s in r.segments],
        "tail_pos": tail_json(r.tail_pos, float_mode),
        "tail_neg": tail_json(r.tail_neg, float_mode),
        "limit": None if r.limit is None else form_json(r.limit, float_mode),
        "limit_verdict": None if r.limit_verdict is None else verdict_json(r.limit_verdict),
        "exceptional": [{"n": n, "tag": tag.value} for n, tag in r.exceptional],
    }


def describe_tail(t: TailCertificate) -> str:
    side = "n >= " if t.side > 0 else "n <= "
    what = "L-space" if t.is_lspace else "not an L-space"
    out = f"{what} for all {side}{t.from_n}"
    if t.threshold is not None and t.threshold.boundary is not None:
        out += (f"  [limit slope {format_rational(t.limit)} approached "
                f"{t.approach.replace('_', ' ')}; band base {t.band_base}, "
                f"boundary {format_rational(t.threshold.boundary)}"
                + ("; computed on the mirror" if t.mirrored else "") + "]")
    return out


def describe_segment(s: Segment) -> str:
    what = "L-space" if s.is_lspace else "not an L-space"
    out = f"{what} for all {s.from_n} <= n <= {s.to_n}"
    if s.threshold is None:
        return out + "  [lens spaces]"
    boundary = ("" if s.threshold.boundary is None
                else f", boundary {format_rational(s.threshold.boundary)}")
    return (out + f"  [band base {s.band_base}{boundary}"
            + ("; computed on the mirror" if s.mirrored else "") + "]")
