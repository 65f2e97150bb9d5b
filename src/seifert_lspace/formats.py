"""Text grammar and JSON encoding.

Text forms are ``SFS[S2; b; r1, r2, ...]`` (slopes may be raw: any rational,
``inf``, or ``n/0`` for a degenerate fiber) and ``SFS[RP2]``.  The parser
reads a form from one regex match of the whole grammar and hands the slopes
to the normal-form core in ``seifert`` as reduced (num, den) integer pairs;
only a text it cannot read is walked token by token, to find the message and
position of its ``ParseError``.  All JSON numbers are exact integer
pairs {"num": ..., "den": ...}.  The builders write only those, and a
report's ``"points"`` are its singles' ``PointVerdict``s and the
``twist.Piece``s between them.  ``dumps`` is the one writer (``dump``
writes its texts to a file as it goes): it writes a piece a chunk of
members at a time, and a single as a piece of one member.  The piece's
layout, cached per shape with the form's text included and filled with what
its members share, is split once into its literal parts, and a chunk is one
join of those parts with the texts of the columns that move.  With
``approx`` set it adds --float's decimal approximation to each pair a float
holds as it writes it; the approximation never feeds back into anything.
Every layout comes from ``_point_layout``, the one place that gives a
point's JSON its keys."""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import truediv
from typing import NoReturn

from .rationals import INF, format_rational, int_text, is_finite, pair_text
from .seifert import _RP2, Base, Classification, SeifertForm, _normal_form, _trusted_form
from .lspace import _INFINITE, LSpaceVerdict, ThirdSlotThreshold
from .twist import FamilyReport, Piece, PointVerdict, Run


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        self.message = message
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos}")

    def annotate(self) -> str:
        return f"{self.message} at position {self.pos}\n  {self.text}\n  {' ' * self.pos}^"


_SLOPE = r"(?:-?\d+(?:/\d+)?|inf)"
_FORM = re.compile(r"\s*SFS\s*\[\s*(?:RP2|S2\s*;\s*(-?\d+)"
                   rf"(?:\s*;\s*({_SLOPE}(?:\s*,\s*{_SLOPE})*))?)\s*\]\s*")


def parse_form(text: str) -> SeifertForm:
    """Parse the SFS grammar into a normalized form, from the groups of one
    ``_FORM`` match: slopes go to the normalization core as (num, den) pairs
    reduced by one gcd, and degenerate fibers as a count.  A text the match
    rejects, or with a 0/0 slope or an integer too long to read, goes to
    ``_reject``."""
    m = _FORM.fullmatch(text)
    if m:
        b, slopes = m.groups()
        if b is None:
            return SeifertForm(base=Base.RP2)
        pairs, degenerate = [], 0
        try:
            b = int(b)
            for s in slopes.split(",") if slopes else ():
                num, _, den = s.strip().partition("/")
                if num == "inf":
                    degenerate += 1
                    continue
                num, den = int(num), int(den) if den else 1
                if den:
                    g = gcd(num, den)
                    pairs.append((num // g, den // g))
                elif num:
                    degenerate += 1
                else:  # 0/0
                    break
            else:
                return _normal_form(b, pairs, degenerate)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    _reject(text)


_TOKEN = re.compile(r"\s*(-?\d+/\d+|-?\d+|inf|[A-Za-z]\w*|[\[\];,])")


def _reject(text: str) -> NoReturn:
    """Raise the ParseError of the first fault in a text ``parse_form`` could
    not read.  One scan gives the tokens and their positions, up to a
    character that starts none; the walk over them only checks.  ``_FORM``
    takes what passes every check, so past the ']' is trailing input."""
    toks, starts, i = [], [], 0
    for m in _TOKEN.finditer(text):
        if m.start() != i:
            break
        toks.append(m[1])
        starts.append(m.start(1))
        i = m.end()
    if text[i:].strip():
        raise ParseError("unexpected character", text, i)

    def error(message: str, k: int) -> ParseError:
        return ParseError(message, text, starts[k] if k < len(toks) else len(text))

    def check_number(k: int):
        num, _, den = toks[k].partition("/")
        try:
            num, den = int(num), int(den) if den else 1
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise error("integer too long", k) from None
        if not (num or den):
            raise error("0/0 is not a slope", k)

    if toks[:1] != ["SFS"]:
        raise error("expected 'SFS'", 0)
    if toks[1:2] != ["["]:
        raise error("expected '['", 1)
    base = toks[2] if len(toks) > 2 else None
    if base not in ("S2", "RP2"):
        raise error("expected base 'S2' or 'RP2'", 2)
    k = 3
    if base == "S2":
        if toks[3:4] != [";"]:
            raise error("expected ';'", 3)
        tok = toks[4] if len(toks) > 4 else ""
        # a token that starts with - or a digit is -?d+ or -?d+/d+
        if not (tok[:1] == "-" or tok[:1].isdigit()) or "/" in tok:
            raise error("expected integer section term", 4)
        check_number(4)
        k = 5
        if toks[k:k + 1] == [";"]:
            while True:
                k += 1
                tok = toks[k] if k < len(toks) else ""
                if tok[:1] == "-" or tok[:1].isdigit():
                    check_number(k)
                elif tok != "inf":
                    raise error("expected a slope", k)
                k += 1
                if toks[k:k + 1] != [","]:
                    break
    if toks[k:k + 1] != ["]"]:
        raise error("expected ']'", k)
    raise error("trailing input", k + 1)


_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
# ints below 640 digits have a decimal text under every
# sys.set_int_max_str_digits() limit
_SHORT_INT = 10 ** 639
_PAIR = {"num", "den"}


@lru_cache(maxsize=256)
def _object_heads(keys: tuple, pad: str) -> tuple:
    """The texts around the values of a dict with these keys, in this
    order, at this indent: the brace and first key, each separator and key
    after it, and the closing brace."""
    inner = pad + "  "
    heads = [inner + encode_basestring_ascii(k) + ": " for k in keys]
    return ("{" + heads[0], *["," + h for h in heads[1:]], pad + "}")


def dumps(o, approx: bool = False, _pad: str = "\n") -> str:
    """The bytes of ``json.dumps(o, indent=2)`` for dicts with str keys,
    lists, str, int, bool, None and float, where a container's members may
    also be ``PointVerdict``s, each written as its JSON object, a list's
    members ``Piece``s, each written as its members' objects, and any value
    a callable, written as the value it returns when the writer reaches it.
    With ``approx``, each dict that is a {"num", "den"} pair with den != 0
    and a value a float holds gains a last member "approx", the float
    nearest num/den.

    The stdlib takes a generator-based pure-Python path whenever ``indent``
    is set.  This one keeps the C string escaper, writes the scalar members
    of a container in its own loop, each piece a chunk of members at a time
    into its layout split into literal parts, and a point as a piece of one
    member, and recurses only into the other containers and floats.  Every
    text goes into one list, the texts between members cached per dict
    shape, and one join writes the document: no subtree's text is copied on
    its way up.
    """
    out = _Texts()
    _write(o, approx, _pad, out)
    return "".join(out)


_CHUNK = 256  # members joined into one text


class _Texts(list):
    """The texts of a document, in order.  With ``write`` set, ``spill``
    writes the texts so far as one and drops them once they hold a chunk's
    worth of members; the piece writer spills after each chunk."""
    __slots__ = ("write", "members")

    def __init__(self, write=None):
        super().__init__()
        self.write, self.members = write, 0

    def spill(self, members: int) -> None:
        self.members += members
        if self.write is not None and self.members >= _CHUNK:
            self.write("".join(self))
            self.clear()
            self.members = 0


def dump(o, fp, approx: bool = False) -> None:
    """Write ``dumps(o, approx)`` and a newline to the text file fp, as
    ``print`` would: the texts go out whenever they hold a chunk's worth of
    a window's members, and the rest at the end, so beside the texts of the
    document's small parts at most two chunks of members are held."""
    out = _Texts(fp.write)
    _write(o, approx, "\n", out)
    out.append("\n")
    fp.write("".join(out))


def _write(o, approx: bool, pad: str, out: list) -> None:
    """Append the texts of o at this indent to ``out``, for ``dumps``."""
    t = type(o)
    if t is dict or t is list:
        if not o:
            out.append("{}" if t is dict else "[]")
            return
        inner, extra = pad + "  ", ()
        if t is dict:
            keys = tuple(o)
            if approx and o.keys() == _PAIR and o["den"]:
                try:
                    extra = (float.__repr__(o["num"] / o["den"]),)
                    keys += ("approx",)
                except OverflowError:  # |num/den| is beyond the largest float
                    pass
            # the texts before each member, and the closing brace
            heads = _object_heads(keys, pad)
        else:
            heads = ("[" + inner, *["," + inner] * (len(o) - 1), pad + "]")
        for head, v in zip(heads, o.values() if t is dict else o):
            out.append(head)
            tv = type(v)
            if tv is str:
                v = encode_basestring_ascii(v)
            elif tv is int:
                v = int.__repr__(v) if -_SHORT_INT < v < _SHORT_INT else int_text(v)
            elif tv is bool:
                v = "true" if v else "false"
            elif v is None:
                v = "null"
            elif tv is Piece or tv is PointVerdict:
                _write_piece(v if tv is Piece else Piece(None, v.n, v.n, v, None), inner,
                             approx, out)
                continue
            else:
                _write(v, approx, inner, out)
                continue
            out.append(v)
        for v in extra:
            out += (heads[-2], v)
        out.append(heads[-1])
    elif t is str:
        out.append(encode_basestring_ascii(o))
    elif t is int:
        out.append(int_text(o))
    elif o is None:
        out.append("null")
    elif t is bool:
        out.append("true" if o else "false")
    elif t is float:
        r = float.__repr__(o)
        out.append(_NON_FINITE.get(r, r))
    elif callable(o):
        _write(o(), approx, pad, out)
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


_SLOT = "\0"  # a placeholder value; dumps writes it as "\u0000"
_NAME = "\1"  # a placeholder for an enum value, inside its string


@lru_cache(maxsize=256)
def _point_layout(pad: str, slopes: int, degenerate: int, rp2: bool, witness: bool,
                  approx: bool) -> str:
    """The text of a point at this indent with a %s slot for each value, from
    ``dumps`` of a placeholder point whose form is the RP2 form or has
    placeholder b and pairs (each with an approx slot when ``approx`` is
    set); so its text is a skeleton with slots for them.  Those slots and the
    tag's and reason's lie inside strings, which digits, '-' and the enum
    values pass unchanged.  This is the one place that gives a point's JSON
    its keys and nesting."""
    s = _SLOT
    form = form_json(SeifertForm(base=Base.RP2) if rp2
                     else _trusted_form(s, ((s, s),) * slopes, degenerate))
    for pair in form["slopes"] if approx else ():
        pair["approx"] = s
    point = {"n": s, "m_n": s, "seifert_form": form, "tag": _NAME,
             "verdict": {"is_lspace": s, "reason": _NAME,
                         "witness": {"k": s, "a": s} if witness else None,
                         "witness_is_dual": s, "search_bound": s, "infinite_h1": s}}
    value, name = encode_basestring_ascii(s), encode_basestring_ascii(_NAME)[1:-1]
    # the values first: what is left of a placeholder lies inside a string
    return (dumps(point, False, pad).replace("%", "%%").replace(value, "%s")
            .replace(value[1:-1], "%s").replace(name, "%s"))


def _slots(n, slope, b, pairs, approxes, tag, reason, witness, dual, bound) -> list:
    """The values of a point's layout slots, in order: b is None for the
    RP2 form, whose b = 0 is in its layout; ``approxes``, None without
    approx, holds each pair's float; ``witness`` is (k, a) or None."""
    slots = [n, "null" if slope is None else slope]
    if b is not None:
        flat = sum(pairs, ())  # a classified form has at most three pairs
        slots.append(b)
        if approxes is None:
            slots += flat
        else:
            for (num, den), x in zip(pairs, approxes):
                slots += (num, den, x)
        slots.append(b)
        slots += flat
    slots += (tag._value_, "true" if reason.is_lspace else "false", reason._value_)
    if witness is not None:
        slots += witness
    slots += ("true" if dual else "false", "null" if bound is None else bound,
              "true" if reason is _INFINITE else "false")
    return slots


def _fill(layout: str, values) -> str:
    """``layout % values``, with no ``repr``; an int past
    sys.get_int_max_str_digits() goes through ``int_text``."""
    try:
        return layout % values
    except ValueError:
        return layout % tuple([int_text(x) if type(x) is int else x for x in values])


_VAR = "\2"  # before the name of a column that moves along a piece


def _piece_layout(piece: Piece, columns: tuple, pad: str, approx: bool) -> tuple:
    """The literal parts of the layout of a piece's members, behind the
    separator of a list at this indent, and the names of the columns between
    them: ``_point_layout`` filled with the values of ``piece.first`` and,
    for n and each of the piece's ``columns`` that moves, a marker, then
    split once at the markers.  The names are those of ``_write_piece``'s
    columns; "x" is the approx of the moving pair and "k", "a" the
    witness's."""
    first = piece.first
    f, v, w = first.form, first.verdict, first.verdict.witness
    slopes, bs, nums, dens, ws, bounds = columns
    x, pairs = _VAR, list(f.pairs)
    approxes = [num / den for num, den in pairs] if approx else None
    if dens is not None:
        num, _ = pairs[piece.slot]
        pairs[piece.slot] = (num if nums is None else x + "p"), x + "d"
        if approx:
            approxes[piece.slot] = x + "x"
    rp2 = f.base is _RP2
    if w is not None:
        w = (w.k, w.a) if ws is None else (x + "k", x + "a")
    slots = _slots(x + "n", first.slope if slopes is None else x + "m",
                   None if rp2 else f.b if bs is None else x + "b", pairs, approxes, first.tag,
                   v.reason, w, v.witness_is_dual, v.search_bound if bounds is None else x + "s")
    text = _fill(_point_layout(pad, len(pairs), f.degenerate, rp2, w is not None, approx),
                 tuple(slots))
    parts = ("," + pad + text).split(x)
    return [parts[0]] + [t[1:] for t in parts[1:]], [t[0] for t in parts[1:]]


def _texts(values: list) -> list:
    """The JSON texts of ints and floats; an int past
    sys.get_int_max_str_digits() goes through ``int_text``."""
    try:
        return [f"{x}" for x in values]
    except ValueError:
        return [int_text(x) if type(x) is int else f"{x}" for x in values]


def _write_piece(piece: Piece, pad: str, approx: bool, out: list) -> None:
    """Append the JSON texts of a piece's members to ``out``, as members of
    a list at this indent, the first after the head the list leaves to it;
    a single's, as the one member of its piece, after any head.

    The piece's layout is split once, by ``_piece_layout``; a chunk of
    members is one join of its literal parts with the texts of the values
    of their columns, which ``Piece.columns`` gives, and nothing scans the
    literal text per member.  ``out.spill`` counts each chunk's members.
    """
    columns = piece.columns()
    lits, names = _piece_layout(piece, columns, pad, approx)
    cols = {name: iter(col) for name, col in
            zip("nmbpdws", (range(piece.lo, piece.hi + 1), *columns)) if col is not None}
    # the first member follows the list's head, not a separator
    head, named = chain((lits[0][len(pad) + 1:],), repeat(lits[0])), set(names)
    for start in range(0, piece.hi - piece.lo + 1, _CHUNK):
        values = {name: list(islice(col, _CHUNK)) for name, col in cols.items()}
        if "w" in values:
            ws = values["w"]
            values["k"], values["a"] = [w.k for w in ws], [w.a for w in ws]
        if approx and "d" in values:
            ps = values.get("p") or repeat(piece.first.form.pairs[piece.slot][0])
            values["x"] = list(map(truediv, ps, values["d"]))
        texts = {name: _texts(values[name]) for name in named}
        row = [head if start == 0 else repeat(lits[0])]
        for name, lit in zip(names, lits[1:]):
            row += (texts[name], repeat(lit))
        out.append("".join(chain.from_iterable(zip(*row))))
        out.spill(len(values["n"]))


def rational_json(x):
    if x is None:
        return None
    if not is_finite(x):
        return {"num": 1, "den": 0}
    return {"num": x.numerator, "den": x.denominator}


def form_json(f: SeifertForm):
    return {
        "base": f.base.value,
        "b": f.b,
        "slopes": [{"num": p, "den": q} for p, q in f.pairs],
        "degenerate": f.degenerate,
        "text": repr(f),
    }


def classification_json(c: Classification):
    out = {"tag": c.tag.value}
    if c.h1 is None:
        out["h1"] = None
        out["h1_infinite"] = False
    elif c.h1 is INF:
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


def threshold_json(t: ThirdSlotThreshold):
    return {
        "b": t.b,
        "r1": {"num": t.r1[0], "den": t.r1[1]},
        "r2": {"num": t.r2[0], "den": t.r2[1]},
        "kind": t.kind.value,
        "boundary": None if t.cut is None else {"num": t.cut[0], "den": t.cut[1]},
        "attained": t.attained,
    }


def tail_json(t: Run, limit_slope):
    pos = t.to_n is None
    out = {
        "side": "pos" if pos else "neg",
        "status": "Certified",
        "is_lspace": t.is_lspace,
        "from_n": t.from_n if pos else t.to_n,
        "limit_slope": rational_json(limit_slope),
        "band_base": t.band_base,
    }
    if t.threshold is not None:
        out["threshold"] = threshold_json(t.threshold)
        # the side the slopes approach the limit from, in the threshold's
        # coordinates
        out["direction"] = "from_above" if pos != t.mirrored else "from_below"
        if t.mirrored:
            out["mirrored"] = True
    return out


def segment_json(s: Run):
    out = {
        "from_n": s.from_n,
        "to_n": s.to_n,
        "is_lspace": s.is_lspace,
        "band_base": s.band_base,
        "threshold": None if s.threshold is None else threshold_json(s.threshold),
    }
    if s.mirrored:
        out["mirrored"] = True
    return out


def report_json(r: FamilyReport, window):
    """The report shown on the window lo..hi, from one walk of
    ``r.pieces``; its points are the singles' ``PointVerdict``s and the
    ``Piece``s between them, which ``dumps`` writes a chunk of members at a
    time."""
    rows = list(r.pieces(*window))
    runs = [row for row in rows if type(row) is Run]
    return {
        "window": list(window),
        "points": [p for p in rows if type(p) is not Run],
        "segments": [segment_json(s) for s in runs[1:-1]],
        "tail_pos": tail_json(runs[-1], r.limit_slope),
        "tail_neg": tail_json(runs[0], r.limit_slope),
        "limit": form_json(r.limit),
        "limit_verdict": verdict_json(r.limit_verdict),
        "exceptional": [{"n": n, "tag": tag.value} for n, tag in r.exceptional],
    }


def describe_tail(t: Run, limit_slope) -> str:
    pos = t.to_n is None
    what = "L-space" if t.is_lspace else "not an L-space"
    out = f"{what} for all n {'>=' if pos else '<='} {int_text(t.from_n if pos else t.to_n)}"
    if t.threshold is not None and t.threshold.cut is not None:
        out += (f"  [limit slope {format_rational(limit_slope)} approached "
                f"from {'above' if pos != t.mirrored else 'below'}; "
                f"band base {int_text(t.band_base)}, "
                f"boundary {pair_text(*t.threshold.cut)}"
                + ("; computed on the mirror" if t.mirrored else "") + "]")
    return out


def describe_segment(s: Run) -> str:
    what = "L-space" if s.is_lspace else "not an L-space"
    out = f"{what} for all {int_text(s.from_n)} <= n <= {int_text(s.to_n)}"
    if s.threshold is None:
        return out + "  [lens spaces]"
    cut = s.threshold.cut
    boundary = "" if cut is None else f", boundary {pair_text(*cut)}"
    return (out + f"  [band base {int_text(s.band_base)}{boundary}"
            + ("; computed on the mirror" if s.mirrored else "") + "]")
