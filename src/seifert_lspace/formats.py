"""Text grammar, JSON encoding and a report's text lines.

Text forms are ``SFS[S2; b; r1, r2, ...]`` (slopes may be raw: any rational,
``inf``, or ``n/0`` for a degenerate fiber) and ``SFS[RP2]``.  The parser
reads a form from one regex match of the whole grammar and hands the slopes
to the normal-form core in ``seifert`` as reduced (num, den) integer pairs;
only a text it cannot read is walked token by token, to find the message and
position of its ``ParseError``.  All JSON numbers are exact integer pairs
{"num": ..., "den": ...}.  A report's ``"points"`` are its singles'
``PointVerdict``s and the ``twist.Piece``s between them, each of which
gives its piece by ``as_piece``: the writers tell them from a report's runs
by that method, so this module does not import ``twist``.  ``dumps`` is the
one JSON writer (``dump`` writes its texts to a file as it goes), and
``report_lines`` the one text writer.  Both write a piece a chunk of members
at a time from ``Piece.columns``, a single as a piece of one member: a
piece's layout is filled with what its members share and split once, and a
chunk joins its literal parts with the texts of the columns that move, each
converted once by ``_chunks``; a range column within [-4096, 4096) is cut
from one table of those texts, built when the first window is written and
shared by every window after it.  A JSON layout comes from
``_point_layout``, cached per shape, the one place that gives a point's
JSON its keys.  With ``approx`` set, ``dumps`` adds --float's decimal
approximation to each pair a float holds; it never feeds back into
anything."""

from __future__ import annotations

import re
from functools import cache, lru_cache
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import itemgetter, truediv
from typing import NoReturn

from .rationals import INF, format_rational, int_text, is_finite, pair_text
from .seifert import (_RP2, Base, Classification, SeifertForm, _new_tuple, _normal_form,
                      _trusted_form)
from .lspace import _INFINITE, FoliationWitness, LSpaceVerdict, Reason, ThirdSlotThreshold


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
                    pairs.append((num, den) if g == 1 else (num // g, den // g))
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
    members ``Piece``s, each written as its members' objects (any member
    whose type has ``as_piece`` is written as that piece), and any value a
    callable, written as the value it returns when the writer reaches it.
    With ``approx``, each dict that is a {"num", "den"} pair with den != 0
    and a value a float holds gains a last member "approx", the float
    nearest num/den.

    The stdlib takes a generator-based pure-Python path whenever ``indent``
    is set.  This one keeps the C string escaper, writes each piece a chunk
    of members at a time into its layout split into literal parts, and a
    point as a piece of one member, and writes every other value by one
    dispatch on its type, a {"num", "den"} pair with its approx as a dict
    of three members.  Every text goes into one list, the texts between
    members cached per dict shape, and one join writes the document: no
    subtree's text is copied on its way up.
    """
    out = _Texts()
    _write(o, approx, _pad, out)
    return "".join(out)


_CHUNK = 256  # members joined into one text
_SMALL = 4096  # a range column within [-_SMALL, _SMALL) is cut from one table


class _Texts(list):
    """The texts of a document, in order.  With ``writelines`` set,
    ``spill`` writes them and drops them once they hold a chunk's worth of
    members; the piece writer spills after each chunk."""
    __slots__ = ("writelines", "members")

    def __init__(self, writelines=None):
        super().__init__()
        self.writelines, self.members = writelines, 0

    def spill(self, members: int) -> None:
        self.members += members
        if self.writelines is not None and self.members >= _CHUNK:
            self.writelines(self)
            self.clear()
            self.members = 0


def dump(o, fp, approx: bool = False) -> None:
    """Write ``dumps(o, approx)`` and a newline to the text file fp, as
    ``print`` would: each text goes out as it is, once the texts hold a
    chunk's worth of a window's members or at the end, so beside the
    document's small parts at most two chunks of members are held."""
    out = _Texts(fp.writelines)
    _write(o, approx, "\n", out)
    out.append("\n")
    fp.writelines(out)


def _write(o, approx: bool, pad: str, out: list) -> None:
    """Append the texts of o at this indent to ``out``, for ``dumps``: the
    one place that chooses how a value is written."""
    t = type(o)
    if t is dict or t is list:
        if not o:
            out.append("{}" if t is dict else "[]")
            return
        inner = pad + "  "
        if t is dict:
            if approx and o.keys() == _PAIR and o["den"]:
                try:
                    o = {**o, "approx": o["num"] / o["den"]}
                except OverflowError:  # |num/den| is beyond the largest float
                    pass
            # the texts before each member, and the closing brace
            heads = _object_heads(tuple(o), pad)
        else:
            heads = ("[" + inner, *["," + inner] * (len(o) - 1), pad + "]")
        for head, v in zip(heads, o.values() if t is dict else o):
            out.append(head)
            # a piece writes its members after this head, each a member of
            # this list; every other member is one value
            if (as_piece := getattr(v, "as_piece", None)) is None:
                _write(v, approx, inner, out)
            else:
                _write_piece(as_piece(), inner, approx, out)
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


_SLOT = "\0"  # before the name of a number's slot; dumps writes it as "\u0000"
_VAR = "\2"  # before the name of a column that moves along a piece
_MARKER = re.compile(_VAR + "(.)")


@lru_cache(maxsize=256)
def _point_layout(pad: str, approx: bool, slopes: int, degenerate: int, rp2: bool, tag: str,
                  reason: str, witness: bool, dual: bool) -> tuple:
    """The text of a point of this shape as a member of a list at this
    indent, behind its separator, split into its literal parts with a gap
    (None) between each two for a number; and a getter that picks the gaps'
    texts from those of the point's n, m_n, b, witness k and a, search
    bound, the pairs' nums and dens and, with ``approx``, their approx.
    From ``dumps`` of a point with this tag and reason (values, as an enum
    member hashes in Python code) whose numbers are named markers, its form
    the RP2 form or one with marker b and pairs.  This is the one place that
    gives a point's JSON its keys and nesting, with ``form_json`` and
    ``verdict_json``."""
    order = "nmbkas" + "PDQERF"[:2 * slopes] + ("XYZ"[:slopes] if approx else "")
    s = {c: _SLOT + c for c in "nmbkasPDQERFXYZ"}
    form = form_json(SeifertForm(base=Base.RP2) if rp2 else _trusted_form(
        s["b"], tuple(zip(map(s.get, "PQR"), map(s.get, "DEF")))[:slopes], degenerate))
    for pair, x in zip(form["slopes"], "XYZ") if approx else ():
        pair["approx"] = s[x]
    w = _new_tuple(FoliationWitness, (s["k"], s["a"])) if witness else None
    point = {"n": s["n"], "m_n": s["m"], "seifert_form": form, "tag": tag,
             "verdict": verdict_json(LSpaceVerdict(Reason(reason), w, dual, s["s"]))}
    # a number's marker loses the quotes of the string dumps writes it as;
    # in the form's text, which starts "SFS[" and ends "]", none is quoted
    parts = re.split(r'"?\\u0000(.)"?', "," + pad + dumps(point, False, pad))
    fill = itemgetter(*map(order.index, parts[1::2]))
    parts[1::2] = [None] * (len(parts) // 2)
    return parts, fill


def _piece_layout(piece: Piece, columns: tuple, pad: str, approx: bool) -> list:
    """The layout of a piece's members: ``_point_layout``'s, filled once
    with ``piece.first``'s numbers but for a marker and the column's name
    for each that moves, and split at the markers into its literal parts
    with the name of a column between each two, those of ``_chunks`` and
    "x" for the moving pair's approx.  Nothing moves along one member."""
    first = piece.first
    f, v, w = first.form, first.verdict, first.verdict.witness
    parts, fill = _point_layout(pad, approx, len(f.pairs), f.degenerate, f.base is _RP2,
                                first.tag._value_, v.reason._value_, w is not None,
                                v.witness_is_dual)
    values = [piece.lo, "null" if first.slope is None else first.slope, f.b,
              *((None, None) if w is None else (w.k, w.a)),
              "null" if v.search_bound is None else v.search_bound, *sum(f.pairs, ())]
    if approx:
        values += [p / q for p, q in f.pairs]
    if piece.hi > piece.lo:
        slopes, bs, nums, dens, ws, bounds = columns
        values[0] = _VAR + "n"
        for i, col in enumerate((slopes, bs, ws, ws, bounds), 1):
            if col is not None:
                values[i] = _VAR + "nmbkas"[i]
        if dens is not None:
            # the moving pair's num and den, and its approx after all pairs'
            i = piece.slot
            values[7 + 2 * i] = _VAR + "d"
            if nums is not None:
                values[6 + 2 * i] = _VAR + "p"
            if approx:
                values[6 + 2 * len(f.pairs) + i] = _VAR + "x"
    parts = parts.copy()
    parts[1::2] = fill(_texts(values))
    return _MARKER.split("".join(parts))


def _texts(values: list) -> list:
    """The texts of ints, floats and strs, past the limit of
    sys.get_int_max_str_digits() too."""
    try:
        return [f"{x}" for x in values]
    except ValueError:
        return list(map(int_text, values))


def _chunks(piece: Piece, columns: tuple, approx: bool = False):
    """The texts of what moves along a piece, for both writers: each chunk
    of up to ``_CHUNK`` members as its size and a dict of the texts of "n"
    and of the ``columns`` not None, "m", "b", "p", "d", "s" and the
    witness's "k" and "a", and with ``approx`` the moving pair's "x".  Each
    column of a chunk is converted once.  A range column within
    [-_SMALL, _SMALL) is a slice of ``_small_texts()``, the one table of
    those texts, and any other only where it leaves the run of those before
    it on its lattice (``_range_texts``), so den = n along a torus knot's
    family and den = n + 1 along the alpha = alpha3 = 1 families take n's
    texts."""
    table = _small_texts()
    nums, dens = columns[2:4]
    xs = map(truediv, repeat(piece.first.form.pairs[piece.slot][0]) if nums is None else nums,
             dens) if approx and dens is not None else None
    cols = {c: col for c, col in zip("nmbpdwsx", (range(piece.lo, piece.hi + 1), *columns, xs))
            if col is not None}
    for i in range(0, piece.hi - piece.lo + 1, _CHUNK):
        texts, runs = {}, {}
        for c, col in cols.items():
            if type(col) is range:
                texts[c] = _range_texts(col[i:i + _CHUNK], runs, table)
            elif c == "w":
                ws = list(islice(col, _CHUNK))
                texts["k"], texts["a"] = _texts([w.k for w in ws]), _texts([w.a for w in ws])
            else:
                texts[c] = _texts(list(islice(col, _CHUNK)))
        yield len(texts["n"]), texts


@cache
def _small_texts() -> list:
    """The texts of the ints in [-_SMALL, _SMALL), in order: built when the
    first window is written, never at import, and shared by every window."""
    return [f"{x}" for x in range(-_SMALL, _SMALL)]


def _range_texts(part: range, runs: dict, table: list) -> list:
    """The texts of the range ``part``: a slice of ``table``, the texts of
    ``_small_texts()``, if both its ends lie in [-_SMALL, _SMALL), and
    otherwise converting only its values outside the run ``runs`` holds for
    its lattice.  Ranges of one step whose starts are a multiple of it apart
    lie on one lattice, and its run is the first range converted on it,
    grown by each later one that overlaps it, with its texts; a range apart
    from the run is converted on its own."""
    step = part.step
    if part and -_SMALL <= part.start < _SMALL and -_SMALL <= part[-1] < _SMALL:
        # a descending slice that ends at the table's first text has no stop
        stop = part.stop + _SMALL
        return table[part.start + _SMALL:stop if stop >= 0 else None:step]
    key = step, part.start % step
    hull, texts = runs.get(key) or (part, None)
    j = (part.start - hull.start) // step  # part's first index in hull
    if texts is None or j >= len(hull) or j + len(part) <= 0:
        texts = _texts(part)
        runs.setdefault(key, (part, texts))
        return texts
    if j == 0 and len(part) == len(hull):
        return texts
    below, above = _texts(part[:max(-j, 0)]), _texts(part[len(hull) - j:])
    texts = below + texts + above
    runs[key] = range(hull.start - len(below) * step, hull.stop + len(above) * step, step), texts
    j += len(below)
    return texts[j:j + len(part)]


def _write_piece(piece: Piece, pad: str, approx: bool, out: list) -> None:
    """Append the JSON texts of a piece's members to ``out``, as members of
    a list at this indent, the first after the head the list leaves to it.
    A chunk is one join of copies of ``_piece_layout``'s literal parts with
    the texts ``_chunks`` converted put between them, twice for a column
    written twice (the pair in "slopes" and in "text"); nothing scans the
    literal text per member.  ``out.spill`` counts each chunk's members."""
    columns = piece.columns()
    parts = _piece_layout(piece, columns, pad, approx)
    # the first member follows the list's head, not a separator
    head, names, step = parts[0][len(pad) + 1:], parts[1::2], len(parts)
    if step == 1:  # one member: its text is its layout
        out.append(head)
        out.spill(1)
        return
    for size, texts in _chunks(piece, columns, approx):
        chunk = parts * size
        for i, c in enumerate(names):
            chunk[2 * i + 1::step] = texts[c]
        chunk[0], head = head, parts[0]
        out.append("".join(chunk))
        out.spill(size)


def _line_layout(piece: Piece, columns: tuple, mark: str) -> tuple:
    """The literal parts of a piece's members' text lines after m_n, with
    the name of a column, or "" for none, between each two, and m_n's text
    if it does not move: the first member's form's text split once at
    markers in its moving pair, or in b along a lens piece, and its
    verdict, witness and ``mark`` at markers in a moving witness."""
    first = piece.first
    f, v, w = first.form, first.verdict, first.verdict.witness
    slopes, bs, nums, dens, ws, _ = columns
    if bs is not None:
        f = _trusted_form(_VAR + "b", f.pairs, f.degenerate)
    elif dens is not None:
        i, (p, _) = piece.slot, f.pairs[piece.slot]
        pair = p if nums is None else _VAR + "p", _VAR + "d"
        f = _trusted_form(f.b, (*f.pairs[:i], pair, *f.pairs[i + 1:]), f.degenerate)
    w = (_VAR + "k", _VAR + "a") if ws is not None else w and (w.k, w.a)
    wit = "" if w is None else f"  witness (k={int_text(w[0])}, a={int_text(w[1])})"
    rest = f" {'L-space' if v.is_lspace else 'NOT L-space'}{wit}{mark}"
    return ((_MARKER.split(repr(f)) + ["", ""] * 2)[:5],
            (_MARKER.split(rest) + ["", ""] * 2)[:5],
            "-" if first.slope is None else int_text(first.slope))


def _piece_lines(piece: Piece, mark: str):
    """A piece's members' text lines, up to ``_CHUNK`` lines a text: one
    f-string per member of ``_line_layout``'s parts and ``_chunks``' texts,
    padding n to 5, m_n to 8 and the form's text to 40 from the member's own
    texts; no search bound is computed."""
    columns = piece.columns()
    (f0, x, f1, y, f2), (r0, k, r1, a, r2), slope = _line_layout(piece, columns, mark)
    width = 40 - len(f0) - len(f1) - len(f2)
    for _, texts in _chunks(piece, (*columns[:5], None)):
        texts[""] = repeat("")
        cols = zip(texts["n"], texts.get("m") or repeat(slope),
                   texts[x], texts[y], texts[k], texts[a])
        yield "\n".join([f"  n={n:>5}  m_n={m:>8}  {f0}{xs}{f1}{ys}{f2}"
                         f"{' ' * (width - len(xs) - len(ys))}{r0}{ks}{r1}{as_}{r2}"
                         for n, m, xs, ys, ks, as_ in cols])


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
    h1 = None if c.h1 is INF else c.h1
    out = {"tag": c.tag.value, "h1": h1, "h1_infinite": c.h1 is INF}
    if c.summands is not None:
        out["summands"] = list(c.summands)
    return out


def verdict_json(v: LSpaceVerdict):
    # the reason read once, and its own attributes, not the verdict's properties
    r, w = v.reason, v.witness
    return {
        "is_lspace": r.is_lspace,
        "reason": r._value_,
        "witness": None if w is None else {"k": w.k, "a": w.a},
        "witness_is_dual": v.witness_is_dual,
        "search_bound": v.search_bound,
        "infinite_h1": r is _INFINITE,
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
    runs = [row for row in rows if not hasattr(row, "as_piece")]
    return {
        "window": list(window),
        "points": [p for p in rows if hasattr(p, "as_piece")],
        "segments": [segment_json(s) for s in runs[1:-1]],
        "tail_pos": tail_json(runs[-1], r.limit_slope),
        "tail_neg": tail_json(runs[0], r.limit_slope),
        "limit": form_json(r.limit),
        "limit_verdict": verdict_json(r.limit_verdict),
        "exceptional": [{"n": n, "tag": tag.value} for n, tag in r.exceptional],
    }


def report_lines(r: FamilyReport, window):
    """The text lines of the report shown on the window lo..hi, from one
    walk of ``r.pieces``: its segments, and its singles' and pieces'
    members up to ``_CHUNK`` lines a text, a single outside the window
    marked as a gap exception; then its tails, limit and exceptional n."""
    lo, hi = window
    tails = []
    for row in r.pieces(lo, hi):
        if hasattr(row, "as_piece"):
            piece = row.as_piece()
            yield from _piece_lines(piece, "" if lo <= piece.lo <= hi else " (gap exception)")
        elif row.from_n is None or row.to_n is None:
            tails.append(row)
        else:
            yield f"  segment: {describe_segment(row)}"
    yield f"tail n -> +inf: {describe_tail(tails[1], r.limit_slope)}"
    yield f"tail n -> -inf: {describe_tail(tails[0], r.limit_slope)}"
    yield (f"limit space: {r.limit!r} "
           f"({'L-space' if r.limit_verdict.is_lspace else 'not an L-space'})")
    if r.exceptional:
        yield "exceptional n: " + ", ".join(f"{int_text(n)} ({tag.value})"
                                            for n, tag in r.exceptional)


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
