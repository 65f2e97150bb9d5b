"""Command-line front end.

Verbs: decide, h1, normalize, threshold, twist-scan, family (list | run),
reproduce.  Each ``cmd_*`` verb computes its result and returns it; ``main``
is the one output path, which times the verb and prints its text lines or
its JSON envelope, building only the one it prints.  All numeric output is
exact; --float adds decimal approximations to the JSON for human reading
only.  Exit codes: decide uses 0 for an L-space, 1 for not an L-space, 2
for parse or range errors; reproduce exits 1 if any case fails.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import families as fam
from .formats import (ParseError, classification_json, dump, form_json, parse_form,
                      report_json, report_lines, threshold_json, verdict_json)
from .lspace import decide, third_slot_threshold
from .rationals import INF, int_text, pair_text, parse_rational
from .seifert import classify
from .twist import SeiferterData, classify_family


# indices a window may hold; each one is written, but only a piece's first
# member is evaluated, and the others are written from the piece's columns
MAX_WINDOW = 10 ** 6

# twist-scan's seiferter options, in order, as (name, type, default); an
# option without a default is required, and --r1 and --r2 stay texts
_SEIFERTER_OPTIONS = (("b", int, None), ("r1", None, None), ("r2", None, None),
                      ("alpha", int, None), ("beta", int, None), ("alpha3", int, None),
                      ("beta3", int, None), ("m", int, 0), ("l", int, 0))


def _window(text: str):
    """(lo, hi) from "lo..hi"; an ``ArgumentTypeError``, whose text argparse
    prints, names what is wrong with any other text."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("window must look like a..b")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("window ends must be integers") from None
    if lo > hi:
        raise argparse.ArgumentTypeError("empty window")
    if hi - lo >= MAX_WINDOW:
        raise argparse.ArgumentTypeError(f"a window holds at most {MAX_WINDOW} indices")
    return lo, hi


def cmd_decide(args):
    form = parse_form(args.form)
    c = classify(form)
    v = decide(form)

    def lines():
        out = [f"input:  {form!r}",
               f"class:  {c.tag.value}" + ("" if c.h1 is None else
                                           f", |H1| = {'infinite' if c.h1 is INF else int_text(c.h1)}"),
               f"result: {'L-space' if v.is_lspace else 'not an L-space'} ({v.reason.value})"]
        if v.witness is not None:
            out.append(f"witness: k={int_text(v.witness.k)}, a={int_text(v.witness.a)}"
                       + (" (on complemented slopes)" if v.witness_is_dual else ""))
        if v.search_bound is not None:
            out.append(f"search bound: k <= {int_text(v.search_bound)}")
        return out

    return ({"form": args.form},
            lambda: {"form": form_json(form), "classification": classification_json(c),
                     "verdict": verdict_json(v)},
            lines, 0 if v.is_lspace else 1)


def cmd_h1(args):
    form = parse_form(args.form)
    c = classify(form)
    if c.h1 is None:
        text = "n/a (projective base)"
    elif c.h1 is INF:
        text = "infinite"
    else:
        text = int_text(c.h1)
    return ({"form": args.form},
            lambda: {"form": form_json(form), "classification": classification_json(c)},
            lambda: [f"input: {form!r}", f"|H1| = {text}"], 0)


def cmd_normalize(args):
    form = parse_form(args.form)
    return {"form": args.form}, lambda: {"form": form_json(form)}, lambda: [repr(form)], 0


def cmd_threshold(args):
    t = third_slot_threshold(args.b, parse_rational(args.r1), parse_rational(args.r2))
    if t.cut is None:
        desc = "every r in (0,1) gives an L-space"
    else:
        side = (">" if t.b == -1 else "<") + ("=" if t.attained else "")
        desc = f"L-space exactly for r {side} {pair_text(*t.cut)}"
    return ({"b": args.b, "r1": args.r1, "r2": args.r2}, lambda: {"threshold": threshold_json(t)},
            lambda: [f"S2({args.b}; {args.r1}, {args.r2}, r) for r in (0,1): {desc}"], 0)


def cmd_twist_scan(args):
    inputs = {name: getattr(args, name) for name, _, _ in _SEIFERTER_OPTIONS}
    data = SeiferterData(**(inputs | {"r1": parse_rational(args.r1),
                                      "r2": parse_rational(args.r2)}))
    report = classify_family(data)
    inputs["window"] = list(args.window)
    return (inputs, lambda: {"report": report_json(report, args.window)},
            lambda: report_lines(report, args.window), 0)


def cmd_family(args):
    if args.action == "list":
        specs = fam.catalog()

        def listing():
            return {"families": [{"name": s.name, "description": s.description,
                                  "params": dict(s.params),
                                  "guarantee": repr(s.guarantee),
                                  "members": len(s.members)} for s in specs]}

        return {}, listing, lambda: [f"{s.name:<24} {repr(s.guarantee):<28} {s.description}"
                                     for s in specs], 0
    inputs = {"name": args.name, "window": list(args.window)}
    try:
        if args.params:
            params = {}
            for item in args.params.split(","):
                key, sep, value = item.partition("=")
                if not sep:
                    raise ValueError(f"bad parameter {item!r}; use name=value")
                key = key.strip()
                if key in params:
                    raise ValueError(f"parameter {key!r} given twice")
                try:
                    params[key] = int(value)
                except ValueError as e:
                    if str(e).startswith("Exceeds the limit"):  # too many digits to read
                        raise
                    raise ValueError(f"parameter {key!r} must be an integer, "
                                     f"not {value!r}") from None
            spec = fam.build_family(args.name, **params)
            if isinstance(spec, fam.TorusKnotDegenerate):
                return (inputs, lambda: {"degenerate": True,
                                         "torus_knot": {"a": spec.a, "b": spec.b}},
                        lambda: [f"degenerate parameters: the twisted knot is a torus knot "
                                 f"(a={spec.a}, b={spec.b})"], 0)
        else:
            spec = fam.find_family(args.name)
    except KeyError:
        raise ValueError(f"unknown family {args.name!r}; try 'family list'") from None
    # the reports that check the guarantee are the ones shown
    reports = [classify_family(m) for m in spec.members]
    ok, problems = fam.check_reports(spec, reports)

    def outputs():
        return {"name": spec.name, "guarantee": repr(spec.guarantee),
                "guarantee_confirmed": ok, "problems": problems,
                "reports": [report_json(r, args.window) for r in reports]}

    def lines():
        yield f"family {spec.name}: {spec.description}"
        yield f"claimed: {spec.guarantee!r}  -> {'confirmed' if ok else 'NOT CONFIRMED'}"
        for member, report in zip(spec.members, reports):
            if member.label:
                yield f"member {member.label}:"
            yield from report_lines(report, args.window)

    return inputs, outputs, lines, 0 if ok else 1


def cmd_reproduce(args):
    # imported here so that the other verbs start without the corpus
    from .corpus import run_corpus
    log = []
    try:
        passed, failed, names = run_corpus(args.only, emit=log.append)
    except KeyError:
        raise ValueError(f"no corpus case matching {args.only!r}") from None
    return ({"only": args.only},
            lambda: {"passed": passed, "failed": failed, "failed_cases": names, "log": log},
            lambda: log + [f"{passed} passed, {failed} failed"], 1 if failed else 0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    parsing leaves it unchanged, so every ``main`` call can reuse it."""
    ap = argparse.ArgumentParser(
        prog="seifert-lspace",
        description="Exact L-space decisions for small Seifert fibered spaces "
                    "and twist-family classification along seiferters.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fn, **defaults):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--float", action="store_true",
                       help="with --json, attach decimal approximations (display "
                            "only); text output is unchanged")
        p.set_defaults(fn=fn, **defaults)

    for name, fn, verb_help, form_help in (
            ("decide", cmd_decide, "decide one Seifert form",
             "e.g. \"SFS[S2; -2; 2/3, 2/3, 2/3]\", or - for stdin"),
            ("h1", cmd_h1, "first homology order of a form", "a form, or - for stdin"),
            ("normalize", cmd_normalize, "normal form of a raw description",
             "a form, or - for stdin")):
        p = sub.add_parser(name, help=verb_help)
        p.add_argument("form", help=form_help)
        common(p, fn)

    p = sub.add_parser("threshold", help="exact L-space region in the third slope slot")
    p.add_argument("b", type=int)
    p.add_argument("r1")
    p.add_argument("r2")
    common(p, cmd_threshold)

    p = sub.add_parser("twist-scan", help="classify a twist family from raw seiferter data")
    for name, type_, default in _SEIFERTER_OPTIONS:
        p.add_argument(f"--{name}", type=type_, default=default, required=default is None)
    p.add_argument("--window", type=_window, default=(-50, 50), metavar="a..b",
                   help="twist window, e.g. --window=-50..50")
    common(p, cmd_twist_scan)

    p = sub.add_parser("family", help="catalog families")
    psub = p.add_subparsers(dest="action", required=True)
    common(psub.add_parser("list"), cmd_family, action="list")
    pr = psub.add_parser("run")
    pr.add_argument("name", help="catalog name, a family kind that takes no parameters "
                                 "such as tunnel2-a, or a family kind when --params is given")
    pr.add_argument("--params", default=None, metavar="p=2,q=3",
                    help="named integer parameters; the name is then a family "
                         "kind such as p+q, unknot, spor-a, berge-vii, em-rp2")
    pr.add_argument("--window", type=_window, default=(-50, 50), metavar="a..b",
                    help="twist window, e.g. --window=-50..50")
    common(pr, cmd_family, action="run")

    p = sub.add_parser("reproduce", help="replay the embedded example corpus")
    p.add_argument("--only", default=None, help="run a single case by name")
    common(p, cmd_reproduce)

    return ap


def main(argv=None) -> int:
    """Run one verb and print its result; returns the exit code.

    Each ``cmd_*`` verb returns ``(inputs, outputs, lines, exit_code)``:
    ``outputs()`` builds the exact JSON payload and ``lines()`` the texts
    of the text lines, so either mode builds nothing of the other.  A family
    report's lines stream from ``formats.report_lines``, each piece of the
    window a chunk of members at a time, each text printed as it comes.
    ``main`` is the one place that times a verb and prints: under --json
    the envelope {command, inputs, outputs, elapsed_ms}, written by
    ``formats.dump`` a chunk of a window's members at a time, with
    --float's approximations added as it writes, and elapsed_ms taken when
    the writer reaches it, after the window; otherwise the lines.
    A verb reports bad input by raising ``ValueError`` (``ParseError`` among
    them); that, or one raised while the output is built, prints one
    ``error: ...`` line on stderr and exits 2.
    """
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        # decide, h1 and normalize read the form "-" from stdin, which has
        # no length limit, as an argument has
        if getattr(args, "form", None) == "-":
            args.form = sys.stdin.read()
        inputs, outputs, lines, code = args.fn(args)
        if args.json:
            dump({"command": args.command, "inputs": inputs, "outputs": outputs(),
                  "elapsed_ms": lambda: round((time.perf_counter() - t0) * 1000, 3)},
                 sys.stdout, approx=args.float)
        else:
            for line in lines():
                print(line)
    except (ValueError, ZeroDivisionError) as e:
        print(f"error: {e.annotate() if isinstance(e, ParseError) else e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
