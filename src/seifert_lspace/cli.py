"""Command-line front end.

Verbs: decide, h1, normalize, threshold, twist-scan, family (list | run),
reproduce.  All numeric output is exact; --float adds decimal approximations
for human reading only.  Exit codes: decide uses 0 for an L-space, 1 for not
an L-space, 2 for parse or range errors; reproduce exits 1 if any case fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import corpus as corpus_mod
from . import families as fam
from .formats import (ParseError, classification_json, describe_segment,
                      describe_tail, form_json, parse_form, report_json,
                      threshold_json, verdict_json)
from .lspace import decide, third_slot_threshold
from .rationals import format_rational, parse_rational
from .seifert import UnsupportedFiberCount, classify
from .twist import SeiferterData, classify_family


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _report_envelope(args, inputs, outputs, t0):
    return {
        "command": args.command,
        "inputs": inputs,
        "outputs": outputs,
        "elapsed_ms": round((time.perf_counter() - t0) * 1000, 3),
    }


def _window(text: str):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError("window must look like a..b")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError("empty window")
    return lo, hi


def cmd_decide(args) -> int:
    t0 = time.perf_counter()
    form = parse_form(args.form)
    c = classify(form)
    v = decide(form)
    outputs = {"form": form_json(form, args.float),
               "classification": classification_json(c),
               "verdict": verdict_json(v)}
    lines = [f"input:  {form!r}",
             f"class:  {c.tag.value}" + ("" if c.h1 is None else
                                         f", |H1| = {'infinite' if outputs['classification']['h1_infinite'] else c.h1}"),
             f"result: {'L-space' if v.is_lspace else 'not an L-space'} ({v.reason.value})"]
    if v.witness is not None:
        lines.append(f"witness: k={v.witness.k}, a={v.witness.a}"
                     + (" (on complemented slopes)" if v.witness_is_dual else ""))
    if v.search_bound is not None:
        lines.append(f"search bound: k <= {v.search_bound}")
    _emit(args, _report_envelope(args, {"form": args.form}, outputs, t0), lines)
    return 0 if v.is_lspace else 1


def cmd_h1(args) -> int:
    t0 = time.perf_counter()
    form = parse_form(args.form)
    c = classify(form)
    payload = {"form": form_json(form, args.float), "classification": classification_json(c)}
    if c.h1 is None:
        text = "n/a (projective base)"
    elif payload["classification"]["h1_infinite"]:
        text = "infinite"
    else:
        text = str(c.h1)
    _emit(args, _report_envelope(args, {"form": args.form}, payload, t0),
          [f"input: {form!r}", f"|H1| = {text}"])
    return 0


def cmd_normalize(args) -> int:
    t0 = time.perf_counter()
    form = parse_form(args.form)
    _emit(args, _report_envelope(args, {"form": args.form},
                                 {"form": form_json(form, args.float)}, t0),
          [repr(form)])
    return 0


def cmd_threshold(args) -> int:
    t0 = time.perf_counter()
    r1 = parse_rational(args.r1)
    r2 = parse_rational(args.r2)
    t = third_slot_threshold(args.b, r1, r2)
    payload = {"threshold": threshold_json(t, args.float)}
    if t.boundary is None:
        desc = "every r in (0,1) gives an L-space"
    else:
        side = ">=" if t.kind.value == "UpClosed" else "<="
        if not t.attained:
            side = ">" if t.kind.value == "UpClosed" else "<"
        desc = f"L-space exactly for r {side} {format_rational(t.boundary)}"
    _emit(args, _report_envelope(args, {"b": args.b, "r1": args.r1, "r2": args.r2},
                                 payload, t0),
          [f"S2({args.b}; {args.r1}, {args.r2}, r) for r in (0,1): {desc}"])
    return 0


def _scan_lines(report, float_mode=False):
    rows = []
    lo, hi = report.window
    for n, p in report.points.items():
        mark = "" if lo <= n <= hi else " (gap exception)"
        slope = "-" if p.slope is None else str(p.slope)
        verdict = "L-space" if p.verdict.is_lspace else "NOT L-space"
        wit = ""
        if p.verdict.witness is not None:
            wit = f"  witness (k={p.verdict.witness.k}, a={p.verdict.witness.a})"
        rows.append((n, f"  n={n:>5}  m_n={slope:>8}  {p.form!r:<40} {verdict}{wit}{mark}"))
    rows += [(s.from_n, f"  segment: {describe_segment(s)}") for s in report.segments]
    lines = [line for _, line in sorted(rows, key=lambda row: row[0])]
    lines.append(f"tail n -> +inf: {describe_tail(report.tail_pos)}")
    lines.append(f"tail n -> -inf: {describe_tail(report.tail_neg)}")
    if report.limit is not None:
        lv = report.limit_verdict
        lines.append(f"limit space: {report.limit!r} "
                     f"({'L-space' if lv.is_lspace else 'not an L-space'})")
    if report.exceptional:
        lines.append("exceptional n: "
                     + ", ".join(f"{n} ({tag.value})" for n, tag in report.exceptional))
    return lines


def cmd_twist_scan(args) -> int:
    t0 = time.perf_counter()
    data = SeiferterData(b=args.b, r1=parse_rational(args.r1), r2=parse_rational(args.r2),
                         alpha=args.alpha, beta=args.beta,
                         alpha3=args.alpha3, beta3=args.beta3,
                         m=args.m, l=args.l, realizable=False)
    report = classify_family(data, args.window)
    inputs = {"b": args.b, "r1": args.r1, "r2": args.r2,
              "alpha": args.alpha, "beta": args.beta,
              "alpha3": args.alpha3, "beta3": args.beta3,
              "m": args.m, "l": args.l, "window": list(args.window)}
    _emit(args, _report_envelope(args, inputs,
                                 {"report": report_json(report, args.float)}, t0),
          _scan_lines(report, args.float))
    return 0


def cmd_family(args) -> int:
    t0 = time.perf_counter()
    if args.action == "list":
        specs = fam.catalog()
        payload = {"families": [{"name": s.name, "description": s.description,
                                 "params": dict(s.params),
                                 "guarantee": repr(s.guarantee),
                                 "members": len(s.members)} for s in specs]}
        lines = [f"{s.name:<24} {repr(s.guarantee):<28} {s.description}" for s in specs]
        _emit(args, _report_envelope(args, {}, payload, t0), lines)
        return 0
    try:
        if args.params:
            params = {}
            for item in args.params.split(","):
                key, sep, value = item.partition("=")
                if not sep:
                    raise ValueError(f"bad parameter {item!r}; use name=value")
                params[key.strip()] = int(value)
            spec = fam.build_family(args.name, **params)
            if isinstance(spec, fam.TorusKnotDegenerate):
                print(f"degenerate parameters: the twisted knot is a torus knot "
                      f"(a={spec.a}, b={spec.b})")
                return 0
        else:
            spec = fam.find_family(args.name)
    except KeyError:
        print(f"error: unknown family {args.name!r}; try 'family list'", file=sys.stderr)
        return 2
    except TypeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    reports = [classify_family(m, args.window) for m in spec.members]
    ok, problems = fam.check_reports(spec, reports)
    payload = {"name": spec.name, "guarantee": repr(spec.guarantee),
               "guarantee_confirmed": ok, "problems": problems,
               "reports": [report_json(r, args.float) for r in reports]}
    lines = [f"family {spec.name}: {spec.description}",
             f"claimed: {spec.guarantee!r}  -> {'confirmed' if ok else 'NOT CONFIRMED'}"]
    for member, report in zip(spec.members, reports):
        if member.label:
            lines.append(f"member {member.label}:")
        lines += _scan_lines(report, args.float)
    _emit(args, _report_envelope(args, {"name": args.name,
                                        "window": list(args.window)}, payload, t0), lines)
    return 0 if ok else 1


def cmd_reproduce(args) -> int:
    t0 = time.perf_counter()
    lines = []
    try:
        passed, failed, names = corpus_mod.run_corpus(args.only, emit=lines.append)
    except KeyError:
        print(f"error: no corpus case matching {args.only!r}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(_report_envelope(
            args, {"only": args.only},
            {"passed": passed, "failed": failed, "failed_cases": names,
             "log": lines}, t0), indent=2))
    else:
        for line in lines:
            print(line)
        print(f"{passed} passed, {failed} failed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="seifert-lspace",
        description="Exact L-space decisions for small Seifert fibered spaces "
                    "and twist-family classification along seiferters.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--float", action="store_true",
                       help="attach decimal approximations (display only)")

    p = sub.add_parser("decide", help="decide one Seifert form")
    p.add_argument("form", help="e.g. \"SFS[S2; -2; 2/3, 2/3, 2/3]\"")
    common(p)
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("h1", help="first homology order of a form")
    p.add_argument("form")
    common(p)
    p.set_defaults(fn=cmd_h1)

    p = sub.add_parser("normalize", help="normal form of a raw description")
    p.add_argument("form")
    common(p)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("threshold", help="exact L-space region in the third slope slot")
    p.add_argument("b", type=int)
    p.add_argument("r1")
    p.add_argument("r2")
    common(p)
    p.set_defaults(fn=cmd_threshold)

    p = sub.add_parser("twist-scan", help="classify a twist family from raw seiferter data")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--r1", required=True)
    p.add_argument("--r2", required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--alpha3", type=int, required=True)
    p.add_argument("--beta3", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--window", type=_window, default=(-50, 50), metavar="a..b",
                   help="twist window, e.g. --window=-50..50")
    common(p)
    p.set_defaults(fn=cmd_twist_scan)

    p = sub.add_parser("family", help="catalog families")
    psub = p.add_subparsers(dest="action", required=True)
    pl = psub.add_parser("list")
    common(pl)
    pl.set_defaults(fn=cmd_family, action="list")
    pr = psub.add_parser("run")
    pr.add_argument("name", help="catalog name, or a family kind when --params is given")
    pr.add_argument("--params", default=None, metavar="p=2,q=3",
                    help="named integer parameters; the name is then a family "
                         "kind such as p+q, unknot, spor-a, berge-vii, em-rp2")
    pr.add_argument("--window", type=_window, default=(-50, 50), metavar="a..b",
                    help="twist window, e.g. --window=-50..50")
    common(pr)
    pr.set_defaults(fn=cmd_family, action="run")

    p = sub.add_parser("reproduce", help="replay the embedded example corpus")
    p.add_argument("--only", default=None, help="run a single case by name")
    common(p)
    p.set_defaults(fn=cmd_reproduce)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"error: {e.annotate()}", file=sys.stderr)
        return 2
    except (UnsupportedFiberCount, ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
