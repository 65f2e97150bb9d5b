"""The CLI output sweep: invocations whose bytes a change must keep.

``groups()`` maps each group's name to its invocations, each an argv list
for ``cli.main``: one group per verb, one per catalog family for
``family run``, and one per family kind run through ``--params``.  Between
them they cover

- every catalog family over eight windows, from -20..20 and -1000..1000
  out to -10^19;
- every family kind through ``--params``: the mirrored and offset kinds,
  degenerate parameters, 4,001-digit parameters and the error paths;
- the epsilon = 10^-3, 10^-4, 10^-6 and 10^-9 twist scans over two
  windows, seeded random scans, and scans with a 4,001-digit m, window or
  alpha;
- ``decide``, ``h1``, ``normalize`` and ``threshold`` on small and
  4,001-digit inputs, and their error paths;
- ``family list``, ``reproduce`` and each ``--only`` case;
- each verb's help and argparse's usage errors (the group ``usage``).

Every invocation but those of ``usage`` runs as text, ``--json`` and
``--json --float``.  ``record(argv)`` runs one in process and returns its
argv, exit code, stdout with elapsed_ms blanked, and stderr as one text;
a group's digest is the sha256 of its records in order.  ``usage`` holds
texts argparse and the interpreter word, so its digest belongs to the
Python version it was recorded on (``USAGE_PYTHON``).

Run from the root of a checkout:

    python tests/sweep.py            # one sha256 per group
    python tests/sweep.py --digests  # one sha256 per invocation, to diff
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

if __name__ == "__main__":  # run as a script: import the package from src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from seifert_lspace.cli import main
from seifert_lspace.corpus import CASES
from seifert_lspace.families import catalog

MODES = ((), ("--json",), ("--json", "--float"))
USAGE_PYTHON = (3, 11)

_BIG = 10 ** 4000 + 7  # 4,001 digits: under the interpreter's 4,300-digit limit
_HUGE = "1" + "0" * 4398 + "1"  # the text of 4,400 digits: past it
_WINDOWS = ("-20..20", "-1000..1000", "200..260", "-261..-199", "999950..1000000",
            f"{10 ** 9}..{10 ** 9 + 40}", f"{-10 ** 12 - 40}..{-10 ** 12}",
            f"{-10 ** 19 - 30}..{-10 ** 19 + 30}")
_KIND_WINDOWS = ("-20..20", "-300..300", f"{10 ** 6}..{10 ** 6 + 20}",
                 f"{-10 ** 19 - 10}..{-10 ** 19 + 10}")
# each kind's parameters: two ordinary sets, one of 4,001 digits and one
# the kind rejects
_PARAMS = {
    "p+q": ("p=3,q=2", "p=7,q=4", f"p={_BIG},q={_BIG + 2}", "p=7,q=-4"),
    "p-q": ("p=5,q=2", "p=9,q=4", f"p={_BIG + 2},q={_BIG}", "p=4,q=6"),
    "k4p1": ("p=2", "p=5", f"p={_BIG}", "p=-3"),
    "k4p3": ("p=2", "p=5", f"p={_BIG}", "p=0"),
    "k2p2": ("p=2", "p=5", f"p={_BIG}", "p=-3"),
    "unknot": ("m=-2,p=7", "m=-5,p=5", f"m={-_BIG},p=3", "m=2,p=7"),
    "spor-a": ("p=3", "p=5", f"p={_BIG}", "p=1"),
    "spor-b": ("p=2", "p=3", f"p={_BIG}", "p=-2"),
    "spor-c": ("p=2", "p=3", f"p={_BIG}", "p=0"),
    "spor-d": ("p=2", "p=3", f"p={_BIG}", "p=-2"),
    "berge-vii": ("a=3,b=5", "a=1,b=2", f"a={_BIG},b={_BIG + 1}", "a=2,b=4"),
    "berge-viii": ("a=-3,b=7", "a=3,b=5", f"a={_BIG},b={_BIG + 1}", "a=2,b=4"),
    "em-rp2": ("l=3", "l=-2", f"l={_BIG}", "l=0"),
}
_FORMS = ("SFS[S2; -2; 2/3, 2/3, 2/3]", "SFS[S2; -1; 1/7, 1/3, 1/2]",
          "SFS[S2; 1; 1/2, 1/3, 1/7]", "SFS[S2; 0; 2/3, -2/5]", "SFS[S2; -1; 1/2, 1/2]",
          "SFS[S2; 3; 1/2, 2/3, inf]", "SFS[S2; 0; 5/3, 1/2]", "SFS[RP2]",
          "SFS[S2; -1; 1/3, 1997/3000, 123456789012345678/999999999999999989]",
          f"SFS[S2; {-_BIG}; 1/2, 1/3, 1/5]", f"SFS[S2; -1; 1/2, 1/3, {_BIG}/{3 * _BIG + 1}]",
          f"SFS[S2; -2; {_BIG}/{_BIG + 1}, 2/3, 2/3]", f"SFS[S2; 0; {_BIG}, -2/5]",
          f"SFS[S2; -1; 1/{_BIG}, {_BIG - 1}/{_BIG}, 1/2]")
_FORM_ERRORS = ("SFS[S2; nope]", "SFS[S2; 1; 1/2,]", "SFS(S2; 1)", "SFS[S2; 0; 0/0]",
                "SFS[S2; 0; 1/2, 1/3, 1/5, 1/7]", f"SFS[S2; 0; {_HUGE}/3, 1/2, 1/3]")
_TRIPLES = (("-2", "2/3", "2/3"), ("-1", "1/3", "1997/3000"), ("-1", "2/5", "1/2"),
            ("0", "1/2", "1/3"), ("-1", "1/2", "1/2"), ("1", "1/3", "1/5"),
            ("-3", "1/2", "1/3"), ("-1", f"1/{_BIG}", "1/2"),
            ("-2", f"{_BIG}/{2 * _BIG + 1}", "2/3"), ("-1", f"1/{_BIG}", f"{_BIG}/{_BIG + 1}"),
            ("-1", "1/0", "1/2"), ("-1", "x", "1/2"), ("-1", "3/2", "1/2"))


def _modes(argv: list) -> list:
    """argv as text, --json and --json --float, the flags before any "--"."""
    k = argv.index("--") if "--" in argv else len(argv)
    return [argv[:k] + list(mode) + argv[k:] for mode in MODES]


def _scan(b, r1, r2, alpha, beta, alpha3, beta3, window, m=0, l=0) -> list:
    return ["twist-scan", f"--b={b}", f"--r1={r1}", f"--r2={r2}", f"--alpha={alpha}",
            f"--beta={beta}", f"--alpha3={alpha3}", f"--beta3={beta3}", f"--m={m}",
            f"--l={l}", f"--window={window}"]


def _random_scans(rng: random.Random, count: int) -> list:
    """Scans of seeded random det-1 seiferter data with entries up to
    10^18, slopes in (0, 1) and windows of up to 41 indices."""
    out = []
    for _ in range(count):
        big = 10 ** rng.choice([1, 2, 18])
        while True:
            alpha3, alpha = rng.randint(1, big), rng.randint(-big, big)
            if Fraction(alpha, alpha3).denominator == alpha3:
                break
        beta3 = (pow(alpha, -1, alpha3) if alpha3 > 1 else 0) + alpha3 * rng.randint(-3, 3)
        beta = (alpha * beta3 - 1) // alpha3
        r1, r2 = (f"{rng.randint(1, q - 1)}/{q}" for q in rng.choices([2, 3, 7, 10 ** 18 + 9], k=2))
        lo = rng.choice([0, -20, 10 ** 6, -10 ** 18])
        out.append(_scan(rng.randint(-3, 2), r1, r2, alpha, beta, alpha3, beta3,
                         f"{lo}..{lo + rng.randint(0, 40)}", rng.randint(-big, big),
                         rng.randint(0, big)))
    return out


def _scans() -> list:
    out = []
    for e in (3, 4, 6, 9):
        r2 = Fraction(2, 3) - Fraction(1, 10 ** e)
        k3 = 10 ** e // 3
        for window in ("-50..50", f"{k3 - 20}..{k3 + 20}"):
            out.append(_scan(-1, "1/3", r2, 1, 0, 1, 1, window))
    out += _random_scans(random.Random(1219), 60)
    out += [_scan(-1, "1/3", "2/3", 1, 0, 1, 1, "-5..5", m=_BIG),
            _scan(-1, "1/3", "1997/3000", 1, 0, 1, 1, f"{_BIG}..{_BIG + 5}"),
            _scan(0, "1/2", "4/5", _BIG, _BIG - 1, 1, 1, "-5..5", l=3)]
    out += [_scan(-1, "2/3", "1/3", 2, 1, 1, 2, "-3..3"),  # determinant 3
            _scan(-1, "5/3", "1/3", 1, 0, 1, 1, "-3..3"),
            _scan(-1, "1/3", "1/2", 1, 0, 0, 1, "-3..3"),
            _scan(-1, "1/3", "1/2", 1, 0, 1, 1, "-3..3", l=-1)]
    return out


def _usage() -> list:
    """Each verb's help and argparse's usage errors: bad windows, missing
    and mistyped arguments, and a 4,400-digit integer."""
    out = [[*verb, "--help"] for verb in ([], ["decide"], ["h1"], ["normalize"], ["threshold"],
                                         ["twist-scan"], ["family"], ["family", "list"],
                                         ["family", "run"], ["reproduce"])]
    out += [[], ["nope"], ["decide"], ["family"], ["threshold", "-1", "1/2"],
            ["threshold", "x", "1/2", "1/3"], ["twist-scan", "--b=-1"],
            ["family", "run", "p+q", "--params", f"p={_HUGE},q=2"]]
    scan = _scan(-1, "1/3", "1/2", 1, 0, 1, 1, "0..1")[:-1]
    out += [scan + [f"--window={w}"] for w in ("x", "5..1", "0..1000000", "1/2..3",
                                               f"0..{_HUGE}", "-1000000..0")]
    out += [["family", "run", "K(3,2;5,n)", f"--window={w}"] for w in ("1..0", f"{_HUGE}..0")]
    return out


def groups() -> dict:
    """Each group's name and its invocations, in order."""
    out = {}
    for verb in ("decide", "h1", "normalize"):
        out[verb] = [a for form in _FORMS + _FORM_ERRORS for a in _modes([verb, "--", form])]
    out["threshold"] = [a for t in _TRIPLES for a in _modes(["threshold", "--", *t])]
    out["twist-scan"] = [a for argv in _scans() for a in _modes(argv)]
    out["family list"] = _modes(["family", "list"])
    out["reproduce"] = [a for only in (None, *(c.name for c in CASES), "tunnel", "no-such-case")
                        for a in _modes(["reproduce"] + ([] if only is None else ["--only", only]))]
    for spec in catalog():
        out[f"family run {spec.name}"] = [
            a for w in _WINDOWS for a in _modes(["family", "run", spec.name, f"--window={w}"])]
    for kind in ("tunnel2-a", "tunnel2-b"):
        out[f"family run {kind}"] = [a for name in (kind, kind.upper()) for w in _KIND_WINDOWS
                                     for a in _modes(["family", "run", name, f"--window={w}"])]
    for kind, (first, second, big, bad) in _PARAMS.items():
        runs = [(p, w) for p in (first, second) for w in _KIND_WINDOWS]
        out[f"family run {kind}"] = [
            a for params, w in runs + [(big, "0..3"), (bad, "-3..3")]
            for a in _modes(["family", "run", kind, "--params", params, f"--window={w}"])]
    out["family run errors"] = [
        a for argv in (["nope"], ["berge"], ["p+q"], ["p+q", "--params", "p7"],
                       ["p+q", "--params", "p=x"], ["p+q", "--params", "p=7"],
                       ["p+q", "--params", "p=3,p=5,q=2"], ["nope-kind", "--params", "p=7"],
                       ["p+q", "--params", "p=4,q=6"], ["tunnel2-a", "--params", "p=1"])
        for a in _modes(["family", "run", *argv])]
    out["usage"] = _usage()
    return out


def record(argv: list) -> str:
    """argv, the exit code, stdout with elapsed_ms blanked and stderr of one
    in-process ``cli.main`` call, argparse's exits included, as one text.
    Help is wrapped at 80 columns whatever the terminal."""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as e:
                rc = e.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    text = re.sub(r'"elapsed_ms": [^,\n]*', '"elapsed_ms": 0', out.getvalue())
    return f"{' '.join(argv)}\n{rc}\n{text}\n{err.getvalue()}"


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def _shown(argv: list) -> str:
    """argv with each argument past 60 characters cut to its start and
    length."""
    return " ".join(a if len(a) <= 60 else f"{a[:40]}...[{len(a)} chars]" for a in argv)


if __name__ == "__main__":
    per_invocation = sys.argv[1:] == ["--digests"]
    if sys.argv[1:] not in ([], ["--digests"]):
        sys.exit("usage: python tests/sweep.py [--digests]")
    for name, argvs in groups().items():
        if per_invocation:
            for argv in argvs:
                print(f"{digest([record(argv)])}  {name}  {_shown(argv)}")
        else:
            print(f"{digest(map(record, argvs))}  {name}  ({len(argvs)} invocations)")
