"""Benchmark for seifert-lspace: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload decide-batch --seed 1 --seconds 28 --trace 0

The library is imported from ``src/``; nothing is installed.  One process and
one thread drive the public API as a closed loop with a single caller.  A run
repeats passes over the seeded inputs for about ``--seconds``; every metric
is a median over passes, chunks of forms, rounds of ops or single ops.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics from spans
recorded by ``tracing.Tracer``.  Every output is checked against
answers known independently of the library.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  See
README.md in this directory for the workloads and the known defects.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
from bisect import bisect
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEEP_LIMIT_S = 0.15
CATALOG_LIMIT_S = 5.0
SETUP_SPAWNS = 7
# Every time is scaled to a nominal host on which the reference slice takes
# REF_NOMINAL_S; the slice is timed about every GAUGE_EVERY_S seconds.
REF_NOMINAL_S = 0.005
GAUGE_EVERY_S = 0.25
CHUNK = 1000  # forms run back to back; batch metrics are medians over chunks
CHUNK_WARM = 20  # forms run untimed before a chunk; their spans carry WARM_OP
WARM_OP = -2

# Each workload runs the same three phases; the sizes decide which one
# dominates.  The small phases keep every end-to-end metric defined on every
# workload.  Where a workload makes only two passes, its small phases run in
# several rounds per pass, so that their medians rest on more samples.
WORKLOADS = {
    "decide-batch": dict(decades=range(1, 5), gap_bits=(), deep_rounds=1,
                         window=20, scans=(3,), reproduce_only="decide-spots",
                         catalog_rounds=1),
    "decide-deep": dict(decades=range(1, 19),
                        gap_bits=(16, 32, 64, 128, 256, 512, 1024, 2048), deep_rounds=1,
                        window=20, scans=(3,), reproduce_only="decide-spots",
                        catalog_rounds=6),
    "family-catalog": dict(decades=range(1, 5), gap_bits=(), deep_rounds=6,
                           window=1000, scans=(3, 4, 5, 6), reproduce_only=None,
                           catalog_rounds=1),
}
FORMS = 20_000
REPRODUCE_REPEAT = 5

SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import seifert_lspace.cli
t1 = time.perf_counter()
from seifert_lspace import families
families.catalog()
t2 = time.perf_counter()
print(json.dumps({"import_ms": (t1 - t0) * 1e3, "catalog_ms": (t2 - t1) * 1e3}))
"""

CALLS = ("rationals.simplest_between", "seifert.normalize", "seifert.classify",
         "lspace.decide", "lspace.third_slot_threshold", "twist.classify_family",
         "twist.evaluate_point", "families.check_guarantee", "formats.report_json")
GROWTH = (("lspace.decide", "decide"),
          ("lspace.third_slot_threshold", "threshold"),
          ("rationals.simplest_between", "narrow-gap"))


E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio",
             "decided_ratio": "ratio", "batch_forms_per_s": "1/s", "batch_us_p50": "us",
             "batch_us_p99": "us", "deep_decide_s": "s", "deep_threshold_s": "s",
             "catalog_s": "s", "family_run_ms_p50": "ms", "twist_scan_s": "s",
             "reproduce_ms_p50": "ms"}
LAYER_UNITS = ((".calls", "count"), ("us_p50", "us"), ("ms_p50", "ms"), (".ms", "ms"),
               ("_ms", "ms"), ("_exp", "log-log"), (".top_bits", "bits"),
               ("_ratio", "ratio"), ("_points", "count"), ("_bytes", "B"), (".sloc", "lines"))


def unit_of(name):
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    return next(unit for suffix, unit in LAYER_UNITS if name.endswith(suffix))


class OpTimeout(BaseException):
    """Raised from SIGALRM.  It derives from BaseException so that no
    ``except Exception`` in the library or the CLI can swallow it."""


TIMEOUT = object()


class Limiter:
    """Runs one op under a wall-clock limit set with ``setitimer``."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout

    def call(self, fn, limit):
        """(seconds, result, exception); a timeout gives (limit, TIMEOUT, None)."""
        t0 = perf_counter()
        try:
            try:
                self.armed = True
                signal.setitimer(signal.ITIMER_REAL, limit)
                result, error = fn(), None
            except Exception as e:  # the op failed; its exception is the outcome
                result, error = None, e
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            return limit, TIMEOUT, None
        return perf_counter() - t0, result, error


_REF_TOKEN = re.compile(r"-?\d+/\d+|-?\d+|[A-Za-z]\w*|[\[\];,]")


def reference_slice():
    """Fixed work, independent of the library, of the same kinds it does:
    exact fraction arithmetic, regex tokenizing, small dicts and JSON."""
    acc, out = Fraction(0), []
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i + 1)
        out.append({"n": i, "num": acc.numerator % 1000,
                    "tok": _REF_TOKEN.findall(f"SFS[S2; {i}; {i}/{i + 1}]")})
    return json.dumps(out)


class Gauge:
    """Host speed, read off the reference slice.

    On a shared 2-vCPU virtual machine the speed switches between regimes
    about 1.6x apart, each lasting tens of seconds, and every wall time of a
    run moves with it.  The slice is timed every GAUGE_EVERY_S seconds
    between ops; ``factor`` scales a time measured in [t0, t1] to the nominal
    host, using the three slices timed nearest to it.
    """

    def __init__(self):
        self.at, self.took = [], []
        self.next = 0.0

    def tick(self, force=False):
        if not force and perf_counter() < self.next:
            return
        enabled = gc.isenabled()
        gc.disable()  # a collection in the slice would depend on the library's heap
        try:
            t0 = perf_counter()
            reference_slice()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.next = t1 + GAUGE_EVERY_S

    def over(self, t0, t1):
        """The factor for a long stretch such as a pass: from the median of
        the slices timed within it."""
        took = [d for at, d in zip(self.at, self.took) if t0 <= at <= t1]
        return REF_NOMINAL_S / statistics.median(took) if took else self.factor(t0, t1)

    def factor(self, t0, t1):
        mid = (t0 + t1) / 2
        i = bisect(self.at, mid)
        near = sorted(range(max(0, i - 3), min(len(self.at), i + 3)),
                      key=lambda j: abs(self.at[j] - mid))[:3]
        return REF_NOMINAL_S / statistics.median(self.took[j] for j in near)


@dataclass
class Inputs:
    forms: list
    deep: list
    deep_forms: list
    catalog: list
    schedule: list
    digest: str
    deep_rounds: int = 1
    catalog_rounds: int = 1


@dataclass
class PassResult:
    start: float
    wall: float
    lat_ns: list
    outs: list
    deep: list     # (seconds, result, exception) per deep op
    catalog: list  # (seconds, (rc, stdout), exception) per catalog op
    spans: dict    # (phase, index) -> (start, end) of each chunk of forms and op


def make_inputs(workload, seed, answers=True):
    from seifert_lspace import families, seifert
    import inputs as gen

    spec = WORKLOADS[workload]

    def rng(part):
        return random.Random(f"{workload}:{seed}:{part}")

    forms = gen.batch_forms(rng("batch"), FORMS, answers)
    deep = gen.deep_ops(rng("deep"), spec["decades"], spec["gap_bits"]) * spec["deep_rounds"]
    names = [(s.name, len(s.members)) for s in families.catalog()]
    catalog = gen.catalog_ops(rng("catalog"), names, spec["window"], spec["scans"],
                              spec["reproduce_only"], REPRODUCE_REPEAT) * spec["catalog_rounds"]
    deep_forms = [seifert.normalize(op.b, op.slopes) if op.kind == "decide" else None
                  for op in deep]
    groups = {"forms": [("forms", i) for i in range(0, len(forms), CHUNK)]}
    for phase, ops in (("deep", deep), ("catalog", catalog)):
        for j, op in enumerate(ops):
            groups.setdefault((phase, op.kind), []).append((phase, j))
    return Inputs(forms, deep, deep_forms, catalog, _schedule(list(groups.values())),
                  gen.inputs_digest(forms, deep, catalog),
                  spec["deep_rounds"], spec["catalog_rounds"])


def _schedule(groups):
    """Spread each group of units (chunks of forms, or ops of one kind)
    evenly over a pass, so that each metric samples the whole pass; the
    order depends only on the group sizes."""
    keyed = [((k + 0.5) / len(units), g, unit)
             for g, units in enumerate(groups) for k, unit in enumerate(units)]
    return [unit for _, _, unit in sorted(keyed)]


def _cli(argv):
    from seifert_lspace import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def run_pass(inp, limiter, gauge, tracer=None):
    """One timed pass over every input in schedule order, reading the gauge
    between ops; outputs are checked afterwards."""
    from seifert_lspace import formats, lspace

    begin = tracer.begin_op if tracer else None
    parse, decide, verdict_json = formats.parse_form, lspace.decide, formats.verdict_json
    n_forms, n_deep = len(inp.forms), len(inp.deep)
    t_pass = perf_counter()
    res = PassResult(t_pass, 0.0, [0] * n_forms, [None] * n_forms,
                     [None] * n_deep, [None] * len(inp.catalog), {})
    for phase, k in inp.schedule:
        gauge.tick()
        t_unit = perf_counter()
        if phase == "forms":
            # untimed: the first forms after another phase's op would pay for
            # cold caches, and they would be the chunk's top 1%
            if begin:
                begin(WARM_OP)
            for text, _ in inp.forms[k:k + CHUNK_WARM]:
                with contextlib.suppress(Exception):  # the timed loop records it
                    verdict_json(decide(parse(text)))
            t_unit = perf_counter()
            for i in range(k, min(k + CHUNK, n_forms)):
                if begin:
                    begin(i)
                t0 = perf_counter_ns()
                try:
                    out = verdict_json(decide(parse(inp.forms[i][0])))
                except Exception as e:  # a failed form is counted, not fatal
                    out = e
                res.lat_ns[i] = perf_counter_ns() - t0
                res.outs[i] = out
        elif phase == "deep":
            if begin:
                begin(n_forms + k)
            op = inp.deep[k]
            if op.kind == "decide":
                fn = partial(lspace.decide, inp.deep_forms[k])
            else:
                fn = partial(lspace.third_slot_threshold, op.b, *op.slopes)
            res.deep[k] = limiter.call(fn, DEEP_LIMIT_S)
        else:
            if begin:
                begin(n_forms + n_deep + k)
            res.catalog[k] = limiter.call(partial(_cli, inp.catalog[k].argv), CATALOG_LIMIT_S)
        res.spans[phase, k] = (t_unit, perf_counter())
    gauge.tick(force=True)
    res.wall = perf_counter() - t_pass
    return res


# ---------------------------------------------------------------- checking

def _verdict_fields(v):
    return {"is_lspace": v.is_lspace, "reason": v.reason.value,
            "witness": None if v.witness is None else {"k": v.witness.k, "a": v.witness.a},
            "witness_is_dual": v.witness_is_dual, "search_bound": v.search_bound,
            "infinite_h1": v.infinite_h1}


def _check_deep(op, result):
    if op.kind == "decide":
        return "ok" if _verdict_fields(result) == op.expected else "wrong"
    got = {"kind": result.kind.value, "boundary": result.boundary, "attained": result.attained}
    return "ok" if got == op.expected else "wrong"


def _check_catalog(op, rc, stdout, stats):
    """Outcome of one CLI op; adds its tails, gap fills and bytes to stats."""
    stats["json_bytes"] += len(stdout)
    payload = json.loads(stdout)["outputs"]
    if op.kind == "reproduce":
        ok = rc == 0 and payload["failed"] == 0 and payload["passed"] == op.expected["passed"]
        return "ok" if ok else "wrong"
    reports = payload["reports"] if op.kind == "family" else [payload["report"]]
    for r in reports:
        lo, hi = r["window"]
        stats["gap_fill_points"] += sum(1 for p in r["points"] if not lo <= p["n"] <= hi)
        stats["tails_certified"] += sum(r[t]["status"] == "Certified"
                                        for t in ("tail_pos", "tail_neg"))
    if op.kind == "family":
        return "ok" if rc == 0 and payload["guarantee_confirmed"] else "wrong"
    r = reports[0]
    m, l2 = op.expected["m"], op.expected["l"] ** 2
    if rc != 0 or any(p["m_n"] != m + p["n"] * l2 for p in r["points"]):
        return "wrong"
    pos = r["tail_pos"]
    if pos["status"] == "Certified" and \
            (pos["from_n"] != op.expected["from_n"] or pos["is_lspace"]):
        return "wrong"
    if pos["status"] != "Certified" or r["tail_neg"]["status"] != "Certified":
        return "incomplete"
    return "ok"


@dataclass
class PassCheck:
    outcome: dict
    attempted: int
    failed: int
    chunks: list    # (forms per second, p50 us, p99 us) of each chunk of forms
    rounds: dict    # per op kind, seconds summed over each round of ops
    times: dict     # per op kind, seconds of each op; a timeout counts as the limit
    stats: dict     # per-layer counters read from the CLI output


def check_pass(inp, res, gauge):
    """Outcomes, and every time scaled to the nominal host; a timeout
    counts as the limit, unscaled."""
    outcome = {"ok": 0, "wrong": 0, "error": 0, "incomplete": 0, "timeout": 0}
    stats = {"json_bytes": 0, "gap_fill_points": 0, "tails_certified": 0, "tails": 0}
    for (_, want), out in zip(inp.forms, res.outs):
        outcome["error" if isinstance(out, Exception) else "ok" if out == want else "wrong"] += 1
    chunks = []
    for k in range(0, len(inp.forms), CHUNK):
        t0, t1 = res.spans["forms", k]
        f = gauge.factor(t0, t1)
        lat = sorted(res.lat_ns[k:k + CHUNK])
        chunks.append((len(lat) / ((t1 - t0) * f), _pct(lat, 0.50) * f / 1e3,
                       _pct(lat, 0.99) * f / 1e3))
    times = {kind: [] for kind in ("decide", "threshold", "family", "scan", "reproduce")}
    rounds = {kind: [0.0] * (inp.deep_rounds if kind in ("decide", "threshold")
                             else inp.catalog_rounds) for kind in times}
    per_round = len(inp.deep) // inp.deep_rounds
    for j, (op, (sec, result, err)) in enumerate(zip(inp.deep, res.deep)):
        if result is not TIMEOUT:
            sec *= gauge.factor(*res.spans["deep", j])
        times[op.kind].append(sec)
        rounds[op.kind][j // per_round] += sec
        if result is TIMEOUT:
            outcome["timeout"] += 1
        else:
            outcome["error" if err else _check_deep(op, result)] += 1
    per_round = len(inp.catalog) // inp.catalog_rounds
    for j, (op, (sec, result, err)) in enumerate(zip(inp.catalog, res.catalog)):
        if result is not TIMEOUT:
            sec *= gauge.factor(*res.spans["catalog", j])
        times[op.kind].append(sec)
        rounds[op.kind][j // per_round] += sec
        stats["tails"] += op.tails
        if result is TIMEOUT:
            outcome["timeout"] += 1
        elif err:
            outcome["error"] += 1
        else:
            outcome[_check_catalog(op, *result, stats)] += 1
    failed = outcome["wrong"] + outcome["error"] + outcome["incomplete"]
    return PassCheck(outcome, sum(outcome.values()), failed, chunks, rounds, times, stats)


def end_to_end(inp, checks):
    """Metrics over the untraced passes, each a median: over passes for the
    ratios, over chunks of forms for the batch figures, over rounds for the
    sums, and over every op for the per-op figures."""
    limited = len(inp.deep) + len(inp.catalog)
    med = statistics.median
    chunks = [c for check in checks for c in check.chunks]

    def per_round(kind):
        return med(r for c in checks for r in c.rounds[kind])

    def per_op(kind):
        return med(t for c in checks for t in c.times[kind])

    return {
        "fail_ratio": med((c.failed + 1) / (c.attempted + 1) for c in checks),
        "decided_ratio": med((limited - c.outcome["timeout"]) / limited for c in checks),
        "batch_forms_per_s": med(rate for rate, _, _ in chunks),
        "batch_us_p50": med(p50 for _, p50, _ in chunks),
        "batch_us_p99": med(p99 for _, _, p99 in chunks),
        "deep_decide_s": per_round("decide"),
        "deep_threshold_s": per_round("threshold"),
        "catalog_s": per_round("family"),
        "family_run_ms_p50": per_op("family") * 1e3,
        "twist_scan_s": per_round("scan"),
        "reproduce_ms_p50": per_op("reproduce") * 1e3,
    }


def _pct(sorted_vals, q):
    """Nearest-rank percentile of a sorted list."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


# ---------------------------------------------------------------- set-up

def setup_runs(gauge):
    """Wall time of fresh interpreters that import the CLI and build the
    catalog, with the import and catalog times each one reports, all scaled
    to the nominal host."""
    env = {k: v for k, v in os.environ.items() if k != "SEIFERT_LSPACE_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    runs = []
    for _ in range(SETUP_SPAWNS):
        gauge.tick(force=True)
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        t1 = perf_counter()
        gauge.tick(force=True)
        f = gauge.factor(t0, t1)
        child = json.loads(proc.stdout)
        runs.append(((t1 - t0) * f, {k: v * f for k, v in child.items()}))
    return runs


def sloc():
    """Non-blank, non-comment lines of each module of the package."""
    counts = {}
    for path in sorted((SRC / "seifert_lspace").glob("*.py")):
        counts[path.stem] = sum(1 for line in path.read_text().splitlines()
                                if line.strip() and not line.strip().startswith("#"))
    return counts


# ---------------------------------------------------------------- per-layer

def _fit(points):
    """Least-squares slope of ln t against ln x."""
    if len({x for x, _ in points}) < 2:
        return 0.0
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(inp, tracer, traced_ranges, untraced_walls, traced_walls, stats, setup,
                  gauge):
    """Per-layer metrics from the traced passes; span times are scaled to
    the nominal host by the factor of the pass they ran in."""
    from tracing import LAYERS

    spans = []
    calls = {label: [] for label in CALLS}
    for lo, hi, f in traced_ranges:
        counts = Counter(tracer.names[tracer.name[i]] for i in range(lo, hi)
                         if tracer.op[i] != WARM_OP)
        for label in CALLS:
            calls[label].append(counts[label])
        spans += [(label, op, d * f, s * f) for label, op, d, s in tracer.spans(lo, hi)
                  if op != WARM_OP]
    incl, own = {}, {}
    by_op = {}
    for label, op, d, s in spans:
        incl.setdefault(label, []).append(d)
        own.setdefault(label, []).append(s)
        by_op.setdefault((label, op), []).append(d)

    def med(table, label, unit_ns):
        vals = table.get(label)
        return statistics.median(vals) / unit_ns if vals else 0.0

    m = {}
    for label, counts in calls.items():
        m[f"{label}.calls"] = statistics.median(counts)
    m["rationals.simplest_between.self_us_p50"] = med(own, "rationals.simplest_between", 1e3)
    m["seifert.normalize.us_p50"] = med(incl, "seifert.normalize", 1e3)
    m["seifert.classify.us_p50"] = med(incl, "seifert.classify", 1e3)
    m["lspace.decide.self_us_p50"] = med(own, "lspace.decide", 1e3)
    m["lspace.third_slot_threshold.self_us_p50"] = med(own, "lspace.third_slot_threshold", 1e3)
    m["twist.classify_family.self_ms_p50"] = med(own, "twist.classify_family", 1e6)
    m["twist.evaluate_point.us_p50"] = med(incl, "twist.evaluate_point", 1e3)
    m["families.check_guarantee.self_ms_p50"] = med(own, "families.check_guarantee", 1e6)
    m["formats.parse_form.self_us_p50"] = med(own, "formats.parse_form", 1e3)
    m["formats.verdict_json.us_p50"] = med(incl, "formats.verdict_json", 1e3)
    m["formats.report_json.ms_p50"] = med(incl, "formats.report_json", 1e6)
    m["corpus.run_corpus.ms"] = med(incl, "corpus.run_corpus", 1e6)
    m["cli.main.self_ms_p50"] = med(own, "cli.main", 1e6)

    # growth over the deep strata: each op's own time in the layer it stresses
    base = len(inp.forms)
    narrow = any(op.variant == "narrow-gap" for op in inp.deep)
    for label, group in GROWTH:
        points = []
        for j, op in enumerate(inp.deep):
            if group == "decide":
                wanted = op.kind == "decide"
            elif group == "threshold":
                wanted = op.variant == "decade"
            else:
                wanted = op.variant == ("narrow-gap" if narrow else "decade")
            if wanted:
                points += [(op.size, d) for d in by_op.get((label, base + j), [])]
        top = max((x.bit_length() for x, _ in points), default=0)
        m[f"{label}.size_exp"] = _fit(points)
        m[f"{label}.bits_exp"] = _fit([(x.bit_length(), t) for x, t in points])
        m[f"{label}.top_bits"] = top
        m[f"{label}.top_ms"] = statistics.median(
            [t for x, t in points if x.bit_length() == top]) / 1e6 if points else 0.0

    m["twist.tail_certified_ratio"] = stats["tails_certified"] / stats["tails"]
    m["twist.gap_fill_points"] = stats["gap_fill_points"]
    m["formats.json_bytes"] = stats["json_bytes"]
    m["families.catalog.ms"] = statistics.median(r["catalog_ms"] for _, r in setup)
    m["cli.import_ms"] = statistics.median(r["import_ms"] for _, r in setup)
    m["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
    m["trace.reference_ms"] = statistics.median(gauge.took) * 1e3
    lines = sloc()
    for layer in LAYERS:
        m[f"{layer}.sloc"] = lines[layer]
    m["package.sloc"] = sum(lines.values())
    return m


# ---------------------------------------------------------------- main

def self_check_inputs(workload, seed, digest):
    """Same seed gives byte-identical inputs; another seed gives others."""
    if make_inputs(workload, seed, answers=False).digest != digest:
        raise SystemExit("self-check failed: the same seed gave different inputs")
    if make_inputs(workload, seed + 1, answers=False).digest == digest:
        raise SystemExit("self-check failed: another seed gave the same inputs")


def self_check_metrics(metrics, declared):
    """Every metric BENCHMARK.json declares is reported, with its unit, and
    no other."""
    want = {d["name"]: d["unit"] for d in declared}
    got = {k: v["unit"] for k, v in metrics.items()}
    if want != got:
        raise SystemExit("self-check failed: metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, "
                         f"units {[k for k in want if k in got and want[k] != got[k]]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "seifert_lspace" / "__init__.py").is_file():
        print(f"error: no library source under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ.pop("SEIFERT_LSPACE_THREADS", None)

    inp = make_inputs(args.workload, args.seed)
    self_check_inputs(args.workload, args.seed, inp.digest)
    gauge = Gauge()
    setup = setup_runs(gauge)

    from tracing import Tracer
    limiter = Limiter()
    tracer = Tracer() if args.trace else None
    small = [j for j, op in enumerate(inp.deep) if op.size < 1000]
    repro = [j for j, op in enumerate(inp.catalog) if op.kind == "reproduce"]
    run_pass(Inputs(inp.forms, inp.deep, inp.deep_forms, inp.catalog,
                    [("forms", 0)] + [("deep", j) for j in small]
                    + [("catalog", j) for j in repro], ""), limiter, gauge)

    # raw pass walls pace the loop; scaled ones give the tracing overhead
    checks, traced_ranges = [], []
    walls, scaled = {False: [], True: []}, {False: [], True: []}
    attempted = failed = passes = 0
    wrong = False
    stats = rss_mb = None
    t_start = perf_counter()
    while True:
        # with tracing, untraced and traced passes alternate, untraced first
        traced = bool(tracer) and passes % 2 == 1
        gc.collect()
        if traced:
            lo = len(tracer.start)
            tracer.install()
            try:
                res = run_pass(inp, limiter, gauge, tracer)
            finally:
                tracer.uninstall()
            traced_ranges.append((lo, len(tracer.start),
                                  gauge.over(res.start, res.start + res.wall)))
        else:
            res = run_pass(inp, limiter, gauge)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls[traced].append(res.wall)
        scaled[traced].append(res.wall * gauge.over(res.start, res.start + res.wall))
        check = check_pass(inp, res, gauge)
        del res
        passes += 1
        attempted += check.attempted
        failed += check.failed
        wrong = wrong or check.outcome["wrong"] > 0
        if not traced:
            checks.append(check)
            stats = stats or check.stats
        # start another pass only if at least half of one like it fits in
        # --seconds, so that the number of passes does not flip on noise
        upcoming = walls[bool(tracer) and passes % 2 == 1] or walls[False]
        if passes >= (2 if tracer else 1) and \
                perf_counter() - t_start + upcoming[-1] / 2 > args.seconds:
            break

    if tracer:
        metrics = layer_metrics(inp, tracer, traced_ranges, scaled[False], scaled[True],
                                stats, setup, gauge)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.tsv.gz")
        declared_metrics = declared["per_layer"]
    else:
        metrics = end_to_end(inp, checks)
        metrics["setup_s"] = statistics.median(wall for wall, _ in setup)
        metrics["peak_rss_mb"] = rss_mb
        declared_metrics = declared["end_to_end"]
    report = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())}
    self_check_metrics(report, declared_metrics)
    print(f"# workload={args.workload} seed={args.seed} inputs_sha256={inp.digest} "
          f"passes={passes} attempted={attempted} failed={failed}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
