"""Benchmark of the nonsmooth command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to alternate all four
round-robin in one run.  Run it from the repository root or anywhere else:
paths are resolved from this file.

The benchmark is a closed loop with one client: it calls
``nonsmooth.cli.main(argv)`` in this process, captures stdout in memory,
checks every invocation's output, and only then starts the next one.

Times are in reference seconds: wall seconds rescaled by the host speed
that a fixed probe, sampled every 10 ms during the measured work, saw (see
host.py).  Raw wall times and the probe's own quartiles are printed beside
them, so a change of host speed shows in the probe instead of looking like a
change of the code.

``--trace 0`` reports the end-to-end metrics:

* ``units_per_s``: domination rows, zz cells or renorm windows per second,
  taken as the work of one invocation over the median invocation time;
* ``wall_s_p50``: the median time per invocation;
* ``setup_s``: median over fresh interpreters, one per round, of the time
  of ``import nonsmooth`` plus building the workload's action;
* ``peak_rss_mib``: ``ru_maxrss`` of a fresh interpreter that runs the
  workload once.

``--trace 1`` alternates untraced and traced invocations and reports, per
wrapped function (see ``LAYERS``), ``calls`` and ``self_s`` per invocation
and ``max_bits`` of the returned rationals, plus the tracer's own overhead.
It fails the run if a function has no calls on a workload that should reach
it, or if two traced invocations disagree on ``calls`` or ``max_bits``.

Lines before the last one give quartiles, sample counts, the host probe and
the failure share.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The seed picks each
workload's input from a narrow band (``values``; seed 0 gives the first),
and ``expected.json`` holds the sha256 of every input's output, with the
``generated_at`` line stripped; ``record.py`` rewrites it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import host
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Byte code goes here instead of next to the sources, so a run leaves src/
# exactly as it found it.
PYCACHE = ROOT / ".bench_build" / "pycache"
EXPECTED = HERE / "expected.json"

CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    """One CLI command whose input the seed picks; BENCHMARK.json says why
    each workload is in the benchmark."""
    name: str
    unit: str       # what units_per_s counts
    units: Callable  # seeded value -> units of work in one invocation
    argv: tuple     # "{}" stands for the seeded value
    values: tuple   # the seeded band; values[0] is the stated size
    setup: str      # builds the action; groupact is bound to g, renorm to r
    csv_rows: int = 0  # renorm: windows x generators; certify: 0

    def value(self, seed):
        return self.values[seed % len(self.values)]

    def command(self, value):
        return [a.format(value) for a in self.argv]

    def check(self, code, text):
        """None when the output is well formed, else what is wrong."""
        if code != 0:
            return "exit code %r" % (code,)
        if self.csv_rows:
            rows = text.count("\n") - 1
            if rows != self.csv_rows:
                return "%d CSV rows, expected %d" % (rows, self.csv_rows)
        elif '\n  "verdict": "certified"' not in text:
            return "verdict is not certified"
        return None


# The seed picks the certify depth or truncation from a band of +-1% around
# the stated size, and the renorm start from the rationals p/q in [2/5, 3/5]
# with q <= 11.
RENORM_STARTS = ("1/2", "2/5", "3/5", "3/7", "4/7", "4/9", "5/9", "5/11", "6/11")

WORKLOADS = (
    # rows: 2 generators x 2 signs x (depth + 1)
    Workload("torus-certify", "rows", lambda depth: 4 * depth + 4,
             ("certify", "punctured-torus", "--depth", "{}"),
             (2000, 1980, 1990, 2010, 2020), "g.punctured_torus_action()"),
    # cells -truncation..truncation
    Workload("zz-certify", "cells", lambda truncation: 2 * truncation + 1,
             ("certify", "zz", "--truncation", "{}"),
             (200, 198, 199, 201, 202), "g.zz_letter_action()"),
    Workload("renorm-torus", "windows", lambda start: 32,
             ("renorm", "--action", "punctured-torus", "--windows", "32",
              "--grid", "64", "--start", "{}"),
             RENORM_STARTS, "g.compactified_action(g.punctured_torus_action())",
             csv_rows=64),
    Workload("renorm-germ", "windows", lambda start: 128,
             ("renorm", "--windows", "128", "--grid", "64", "--start", "{}"),
             RENORM_STARTS, "r.germ_action()", csv_rows=128),
)
BY_NAME = {w.name: w for w in WORKLOADS}

TORUS, ZZ, RTORUS, RGERM = (w.name for w in WORKLOADS)

# name -> (returns a rational or point, workloads that must call it)
LAYERS = {
    "projline.MoebiusMap.apply": (True, (TORUS, RTORUS)),
    "projline.traversal_cmp": (False, (TORUS,)),
    "cover.cover_cmp": (False, (TORUS,)),
    "cover.LiftedMap.apply": (True, (TORUS, RTORUS)),
    "groupact.word_eval": (True, (TORUS, RTORUS, RGERM)),
    "obstruction.certify_domination": (False, (TORUS,)),
    "cover.compactify": (True, (RTORUS,)),
    "cover.uncompactify": (True, (RTORUS,)),
    "groupact.CompactifiedLift.apply": (True, (RTORUS,)),
    "plmaps.anchor": (True, (ZZ,)),
    "plmaps.chart_index": (False, (ZZ,)),
    "plmaps.ModelTranslation.apply": (True, (ZZ,)),
    "plmaps.ModelTranslation.one_sided_slope": (True, (ZZ,)),
    "groupact.zz_slope_mid": (True, (ZZ,)),
    "obstruction.zz_witness": (False, (ZZ,)),
    "renorm.RescaledSystem.apply": (True, (RTORUS, RGERM)),
    "renorm.MoebiusGermMap.apply": (True, (RGERM,)),
    "renorm.generator_deviation": (True, (RTORUS, RGERM)),
    "renorm.fixed_point_in_window": (False, (RTORUS, RGERM)),
    "renorm.build_windows": (False, (RTORUS, RGERM)),
    "cli.render_report": (False, (TORUS, ZZ)),
    "rational.fmt_rat": (False, (TORUS, ZZ, RTORUS, RGERM)),
    # certify reports carry no decimals; only the renorm CSV does
    "rational.rat_to_decimal": (False, (RTORUS, RGERM)),
    "cover.fixed_point_lift": (False, (TORUS, RTORUS)),
    "groupact.punctured_torus_action": (False, (TORUS, RTORUS)),
}

E2E_UNITS = {"units_per_s": "units/s", "wall_s_p50": "s", "setup_s": "s",
             "peak_rss_mib": "MiB"}
TRACER_UNITS = {"tracer.wall_s_p50": "s", "tracer.untraced_wall_s_p50": "s",
                "tracer.overhead_ratio": "ratio"}


def layer_units():
    units = {}
    for name, (bits, _) in LAYERS.items():
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
        if bits:
            units[name + ".max_bits"] = "bits"
    units.update(TRACER_UNITS)
    return units


_GENERATED_AT = re.compile(r'^  "generated_at": .*\n', re.M)


def output_digest(text):
    """sha256 of an output with its generated_at line removed."""
    return hashlib.sha256(
        _GENERATED_AT.sub("", text, count=1).encode()).hexdigest()


@dataclass
class Case:
    """One workload at one input, with its samples from this run."""
    workload: Workload
    value: object
    sha256: str

    def __post_init__(self):
        self.argv = self.workload.command(self.value)
        # times in reference seconds, and the raw wall times beside them
        self.walls, self.traced_walls, self.setups = [], [], []
        self.raw_walls, self.raw_setups, self.probes = [], [], []
        self.snapshots = []
        self.attempted = self.failed = 0

    def invoke(self, main):
        """Run once, check the output, and return its raw wall time and its
        time in reference seconds."""
        out = io.StringIO()
        with host.Sampler() as sampler:
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(self.argv)
            except Exception as exc:  # a traceback is a failed invocation
                code = "%s: %s" % (type(exc).__name__, exc)
            wall = time.perf_counter() - start - sampler.spent
        self.record(code, out.getvalue())
        self.probes += sampler.probes
        return wall, host.reference_seconds(wall, sampler.probes)

    def run_untraced(self, main):
        raw, ref = self.invoke(main)
        self.raw_walls.append(raw)
        self.walls.append(ref)

    def run_traced(self, main, tracer):
        tracer.reset()
        tracer.install()
        try:
            self.traced_walls.append(self.invoke(main)[1])
        finally:
            tracer.uninstall()
        self.snapshots.append(tracer.snapshot())

    def run_setup(self):
        raw, ref = measure_setup(self.workload)
        self.raw_setups.append(raw)
        self.setups.append(ref)

    def record(self, code, text):
        self.attempted += 1
        problem = self.workload.check(code, text)
        if problem is None and output_digest(text) != self.sha256:
            problem = "output hash differs from expected.json"
        if problem:
            self.failed += 1
            sys.stderr.write("%s %s: %s\n" % (
                self.workload.name, " ".join(self.argv), problem))


def child_env():
    """Children import the checkout's sources and keep their byte code in
    PYCACHE, so set-up is timed with a warm byte-code cache, as a user who
    has run the program before would see it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def run_child(args):
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return proc.stdout


# Set-up takes milliseconds, well inside one phase of host speed, so probes
# right after it measure the speed it ran at; the first probe warms up.
SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
import nonsmooth
from nonsmooth import groupact as g, renorm as r
{build}
elapsed = time.perf_counter() - start
sys.path.insert(0, {here!r})
import host
print(elapsed, *[host.probe() for _ in range(5)][1:])
"""


def measure_setup(workload):
    """Raw and reference seconds of one fresh interpreter's set-up."""
    code = SETUP_CHILD.format(build=workload.setup, here=str(HERE))
    elapsed, *probes = map(float, run_child(["-c", code]).split())
    return elapsed, host.reference_seconds(elapsed, probes)


# Peak RSS is read before the output is encoded for the parent.
RSS_CHILD = """\
import contextlib, io, json, resource, sys
from nonsmooth.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
json.dump({"code": code, "stdout": out.getvalue(), "maxrss_kib": maxrss_kib},
          sys.stdout)
"""


def measure_peak_rss(case):
    """Peak RSS in MiB of a fresh interpreter running the workload once, the
    second of two, so that the first has filled the byte-code cache that
    the set-up children use too.  Their outputs are checked like any other
    invocation's."""
    for _ in range(2):
        result = json.loads(run_child(["-c", RSS_CHILD] + case.argv))
        case.record(result["code"], result["stdout"])
    return result["maxrss_kib"] / 1024


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_loop(cases, seconds, main, tracer=None):
    """Closed loop over the cases, round-robin, until `seconds` have passed
    (at least one round).  Per case, a round runs, untraced, one set-up
    child and one invocation; traced, one untraced and one traced
    invocation, alternating which goes first."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        for case in cases:
            if tracer is None:
                case.run_setup()
                case.run_untraced(main)
            elif rounds % 2:
                case.run_untraced(main)
                case.run_traced(main, tracer)
            else:
                case.run_traced(main, tracer)
                case.run_untraced(main)
        rounds += 1
        if time.perf_counter() >= deadline:
            return


def e2e_metrics(case):
    wall = statistics.median(case.walls)
    return {
        "units_per_s": case.workload.units(case.value) / wall,
        "wall_s_p50": wall,
        "setup_s": statistics.median(case.setups),
        "peak_rss_mib": case.peak_rss_mib,
    }


def layer_metrics(case):
    """Per-invocation layer metrics; raises ValueError when the wrappers
    disagree between invocations or miss a function this workload calls."""
    first = case.snapshots[0]
    for snap in case.snapshots[1:]:
        for name, (calls, _, bits) in snap.items():
            if (calls, bits) != (first[name][0], first[name][2]):
                raise ValueError("%s: traced invocations disagree on %s"
                                 % (case.workload.name, name))
    missing = [name for name, (_, homes) in LAYERS.items()
               if case.workload.name in homes and first[name][0] == 0]
    if missing:
        raise ValueError("%s: no calls traced for %s"
                         % (case.workload.name, ", ".join(missing)))
    metrics = {}
    for name, (bits, _) in LAYERS.items():
        metrics[name + ".calls"] = first[name][0]
        metrics[name + ".self_s"] = statistics.median(
            snap[name][1] for snap in case.snapshots)
        if bits:
            metrics[name + ".max_bits"] = first[name][2]
    traced = statistics.median(case.traced_walls)
    untraced = statistics.median(case.walls)
    metrics["tracer.wall_s_p50"] = traced
    metrics["tracer.untraced_wall_s_p50"] = untraced
    metrics["tracer.overhead_ratio"] = traced / untraced
    return metrics


def describe(case, trace):
    """Diagnostic lines: the input, quartiles with sample counts of times
    in reference and in raw seconds, the host probe and the failure share."""
    w = case.workload
    lines = ["%s: nonsmooth %s" % (w.name, " ".join(case.argv))]

    def add(label, values):
        q1, q2, q3 = quartiles(values)
        lines.append("  %-14s p25 %.6g  p50 %.6g  p75 %.6g s  (n=%d)" % (
            label, q1, q2, q3, len(values)))
        return q2

    if trace:
        add("traced wall", case.traced_walls)
        add("untraced wall", case.walls)
    else:
        wall = add("wall", case.walls)
        add("raw wall", case.raw_walls)
        add("setup", case.setups)
        add("raw setup", case.raw_setups)
        lines.append("  units_per_s %.1f %s/s" % (
            w.units(case.value) / wall, w.unit))
    add("host probe", case.probes)
    lines.append("  failed_frac %.4f  (%d of %d invocations)" % (
        case.failed / case.attempted, case.failed, case.attempted))
    return lines


def run(cases, seconds, trace):
    """Measure `cases` and return (result object, diagnostic lines)."""
    from nonsmooth.cli import main

    correct = True
    if trace:
        tracer = Tracer({name: bits for name, (bits, _) in LAYERS.items()})
        run_loop(cases, seconds, main, tracer)
        units = layer_units()
    else:
        for case in cases:
            case.peak_rss_mib = measure_peak_rss(case)
        run_loop(cases, seconds, main)
        units = E2E_UNITS
    metrics, lines = {}, []
    for case in cases:
        lines += describe(case, trace)
        try:
            values = layer_metrics(case) if trace else e2e_metrics(case)
        except ValueError as exc:
            sys.stderr.write("wrapper self-check failed: %s\n" % (exc,))
            correct = False
            continue
        prefix = case.workload.name + "." if len(cases) > 1 else ""
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    attempted = sum(c.attempted for c in cases)
    failed = sum(c.failed for c in cases)
    result = {"correct": correct and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def load_cases(names, seed):
    expected = json.loads(EXPECTED.read_text())
    cases = []
    for name in names:
        w = BY_NAME[name]
        value = w.value(seed)
        cases.append(Case(w, value, expected[name][str(value)]))
    return cases


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(BY_NAME) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_sources():
    """Make the checkout's sources importable; False when they are absent."""
    if not (SRC / "nonsmooth" / "cli.py").is_file():
        sys.stderr.write("no nonsmooth sources under %s\n" % (SRC,))
        return False
    sys.pycache_prefix = str(PYCACHE)
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None):
    args = parse_args(argv)
    if not use_sources():
        return 2
    names = [w.name for w in WORKLOADS] if args.workload == "all" \
        else [args.workload]
    result, lines = run(load_cases(names, args.seed), args.seconds,
                        bool(args.trace))
    for line in lines:
        print(line)
    for name, metric in result["metrics"].items():
        print("  %-56s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
