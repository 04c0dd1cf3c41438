"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m unittest discover -s perfbench

Checks that every metric BENCHMARK.json names is reported with its unit, that
a wrong output hash counts as a failed invocation, that a run leaves src/ and
tests/golden/ byte-identical, and that the benchmark refuses to run without
the sources.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Same workloads, same layers, a few milliseconds each.
TINY = {
    "torus-certify": dict(values=(20,)),
    "zz-certify": dict(values=(10,)),
    "renorm-torus": dict(
        argv=("renorm", "--action", "punctured-torus", "--windows", "4",
              "--grid", "8", "--start", "{}"),
        values=("1/2",), units=lambda start: 4, csv_rows=8),
    "renorm-germ": dict(
        argv=("renorm", "--windows", "4", "--grid", "8", "--start", "{}"),
        values=("1/2",), units=lambda start: 4, csv_rows=4),
}


def tiny_case(name, sha256=None):
    """A tiny case whose expected hash is its own output's, unless given."""
    w = dataclasses.replace(run.BY_NAME[name], **TINY[name])
    if sha256 is None:
        from nonsmooth.cli import main
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(w.command(w.values[0]))
        sha256 = run.output_digest(out.getvalue())
    return run.Case(w, w.values[0], sha256)


def tree_digest(*dirs):
    digest = hashlib.sha256()
    for top in dirs:
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(run.ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        if not run.use_sources():
            raise RuntimeError("the smoke test needs the nonsmooth sources")

    def check_metrics(self, trace, section):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for name in TINY:
            with self.subTest(workload=name, trace=trace):
                result, lines = run.run([tiny_case(name)], 0, trace)
                self.assertTrue(result["correct"], lines)
                self.assertEqual(result["failed"], 0)
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                self.assertEqual(got, expected)
                self.assertTrue(any("failed_frac 0.0000" in line
                                    for line in lines), lines)

    def test_every_end_to_end_metric_has_its_unit(self):
        self.check_metrics(False, "end_to_end")

    def test_every_layer_metric_has_its_unit(self):
        self.check_metrics(True, "per_layer")

    def test_tampered_hash_counts_as_failure(self):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            result, lines = run.run([tiny_case("zz-certify", "0" * 64)], 0,
                                    False)
        self.assertIn("output hash differs", err.getvalue())
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertFalse(any("failed_frac 0.0000" in line for line in lines))

    def test_run_leaves_sources_and_goldens_unchanged(self):
        dirs = (run.SRC, run.ROOT / "tests" / "golden")
        before = tree_digest(*dirs)
        run.run([tiny_case(name) for name in TINY], 0, False)
        run.run([tiny_case(name) for name in TINY], 0, True)
        self.assertEqual(tree_digest(*dirs), before)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         [w.name for w in run.WORKLOADS])
        hashes = json.loads(run.EXPECTED.read_text())
        for w in run.WORKLOADS:
            self.assertEqual(set(hashes[w.name]), {str(v) for v in w.values})

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "torus-certify", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
