"""Command surface: exit codes, deterministic reports, golden files, and the
text formats of the query subcommands."""

import hashlib
import io
import json
import os
import random
import sys
import time
import tracemalloc

import pytest

from helpers import (
    ExpandedRows,
    ZZWitnessEntry,
    counting_calls,
    entry_obj,
    rand_cover,
    rand_proj,
    rand_rat,
    row_lines_oracle,
    row_obj,
    witness_entries,
)
from nonsmooth import cli, groupact, renorm
from nonsmooth.cli import main, parse_point, render_report, split_words
from nonsmooth.cover import COVER_BASEPOINT, CoverPoint, LiftedMap
from nonsmooth.errors import OutOfDomain
from nonsmooth.groupact import (
    COVER_LINE,
    UNIT_INTERVAL,
    parse_word,
    punctured_torus_action,
)
from nonsmooth.obstruction import (
    DeckRows,
    DominationRow,
    certify_domination,
    zz_witness,
)
from nonsmooth.plmaps import ZZAction, anchor_pair, midpoint_pair
from nonsmooth.projline import EQUAL, GREATER, LESS
from nonsmooth.rational import fmt_rat
from fractions import Fraction

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_header(text):
    return "\n".join(line for line in text.splitlines()
                     if '"generated_at"' not in line)


class TestDispatch:
    def test_unknown_command(self, capsys):
        # "plot" was a command; it is now as unknown as any other name
        for name in ("frobnicate", "plot"):
            code, _, err = run(capsys, name)
            assert code == 64
            assert "unknown command" in err and "usage:" in err

    def test_no_arguments(self, capsys):
        code, _, err = run(capsys)
        assert code == 64
        assert "usage:" in err

    def test_help(self, capsys):
        code, _, err = run(capsys, "--help")
        assert code == 0
        assert "certify" in err

    def test_usage_lists_the_commands(self):
        # the indented lines under "commands:" name one command each
        listed = [line.split()[0] for line in cli.USAGE.splitlines()
                  if line.startswith("  ")]
        assert sorted(listed) == sorted(cli.COMMANDS)


# a value of 10,000 characters for each kind of argparse error, and for an
# unknown command: argparse's own errors quote the value
LONG = "x" * 10_000
LONG_ERRORS = {
    "invalid-int": (("renorm", "--windows", LONG), 2),
    "invalid-choice": (("certify", LONG), 2),
    "unrecognized-option": (("orbit", "--" + LONG), 2),
    "missing-required": (("order", "--point", LONG), 2),
    "unknown-command": ((LONG,), 64),
    # each control character takes four characters in the quoted name
    "unknown-command-escaped": (("\x01" * 10_000,), 64),
}


@pytest.mark.parametrize("kind", LONG_ERRORS)
def test_error_line_is_short(capsys, kind):
    argv, expected = LONG_ERRORS[kind]
    code, out, err = run(capsys, *argv)
    assert code == expected and out == ""
    lines = err.splitlines(keepends=True)
    if code == 2:
        # a usage error is one line, with no usage block
        assert len(lines) == 1 and lines[0].startswith("UsageError: ")
    assert len(lines[0].encode()) <= 240


class TestCertify:
    def test_punctured_torus_certified(self, capsys):
        code, out, _ = run(capsys, "certify", "punctured-torus", "--depth", "2")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "certified"
        assert report["version"] == "1"
        assert report["depth"] == 2
        assert report["normalization"] == {"orientation_normalization": "identity"}
        assert report["certificate"]["flags"] == ["StructurallyExtended"]
        assert len(report["certificate"]["rows"]) == 12

    def test_zz_certified(self, capsys):
        code, out, _ = run(capsys, "certify", "zz", "--truncation", "2")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "certified"
        assert report["certificate"]["anchors_checked"] == [-4, 4]
        assert all(e["slope"] == "16/51"
                   for e in report["certificate"]["entries"])

    def test_zz_moved_anchor_is_invalid(self, capsys, monkeypatch):
        # a product that moves the last anchor checked fails the witness,
        # and the command says so in its verdict and its exit code
        moved = anchor_pair(4)
        apply_pair = ZZAction.apply_pair
        monkeypatch.setattr(ZZAction, "apply_pair", lambda self, n, m: (
            (n, m + 1) if (n, m) == moved else apply_pair(self, n, m)))
        code, out, _ = run(capsys, "certify", "zz", "--truncation", "2")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "invalid"
        assert report["certificate"]["anchors_checked"] == [-4, 4]
        assert report["certificate"]["anchors_fixed"] is False
        assert report["certificate"]["valid"] is False

    def test_zz_fractions_flat_in_truncation(self):
        # the anchor check and the midpoints run on integer pairs, so the
        # Fractions a zz certify builds are the search's at any truncation
        def built(truncation):
            with counting_calls("__new__", Fraction) as counts:
                w = zz_witness(truncation)
                list(cli.entry_lines(w.cells, w.power, w.slope,
                                     w.rejected_slope))
                assert w.valid
            return counts["Fraction"]

        assert built(50) == built(500)

    def test_zz_header_flat_in_truncation(self, monkeypatch):
        # render_report splices the entries and the support map, so
        # json.dumps walks a header of the same size at any truncation
        def items(value):
            if isinstance(value, dict):
                return len(value) + sum(map(items, value.values()))
            if isinstance(value, list):
                return sum(map(items, value))
            return 0

        dumps = json.dumps

        def walked(truncation):
            seen = []

            def recording(obj, *args, **kwargs):
                seen.append(items(obj))
                return dumps(obj, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(cli.json, "dumps", recording)
                assert main(["certify", "zz", "--truncation", str(truncation),
                             "--out", os.devnull]) == 0
            assert seen
            return sum(seen)

        assert walked(50) == walked(500)

    def test_negative_depth(self, capsys):
        code, _, err = run(capsys, "certify", "punctured-torus", "--depth", "-1")
        assert code == 2
        assert "--depth" in err

    def test_negative_truncation(self, capsys):
        code, _, _ = run(capsys, "certify", "zz", "--truncation", "-3")
        assert code == 2

    def test_bad_target(self, capsys):
        code, _, _ = run(capsys, "certify", "banana")
        assert code == 2

    def test_deterministic_modulo_timestamp(self, capsys):
        _, first, _ = run(capsys, "certify", "punctured-torus", "--depth", "3")
        _, second, _ = run(capsys, "certify", "punctured-torus", "--depth", "3")
        assert strip_header(first) == strip_header(second)

    def test_golden_punctured_torus(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "certify", "punctured-torus",
                         "--depth", "50", "--out", str(out))
        assert code == 0
        golden = open(os.path.join(GOLDEN, "certify-punctured-torus.json"),
                      encoding="utf-8").read()
        assert strip_header(out.read_text(encoding="utf-8")) == strip_header(golden)

    def test_golden_zz(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "certify", "zz",
                         "--truncation", "16", "--out", str(out))
        assert code == 0
        golden = open(os.path.join(GOLDEN, "certify-zz.json"),
                      encoding="utf-8").read()
        assert strip_header(out.read_text(encoding="utf-8")) == strip_header(golden)

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, _, err = run(capsys, "certify", "zz", "--truncation", "1",
                           "--out", str(target))
        assert code == 3
        assert "i/o error" in err

    def test_unwritable_output_punctured_torus(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "certify", "punctured-torus",
                             "--depth", "1", "--out", str(target))
        assert code == 3
        assert "i/o error" in err
        assert out == ""

    def test_stdout_and_out_file_agree_across_blocks(self, capsys, tmp_path):
        # 4 rows per step: more than two blocks of 1024 rows, the last one
        # partial
        depth = 640
        rows = 4 * (depth + 1)
        assert rows > 2 * 1024 and rows % 1024
        out_file = tmp_path / "report.json"
        code, _, _ = run(capsys, "certify", "punctured-torus",
                         "--depth", str(depth), "--out", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, "certify", "punctured-torus",
                           "--depth", str(depth))
        assert code == 0
        text = out_file.read_text(encoding="utf-8")
        assert strip_header(text) == strip_header(out)
        assert len(json.loads(text)["certificate"]["rows"]) == rows

    def test_work_and_memory_flat_in_depth(self, monkeypatch, tmp_path):
        # rows after step 0 come from step 0 by deck equivariance, and each
        # step-0 point is formatted once
        calls = {}

        def counting(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(LiftedMap, "apply",
                            counting("apply", LiftedMap.apply))
        monkeypatch.setattr(cli, "coordinate",
                            counting("coordinate", cli.coordinate))
        out = tmp_path / "report.json"
        seen = []
        for depth in (10, 2000):
            calls.update(apply=0, coordinate=0)
            assert main(["certify", "punctured-torus", "--depth", str(depth),
                         "--out", str(out)]) == 0
            seen.append(dict(calls))
            rows = json.loads(out.read_text(encoding="utf-8"))[
                "certificate"]["rows"]
            assert len(rows) == 4 * (depth + 1)
        assert seen[0] == seen[1]
        assert seen[0]["apply"] > 0 and seen[0]["coordinate"] > 0
        monkeypatch.undo()
        tracemalloc.start()
        try:
            assert main(["certify", "punctured-torus", "--depth", "20000",
                         "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak

    def test_zz_report_is_written_one_entry_at_a_time(self, monkeypatch):
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        recorder = Recorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        assert main(["certify", "zz", "--truncation", "50"]) == 0
        counts = [text.count('"midpoint"') for text in recorder.writes]
        assert sum(counts) == 101
        assert max(counts) == 1
        assert len(json.loads("".join(recorder.writes))["certificate"]["entries"]) == 101

    def test_torus_report_is_written_one_step_at_a_time(self, monkeypatch):
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        recorder = Recorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        assert main(["certify", "punctured-torus", "--depth", "50"]) == 0
        counts = [text.count('"moved"') for text in recorder.writes]
        assert sum(counts) == 204
        assert max(counts) <= 4
        assert sum(1 for c in counts if c) == 51
        assert len(json.loads("".join(recorder.writes))["certificate"]["rows"]) == 204

    def test_depth_3000_report_is_pinned(self, capsys):
        code, out, _ = run(capsys, "certify", "punctured-torus",
                           "--depth", "3000")
        assert code == 0
        body = "".join(line for line in out.splitlines(keepends=True)
                       if '"generated_at"' not in line)
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "641970dfbf848fb5d04c96514356772e9a9b14f5f4fc3a0638ffc732f0a65e88")


def rendered(report, rows, names=None):
    fh = io.StringIO()
    render_report(report, fh,
                  {"rows": ("[]", cli.row_lines(rows, names or ROW_NAMES))})
    return fh.getvalue()


def dumped(report, rows):
    certificate = dict(report["certificate"],
                       rows=[row_obj(r) for r in ExpandedRows(rows)])
    return json.dumps(dict(report, certificate=certificate),
                      indent=2, sort_keys=True) + "\n"


# the generator names random rows draw from; certified rows use the first two
ROW_NAMES = ("a", "b", "g\u00e9n")


def torus_report(cert):
    return {"version": cli.REPORT_VERSION,
            "generated_at": "2000-01-01T00:00:00+00:00",
            "action": {"type": "punctured-torus"},
            "depth": cert.depth,
            "normalization": cert.normalization,
            "certificate": cli.domination_obj(cert),
            "verdict": "certified"}


class TestRenderReport:
    """The row and entry templates against json.dumps of their dicts."""

    def rand_rows(self, count):
        rng = random.Random(7000 + count)
        return tuple(self.rand_row(rng) for _ in range(count))

    def rand_row(self, rng):
        return DominationRow(
            rng.choice((0, 7, 12345, rng.randint(0, 10 ** 9))),
            rng.choice(ROW_NAMES),
            rng.choice((1, -1)),
            rand_cover(rng, lim=10 ** rng.randint(1, 6), sheets=1000),
            CoverPoint(rand_proj(rng, p_inf=0.3), rng.randint(-5, 5)),
            rng.choice((LESS, EQUAL, GREATER)),
            rng.choice((None, "Less", "Equal", "Greater")))

    @pytest.mark.parametrize("count", [0, 1, 5, 1023, 1024, 1025, 2051])
    def test_random_rows_match_json_dumps(self, count):
        rows = DeckRows(self.rand_rows(count), 0)
        report = torus_report(certify_domination(
            punctured_torus_action(), parse_word("[a,b]^2"),
            (COVER_BASEPOINT, parse_word("[a,b]")), 1))
        assert rendered(report, rows) == dumped(report, rows)

    def test_random_rows_cover_every_field_kind(self):
        rows = self.rand_rows(2051)
        points = [p for r in rows for p in (r.moved, r.dominator)]
        assert any(p.base.is_infinite for p in points)
        assert any(p.sheet < 0 for p in points)
        assert any(p.sheet == 0 for p in points)
        coords = [cli.coordinate(p.base) for p in points]
        assert any(c.startswith("-") and "/" in c for c in coords)
        assert {r.bracket_route for r in rows} == {None, "Less", "Equal",
                                                   "Greater"}
        assert {r.sign for r in rows} == {1, -1}
        assert any(r.m >= 10 ** 4 for r in rows)

    def test_non_structural_certificate(self):
        cert = certify_domination(punctured_torus_action(), parse_word(""),
                                  (COVER_BASEPOINT, parse_word("[a,b]")), 6)
        assert all(r.bracket_route is None for r in ExpandedRows(cert.rows))
        report = torus_report(cert)
        assert rendered(report, cert.rows) == dumped(report, cert.rows)

    def test_deck_rows_render_as_their_rows(self):
        cert = certify_domination(punctured_torus_action(),
                                  parse_word("[a,b]^2"),
                                  (COVER_BASEPOINT, parse_word("[a,b]")), 9)
        missed = self.missed_rows(cert, 5)
        report = torus_report(cert)
        for rows in (cert.rows, missed, DeckRows(cert.rows.period, 0)):
            assert isinstance(rows, DeckRows)
            assert ",\n".join(cli.row_lines(rows, ROW_NAMES)) == ",\n".join(
                cli.row_lines(DeckRows(tuple(ExpandedRows(rows)), 0), ROW_NAMES))
            assert rendered(report, rows) == dumped(report, rows)

    def missed_rows(self, cert, depth):
        """cert's period with its second route a miss, so that later steps
        carry no route."""
        return DeckRows(tuple(
            DominationRow(0, r.generator, r.sign, r.moved, r.dominator,
                          r.ordering, route)
            for r, route in zip(cert.rows.period,
                                ("Less", "Greater", None, None))), depth)

    def test_steps_match_row_oracle(self):
        """Each step's item is that step's rows, as the per-row oracle
        renders them and render_report joins them."""
        act, advance = punctured_torus_action(), parse_word("[a,b]")
        cert = certify_domination(act, advance ** 2,
                                  (COVER_BASEPOINT, advance), 60)
        cases = [DeckRows(cert.rows.period, depth) for depth in range(61)]
        cases += [self.missed_rows(cert, depth) for depth in range(61)]
        cases += [DeckRows(self.rand_rows(count), 0)
                  for count in (0, 1, 5, 1023, 1024, 1025, 2051)]
        for rows in cases:
            items = list(cli.row_lines(rows, ROW_NAMES))
            assert len(items) == (rows.depth + 1 if rows.period else 0)
            assert ",\n".join(items) == ",\n".join(
                row_lines_oracle(rows, ROW_NAMES))

    def test_percent_in_filled_fields(self):
        """Names and routes are written into a template before the step's
        integers are; a % in them must come out as it is."""
        names = ("a%d", "%s", "100%")
        period = tuple(
            DominationRow(r.m, names[k % 3], r.sign, r.moved, r.dominator,
                          r.ordering, ("Le%ss", "%d", None)[k % 3])
            for k, r in enumerate(self.rand_rows(9)))
        report = torus_report(certify_domination(
            punctured_torus_action(), parse_word("[a,b]^2"),
            (COVER_BASEPOINT, parse_word("[a,b]")), 1))
        for depth in (0, 1, 3):
            rows = DeckRows(period, depth)
            assert rendered(report, rows, names) == dumped(report, rows)
        assert '"generator": "100%"' in rendered(report, rows, names)

    def rand_entry(self, rng):
        return ZZWitnessEntry(
            rng.choice((0, -1, 1, rng.randint(-50, 50), rng.randint(-5000, 5000))),
            rng.randint(1, 64),
            rand_rat(rng, lim=10 ** rng.randint(1, 30)),
            rng.choice((None, rand_rat(rng, lim=10 ** rng.randint(1, 30)))))

    def test_random_entries_match_json_dumps(self):
        """The entry and support templates against json.dumps of the
        entries' dicts and of the support map."""
        rng = random.Random(7100)
        entries = tuple(self.rand_entry(rng) for _ in range(60))
        assert any(e.rejected_slope is None for e in entries)
        assert any(e.rejected_slope is not None for e in entries)
        assert any(e.index < 0 for e in entries)
        assert any(e.index == 0 for e in entries)
        assert any(len(fmt_rat(Fraction(*midpoint_pair(e.index)))) > 1000
                   for e in entries)
        w = zz_witness(1)
        report = {"version": cli.REPORT_VERSION,
                  "generated_at": "2000-01-01T00:00:00+00:00",
                  "action": {"type": "zz", "truncation": w.truncation},
                  "truncation": w.truncation,
                  "normalization": {},
                  "certificate": cli.witness_obj(w),
                  "verdict": "certified"}
        def one_cell_each(items):
            return (line for e in items for line in cli.entry_lines(
                (e.index,), e.power, e.slope, e.rejected_slope))

        # support maps: every truncation up to 60 at the witness's power,
        # then seeded cell ranges (some empty, some far from 0) and powers
        # of one to seven digits
        supports = [(range(-t, t + 1), w.power) for t in range(61)]
        supports += [
            (range(lo, lo + rng.randint(0, 250)),
             rng.choice((1, 9, 10, 64, 99, 100, rng.randint(1, 10 ** 6))))
            for lo in [rng.randint(-300, 300) for _ in range(40)]
            + [-5000, -1, 0, 1, 4900]]
        supports += [(range(0), 4), (range(-9, 11), 10), (range(-120, -99), 64)]
        assert any(not cells for cells, _ in supports)
        assert any(power >= 100 for _, power in supports)
        for items, lines, support in (
                ((), one_cell_each(()), None),
                (entries[:1], one_cell_each(entries[:1]), None),
                (entries, one_cell_each(entries), None),
                (witness_entries(w), cli.entry_lines(
                    w.cells, w.power, w.slope, w.rejected_slope),
                 (w.cells, w.power)),
                *(((), one_cell_each(()), s) for s in supports)):
            fh = io.StringIO()
            spliced = {"entries": ("[]", lines)}
            certificate = dict(report["certificate"],
                               entries=[entry_obj(e) for e in items])
            if support is not None:
                cells, power = support
                spliced["support"] = ("{}", cli.support_lines(cells, power))
                certificate["support"] = {str(i): power for i in cells}
            render_report(report, fh, spliced)
            assert fh.getvalue() == json.dumps(
                dict(report, certificate=certificate),
                indent=2, sort_keys=True) + "\n"


class TestRenorm:
    def test_parabolic_trace(self, capsys):
        code, out, _ = run(capsys, "renorm", "--action", "parabolic-germ",
                           "--windows", "3", "--grid", "8", "--radius", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("window_index,generator,displacement_at_0,"
                            "grid_deviation,fixed_point_bracket_lo,"
                            "fixed_point_bracket_hi,grid_deviation_dec")
        assert len(lines) == 4
        assert lines[2].startswith("1,a,-1,")

    def test_torus_rows_per_generator(self, capsys):
        code, out, _ = run(capsys, "renorm", "--action", "punctured-torus",
                           "--windows", "4", "--grid", "8")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 8
        assert [r.split(",")[1] for r in rows] == ["a", "b"] * 4
        # every torus row carries a fixed-point bracket
        assert all(r.split(",")[4] != "" for r in rows)

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "renorm", "--windows", "4", "--grid", "16")
        _, second, _ = run(capsys, "renorm", "--windows", "4", "--grid", "16")
        assert first == second

    def test_identity_action_exits_one(self, capsys):
        code, _, err = run(capsys, "renorm", "--action", "pl")
        assert code == 1
        assert "EmptyDisplacement" in err

    def test_zz_hits_degenerate_window(self, capsys):
        code, _, err = run(capsys, "renorm", "--action", "zz",
                           "--windows", "2", "--grid", "8")
        assert code == 1
        assert "Degenerate" in err

    def test_bad_action(self, capsys):
        assert run(capsys, "renorm", "--action", "warp-drive")[0] == 2
        assert run(capsys, "renorm", "--action", '{"no-type": 1}')[0] == 2

    def test_bad_numbers(self, capsys):
        assert run(capsys, "renorm", "--windows", "0")[0] == 2
        assert run(capsys, "renorm", "--grid", "1")[0] == 2
        assert run(capsys, "renorm", "--radius", "fast")[0] == 2

    def test_custom_start_and_advance(self, capsys):
        code, out, _ = run(capsys, "renorm", "--action", "parabolic-germ",
                           "--windows", "2", "--grid", "8",
                           "--start", "1/10", "--advance", "a")
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows[0].split(",")[0] == "0"
        assert rows[0].split(",")[2] == "-1"

    def test_writes_file(self, capsys, tmp_path):
        out = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "renorm", "--windows", "2", "--grid", "8",
                         "--out", str(out))
        assert code == 0
        assert out.read_text().startswith("window_index,")


# sha256 of the renorm CSV at the default size (8 windows, grid 64), recorded
# with every generator still rescaled through the affine sandwich
RENORM_CSV_SHA256 = {
    (): "660220404773befd98301f3707da79446bcb3745f294030c13297b95211d448f",
    ("--action", "punctured-torus", "--start", "1/2"):
        "03938519ddddc57556b491fc8915017f19ed790207757313d45df66c45c5f5f2",
    ("--action", "punctured-torus", "--start", "1/7"):
        "e41da69026b6e0a31a2ad2c6a01be4249943c2c0a887dad18ffee56e4814cd12",
    ("--action", "punctured-torus", "--start", "9/10"):
        "dc015dcc52a61fde0ba1a437400a4ff18fe367c34ed5b083d5c1295fa896bcdf",
    ("--action", "punctured-torus", "--start", "2/3"):
        "2c713ab6adafcaf0f08dd3999437c878441c73d141247c80d5dab41e90193c72",
    ("--action", "model-translation"):
        "6da9f5c16a9a1906c306d4213bbd26f598e06802dbf58dd3487b2ebc60ca1b2e",
}


@pytest.mark.parametrize("args", RENORM_CSV_SHA256,
                         ids=lambda args: " ".join(args) or "default")
def test_renorm_csv_is_pinned(capsys, args):
    code, out, _ = run(capsys, "renorm", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RENORM_CSV_SHA256[args]


# the renorm layers a refactor must keep reaching from the command line
RENORM_LAYERS = (
    (renorm.RescaledSystem, "apply"),
    (renorm.MoebiusGermMap, "apply"),
    (renorm, "generator_deviation"),
    (renorm, "fixed_point_in_window"),
    (renorm, "build_windows"),
)


def test_renorm_commands_reach_every_layer(capsys, monkeypatch):
    calls = {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for name, m in sys.modules.items()
               if name == "nonsmooth" or name.startswith("nonsmooth.")]
    for owner, attr in RENORM_LAYERS:
        key = "%s.%s" % (owner.__name__, attr)
        original = getattr(owner, attr)
        wrapper = counting(key, original)
        calls[key] = 0
        monkeypatch.setattr(owner, attr, wrapper)
        # rebind every module-level import of a function, as cli imports them
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, wrapper)
    germ_apply = "MoebiusGermMap.apply"
    assert run(capsys, "renorm", "--windows", "2", "--grid", "8")[0] == 0
    assert all(calls.values()), calls
    # every rescaled apply on the germ action goes through a germ's apply
    assert calls[germ_apply] >= calls["RescaledSystem.apply"]
    calls.update(dict.fromkeys(calls, 0))
    assert run(capsys, "renorm", "--action", "punctured-torus",
               "--windows", "2", "--grid", "8")[0] == 0
    assert calls.pop(germ_apply) == 0
    assert all(calls.values()), calls


class TestOrbit:
    def test_commutator_orbit(self, capsys):
        code, out, _ = run(capsys, "orbit", "--word", "[a,b]", "--count", "5")
        assert code == 0
        assert out.splitlines() == ["%d\tt=0,sheet=%d" % (n, n)
                                    for n in range(6)]

    def test_interval_orbit(self, capsys):
        code, out, _ = run(capsys, "orbit", "--action", "zz", "--word", "a",
                           "--count", "2")
        assert code == 0
        assert out.splitlines() == ["0\t7/12", "1\t11/15", "2\t38/45"]

    def test_explicit_point(self, capsys):
        code, out, _ = run(capsys, "orbit", "--word", "a",
                           "--point", "t=1/2,sheet=-1", "--count", "0")
        assert code == 0
        assert out == "0\tt=1/2,sheet=-1\n"

    def test_bad_word(self, capsys):
        assert run(capsys, "orbit", "--word", "c")[0] == 2

    @pytest.mark.parametrize("depth", (1000, 10000))
    def test_deeply_nested_word(self, capsys, depth):
        started = time.perf_counter()
        nested = run(capsys, "orbit", "--word", "(" * depth + "a" + ")" * depth,
                     "--count", "1")
        assert time.perf_counter() - started < 1
        assert nested == run(capsys, "orbit", "--word", "a", "--count", "1")
        assert nested[0] == 0

    def test_negative_rational_point(self, capsys):
        # a bare negative rational lies on sheet -1 of the cover, and is
        # given with "=": argparse reads a separate "-1/3" as an option
        assert run(capsys, "orbit", "--point=-1", "--count", "0") == (
            0, "0\tt=-1,sheet=-1\n", "")
        assert run(capsys, "orbit", "--point=-1/3", "--count", "0") == (
            0, "0\tt=-1/3,sheet=-1\n", "")
        code, out, err = run(capsys, "orbit", "--point", "-1/3", "--count", "0")
        assert code == 2 and out == ""
        assert "argument --point: expected one argument" in err

    def test_negative_count(self, capsys):
        assert run(capsys, "orbit", "--count", "-2")[0] == 2

    def test_point_domain_mismatch(self, capsys):
        assert run(capsys, "orbit", "--action", "zz", "--point", "pt")[0] == 2

    def test_no_point_outside_unit_interval(self, capsys):
        # an interval action refuses a start point outside [0,1] before it
        # prints anything, and stops at the first image outside it
        code, out, err = run(capsys, "orbit", "--action", '{"type":"pl"}',
                             "--point", "5", "--count", "1")
        assert (code, out) == (2, "")
        assert err == "OutOfDomain: a point above 1 is outside [0,1]\n"
        code, out, err = run(capsys, "orbit", "--action", "parabolic-germ",
                             "--word", "A", "--point", "3/4", "--count", "2")
        assert (code, out) == (2, "0\t3/4\n")
        assert err.startswith("OutOfDomain: ") and err.count("\n") == 1

    def test_stops_at_first_unprintable_point(self, capsys, monkeypatch):
        # each point of a power-5000 model translation is about 1,500 digits
        # longer than the last, so the third passes the int-to-str digit
        # limit; the run must stop there, not compute all 500 points first
        calls = []
        word_eval = groupact.word_eval

        def counted(*args):
            calls.append(args)
            assert len(calls) <= 10, "orbit kept going past an unprintable point"
            return word_eval(*args)

        monkeypatch.setattr(groupact, "word_eval", counted)
        code, out, err = run(capsys, "orbit", "--action",
                             '{"type":"model-translation","power":5000}',
                             "--word", "a", "--count", "500")
        assert code == 2 and "ValueError" in err
        assert len(out.splitlines()) == len(calls)


class TestOrder:
    def test_generator_below_double_commutator(self, capsys):
        code, out, _ = run(capsys, "order", "--point", "pt",
                           "--words", "a,[a,b]^2")
        assert code == 0
        assert out == "Less\tt=1/2,sheet=0\tt=0,sheet=2\n"

    def test_chain_of_words(self, capsys):
        code, out, _ = run(capsys, "order", "--words", "A,b,[a,b]")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("Less\t")

    def test_stabilizer_equal(self, capsys):
        code, out, _ = run(capsys, "order", "--action", "zz",
                           "--point", "1/4", "--words", "b,(ab)A")
        assert code == 0
        assert out.startswith("Equal\t1/4\t1/4")

    def test_single_word(self, capsys):
        assert run(capsys, "order", "--words", "a")[0] == 2

    def test_word_syntax_error(self, capsys):
        assert run(capsys, "order", "--words", "a,[a,b")[0] == 2


class TestSpecsAndPoints:
    def test_split_words_keeps_commutator_commas(self):
        assert split_words("a,[a,b]^2") == ["a", "[a,b]^2"]
        assert split_words("[a,[a,b]],b") == ["[a,[a,b]]", "b"]
        assert split_words(" a , b ") == ["a", "b"]

    def test_split_words_rejects_imbalance(self):
        from nonsmooth.cli import UsageError
        with pytest.raises(UsageError):
            split_words("[a,b")
        with pytest.raises(UsageError):
            split_words("a]b,a")
        with pytest.raises(UsageError):
            split_words("a,,b")

    def test_parse_point_cover(self):
        assert parse_point("pt", COVER_LINE) == COVER_BASEPOINT
        p = parse_point("t=-3/2,sheet=2", COVER_LINE)
        assert p.sheet == 2 and p.base.affine() == Fraction(-3, 2)
        assert parse_point("7/12", COVER_LINE).sheet == 0
        assert parse_point("t=inf,sheet=0", COVER_LINE).base.is_infinite

    def test_deeply_nested_action_spec(self, capsys):
        assert run(capsys, "orbit", "--action", "[" * 5000 + "]" * 5000) == (
            2, "", "UsageError: action spec nests JSON arrays or objects too "
                   "deeply to parse\n")

    @pytest.mark.parametrize("spec, message", [
        # a string is not a pair, though it unpacks into two characters
        ('{"type":"model-translation","support":"01","power":2}',
         'model-translation field "support" must be a JSON array of two '
         'rationals'),
        ('{"type":"model-translation","support":["1/2"]}',
         'model-translation field "support" must be a JSON array of two '
         'rationals'),
        ('{"type":"pl","breakpoints":[["0","0"],"11",["1","1"]]}',
         "pl breakpoint 1 must be a JSON array of two rationals"),
        ('{"type":"pl","breakpoints":[null]}',
         "pl breakpoint 0 must be a JSON array of two rationals"),
        ('{"type":"pl","breakpoints":5}',
         'pl field "breakpoints" must be a JSON array'),
    ], ids=("support-string", "support-one", "breakpoint-string",
            "breakpoint-null", "breakpoints-number"))
    def test_misshapen_spec_field_is_one_usage_line(self, capsys, spec,
                                                    message):
        assert run(capsys, "orbit", "--action", spec, "--count", "2") == (
            2, "", "UsageError: %s\n" % message)

    @pytest.mark.parametrize("point, reason", [
        ("t=1/2,sheet=3,x", "expected the form t=RAT,sheet=INT"),
        ("t=1/2", "expected the form t=RAT,sheet=INT"),
        ("t=1/2,sheet=", "sheet must be an integer in ASCII digits"),
        ("t=1/2,sheet=+-1", "sheet must be an integer in ASCII digits"),
    ])
    def test_malformed_cover_point_is_one_usage_line(self, capsys, point,
                                                     reason):
        # no message of Python's own, such as an unpacking or int() error
        assert run(capsys, "orbit", "--point", point) == (
            2, "", "UsageError: bad cover point %r: %s\n" % (point, reason))

    def test_parse_point_interval(self):
        assert parse_point("7/12", UNIT_INTERVAL) == Fraction(7, 12)
        from nonsmooth.cli import UsageError
        with pytest.raises(UsageError):
            parse_point("pt", UNIT_INTERVAL)
        with pytest.raises(UsageError):
            parse_point("t=1/2,sheet=0", UNIT_INTERVAL)


@pytest.mark.parametrize("argv", [
    ("orbit", "--action", "zz", "--point", "t=0,sheet=0"),
    # renorm compactifies a cover action, so its start is a rational too
    ("renorm", "--action", "punctured-torus", "--start", "t=0,sheet=1"),
], ids=("orbit-zz", "renorm-torus"))
def test_cover_point_on_an_interval_action_is_one_usage_line(capsys, argv):
    assert run(capsys, *argv) == (
        2, "", "UsageError: \"%s\" is a cover point; this action moves "
               "rationals\n" % argv[-1])


def test_action_defaults(capsys):
    # each action type's default start point, as the README's Actions table
    # documents it; model-translation starts at its support's midpoint
    for spec, start in (("punctured-torus", "t=0,sheet=0"), ("zz", "7/12"),
                        ("pl", "1/2"), ("model-translation", "7/12"),
                        ("parabolic-germ", "1/2")):
        assert run(capsys, "orbit", "--action", spec, "--word", "a",
                   "--count", "0") == (0, "0\t%s\n" % start, "")
    # the torus renorm starts at the compactified marked point and advances
    # by the commutator
    torus = ("renorm", "--action", "punctured-torus", "--windows", "2")
    default = run(capsys, *torus)
    assert default[0] == 0
    assert default == run(capsys, *torus, "--start", "1/2", "--advance", "[a,b]")


@pytest.mark.parametrize("argv", [
    ("orbit", "--action", "zz", "--point", "1/0"),
    ("renorm", "--radius", "1/0"),
    ("order", "--words", "a,b", "--point", "t=1/0,sheet=0"),
    ("orbit", "--word", "a^99999999999", "--count", "1"),
    ("orbit", "--word", "(a^1000000)^1000000", "--count", "1"),
    ("orbit", "--action", '{"type":"zz","truncation":1e400}', "--count", "1"),
    ("orbit", "--action", '{"type":"model-translation","power":1e400}',
     "--word", "a", "--count", "1"),
    ("orbit", "--action", '{"type":"model-translation","power":1e300}',
     "--word", "a", "--count", "1"),
    ("orbit", "--action", '{"type":"model-translation","power":%d}'
     % (cli.MAX_POWER + 1), "--word", "a", "--count", "1"),
    ("orbit", "--action", '{"type":"model-translation","power":%d}'
     % -(cli.MAX_POWER + 1), "--word", "a", "--count", "1"),
    ("orbit", "--word", "[" * 1000 + "a" + ",b]" * 1000, "--count", "1"),
    ("orbit", "--action", "[" * 5000 + "]" * 5000, "--count", "1"),
    ("orbit", "--word", "a^\u00b2", "--count", "1"),
    ("orbit", "--action", "parabolic-germ", "--point", "5", "--count", "2"),
    ("order", "--action", "parabolic-germ", "--point", "-2", "--words", "a,A"),
    ("renorm", "--action", "parabolic-germ", "--start", "-2"),
    ("orbit", "--action", "parabolic-germ", "--word", "A", "--point", "3/4",
     "--count", "2"),
    ("orbit", "--action",
     '{"type":"pl","breakpoint":[["0","0"],["1/8","1/4"],["1","1"]]}',
     "--count", "2"),
    ("orbit", "--action", '{"type":"model-translation","powr":3}'),
    ("orbit", "--action", '{"type":"zz","truncation":3}'),
    ("orbit", "--action", '{"type":"model-translation","power":2.7}',
     "--count", "1"),
    ("orbit", "--action", '{"type":"model-translation","power":true}',
     "--count", "1"),
    ("orbit", "--action", '{"type":"model-translation","power":"3"}',
     "--count", "1"),
    # literals are ASCII digits only
    ("orbit", "--action", "zz", "--point", "\u0661/\u0663", "--count", "0"),
    ("renorm", "--radius", "\u0662"),
    ("orbit", "--point", "t=0,sheet=\u0661", "--count", "0"),
    ("orbit", "--point", "t=0,sheet=1_0", "--count", "0"),
    ("renorm", "--radius", "-1"),
])
def test_bad_input_exits_two_without_traceback(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("word, start", [
    ("a^\u00b2", "WordSyntaxError: expected an integer at position 2 of "),
    ("(" * 10000, "WordSyntaxError: missing ')'"),
], ids=("superscript-power", "unclosed-parens"))
def test_error_is_one_short_line(capsys, word, start):
    # a message that echoes the input is cut to cli.MAX_MESSAGE characters
    code, out, err = run(capsys, "orbit", "--word", word, "--count", "1")
    assert code == 2 and out == ""
    assert err.startswith(start) and err.count("\n") == 1
    assert len(err.encode()) <= 240


@pytest.mark.parametrize("argv, cap", [
    (("certify", "punctured-torus", "--depth"), cli.MAX_DEPTH),
    (("certify", "zz", "--truncation"), cli.MAX_TRUNCATION),
    (("renorm", "--windows"), cli.MAX_WINDOWS),
    (("renorm", "--grid"), cli.MAX_GRID),
    (("orbit", "--count"), cli.MAX_COUNT),
], ids=("depth", "truncation", "windows", "grid", "count"))
def test_size_above_cap_exits_two(capsys, argv, cap):
    code, out, err = run(capsys, *argv, str(cap + 1))
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert err == "UsageError: %s %d is above its cap of %d\n" % (
        argv[-1], cap + 1, cap)


@pytest.mark.parametrize("argv", [
    ("certify", "zz", "--truncation", "1", "--depth", "50001"),
    ("certify", "zz", "--truncation", "1", "--depth", "-1"),
    ("certify", "punctured-torus", "--depth", "1", "--truncation", "5001"),
    ("certify", "punctured-torus", "--depth", "1", "--truncation", "-3"),
], ids=("depth-above", "depth-below", "truncation-above", "truncation-below"))
def test_other_targets_size_is_checked(capsys, argv):
    # every size option given to certify is checked, whatever the target
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("UsageError: %s %s is " % argv[-2:])
    assert err.count("\n") == 1


def test_other_targets_size_in_range_is_accepted(capsys):
    assert run(capsys, "certify", "zz", "--truncation", "1",
               "--depth", "100")[0] == 0
