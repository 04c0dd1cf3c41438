"""Command surface: exit codes, deterministic reports, golden files, and the
text formats of the query subcommands."""

import hashlib
import io
import json
import os
import random
import sys
import time

import pytest

from helpers import rand_cover, rand_proj, row_obj
from nonsmooth import cli, groupact, renorm
from nonsmooth.cli import ROWS_PER_BLOCK, main, parse_point, render_report, split_words
from nonsmooth.cover import COVER_BASEPOINT, CoverPoint
from nonsmooth.errors import OutOfDomain
from nonsmooth.groupact import COVER_LINE, UNIT_INTERVAL, parse_word, punctured_torus_action
from nonsmooth.obstruction import DominationRow, certify_domination
from nonsmooth.projline import EQUAL, GREATER, LESS
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
        code, _, err = run(capsys, "frobnicate")
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
        # 4 rows per step: at least three blocks, the last one partial
        depth = 5 * ROWS_PER_BLOCK // 8
        rows = 4 * (depth + 1)
        assert rows > 2 * ROWS_PER_BLOCK and rows % ROWS_PER_BLOCK
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

    def test_depth_3000_report_is_pinned(self, capsys):
        code, out, _ = run(capsys, "certify", "punctured-torus",
                           "--depth", "3000")
        assert code == 0
        body = "".join(line for line in out.splitlines(keepends=True)
                       if '"generated_at"' not in line)
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "641970dfbf848fb5d04c96514356772e9a9b14f5f4fc3a0638ffc732f0a65e88")


def rendered(report, rows):
    fh = io.StringIO()
    render_report(report, fh, rows)
    return fh.getvalue()


def dumped(report, rows):
    certificate = dict(report["certificate"], rows=[row_obj(r) for r in rows])
    return json.dumps(dict(report, certificate=certificate),
                      indent=2, sort_keys=True) + "\n"


def torus_report(cert):
    return {"version": cli.REPORT_VERSION,
            "generated_at": "2000-01-01T00:00:00+00:00",
            "action": {"type": "punctured-torus"},
            "depth": cert.depth,
            "normalization": cert.normalization,
            "certificate": cli.domination_obj(cert),
            "verdict": "certified"}


class TestRenderReport:
    """The row template against json.dumps of the rows' dicts."""

    def rand_rows(self, count):
        rng = random.Random(7000 + count)
        return tuple(self.rand_row(rng) for _ in range(count))

    def rand_row(self, rng):
        return DominationRow(
            rng.choice((0, 7, 12345, rng.randint(0, 10 ** 9))),
            rng.choice(("a", "b", "g\u00e9n")),
            rng.choice((1, -1)),
            rand_cover(rng, lim=10 ** rng.randint(1, 6), sheets=1000),
            CoverPoint(rand_proj(rng, p_inf=0.3), rng.randint(-5, 5)),
            rng.choice((LESS, EQUAL, GREATER)),
            rng.choice((None, "Less", "Equal", "Greater")))

    @pytest.mark.parametrize("count", [0, 1, 5, ROWS_PER_BLOCK - 1,
                                       ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1,
                                       2 * ROWS_PER_BLOCK + 3])
    def test_random_rows_match_json_dumps(self, count):
        rows = self.rand_rows(count)
        report = torus_report(certify_domination(
            punctured_torus_action(), parse_word("[a,b]^2"),
            (COVER_BASEPOINT, parse_word("[a,b]")), 1))
        assert rendered(report, rows) == dumped(report, rows)

    def test_random_rows_cover_every_field_kind(self):
        rows = self.rand_rows(2 * ROWS_PER_BLOCK + 3)
        points = [p for r in rows for p in (r.moved, r.dominator)]
        assert any(p.base.is_infinite for p in points)
        assert any(p.sheet < 0 for p in points)
        assert any(p.sheet == 0 for p in points)
        coords = [p.base.coordinate() for p in points]
        assert any(c.startswith("-") and "/" in c for c in coords)
        assert {r.bracket_route for r in rows} == {None, "Less", "Equal",
                                                   "Greater"}
        assert {r.sign for r in rows} == {1, -1}
        assert any(r.m >= 10 ** 4 for r in rows)

    def test_non_structural_certificate(self):
        cert = certify_domination(punctured_torus_action(),
                                  parse_word("[a,b]^2"),
                                  (COVER_BASEPOINT, parse_word("a")), 6)
        assert all(r.bracket_route is None for r in cert.rows)
        report = torus_report(cert)
        assert rendered(report, cert.rows) == dumped(report, cert.rows)


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


class TestPlot:
    def trace(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        run(capsys, "renorm", "--action", "punctured-torus", "--windows", "4",
            "--grid", "8", "--out", str(path))
        return path

    def test_polyline_per_generator(self, capsys, tmp_path):
        src = self.trace(capsys, tmp_path)
        out = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "plot", "--in", str(src), "--out", str(out))
        assert code == 0
        svg = out.read_text()
        assert svg.count("<polyline") == 2
        assert "window_index" in svg and "grid_deviation" in svg
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    def test_empty_csv(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("window_index,generator,displacement_at_0,"
                        "grid_deviation,fixed_point_bracket_lo,"
                        "fixed_point_bracket_hi,grid_deviation_dec\n")
        code, _, err = run(capsys, "plot", "--in", str(path))
        assert code == 2
        assert "no data rows" in err

    def test_not_a_trace(self, capsys, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("hello\nworld\n")
        assert run(capsys, "plot", "--in", str(path))[0] == 2

    def test_missing_input(self, capsys, tmp_path):
        assert run(capsys, "plot", "--in", str(tmp_path / "nope.csv"))[0] == 3

    def test_deterministic(self, capsys, tmp_path):
        src = self.trace(capsys, tmp_path)
        _, first, _ = run(capsys, "plot", "--in", str(src))
        _, second, _ = run(capsys, "plot", "--in", str(src))
        assert first == second


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

    def test_parse_point_interval(self):
        assert parse_point("7/12", UNIT_INTERVAL) == Fraction(7, 12)
        from nonsmooth.cli import UsageError
        with pytest.raises(UsageError):
            parse_point("pt", UNIT_INTERVAL)
        with pytest.raises(UsageError):
            parse_point("t=1/2,sheet=0", UNIT_INTERVAL)


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
])
def test_bad_input_exits_two_without_traceback(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err


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
