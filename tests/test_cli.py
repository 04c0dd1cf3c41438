"""Command surface: exit codes, deterministic reports, golden files, and the
text formats of the query subcommands."""

import json
import os

import pytest

from nonsmooth.cli import main, parse_point, split_words
from nonsmooth.cover import COVER_BASEPOINT
from nonsmooth.errors import OutOfDomain
from nonsmooth.groupact import COVER_LINE, UNIT_INTERVAL
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

    def test_negative_count(self, capsys):
        assert run(capsys, "orbit", "--count", "-2")[0] == 2

    def test_point_domain_mismatch(self, capsys):
        assert run(capsys, "orbit", "--action", "zz", "--point", "pt")[0] == 2


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

    def test_parse_point_interval(self):
        assert parse_point("7/12", UNIT_INTERVAL) == Fraction(7, 12)
        from nonsmooth.cli import UsageError
        with pytest.raises(UsageError):
            parse_point("pt", UNIT_INTERVAL)
        with pytest.raises(UsageError):
            parse_point("t=1/2,sheet=0", UNIT_INTERVAL)


@pytest.mark.parametrize("argv", [
    ("orbit", "--action", "zz", "--point", "1/0"),
    ("renorm", "--radius", "1/0"),
    ("order", "--words", "a,b", "--point", "t=1/0,sheet=0"),
    ("orbit", "--word", "a^99999999999", "--count", "1"),
    ("orbit", "--word", "(a^1000000)^1000000", "--count", "1"),
])
def test_bad_input_exits_two_without_traceback(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
