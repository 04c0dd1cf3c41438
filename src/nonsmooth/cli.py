"""Command surface: certificate reports, renormalization traces, plots, and
orbit/order queries.  This module alone knows the report and CSV formats;
the certificates it writes are plain records.

Every payload number is an exact rational string; decimal columns come from
integer long division, so identical invocations produce byte-identical
output. The only non-deterministic field is the generated_at header, which
golden comparisons exclude.
"""

import argparse
import contextlib
import csv
import io
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction

from .cover import COVER_BASEPOINT, CoverPoint, compactify, line_point
from .errors import (
    Degenerate,
    EmptyDisplacement,
    EmptyGridDomain,
    NonsmoothError,
    SearchExhausted,
)
from .groupact import (
    COVER_LINE,
    MarkedAction,
    UNIT_INTERVAL,
    compactified_action,
    orbit_sequence,
    punctured_torus_action,
    zz_letter_action,
)
from .obstruction import certify_domination, order_cmp, zz_witness
from .plmaps import ModelTranslation, PLMap, cell_midpoint
from .projline import ProjPoint, ordering_name
from .rational import fmt_rat, parse_rat, rat_to_decimal
from .renorm import (
    build_windows,
    fixed_point_in_window,
    generator_deviation,
    germ_action,
    rescale,
)

REPORT_VERSION = "1"

# Largest accepted value of each size option; a larger one exits 2.  Run
# time grows with each, and at its cap each run took under 35 s on the
# slowest action with the other options at their defaults (README, "Size
# caps").
MAX_DEPTH = 50_000
MAX_TRUNCATION = 5_000
MAX_WINDOWS = 1_000
MAX_GRID = 10_000
MAX_COUNT = 5_000
# the same for the absolute "power" of a model-translation action spec
MAX_POWER = 5_000

USAGE = """usage: nonsmooth <command> [options]

commands:
  certify   emit a JSON certificate report (punctured-torus | zz)
  renorm    emit a CSV renormalization trace for an action
  plot      render a renorm CSV as an SVG deviation chart
  orbit     print an exact orbit, one point per line
  order     compare words by where they move a point

run "nonsmooth <command> --help" for the command's options.
"""


class UsageError(Exception):
    """Malformed arguments or action/point specs; exits with code 2."""


def check_cap(option, value, cap):
    if value > cap:
        raise UsageError("%s %d is above its cap of %d" % (option, value, cap))


# ---------------------------------------------------------------- specs


def parse_action_spec(text):
    """Accept a bare type name or a JSON record; return (action, start,
    advance): the action, the point its orbits start from unless a command
    is given one, and its default advancing word."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        obj = {"type": text.strip()}
    except RecursionError:
        raise UsageError("action spec nests JSON arrays or objects too deeply "
                         "to parse") from None
    if isinstance(obj, str):
        obj = {"type": obj}
    if not isinstance(obj, dict) or "type" not in obj:
        raise UsageError("action spec needs a \"type\" field: %r" % (text,))
    kind = obj["type"]
    try:
        if kind == "punctured-torus":
            act = punctured_torus_action()
            return act, COVER_BASEPOINT, act.parse("[a,b]")
        if kind == "zz":
            # no command reads the truncation, but a bad one is still refused
            if int(obj.get("truncation", 16)) < 0:
                raise UsageError("zz truncation must be nonnegative")
            act, start = zz_letter_action(), cell_midpoint(0)
        elif kind == "pl":
            points = obj.get("breakpoints", [["0", "0"], ["1", "1"]])
            pl = PLMap([(parse_rat(str(x)), parse_rat(str(y))) for x, y in points])
            act, start = MarkedAction(("a",), (pl,), UNIT_INTERVAL), Fraction(1, 2)
        elif kind == "model-translation":
            support = obj.get("support", ["1/2", "2/3"])
            power = int(obj.get("power", 1))
            if abs(power) > MAX_POWER:
                raise UsageError("model-translation power %d is outside "
                                 "[-%d, %d]" % (power, MAX_POWER, MAX_POWER))
            lo, hi = (parse_rat(str(v)) for v in support)
            act = MarkedAction(
                ("a",), (ModelTranslation((lo, hi), power),), UNIT_INTERVAL)
            # the support endpoints are fixed; start in the middle
            start = (lo + hi) / 2
        elif kind == "parabolic-germ":
            act, start = germ_action(), Fraction(1, 2)
        else:
            raise UsageError("unknown action type %r" % (kind,))
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError("bad action spec %r: %s" % (text, exc))
    return act, start, act.parse("a")


def parse_point(text, domain):
    """Point literal: "pt", "t=RAT,sheet=INT", or a bare rational."""
    s = text.strip()
    if domain == COVER_LINE:
        if s == "pt":
            return COVER_BASEPOINT
        if s.startswith("t="):
            try:
                t_part, sheet_part = s.split(",")
                t_text = t_part[2:].strip()
                if not sheet_part.strip().startswith("sheet="):
                    raise ValueError("missing sheet field")
                sheet = int(sheet_part.strip()[6:])
                base = (ProjPoint.infinity() if t_text == "inf"
                        else ProjPoint.from_affine(parse_rat(t_text)))
                return CoverPoint(base, sheet)
            except ValueError as exc:
                raise UsageError("bad cover point %r: %s" % (text, exc))
        try:
            return line_point(parse_rat(s))
        except ValueError as exc:
            raise UsageError("bad cover point %r: %s" % (text, exc))
    if s == "pt":
        raise UsageError("\"pt\" is a cover point; this action moves rationals")
    try:
        return parse_rat(s)
    except ValueError as exc:
        raise UsageError("bad rational point %r: %s" % (text, exc))


def format_point(p):
    if isinstance(p, CoverPoint):
        return "t=%s,sheet=%d" % (p.base.coordinate(), p.sheet)
    return fmt_rat(p)


def split_words(text):
    """Split a word list on top-level commas; commutator commas stay put."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise UsageError("unbalanced ']' in %r" % (text,))
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise UsageError("unbalanced '[' in %r" % (text,))
    parts.append("".join(cur))
    parts = [p.strip() for p in parts]
    if any(not p for p in parts):
        raise UsageError("empty word in %r" % (text,))
    return parts


# ---------------------------------------------------------------- output


@contextlib.contextmanager
def open_output(path):
    """The stream a command writes to: stdout, or the file at path."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


# The report prose: fixed text that every report of its kind carries.
PERIODICITY_NOTE = ("deck equivariance repeats each bracket inside every "
                    "window (base+n, base+n+1), n any integer")
ZZ_NARRATIVE = (
    "For each listed cell the chosen power has one-sided slopes strictly below "
    "1/2 at the cell midpoint.  The midpoints accumulate at 1 while every "
    "anchor is fixed, so the anchors also accumulate at 1.  A C1 conjugate of "
    "the product map would need derivative at most 1/2 along the midpoint "
    "sequence and exactly 1 along the fixed anchor sequence; both limits would "
    "be the derivative at 1, which is impossible.  The product over all cells "
    "is truncated here; each midpoint inequality only consults finitely many "
    "cells, so the truncation certifies the same contradiction."
)


def point_obj(x):
    """A point as the report writes it: a cover point as its coordinate and
    sheet, a rational as its exact string."""
    if isinstance(x, CoverPoint):
        return {"t": x.base.coordinate(), "sheet": x.sheet}
    return fmt_rat(x)


def interleaving_obj(il):
    return {
        "window": [point_obj(il.window[0]), point_obj(il.window[1])],
        "brackets": [
            {"generator": name, "lo": point_obj(b.lo), "hi": point_obj(b.hi),
             "sign_lo": b.sign_lo, "sign_hi": b.sign_hi, "deck_shift": shift}
            for name, b, shift in il.entries],
        "periodicity_note": PERIODICITY_NOTE,
    }


def domination_obj(cert):
    """Everything but the rows, which render_report writes from cert.rows."""
    return {
        "dominating_word": cert.h.to_string(cert.generators),
        "generators": list(cert.generators),
        "base_point": point_obj(cert.base),
        "advancing_word": cert.advancing.to_string(cert.generators),
        "depth": cert.depth,
        "valid": cert.valid,
        "structural": cert.structural,
        "flags": list(cert.flags),
        "normalization": dict(cert.normalization),
        "interleaving":
            interleaving_obj(cert.interleaving) if cert.interleaving else None,
    }


def witness_obj(w):
    return {
        "truncation": w.truncation,
        "cap": w.cap,
        "support": {str(i): k for i, k in sorted(w.support.items())},
        "entries": [
            {"index": e.index, "power": e.power,
             "midpoint": fmt_rat(cell_midpoint(e.index)), "slope": fmt_rat(e.slope),
             "rejected_slope":
                 None if e.rejected_slope is None else fmt_rat(e.rejected_slope)}
            for e in w.entries],
        "anchors_checked": list(w.anchors_checked),
        "anchors_fixed": w.anchors_fixed,
        "valid": w.valid,
        "narrative": ZZ_NARRATIVE,
    }


# One domination row, its points as point_obj writes them, indented as
# json.dumps(indent=2, sort_keys=True) lays it out at certificate.rows; the
# "t" values need no JSON escaping.
ROW_TEMPLATE = """\
      {
        "bracket_route": %s,
        "dominator": {
          "sheet": %d,
          "t": "%s"
        },
        "generator": %s,
        "m": %d,
        "moved": {
          "sheet": %d,
          "t": "%s"
        },
        "ordering": "%s",
        "sign": %d
      }"""
ROWS_MARKER = "@rows@"
ROWS_PER_BLOCK = 1024


def render_report(report, fh, rows=None):
    """Write report to fh as json.dumps(indent=2, sort_keys=True) lays it
    out, with the domination rows of a cover-line certificate, if given, as
    certificate.rows.

    json.dumps renders only the rest of the report.  The rows go through
    ROW_TEMPLATE and are written a block at a time, so the rendered rows
    are never held whole.
    """
    if rows is None:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return
    header = dict(report, certificate=dict(report["certificate"],
                                           rows=ROWS_MARKER))
    head, tail = json.dumps(header, indent=2, sort_keys=True).split(
        json.dumps(ROWS_MARKER))
    if not rows:
        fh.write(head + "[]" + tail + "\n")
        return
    quoted = {name: json.dumps(name) for name in {r.generator for r in rows}}
    fh.write(head + "[\n")
    for start in range(0, len(rows), ROWS_PER_BLOCK):
        if start:
            fh.write(",\n")
        fh.write(",\n".join([
            ROW_TEMPLATE % (
                "null" if r.bracket_route is None else '"%s"' % r.bracket_route,
                r.dominator.sheet, r.dominator.base.coordinate(),
                quoted[r.generator], r.m,
                r.moved.sheet, r.moved.base.coordinate(),
                ordering_name(r.ordering), r.sign)
            for r in rows[start:start + ROWS_PER_BLOCK]]))
    fh.write("\n    ]" + tail + "\n")


def timestamp():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------- commands


def cmd_certify(argv):
    parser = argparse.ArgumentParser(
        prog="nonsmooth certify",
        description="Emit a machine-checkable nonsmoothability certificate.")
    parser.add_argument("target", choices=("punctured-torus", "zz"))
    parser.add_argument("--depth", type=int, default=50,
                        help="domination rows per generator (punctured-torus)")
    parser.add_argument("--truncation", type=int, default=16,
                        help="cell radius of the finite table (zz)")
    parser.add_argument("--out", default=None, help="report path (default stdout)")
    args = parser.parse_args(argv)

    if args.target == "punctured-torus":
        if args.depth < 0:
            parser.error("--depth must be nonnegative")
        check_cap("--depth", args.depth, MAX_DEPTH)
        act, base, advance = parse_action_spec(args.target)
        cert = certify_domination(act, advance ** 2, (base, advance), args.depth)
        if not cert.valid:
            verdict = "invalid"
        elif cert.structural:
            verdict = "certified"
        else:
            verdict = "checked-range-only"
        action = {"type": "punctured-torus"}
        size_key, size = "depth", args.depth
        normalization, certificate = cert.normalization, domination_obj(cert)
        rows = cert.rows
    else:
        if args.truncation < 0:
            parser.error("--truncation must be nonnegative")
        check_cap("--truncation", args.truncation, MAX_TRUNCATION)
        witness = zz_witness(args.truncation)
        verdict = "certified" if witness.valid else "invalid"
        action = {"type": "zz", "truncation": args.truncation}
        size_key, size = "truncation", args.truncation
        normalization, certificate = {}, witness_obj(witness)
        rows = None
    report = {
        "version": REPORT_VERSION,
        "generated_at": timestamp(),
        "action": action,
        size_key: size,
        "normalization": normalization,
        "certificate": certificate,
        "verdict": verdict,
    }
    with open_output(args.out) as fh:
        render_report(report, fh, rows)
    return 0 if verdict != "invalid" else 1


CSV_COLUMNS = ("window_index", "generator", "displacement_at_0",
               "grid_deviation", "fixed_point_bracket_lo",
               "fixed_point_bracket_hi", "grid_deviation_dec")


def cmd_renorm(argv):
    parser = argparse.ArgumentParser(
        prog="nonsmooth renorm",
        description="Blow up an action along a marked orbit; write one CSV "
                    "row per window and generator.")
    parser.add_argument("--action", default="parabolic-germ",
                        help="action spec: bare type name or JSON record")
    parser.add_argument("--windows", type=int, default=8)
    parser.add_argument("--grid", type=int, default=64)
    parser.add_argument("--radius", default="2", help="rational probe radius")
    parser.add_argument("--start", default=None,
                        help="first marked point (default: action-specific)")
    parser.add_argument("--advance", default=None,
                        help="word advancing the marked point (default: "
                             "[a,b] for punctured-torus, a otherwise)")
    parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = parser.parse_args(argv)
    if args.windows < 1:
        parser.error("--windows must be positive")
    if args.grid < 2:
        parser.error("--grid must be at least 2")
    check_cap("--windows", args.windows, MAX_WINDOWS)
    check_cap("--grid", args.grid, MAX_GRID)

    act, start, advance = parse_action_spec(args.action)
    if act.domain == COVER_LINE:
        act, start = compactified_action(act), compactify(start)
    try:
        radius = parse_rat(args.radius)
    except ValueError as exc:
        raise UsageError("bad radius %r: %s" % (args.radius, exc))
    if args.start is not None:
        start = parse_point(args.start, act.domain)
    if args.advance is not None:
        advance = act.parse(args.advance)
    points = orbit_sequence(act, advance, start, args.windows - 1)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for window in build_windows(act, points):
        rs = rescale(window, act, args.grid)
        brackets = fixed_point_in_window(rs)
        for name in rs.names:
            dev = generator_deviation(rs, name, radius, args.grid)
            bracket = brackets[name]
            writer.writerow((
                window.index,
                name,
                fmt_rat(rs.displacement_at_0(name)),
                fmt_rat(dev),
                "" if bracket is None else fmt_rat(bracket[0]),
                "" if bracket is None else fmt_rat(bracket[1]),
                rat_to_decimal(dev, 12),
            ))
    with open_output(args.out) as fh:
        fh.write(buf.getvalue())
    return 0


SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 640, 400, 70
SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _svg_x(i, max_i):
    span = Fraction(max(max_i, 1))
    return SVG_MARGIN + Fraction(i) / span * (SVG_WIDTH - 2 * SVG_MARGIN)


def _svg_y(v, max_v):
    top = max_v if max_v > 0 else Fraction(1)
    return SVG_HEIGHT - SVG_MARGIN - v / top * (SVG_HEIGHT - 2 * SVG_MARGIN)


def _px(q):
    return rat_to_decimal(q, 2)


def cmd_plot(argv):
    parser = argparse.ArgumentParser(
        prog="nonsmooth plot",
        description="Render a renorm CSV as one grid-deviation polyline per "
                    "generator.")
    parser.add_argument("--in", dest="in_path", required=True)
    parser.add_argument("--out", default=None, help="SVG path (default stdout)")
    args = parser.parse_args(argv)

    series = {}
    with open(args.in_path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            try:
                idx = int(row["window_index"])
                dev = parse_rat(row["grid_deviation"])
                name = row["generator"]
            except (KeyError, TypeError, ValueError):
                raise UsageError("%s is not a renorm CSV" % (args.in_path,))
            series.setdefault(name, []).append((idx, dev))
    if not series:
        raise UsageError("no data rows in %s" % (args.in_path,))

    max_i = max(i for pts in series.values() for i, _ in pts)
    max_v = max(v for pts in series.values() for _, v in pts)
    top = max_v if max_v > 0 else Fraction(1)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (SVG_WIDTH, SVG_HEIGHT, SVG_WIDTH, SVG_HEIGHT),
        '<rect width="%d" height="%d" fill="white"/>' % (SVG_WIDTH, SVG_HEIGHT),
        '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>' % (
            _px(Fraction(SVG_MARGIN)), _px(Fraction(SVG_HEIGHT - SVG_MARGIN)),
            _px(Fraction(SVG_WIDTH - SVG_MARGIN)),
            _px(Fraction(SVG_HEIGHT - SVG_MARGIN))),
        '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>' % (
            _px(Fraction(SVG_MARGIN)), _px(Fraction(SVG_HEIGHT - SVG_MARGIN)),
            _px(Fraction(SVG_MARGIN)), _px(Fraction(SVG_MARGIN))),
        '<text x="%d" y="%d" text-anchor="middle">window_index</text>' % (
            SVG_WIDTH // 2, SVG_HEIGHT - SVG_MARGIN // 3),
        '<text x="%d" y="%d" text-anchor="middle" '
        'transform="rotate(-90 %d %d)">grid_deviation</text>' % (
            SVG_MARGIN // 3, SVG_HEIGHT // 2, SVG_MARGIN // 3, SVG_HEIGHT // 2),
        '<text x="%s" y="%d" text-anchor="middle">0</text>' % (
            _px(Fraction(SVG_MARGIN)), SVG_HEIGHT - SVG_MARGIN + 20),
        '<text x="%s" y="%d" text-anchor="middle">%d</text>' % (
            _px(Fraction(SVG_WIDTH - SVG_MARGIN)), SVG_HEIGHT - SVG_MARGIN + 20,
            max_i),
        '<text x="%d" y="%s" text-anchor="end">%s</text>' % (
            SVG_MARGIN - 6, _px(_svg_y(Fraction(0), top) + 4), "0"),
        '<text x="%d" y="%s" text-anchor="end">%s</text>' % (
            SVG_MARGIN - 6, _px(_svg_y(top, top) + 4), rat_to_decimal(top, 4)),
    ]
    for pos, name in enumerate(sorted(series)):
        color = SVG_COLORS[pos % len(SVG_COLORS)]
        pts = " ".join("%s,%s" % (_px(_svg_x(i, max_i)), _px(_svg_y(v, top)))
                       for i, v in sorted(series[name]))
        lines.append('<polyline fill="none" stroke="%s" points="%s"/>' % (
            color, pts))
        lines.append('<text x="%d" y="%d" fill="%s">%s</text>' % (
            SVG_WIDTH - SVG_MARGIN + 8, SVG_MARGIN + 18 * pos + 4, color, name))
    lines.append("</svg>")
    with open_output(args.out) as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_orbit(argv):
    parser = argparse.ArgumentParser(
        prog="nonsmooth orbit",
        description="Print the exact orbit of a point under repeated "
                    "application of a word.")
    parser.add_argument("--action", default="punctured-torus")
    parser.add_argument("--word", default=None,
                        help="word to apply (default: the action's advancing "
                             "word, [a,b] for punctured-torus, a otherwise)")
    parser.add_argument("--point", default=None,
                        help="pt, t=RAT,sheet=INT, or a rational")
    parser.add_argument("--count", type=int, default=5)
    args = parser.parse_args(argv)
    if args.count < 0:
        parser.error("--count must be nonnegative")
    check_cap("--count", args.count, MAX_COUNT)

    act, point, word = parse_action_spec(args.action)
    if args.point is not None:
        point = parse_point(args.point, act.domain)
    if args.word is not None:
        word = act.parse(args.word)
    for n, p in enumerate(orbit_sequence(act, word, point, args.count)):
        sys.stdout.write("%d\t%s\n" % (n, format_point(p)))
    return 0


def cmd_order(argv):
    parser = argparse.ArgumentParser(
        prog="nonsmooth order",
        description="Compare consecutive words by where they move a point; "
                    "one verdict per line.")
    parser.add_argument("--action", default="punctured-torus")
    parser.add_argument("--point", default=None)
    parser.add_argument("--words", required=True,
                        help="comma-separated; commas inside [x,y] are kept")
    args = parser.parse_args(argv)

    act, point, _ = parse_action_spec(args.action)
    if args.point is not None:
        point = parse_point(args.point, act.domain)
    words = split_words(args.words)
    if len(words) < 2:
        raise UsageError("need at least two words to compare")
    for first, second in zip(words, words[1:]):
        r = order_cmp(act, act.parse(first), act.parse(second), point)
        sys.stdout.write("%s\t%s\t%s\n" % (
            r.name, format_point(r.image1), format_point(r.image2)))
    return 0


# ---------------------------------------------------------------- dispatch


COMMANDS = {
    "certify": cmd_certify,
    "renorm": cmd_renorm,
    "plot": cmd_plot,
    "orbit": cmd_orbit,
    "order": cmd_order,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stderr.write(USAGE)
        return 0 if argv else 64
    handler = COMMANDS.get(argv[0])
    if handler is None:
        sys.stderr.write("unknown command %r\n%s" % (argv[0], USAGE))
        return 64
    try:
        return handler(argv[1:])
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    except (EmptyDisplacement, EmptyGridDomain, SearchExhausted,
            Degenerate) as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        return 1
    except (UsageError, NonsmoothError, ValueError) as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        return 2
    except OSError as exc:
        sys.stderr.write("i/o error: %s\n" % (exc,))
        return 3


if __name__ == "__main__":
    sys.exit(main())
