"""Command surface: certificate reports, renormalization traces, and
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
from .plmaps import ModelTranslation, PLMap, midpoint_pair
from .projline import ProjPoint, ordering_name
from .rational import fmt_rat, parse_rat, rat_to_decimal
from .renorm import (
    RescaledSystem,
    build_windows,
    fixed_point_in_window,
    generator_deviation,
    germ_action,
)

REPORT_VERSION = "1"

# Largest accepted value of each size option (its cap).  Run time grows
# with each, and at its cap each run took under 35 s on the slowest action
# with the other options at their defaults (README, "Size caps").
MAX_DEPTH = 50_000
MAX_TRUNCATION = 5_000
MAX_WINDOWS = 1_000
MAX_GRID = 10_000
MAX_COUNT = 5_000
# the same for the absolute "power" of a model-translation action spec
MAX_POWER = 5_000
# Each size option's least value and cap; check_sizes refuses a value
# outside them in every size option a command defines, whatever its target.
SIZE_OPTIONS = {"depth": (0, MAX_DEPTH), "truncation": (0, MAX_TRUNCATION),
                "windows": (1, MAX_WINDOWS), "grid": (2, MAX_GRID),
                "count": (0, MAX_COUNT)}
# characters of its message an error line shows; a longer one is cut
MAX_MESSAGE = 200

USAGE = """usage: nonsmooth <command> [options]

commands:
  certify   emit a JSON certificate report (punctured-torus | zz)
  renorm    emit a CSV renormalization trace for an action
  orbit     print an exact orbit, one point per line
  order     compare words by where they move a point

run "nonsmooth <command> --help" for the command's options.
"""


class UsageError(Exception):
    """Malformed arguments or action/point specs; exits with code 2."""


class Parser(argparse.ArgumentParser):
    """A command's option parser; its errors are usage errors, one line."""

    def error(self, message):
        raise UsageError(message)


def check_sizes(args):
    for name, (least, cap) in SIZE_OPTIONS.items():
        option, value = "--" + name, getattr(args, name, least)
        if value < least:
            raise UsageError("%s %d is below its least value of %d"
                             % (option, value, least))
        if value > cap:
            raise UsageError("%s %d is above its cap of %d" % (option, value, cap))


# ---------------------------------------------------------------- specs

# The fields each action type takes besides "type"; any other is refused.
SPEC_FIELDS = {"punctured-torus": (), "zz": (), "pl": ("breakpoints",),
               "model-translation": ("support", "power"), "parabolic-germ": ()}


def spec_pair(value, field):
    # a JSON string would unpack into its characters
    if not (isinstance(value, list) and len(value) == 2):
        raise UsageError("%s must be a JSON array of two rationals" % field)
    return [parse_rat(str(v)) for v in value]


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
    if not isinstance(kind, str) or kind not in SPEC_FIELDS:
        raise UsageError("unknown action type %r" % (kind,))
    for field in obj:
        if field != "type" and field not in SPEC_FIELDS[kind]:
            raise UsageError("action type %s takes no field %r" % (kind, field))
    try:
        if kind == "punctured-torus":
            act = punctured_torus_action()
            return act, COVER_BASEPOINT, act.parse("[a,b]")
        if kind == "zz":
            act, start = zz_letter_action(), Fraction(*midpoint_pair(0))
        elif kind == "pl":
            points = obj.get("breakpoints", [["0", "0"], ["1", "1"]])
            if not isinstance(points, list):
                raise UsageError("pl field \"breakpoints\" must be a JSON array")
            pl = PLMap([spec_pair(b, "pl breakpoint %d" % k)
                        for k, b in enumerate(points)])
            act, start = MarkedAction(("a",), (pl,), UNIT_INTERVAL), Fraction(1, 2)
        elif kind == "model-translation":
            support = obj.get("support", ["1/2", "2/3"])
            power = obj.get("power", 1)
            if type(power) is not int or abs(power) > MAX_POWER:
                raise UsageError("model-translation power %r is not an integer "
                                 "in [-%d, %d]" % (power, MAX_POWER, MAX_POWER))
            lo, hi = spec_pair(support, "model-translation field \"support\"")
            act = MarkedAction(
                ("a",), (ModelTranslation((lo, hi), power),), UNIT_INTERVAL)
            # the support endpoints are fixed; start in the middle
            start = (lo + hi) / 2
        else:  # parabolic-germ
            act, start = germ_action(), Fraction(1, 2)
    except (ValueError, TypeError, OverflowError) as exc:
        raise UsageError("bad action spec %r: %s" % (text, exc))
    return act, start, act.parse("a")


def parse_point(text, domain):
    """Point literal: "pt", "t=RAT,sheet=INT", or a bare rational."""
    s = text.strip()
    if domain == COVER_LINE:
        if s == "pt":
            return COVER_BASEPOINT
        try:
            if not s.startswith("t="):
                return line_point(parse_rat(s))
            parts = s.split(",")
            if len(parts) != 2 or not parts[1].strip().startswith("sheet="):
                raise ValueError("expected the form t=RAT,sheet=INT")
            t_text = parts[0][2:].strip()
            sheet = parts[1].strip()[6:].strip()
            digits = sheet[1:] if sheet[:1] in ("+", "-") else sheet
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError("sheet must be an integer in ASCII digits")
            base = (ProjPoint.infinity() if t_text == "inf"
                    else ProjPoint.from_affine(parse_rat(t_text)))
            return CoverPoint(base, int(sheet))
        except ValueError as exc:
            raise UsageError("bad cover point %r: %s" % (text, exc))
    if s == "pt" or s.startswith("t="):
        raise UsageError("\"%s\" is a cover point; this action moves "
                         "rationals" % s)
    try:
        return parse_rat(s)
    except ValueError as exc:
        raise UsageError("bad rational point %r: %s" % (text, exc))


def coordinate(u):
    """The affine coordinate of u as reports write it: "inf" or a rational."""
    return "inf" if u.is_infinite else fmt_rat(u.affine())


def format_point(p):
    if isinstance(p, CoverPoint):
        return "t=%s,sheet=%d" % (coordinate(p.base), p.sheet)
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
        return {"t": coordinate(x.base), "sheet": x.sheet}
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
    """Everything but what entry_lines and support_lines render."""
    return {
        "truncation": w.truncation,
        "cap": w.cap,
        "anchors_checked": list(w.anchors_checked),
        "anchors_fixed": w.anchors_fixed,
        "valid": w.valid,
        "narrative": ZZ_NARRATIVE,
    }


# One domination row, zz entry and zz support member, indented as json.dumps(
# indent=2, sort_keys=True) lays them out at certificate.rows, .entries and
# .support; their points and rationals, as point_obj and fmt_rat write them,
# need no JSON escaping.  The row's three integers that move with the deck
# step (the dominator's sheet, m and the moved sheet) and the entry's index
# and midpoint are %s slots, which row_lines and entry_lines fill with "%d"
# slots first and with each step's or cell's integers later.
ROW_TEMPLATE = """\
      {
        "bracket_route": %s,
        "dominator": {
          "sheet": %s,
          "t": "%s"
        },
        "generator": %s,
        "m": %s,
        "moved": {
          "sheet": %s,
          "t": "%s"
        },
        "ordering": "%s",
        "sign": %d
      }"""
ENTRY_TEMPLATE = """\
      {
        "index": %s,
        "midpoint": "%s",
        "power": %d,
        "rejected_slope": %s,
        "slope": "%s"
      }"""
SUPPORT_TEMPLATE = '      "%s": %d'


def escape(text):
    """text as a % template that writes text."""
    return text.replace("%", "%%")


def row_lines(rows, names):
    """The rows of a DeckRows through ROW_TEMPLATE, quoting the given names,
    as one item per deck step: the step's rows, joined as render_report
    joins its items.  Row j of step m is row j of step 0 with m added to its
    m and to both sheets, so every other field is filled in once per report,
    into a block template for step 0 and one for the later steps, whose
    routes are null unless the rows carry them; each step then fills only
    its three integers per row, with one %.  DeckRows(rows, 0) renders any
    rows as they are, as one item, and an empty period as no item at all.
    """
    quoted = {name: json.dumps(name) for name in names}
    # every field but the route and the three integers, each formatted once;
    # the strings are written into a template, so their % is escaped
    fields = [(escape(coordinate(r.dominator.base)), escape(quoted[r.generator]),
               escape(coordinate(r.moved.base)), ordering_name(r.ordering),
               r.sign) for r in rows.period]

    def block(routes):
        return ",\n".join(
            ROW_TEMPLATE % (escape(route), "%d", dt, name, "%d", "%d", mt,
                            ordering, sign)
            for route, (dt, name, mt, ordering, sign) in zip(routes, fields))

    first = block(["null" if r.bracket_route is None
                   else '"%s"' % r.bracket_route for r in rows.period])
    rest = first if rows.carries_routes else block(["null"] * len(rows.period))
    # one range per integer of step 0, so zip yields each step's integers;
    # with no rows, zip() yields no step
    steps = zip(*[range(n, n + rows.depth + 1) for r in rows.period
                  for n in (r.dominator.sheet, r.m, r.moved.sheet)])
    for m, integers in enumerate(steps):
        yield (rest if m else first) % integers


def entry_lines(cells, power, slope, rejected_slope):
    """Each cell's zz witness entry through ENTRY_TEMPLATE.  The one power
    and two slopes of the cell lemma are filled in once per report, and
    each cell then fills only its index and midpoint."""
    rejected = "null" if rejected_slope is None else '"%s"' % fmt_rat(
        rejected_slope)
    template = ENTRY_TEMPLATE % ("%d", "%d/%d", power, rejected, fmt_rat(slope))
    return (template % ((i,) + midpoint_pair(i)) for i in cells)


def support_lines(cells, power):
    """The zz support map as one item: each cell's index string to the one
    power through SUPPORT_TEMPLATE, filled once per report, in the order of
    json.dumps' sort_keys ("-1", "-10", "-100", ..., "0", "1", "10", ...)."""
    keys = sorted(map(str, cells))
    head, tail = SUPPORT_TEMPLATE.split("%s")
    if keys:
        yield head + (tail % power + ",\n" + head).join(keys) + tail % power


def render_report(report, fh, spliced):
    """Write report to fh as json.dumps(indent=2, sort_keys=True) lays it
    out.  spliced maps certificate keys to (brackets, lines): the value at
    such a key is the JSON array ("[]") or object ("{}") of the items that
    lines yields, each already rendered and written as it is rendered.
    json.dumps renders only the rest, a header of constant size.
    """
    markers = {key: "@%s@" % key for key in spliced}
    header = dict(report, certificate=dict(report["certificate"], **markers))
    rest = json.dumps(header, indent=2, sort_keys=True)
    for key, ((opening, closing), lines) in sorted(spliced.items()):  # sort_keys order
        head, rest = rest.split(json.dumps(markers[key]))
        fh.write(head)
        close = opening + closing
        for n, line in enumerate(lines):
            fh.write((",\n" if n else opening + "\n") + line)
            close = "\n    " + closing
        fh.write(close)
    fh.write(rest + "\n")


def timestamp():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# ---------------------------------------------------------------- commands


def cmd_certify(argv):
    parser = Parser(
        prog="nonsmooth certify",
        description="Emit a machine-checkable nonsmoothability certificate.")
    parser.add_argument("target", choices=("punctured-torus", "zz"))
    parser.add_argument("--depth", type=int, default=50,
                        help="deck steps after step 0 in the domination "
                             "table (punctured-torus)")
    parser.add_argument("--truncation", type=int, default=16,
                        help="cell radius of the finite table (zz)")
    parser.add_argument("--out", default=None, help="report path (default stdout)")
    args = parser.parse_args(argv)
    check_sizes(args)

    if args.target == "punctured-torus":
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
        spliced = {"rows": ("[]", row_lines(cert.rows, cert.generators))}
    else:
        w = zz_witness(args.truncation)
        action = {"type": "zz", "truncation": args.truncation}
        size_key, size = "truncation", args.truncation
        normalization, certificate = {}, witness_obj(w)
        verdict = "certified" if certificate["valid"] else "invalid"
        spliced = {"entries": ("[]", entry_lines(w.cells, w.power, w.slope,
                                                 w.rejected_slope)),
                   "support": ("{}", support_lines(w.cells, w.power))}
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
        render_report(report, fh, spliced)
    return 0 if verdict != "invalid" else 1


CSV_COLUMNS = ("window_index", "generator", "displacement_at_0",
               "grid_deviation", "fixed_point_bracket_lo",
               "fixed_point_bracket_hi", "grid_deviation_dec")


def cmd_renorm(argv):
    parser = Parser(
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
    check_sizes(args)

    act, start, advance = parse_action_spec(args.action)
    if act.domain == COVER_LINE:
        act, start = compactified_action(act), compactify(start)
    try:
        radius = parse_rat(args.radius)
    except ValueError as exc:
        raise UsageError("bad radius %r: %s" % (args.radius, exc))
    if radius < 0:
        parser.error("--radius must be nonnegative")
    if args.start is not None:
        start = parse_point(args.start, act.domain)
    if args.advance is not None:
        advance = act.parse(args.advance)
    points = orbit_sequence(act, advance, start, args.windows - 1)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for window in build_windows(act, points):
        rs = RescaledSystem(window, act, args.grid)
        brackets = fixed_point_in_window(rs)
        for name in rs.names:
            dev = generator_deviation(rs, name, radius)
            bracket = brackets[name]
            writer.writerow((
                window.index,
                name,
                fmt_rat(rs.displacements_at_0[name]),
                fmt_rat(dev),
                "" if bracket is None else fmt_rat(bracket[0]),
                "" if bracket is None else fmt_rat(bracket[1]),
                rat_to_decimal(dev, 12),
            ))
    with open_output(args.out) as fh:
        fh.write(buf.getvalue())
    return 0


def cmd_orbit(argv):
    parser = Parser(
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
    check_sizes(args)

    act, point, word = parse_action_spec(args.action)
    if args.point is not None:
        point = parse_point(args.point, act.domain)
    if args.word is not None:
        word = act.parse(args.word)
    for n, p in enumerate(orbit_sequence(act, word, point, args.count)):
        sys.stdout.write("%d\t%s\n" % (n, format_point(p)))
    return 0


def cmd_order(argv):
    parser = Parser(
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
        name = repr(argv[0])[:MAX_MESSAGE]
        sys.stderr.write("unknown command %s\n%s" % (name, USAGE))
        return 64
    try:
        return handler(argv[1:])
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    except (EmptyDisplacement, EmptyGridDomain, SearchExhausted,
            Degenerate) as exc:
        label, message, code = type(exc).__name__, str(exc), 1
    except (UsageError, NonsmoothError, ValueError) as exc:
        label, message, code = type(exc).__name__, str(exc), 2
    except OSError as exc:
        label, message, code = "i/o error", str(exc), 3
    if len(message) > MAX_MESSAGE:
        message = message[:MAX_MESSAGE] + "..."
    sys.stderr.write("%s: %s\n" % (label, message))
    return code


if __name__ == "__main__":
    sys.exit(main())
