"""Grammar-based fuzzing of the command line: random argv built from the
subcommands and their options, with malformed values mixed in.

Every run must end in a documented exit code, with no exception escaping
main() (a traceback from the console script), and a repeated run must give
the same output.  Sizes are drawn small or above their caps, so no run does
long work.  A second grammar nests words and action specs up to 10,000
levels deep; each of those runs must also end within a time bound.
"""

import random
import time

import pytest

from nonsmooth import cli
from nonsmooth.cli import main

EXIT_CODES = {0, 1, 2, 3, 64}
RUNS = 600

BIG = "9" * 301
# raw JSON number tokens, spliced into action specs unquoted
NUMBERS = ("0", "1", "-1", "2", "7", "1e400", "-1e400", "1e300", "NaN",
           "Infinity", BIG, "-" + BIG, '"3"', '"x"', "true", "null", "[1]",
           str(cli.MAX_POWER + 1))
BREAKPOINTS = (
    '[["0","0"],["1/2","1/3"],["1","1"]]',
    '[["0","0"],["1/2"],["1","1"]]',
    '[["1","1"],["0","0"]]',
    '[["0","0"],["1/2","2/3"],["1/3","1/2"],["1","1"]]',
    '[[0,0],[1e400,1],[1,1]]',
    '[["0","0"],["1/0","1/2"],["1","1"]]',
    '[[0,0],[%s,1],[1,1]]' % BIG,
    '[["0","0"],[NaN,"1/2"],["1","1"]]',
    '5', '"abc"', '[]', 'null', '[[0,0,0]]',
)
SUPPORTS = ('["1/2","2/3"]', '["2/3","1/2"]', '["0","1"]', '[1e400,1]',
            '["a"]', '5', '["1/3","1/0"]', '[%s,1]' % BIG)
TYPES = ("punctured-torus", "zz", "pl", "model-translation",
         "parabolic-germ", "bogus", "")
POINTS = ("pt", "1/2", "0", "1", "-1/3", "1/0", "7/12", "2/5", "t=inf,sheet=0",
          "t=1/2,sheet=-1", "t=-3/2,sheet=2", "t=1/2,sheet=1e400",
          "t=1/2,sheet=" + BIG, "t=abc", "t=1/2", BIG, "1e400", "NaN", "")
# well-formed words first, then malformed or oversized ones
WORDS = ("a", "b", "a^-1", "a^2", "[a,b]", "[a,b]^2", "((a))", "[a,b]^-1",
         "ab", "a*b", "c", "", "[a", "a]", "a^NaN", "a^99999999999",
         "(a^1000000)^1000000", "a^" + BIG)
RADII = ("2", "1/2", "0", "-1", "1/0", "x", "1e400", BIG)


def size(rng, cap, small=(0, 1, 2, 3)):
    r = rng.random()
    if r < 0.7:
        return str(rng.choice(small))
    if r < 0.9:
        return str(rng.choice((-1, cap + 1, cap + 2)))
    return rng.choice(("x", "1e400", BIG, ""))


def action(rng):
    kind = rng.choice(("bare", "bare", "zz", "model", "pl", "junk"))
    if kind == "bare":
        return rng.choice(TYPES)
    if kind == "zz":
        return '{"type":"zz","truncation":%s}' % rng.choice(NUMBERS)
    if kind == "model":
        fields = ['"type":"model-translation"']
        if rng.random() < 0.7:
            fields.append('"power":%s' % rng.choice(NUMBERS))
        if rng.random() < 0.5:
            fields.append('"support":%s' % rng.choice(SUPPORTS))
        return "{%s}" % ",".join(fields)
    if kind == "pl":
        return '{"type":"pl","breakpoints":%s}' % rng.choice(BREAKPOINTS)
    return rng.choice(('{"type":1e400}', '{"kind":"zz"}', '[1,2]', '{',
                       '"zz"', '{"type":null}', '{"type":["zz"]}'))


def word(rng):
    return rng.choice(WORDS[:8] if rng.random() < 0.7 else WORDS)


def words(rng):
    return ",".join(word(rng) for _ in range(rng.randint(1, 3)))


def argv_for(rng, tmp_path):
    command = rng.choice(("certify", "renorm", "plot", "orbit", "orbit",
                          "order", "order") * 3 + ("frobnicate", "--help"))
    argv = [command]
    if command == "certify":
        argv.append(rng.choice(("punctured-torus", "zz") * 4 + ("pl",)))
        if rng.random() < 0.7:
            argv += ["--depth", size(rng, cli.MAX_DEPTH)]
        if rng.random() < 0.7:
            argv += ["--truncation", size(rng, cli.MAX_TRUNCATION)]
    elif command == "renorm":
        if rng.random() < 0.8:
            argv += ["--action", action(rng)]
        argv += ["--windows", size(rng, cli.MAX_WINDOWS, (1, 2, 3))]
        argv += ["--grid", size(rng, cli.MAX_GRID, (2, 3, 4))]
        if rng.random() < 0.5:
            argv += ["--radius", rng.choice(RADII)]
        if rng.random() < 0.5:
            argv += ["--start", rng.choice(POINTS)]
        if rng.random() < 0.4:
            argv += ["--advance", word(rng)]
    elif command == "plot":
        argv += ["--in", str(rng.choice(PLOT_INPUTS)(tmp_path))]
    elif command == "orbit":
        if rng.random() < 0.8:
            argv += ["--action", action(rng)]
        if rng.random() < 0.8:
            argv += ["--word", word(rng)]
        if rng.random() < 0.6:
            argv += ["--point", rng.choice(POINTS)]
        argv += ["--count", size(rng, cli.MAX_COUNT)]
    elif command == "order":
        if rng.random() < 0.8:
            argv += ["--action", action(rng)]
        if rng.random() < 0.6:
            argv += ["--point", rng.choice(POINTS)]
        if rng.random() < 0.9:
            argv += ["--words", words(rng)]
    if command in ("certify", "renorm", "plot") and rng.random() < 0.2:
        argv += ["--out", str(tmp_path / "missing-dir" / "out.txt")]
    if rng.random() < 0.05:
        argv.append(rng.choice(("--bogus", "extra", "--help")))
    return argv


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


PLOT_INPUTS = (
    lambda tmp: write(tmp, "good.csv",
                      "window_index,generator,grid_deviation\n0,a,1/2\n1,a,1/4\n"),
    lambda tmp: write(tmp, "bad.csv", "window_index,generator,grid_deviation\n"
                                      "x,a,1/0\n"),
    lambda tmp: write(tmp, "empty.csv", ""),
    lambda tmp: write(tmp, "junk.csv", "\x00\x01,\n,,,\n"),
    lambda tmp: tmp / "missing.csv",
    lambda tmp: tmp,
)


def run(capsys, argv):
    try:
        code = main(list(argv))
    except Exception as exc:  # the console script would print a traceback
        pytest.fail("%r raised %s: %s" % (argv, type(exc).__name__, exc))
    captured = capsys.readouterr()
    out = "\n".join(line for line in captured.out.splitlines()
                    if '"generated_at"' not in line)
    return code, out, captured.err


def test_random_argv_exit_cleanly_and_repeat(capsys, tmp_path):
    rng = random.Random(515)
    seen = set()
    for _ in range(RUNS):
        argv = argv_for(rng, tmp_path)
        first = run(capsys, argv)
        code, _, err = first
        assert code in EXIT_CODES, argv
        assert "Traceback" not in err, argv
        assert run(capsys, argv) == first, argv
        seen.add(code)
    # the grammar reaches success, usage errors and i/o errors alike
    assert {0, 2, 3, 64} <= seen


# nesting depths of the deep inputs: around the 16 levels where doubling
# commutators meet the letter cap, and far past the depth of Python's
# recursion limit
DEPTHS = (1, 2, 15, 16, 17, 100, 1000, 10000)
NESTED_RUNS = 60
NESTED_SECONDS = 2


def nested_word(rng, depth):
    letter = rng.choice("aAbB")
    kind = rng.choice(("parentheses", "powers", "brackets"))
    if kind == "parentheses":
        # sometimes one closer short
        return "(" * depth + letter + ")" * (depth - rng.choice((0, 0, 1)))
    if kind == "powers":
        return "(" * depth + letter + "".join(
            ")^%d" % rng.choice((-1, 0, 1, 2)) for _ in range(depth))
    # a nonempty second half doubles the word per level up to the letter
    # cap; an empty one makes every commutator trivial
    return "[" * depth + letter + (",%s]" % rng.choice("bA ")) * depth


def nested_spec(rng, depth):
    arrays = "[" * depth + "]" * depth
    return rng.choice((arrays, '{"a":' * depth + "1" + "}" * depth,
                       '{"type":%s}' % arrays,
                       '{"type":"pl","breakpoints":[%s,1]}' % arrays,
                       '{"type":"model-translation","support":%s}' % arrays))


def nested_argv(rng):
    depth = rng.choice(DEPTHS)
    if rng.random() < 0.7:
        # the word is parsed and not evaluated: the bound is on the parse
        return ["orbit", "--word", nested_word(rng, depth), "--count", "0"]
    return ["orbit", "--action", nested_spec(rng, depth), "--count", "1"]


def test_nested_input_exits_cleanly_in_bounded_time(capsys):
    rng = random.Random(516)
    seen = set()
    for _ in range(NESTED_RUNS):
        argv = nested_argv(rng)
        started = time.perf_counter()
        first = run(capsys, argv)
        assert time.perf_counter() - started < NESTED_SECONDS, argv[:2]
        code, _, err = first
        assert code in EXIT_CODES, argv[:2]
        assert "Traceback" not in err, argv[:2]
        assert run(capsys, argv) == first, argv[:2]
        seen.add(code)
    assert seen == {0, 2}
