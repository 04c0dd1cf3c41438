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
    # "plot" and "frobnicate" name no command
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
    if command in ("certify", "renorm") and rng.random() < 0.2:
        argv += ["--out", str(tmp_path / "missing-dir" / "out.txt")]
    if rng.random() < 0.05:
        argv.append(rng.choice(("--bogus", "extra", "--help")))
    return argv


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


# exponents longer than Python converts to int by default (4,300 digits):
# one past the cap on a letter, and one on an empty group, each way round
LONG_EXPONENTS = (
    ("a^1" + "0" * 5000, 2, None),
    ("A^-" + "9" * 5001, 2, None),
    ("(aA)^" + "9" * 5001, 0, ""),
    ("a^" + "0" * 5000 + "1", 0, "a"),
)


@pytest.mark.parametrize("word, code, same_as", LONG_EXPONENTS,
                         ids=("cap", "negative-cap", "empty-group",
                              "leading-zeros"))
def test_long_exponent_ends_with_our_own_text(capsys, word, code, same_as):
    argv = ["orbit", "--action", "zz", "--word", word, "--count", "1"]
    started = time.perf_counter()
    got = run(capsys, argv)
    assert time.perf_counter() - started < 0.1
    assert got[0] == code
    if same_as is None:
        # the word cap's one line, not Python's advice on its digit limit
        assert got[2].startswith("WordSyntaxError: word would expand to ")
        assert got[2].count("\n") == 1 and "sys." not in got[2]
    else:
        assert got == run(capsys, argv[:4] + [same_as] + argv[5:])


# renorm starts whose digits carry the CSV past that same limit: the
# compactified torus orbit from a 1,400-digit denominator, and the germ's
# one window from a 3,000-digit one
RENORM_DIGIT_LIMIT = (
    ("renorm", "--action", "punctured-torus", "--windows", "4",
     "--start", "1/" + "7" * 1400),
    ("renorm", "--windows", "1", "--start", "1/" + "7" * 3000),
)


@pytest.mark.parametrize("argv", RENORM_DIGIT_LIMIT,
                         ids=("punctured-torus", "parabolic-germ"))
def test_renorm_start_past_the_digit_limit_ends_in_one_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == "" and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
