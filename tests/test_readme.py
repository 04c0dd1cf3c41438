"""The README's examples against the code: its python block runs, its
orbit, order and renorm transcripts are what the command line prints, and
each action in its Actions table orbits by its advancing word."""

import os
import re
import shlex

from nonsmooth.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def blocks():
    """(language, lines) of every fenced block, in README order."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return [(lang, body.splitlines())
            for lang, body in re.findall(r"^```(\w*)\n(.*?)^```", text,
                                         re.M | re.S)]


def transcript(command):
    """The first README command line of the subcommand and the lines shown
    as its output: the rest of its block, or the next block when the
    command stands alone."""
    found = blocks()
    for pos, (_, lines) in enumerate(found):
        if lines and lines[0].startswith("nonsmooth %s " % command):
            return lines[0], lines[1:] or found[pos + 1][1]
    raise AssertionError("README shows no %s command" % command)


def printed(capsys, line):
    argv = shlex.split(line)
    assert argv[0] == "nonsmooth"
    assert main(argv[1:]) == 0
    return capsys.readouterr().out.splitlines()


def test_python_block_runs():
    code = [lines for lang, lines in blocks() if lang == "python"]
    assert len(code) == 1
    exec(compile("\n".join(code[0]) + "\n", README, "exec"), {})


def test_orbit_transcript(capsys):
    line, shown = transcript("orbit")
    assert printed(capsys, line) == shown


def test_order_transcript(capsys):
    line, shown = transcript("order")
    assert printed(capsys, line) == shown


def test_renorm_transcript_head(capsys):
    line, shown = transcript("renorm")
    assert shown[4:] == ["..."]
    assert printed(capsys, line)[:4] == shown[:4]


def actions_table():
    """(spec, advancing word) of each row of the README's Actions table."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("### Actions", 1)[1].split("\n\n")[2]
    rows = []
    for line in table.splitlines()[2:]:
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        rows.append((cells[0], cells[3]))
    return rows


def test_orbit_defaults_to_the_advancing_word(capsys):
    rows = actions_table()
    assert len(rows) == 5
    for spec, advance in rows:
        line = "nonsmooth orbit --action %s --count 1" % shlex.quote(spec)
        assert printed(capsys, line) == printed(
            capsys, line + " --word %s" % shlex.quote(advance))
