"""Every function in the package is entered by some command.

A fixed list of command lines runs in process under ``sys.setprofile``,
which records each Python function entered.  A function or method defined
in ``src/nonsmooth`` that none of them enters is code no result needs: it
belongs beside the tests that use it, unless ALLOWED names it with the
reason it stays.
"""

import contextlib
import inspect
import io
import os
import pkgutil
import sys
from importlib import import_module

import pytest

import nonsmooth
from nonsmooth.cli import main

PACKAGE = os.path.dirname(nonsmooth.__file__)

PL = '{"type": "pl", "breakpoints": [["0", "0"], ["1/3", "1/2"], ["1", "1"]]}'
SMALL = ("--windows", "2", "--grid", "4")

# Every command, every action type, and usage errors of each command.
ARGVS = (
    (),
    ("--help",),
    ("frobnicate",),
    ("certify", "--help"),
    ("certify", "punctured-torus", "--depth", "3"),
    ("certify", "zz", "--truncation", "2", "--out", os.devnull),
    ("certify", "punctured-torus", "--depth", "-1"),
    ("certify", "punctured-torus", "--depth", "50001"),
    ("certify", "zz", "--truncation", "-1"),
    ("renorm",) + SMALL,
    ("renorm", "--action", "punctured-torus", "--start", "1/2",
     "--out", os.devnull) + SMALL,
    ("renorm", "--action", "zz", "--advance", "a^2") + SMALL,
    ("renorm", "--action", PL, "--radius", "1/2") + SMALL,
    ("renorm", "--action", "model-translation") + SMALL,
    ("renorm", "--radius", "x") + SMALL,
    ("renorm", "--windows", "0"),
    ("renorm", "--grid", "1"),
    ("orbit",),
    ("orbit", "--point", "t=inf,sheet=0", "--word", "a^2B", "--count", "2"),
    ("orbit", "--point", "-7/12"),
    ("orbit", "--point", "t=1/2"),
    ("orbit", "--action", "zz", "--point", "1/3"),
    ("orbit", "--action", "zz", "--point", "pt"),
    ("orbit", "--action", "zz", "--point", "2"),
    ("orbit", "--action", PL),
    ("orbit", "--action", '{"type": "model-translation", "power": 2}'),
    ("orbit", "--action", "parabolic-germ"),
    ("orbit", "--action", '{"type": 3}'),
    ("orbit", "--action", "[" * 2000 + "]" * 2000),
    ("orbit", "--count", "-1"),
    ("orbit", "--word", "a^"),
    ("order", "--words", "a,b,[a,b],A"),
    ("order", "--action", "zz", "--point", "1/3", "--words", "a,b"),
    ("order", "--words", "a"),
    ("order", "--words", "a],b"),
    ("order", "--words", "[a,b"),
    ("order", "--words", "a,,b"),
)

# Functions no command enters that stay in the package, each with its reason.
ALLOWED = {
    # the record protocol, which every value type inherits (test_record)
    "record.Record.__setattr__": "refuses assignment: records are immutable",
    "record.Record.__reduce__": "copy, deepcopy and pickle rebuild a record",
    "record.Record.__repr__": "the one repr of every record",
    "record.Record.__hash__": "equal records hash equal",
    "cover.CoverPoint.__lt__": "test_cover orders cover points with <",
    # claims the README makes about the constructions
    "projline.MoebiusMap.__eq__":
        "matrices equal up to scale are one map (acceptance c1)",
    "projline.MoebiusMap.__hash__": "hashes as __eq__ compares (c1)",
    "projline.MoebiusMap.trace": "the commutator's trace is -2 (c1)",
    "plmaps.PLMap.one_sided_slope":
        "the PL atom's side of the slope method ModelTranslation serves to "
        "zz_slope_mid; the composition expressions and germ slopes in "
        "tests/helpers.py take either atom",
}


def package_functions():
    """Each function and method defined in the package, by its dotted name
    below the package, as its code object."""
    found = {}
    for info in pkgutil.iter_modules([PACKAGE]):
        module = import_module("nonsmooth." + info.name)
        for value in vars(module).values():
            members = [value]
            if inspect.isclass(value):
                members += vars(value).values()
            for member in members:
                if isinstance(member, property):
                    member = member.fget
                member = inspect.unwrap(getattr(member, "__func__", member))
                code = getattr(member, "__code__", None)
                if code is None or os.path.dirname(code.co_filename) != PACKAGE:
                    continue
                module_name = member.__module__.rpartition(".")[2]
                found["%s.%s" % (module_name, member.__qualname__)] = code
    return found


@pytest.fixture(scope="module")
def reached():
    """The package's functions by name, and the code objects the command
    lines entered."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        sys.setprofile(profile)
        try:
            for argv in ARGVS:
                main(list(argv))
        finally:
            sys.setprofile(previous)
    return package_functions(), entered


def test_every_function_is_reached_or_allowed(reached):
    functions, entered = reached
    unreached = sorted(name for name, code in functions.items()
                       if code not in entered and name not in ALLOWED)
    assert not unreached, "no command enters %s" % ", ".join(unreached)


def test_every_allowed_function_exists_and_stays_unreached(reached):
    # an entry whose function went, or that a command now reaches, is stale
    functions, entered = reached
    stale = sorted(name for name in ALLOWED
                   if name not in functions or functions[name] in entered)
    assert not stale, stale
