"""Rewrite expected.json with the sha256 of every seeded input's output.

    python3 perfbench/record.py

The hashes pin the outputs at the commit that records them, with the
generated_at line stripped.  Rewrite them only together with a change that
is meant to alter an output, and say why in that change.
"""

import contextlib
import io
import json
import sys

import run


def main():
    if not run.use_sources():
        return 2
    from nonsmooth.cli import main as cli

    table = {}
    for w in run.WORKLOADS:
        for value in w.values:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli(w.command(value))
            problem = w.check(code, out.getvalue())
            if problem:
                sys.stderr.write("%s %s: %s\n" % (w.name, value, problem))
                return 1
            table.setdefault(w.name, {})[str(value)] = \
                run.output_digest(out.getvalue())
    run.EXPECTED.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
