#!/usr/bin/env python3
"""List the functions in ``src/nicsim/`` that no CLI command enters.

Runs eight subcommands in-process under cProfile, each writing its output
into a temporary directory: ``bars``, ``sweep``, ``sweep --adaptive``,
``scale --threads 1,2``, ``rawbus``, ``compare``, ``calibrate`` and
``bars --scenario scenarios/echo_64b.json``. It then prints every function
defined in ``src/nicsim/`` that none of them entered, as ``file:line name``,
followed by a count. A function that only the tests reach shows up here.

    python3 scripts/reach.py          # a few minutes: the CLI runs at defaults

Functions are matched by (file, name, first line). cProfile keys a
decorated function at the line of its first decorator, so that is the
line used for it here too. Lambdas are not listed. Exit status: 0, or 1
when a command fails.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import pstats
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "nicsim"

COMMANDS = [
    ["bars"],
    ["sweep"],
    ["sweep", "--adaptive"],
    ["scale", "--threads", "1,2"],
    ["rawbus"],
    ["compare"],
    ["calibrate"],
    ["bars", "--scenario", str(ROOT / "scenarios" / "echo_64b.json")],
]


def defined_functions():
    """(file, name, first line, qualified name) of every def in the package."""
    out = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((str(path), child.name, first, prefix + child.name))
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PKG.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.resolve(), "")
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from nicsim import cli

    profiler = cProfile.Profile()
    with tempfile.TemporaryDirectory() as tmp:
        for i, args in enumerate(COMMANDS):
            argv = [*args, "--out", f"{tmp}/{i}.out"]
            if args[0] == "calibrate":
                argv += ["--residuals", f"{tmp}/{i}.residuals.csv"]
            profiler.enable()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            profiler.disable()
            if rc != 0:
                sys.stderr.write(f"reach: nicsim {' '.join(args)} exited {rc}\n")
                return 1

    entered = {(str(Path(f).resolve()), name, line)
               for f, line, name in pstats.Stats(profiler).stats}
    functions = defined_functions()
    missed = [(f, line, qual) for f, name, line, qual in functions
              if (f, name, line) not in entered]
    for f, line, qual in missed:
        print(f"{Path(f).relative_to(ROOT)}:{line} {qual}")
    print(f"{len(missed)} of {len(functions)} functions in src/nicsim/ not entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
