"""The src/momentcert functions that none of the hashed benchmark jobs executes.

    python3 tools/reach.py

Run from the root of a source checkout. The jobs are those that
tools/artifact_hashes.py hashes, the first jobs of perfbench's seed-11
stream of each workload, run in-process, one at a time, in a temporary
directory, under sys.settrace, which is set before the package is
imported afresh, as each benchmark set-up imports it. Every function, method and nested function
defined in the package's source is listed, and each module gets one line
naming, in source order, those whose code never started ("-" for none).
"""

from __future__ import annotations

import ast
import itertools
import os
import sys
import tempfile

import artifact_hashes  # puts perfbench on sys.path

import run
import workloads


def defined(path: str) -> list[tuple[str, int, str]]:
    """(qualified name, first line of its code object, name) of each def in path.

    A decorated function's code starts at its first decorator.
    """
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out: list[tuple[str, int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out.append((prefix + child.name, first, child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return sorted(out, key=lambda entry: entry[1])


def main() -> int:
    codes = set()

    def tracer(frame, event, arg):
        codes.add(frame.f_code)

    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        sys.settrace(tracer)
        try:
            cli = run.import_momentcert()
            for workload, count in artifact_hashes.JOBS.items():
                for job in itertools.islice(workloads.jobs(workload, artifact_hashes.SEED), count):
                    run.run_job(cli, job)
        finally:
            sys.settrace(None)
            os.chdir(start)
    package = os.path.realpath(os.path.dirname(cli.__file__))
    started = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in codes}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            missing = [q for q, line, short in defined(path) if (path, line, short) not in started]
            print(f"{name[:-3]}: {', '.join(missing) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
