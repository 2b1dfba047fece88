#!/usr/bin/env python
"""Run the repo's static-analysis gauntlet: repro.lint, then ruff, then mypy.

This is the single verify-path entry point CI and developers share::

    PYTHONPATH=src python scripts/run_lint.py            # all three
    PYTHONPATH=src python scripts/run_lint.py --only repro.lint
    PYTHONPATH=src python scripts/run_lint.py --markdown  # job-summary table

``repro.lint`` always runs (it ships with the repo).  ``ruff`` and ``mypy``
run when installed and are *skipped with a notice* when absent, so the
script works in the hermetic test container (which has neither) while CI —
which installs both — gets the full gauntlet.  Exit status is non-zero iff
any tool that actually ran reported findings.
"""

from __future__ import annotations

import argparse
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "src"))

TOOLS = ("repro.lint", "ruff", "mypy")


def have_tool(tool: str) -> bool:
    if tool == "repro.lint":
        return True
    if shutil.which(tool):
        return True
    return importlib.util.find_spec(tool) is not None


def run_reprolint(markdown: bool) -> int:
    from repro.lint.cli import main as lint_main

    args = ["src", "tests", "examples", "scripts", "benchmarks", "--root", str(REPO_ROOT)]
    if markdown:
        args += ["--format", "markdown"]
    return lint_main(args)


def run_external(tool: str, args: list[str]) -> int:
    command = [sys.executable, "-m", tool, *args]
    proc = subprocess.run(command, cwd=REPO_ROOT)
    return proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", choices=TOOLS, default=None,
        help="run a single tool instead of the full gauntlet",
    )
    parser.add_argument(
        "--markdown", action="store_true",
        help="render repro.lint output as markdown (for CI job summaries)",
    )
    args = parser.parse_args(argv)

    selected = [args.only] if args.only else list(TOOLS)
    failures: list[str] = []
    skipped: list[str] = []

    for tool in selected:
        if not have_tool(tool):
            skipped.append(tool)
            print(f"[run_lint] {tool}: not installed, skipped")
            continue
        print(f"[run_lint] running {tool}")
        if tool == "repro.lint":
            status = run_reprolint(args.markdown)
        elif tool == "ruff":
            status = run_external("ruff", ["check", "."])
        else:  # mypy
            status = run_external("mypy", ["src/repro"])
        if status != 0:
            failures.append(tool)

    ran = [tool for tool in selected if tool not in skipped]
    print(
        f"[run_lint] done: {len(ran)} ran ({', '.join(ran)}); "
        f"{len(skipped)} skipped; {len(failures)} failed"
        + (f" ({', '.join(failures)})" if failures else "")
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
