"""CLI, reporters, and the self-run: the analyzer must pass over its own repo."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint import LintEngine, all_rules, render
from repro.lint.baseline import Baseline
from repro.lint.cli import DEFAULT_BASELINE, main

REPO_ROOT = Path(__file__).resolve().parents[2]
CI_LINT_DIRS = ("src", "tests", "examples", "scripts", "benchmarks")


def write_dirty_module(tmp_path: Path) -> Path:
    path = tmp_path / "mod.py"
    path.write_text(
        textwrap.dedent(
            """\
            import time


            def stamp():
                return time.perf_counter()
            """
        )
    )
    return path


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("X = 1\n")
    assert main([str(tmp_path), "--root", str(tmp_path), "--no-scopes"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_exit_one_on_findings(tmp_path, capsys):
    write_dirty_module(tmp_path)
    assert main([str(tmp_path), "--root", str(tmp_path), "--no-scopes"]) == 1
    out = capsys.readouterr().out
    assert "mod.py:5" in out and "R002" in out


def test_exit_two_on_unknown_rule(tmp_path, capsys):
    assert main([str(tmp_path), "--root", str(tmp_path), "--select", "R999"]) == 2


def test_exit_two_on_missing_path(tmp_path, capsys):
    assert main([str(tmp_path / "nope"), "--root", str(tmp_path)]) == 2


def test_json_report_parses(tmp_path, capsys):
    write_dirty_module(tmp_path)
    main([str(tmp_path), "--root", str(tmp_path), "--no-scopes", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["R002"]


def test_markdown_report_mentions_rule_counts(tmp_path, capsys):
    write_dirty_module(tmp_path)
    main([str(tmp_path), "--root", str(tmp_path), "--no-scopes", "--format", "markdown"])
    out = capsys.readouterr().out
    assert "repro.lint" in out and "R002" in out


def test_list_rules_prints_the_catalog(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in out


def test_write_then_pass_roundtrip(tmp_path, capsys):
    """--write-baseline grandfathers today's findings; the next run is clean."""
    write_dirty_module(tmp_path)
    args = [str(tmp_path), "--root", str(tmp_path), "--no-scopes"]
    assert main(args) == 1
    assert main(args + ["--write-baseline"]) == 0
    assert (tmp_path / DEFAULT_BASELINE).exists()
    assert main(args) == 0
    # --no-baseline brings the findings back
    assert main(args + ["--no-baseline"]) == 1


def test_strict_baseline_fails_on_stale_entries(tmp_path, capsys):
    write_dirty_module(tmp_path)
    args = [str(tmp_path), "--root", str(tmp_path), "--no-scopes"]
    assert main(args + ["--write-baseline"]) == 0
    (tmp_path / "mod.py").write_text("X = 1\n")  # the grandfathered code is gone
    assert main(args) == 0  # stale entries warn by default
    assert "stale baseline" in capsys.readouterr().out
    assert main(args + ["--strict-baseline"]) == 1


def test_lint_self_clean():
    """The repo lints itself: zero non-baselined findings over src and tests."""
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
    engine = LintEngine(root=REPO_ROOT, baseline=baseline)
    result = engine.run([REPO_ROOT / "src", REPO_ROOT / "tests"])
    rendered = render(result, "text")
    assert result.active == [], f"repo does not pass its own analyzer:\n{rendered}"
    assert result.stale_baseline == [], f"stale baseline entries:\n{rendered}"
    assert result.files_checked > 100


def test_benchmarks_scripts_and_examples_lint_clean():
    """CI's lint step also covers the benchmark suite, scripts and examples."""
    baseline = Baseline.load(REPO_ROOT / DEFAULT_BASELINE)
    engine = LintEngine(root=REPO_ROOT, baseline=baseline)
    result = engine.run([REPO_ROOT / d for d in ("benchmarks", "scripts", "examples")])
    assert result.active == [], f"lint findings:\n{render(result, 'text')}"
    assert result.files_checked > 10


def test_cli_self_run_exits_zero():
    """`python -m repro.lint src tests examples scripts benchmarks` — exactly
    what CI runs — exits 0."""
    env_src = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", *CI_LINT_DIRS, "--root", str(REPO_ROOT)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
