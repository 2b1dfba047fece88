#!/usr/bin/env python
"""Perf-trajectory report: diff ``BENCH_throughput.json`` records across commits.

The benchmark suite merges every tracked number (events/s, engine and
routing/solver ablations) into ``BENCH_throughput.json`` and CI
uploads it per run; this script turns those per-commit snapshots into an
actual regression radar.  It walks the commits that touched the record file,
extracts each version with ``git show``, and renders one trend table — rows
are metrics, columns are commits (oldest → newest, the working tree last),
with the relative change between the two newest columns called out.

Because the record itself is machine-specific (gitignored, uploaded as a CI
artifact rather than committed), two history sources are supported:

* **git** — commits that touched the record file, for checkouts that do
  commit it (``--max-commits`` bounds the walk);
* **a JSONL history file** (``--history``) — one ``{"label", "record"}``
  line per run.  With ``--append`` the current record is added under
  ``--label`` first; CI keeps this file alive across runs with the cache
  action, which is what turns per-run artifacts into a commit-over-commit
  trend.

Examples
--------
Plain-text trend over the last 8 record-touching commits::

    python scripts/bench_trend.py --max-commits 8

CI job summary (append this run, render markdown)::

    python scripts/bench_trend.py --history .bench_history.jsonl --append \
        --label "${GITHUB_SHA::7}" --markdown >> "$GITHUB_STEP_SUMMARY"
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

DEFAULT_RECORD = "BENCH_throughput.json"

#: record sections that are environment descriptions, not tracked numbers
SKIP_SECTIONS = {"meta"}


def flatten(record: Dict) -> Dict[str, float]:
    """``{section: {metric: value}}`` -> ``{"section.metric": float}`` (numeric only)."""
    out: Dict[str, float] = {}
    if not isinstance(record, dict):
        return out
    for section, values in record.items():
        if section in SKIP_SECTIONS or not isinstance(values, dict):
            continue
        for metric, value in values.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            out[f"{section}.{metric}"] = float(value)
    return out


def _git(args: Sequence[str], cwd: pathlib.Path) -> Optional[str]:
    try:
        result = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout if result.returncode == 0 else None


def load_history(
    record_path: pathlib.Path, max_commits: int
) -> List[Tuple[str, Dict[str, float]]]:
    """``[(label, flattened record)]`` oldest → newest, working tree last.

    Commit versions come from ``git log/show`` on the record's path; a
    repository-less checkout (or a record outside any repo) degrades to just
    the working-tree column.
    """
    cwd = record_path.resolve().parent
    history: List[Tuple[str, Dict[str, float]]] = []
    log = _git(
        ["log", f"--max-count={max_commits}", "--format=%h", "--", record_path.name], cwd
    )
    if log:
        for sha in reversed(log.split()):
            # "./" keeps the show path cwd-relative, matching the log pathspec
            # (a bare path would resolve from the repository root instead).
            blob = _git(["show", f"{sha}:./{record_path.name}"], cwd)
            if blob is None:
                continue
            try:
                record = json.loads(blob)
            except ValueError:
                continue
            flat = flatten(record)
            if flat:
                history.append((sha, flat))
    try:
        with open(record_path, "r", encoding="utf-8") as handle:
            working = flatten(json.load(handle))
    except (OSError, ValueError):
        working = {}
    if working and (not history or working != history[-1][1]):
        history.append(("worktree", working))
    return history


def load_history_file(
    history_path: pathlib.Path,
    record_path: pathlib.Path,
    append: bool,
    label: str,
    keep: int = 12,
) -> List[Tuple[str, Dict[str, float]]]:
    """History entries from a JSONL file, optionally appending the current record.

    Each line is ``{"label": ..., "record": {section: {metric: value}}}``;
    malformed lines are skipped.  With ``append``, the current record is
    added under ``label`` and the file is rewritten keeping the newest
    ``keep`` entries (the CI cache stays small).
    """
    entries: List[Tuple[str, Dict]] = []
    try:
        with open(history_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    entries.append((str(payload["label"]), payload["record"]))
                except (ValueError, KeyError, TypeError):
                    continue
    except OSError:
        pass
    if append:
        try:
            with open(record_path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            record = None
        if isinstance(record, dict) and flatten(record):
            entries.append((label, record))
            entries = entries[-keep:]
            with open(history_path, "w", encoding="utf-8") as handle:
                for entry_label, entry_record in entries:
                    handle.write(
                        json.dumps({"label": entry_label, "record": entry_record}) + "\n"
                    )
    return [
        (entry_label, flatten(entry_record))
        for entry_label, entry_record in entries
        if flatten(entry_record)
    ]


def _format_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == 0 or 0.01 <= abs(value) < 100_000:
        return f"{value:,.2f}".rstrip("0").rstrip(".")
    return f"{value:,.3g}"


def _format_delta(old: Optional[float], new: Optional[float]) -> str:
    if old is None or new is None or old == 0:
        return "-"
    change = (new - old) / abs(old)
    if abs(change) < 0.0005:
        return "="
    return f"{change:+.1%}"


def trend_table(
    history: Sequence[Tuple[str, Dict[str, float]]], markdown: bool = False
) -> str:
    """Render the trend of every metric across the history's columns."""
    if not history:
        return "no perf records found (run the benchmarks to create BENCH_throughput.json)"
    labels = [label for label, _ in history]
    metrics = sorted({metric for _, flat in history for metric in flat})
    # With a single column there is nothing to diff: the delta column would
    # be all "-" noise (the first CI run after a cache eviction), so omit it.
    with_delta = len(history) >= 2
    header = ["metric", *labels] + (["delta"] if with_delta else [])
    rows: List[List[str]] = []
    for metric in metrics:
        values = [flat.get(metric) for _, flat in history]
        row = [metric, *[_format_value(v) for v in values]]
        if with_delta:
            row.append(_format_delta(values[-2], values[-1]))
        rows.append(row)
    if markdown:
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "|".join("---" for _ in header) + "|",
        ]
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
        return "\n".join(lines)
    widths = [max(len(str(cell)) for cell in column) for column in zip(header, *rows)]
    lines = ["  ".join(str(cell).ljust(width) for cell, width in zip(header, widths))]
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(
        "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)) for row in rows
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--record", default=DEFAULT_RECORD, help="path to the perf record JSON"
    )
    parser.add_argument(
        "--max-commits", type=int, default=10, help="how many record-touching commits to diff"
    )
    parser.add_argument(
        "--markdown", action="store_true", help="emit a GitHub-flavoured markdown table"
    )
    parser.add_argument(
        "--history", default=None, help="JSONL history file (CI-cached) instead of git history"
    )
    parser.add_argument(
        "--append", action="store_true", help="append the current record to --history first"
    )
    parser.add_argument(
        "--label", default="HEAD", help="label for the appended history entry (e.g. short SHA)"
    )
    args = parser.parse_args(argv)

    if args.history:
        history = load_history_file(
            pathlib.Path(args.history), pathlib.Path(args.record), args.append, args.label
        )
    else:
        history = load_history(pathlib.Path(args.record), args.max_commits)
    if args.markdown:
        print("### Perf trend (`%s` across commits)" % args.record)
        print()
    print(trend_table(history, markdown=args.markdown))
    return 0


if __name__ == "__main__":
    sys.exit(main())
