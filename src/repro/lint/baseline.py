"""Committed baseline of grandfathered findings.

The baseline lets the analyzer be *blocking* from day one: deliberate,
reviewed violations (wall-clock solve-time reporting) live in
``.reprolint-baseline.json`` with a one-line justification each, and
everything else must be fixed.  New code can never
add to the debt silently — only an explicit ``--write-baseline`` (a reviewed
diff of the committed file) can.

Entries match on ``(rule, path, stripped source text)`` rather than line
numbers, so unrelated edits above a grandfathered line do not churn the
file.  An entry may set ``"count"`` when the same source text is flagged on
several lines of one file.  Entries that no longer match anything are
*stale* and reported as warnings — delete them (or fix the justification)
when the underlying code goes away.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.lint.registry import Finding

__all__ = ["Baseline", "BaselineEntry", "apply_baseline", "write_baseline"]

VERSION = 1


@dataclass
class BaselineEntry:
    rule: str
    path: str
    code: str
    note: str = ""
    count: int = 1

    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.path, self.code)


@dataclass
class Baseline:
    entries: List[BaselineEntry] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        raw = json.loads(path.read_text())
        if raw.get("version") != VERSION:
            raise ValueError(
                f"baseline {path} has version {raw.get('version')!r}; expected {VERSION}"
            )
        entries = [
            BaselineEntry(
                rule=entry["rule"],
                path=entry["path"],
                code=entry["code"],
                note=entry.get("note", ""),
                count=int(entry.get("count", 1)),
            )
            for entry in raw.get("entries", [])
        ]
        return cls(entries=entries)

    def dump(self, path: Path) -> None:
        payload = {
            "version": VERSION,
            "entries": [
                {
                    "rule": entry.rule,
                    "path": entry.path,
                    "code": entry.code,
                    **({"count": entry.count} if entry.count != 1 else {}),
                    "note": entry.note,
                }
                for entry in sorted(self.entries, key=BaselineEntry.key)
            ],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")


def apply_baseline(
    findings: List[Finding], baseline: Baseline
) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
    """Split findings into (active, grandfathered) and report stale entries."""
    budget: Dict[Tuple[str, str, str], int] = {}
    for entry in baseline.entries:
        budget[entry.key()] = budget.get(entry.key(), 0) + entry.count

    active: List[Finding] = []
    grandfathered: List[Finding] = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.code)
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            grandfathered.append(finding)
        else:
            active.append(finding)

    stale = [entry for entry in baseline.entries if budget.get(entry.key(), 0) > 0]
    # Each stale key is reported once even if its count exceeds the matches.
    seen = set()
    unique_stale = []
    for entry in stale:
        if entry.key() not in seen:
            seen.add(entry.key())
            unique_stale.append(entry)
    return active, grandfathered, unique_stale


def write_baseline(findings: List[Finding], path: Path, note: str = "TODO: justify") -> Baseline:
    """Regenerate a baseline from the current findings, keeping existing notes."""
    notes: Dict[Tuple[str, str, str], str] = {}
    if path.exists():
        for entry in Baseline.load(path).entries:
            notes[entry.key()] = entry.note

    counts: Dict[Tuple[str, str, str], int] = {}
    for finding in findings:
        key = (finding.rule, finding.path, finding.code)
        counts[key] = counts.get(key, 0) + 1

    baseline = Baseline(
        entries=[
            BaselineEntry(
                rule=rule, path=file_path, code=code,
                note=notes.get((rule, file_path, code), note),
                count=count,
            )
            for (rule, file_path, code), count in sorted(counts.items())
        ]
    )
    baseline.dump(path)
    return baseline
