"""Machine-readable performance record shared by the benchmark suite.

Benchmarks that measure a tracked number (events/s, dispatch-mode speedups,
the routing ablation) report it here; :func:`update` merges the values
into one JSON document — ``BENCH_throughput.json`` at the repository root by
default, or wherever ``$BENCH_RECORD_PATH`` points — and the CI workflow
uploads that file as a build artifact, so the perf trajectory of the project
is recorded per commit instead of living only in scrollback.

The record is a two-level mapping ``{section: {metric: value}}`` plus a
``meta`` section (python/platform/numpy versions).  Sections are merged
key-by-key: a benchmark run that only exercises one ablation refreshes that
section and leaves the rest of the document intact.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict

__all__ = ["record_path", "update", "load"]

RECORD_ENV = "BENCH_RECORD_PATH"
DEFAULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def record_path() -> Path:
    """Where the perf record lives (override with ``$BENCH_RECORD_PATH``)."""
    override = os.environ.get(RECORD_ENV)
    return Path(override) if override else DEFAULT_PATH


def load() -> Dict[str, Dict[str, object]]:
    """The current record, or an empty one when absent/corrupt."""
    path = record_path()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def update(section: str, values: Dict[str, object]) -> Path:
    """Merge ``values`` into ``section`` of the perf record and persist it.

    Writes are atomic (tmp file + replace) so concurrent benchmark processes
    cannot leave a torn document behind.
    """
    path = record_path()
    data = load()
    data.setdefault("meta", {}).update(
        {
            "python": platform.python_version(),
            "platform": platform.platform(),
        }
    )
    data.setdefault(section, {}).update(values)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path
