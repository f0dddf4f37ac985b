"""Machine-readable benchmark results (``BENCH_*.json``).

Perf benchmarks persist their measurements so regressions are
diffable across commits: each record carries the workload name, the
voxel resolution, wall-clock seconds, the number of implicit-field
evaluations, and the commit the numbers were taken at.  Files merge by
``(workload, resolution)`` so re-running one sweep updates its rows
without clobbering the others.
"""

from __future__ import annotations

import json
import subprocess
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, List, Union

from repro.errors import SemHoloError

__all__ = [
    "BenchRecord",
    "MixedCommitWarning",
    "current_commit",
    "load_records",
    "merge_records",
    "write_records",
]


class MixedCommitWarning(UserWarning):
    """A results file holds measurements taken at different commits.

    Rows from different commits are not comparable (the code under
    measurement changed); re-run the sweeps that produced the stale
    rows so every row carries the current commit.
    """


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark measurement.

    Attributes:
        workload: what was measured ("reconstruct-cold",
            "reconstruct-reference", "reconstruct-octree-foveated", ...).
        resolution: voxel resolution per axis.
        seconds: wall-clock seconds per run.
        evaluations: implicit-field point evaluations performed.
        commit: short git commit hash the measurement was taken at
            (empty when unknown, e.g. outside a checkout).
    """

    workload: str
    resolution: int
    seconds: float
    evaluations: int = 0
    commit: str = ""

    def __post_init__(self) -> None:
        if not self.workload:
            raise SemHoloError("workload name must be non-empty")
        if self.resolution <= 0:
            raise SemHoloError("resolution must be positive")
        if self.seconds < 0:
            raise SemHoloError("seconds must be >= 0")
        if self.evaluations < 0:
            raise SemHoloError("evaluations must be >= 0")

    @property
    def key(self):
        return (self.workload, self.resolution)


def current_commit() -> str:
    """Short hash of the checked-out commit, or "" when unavailable."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def load_records(path: Union[str, Path]) -> List[BenchRecord]:
    """Read a ``BENCH_*.json`` file; a missing file is an empty list."""
    path = Path(path)
    if not path.exists():
        return []
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SemHoloError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise SemHoloError(f"{path} must hold a JSON list of records")
    records = []
    for entry in raw:
        known = {
            k: entry[k]
            for k in (
                "workload",
                "resolution",
                "seconds",
                "evaluations",
                "commit",
            )
            if k in entry
        }
        records.append(BenchRecord(**known))
    return records


def merge_records(
    existing: Iterable[BenchRecord], new: Iterable[BenchRecord]
) -> List[BenchRecord]:
    """Merge measurement lists; ``new`` wins on (workload, resolution).

    Existing rows keep their position, fresh rows append in order —
    so a re-run of one sweep updates its rows in place.
    """
    merged = list(existing)
    index = {record.key: i for i, record in enumerate(merged)}
    for record in new:
        if record.key in index:
            merged[index[record.key]] = record
        else:
            index[record.key] = len(merged)
            merged.append(record)
    return merged


def write_records(
    path: Union[str, Path],
    records: Iterable[BenchRecord],
    merge: bool = True,
) -> List[BenchRecord]:
    """Write records to ``path``; by default merge into what's there.

    Returns the full list the file now holds.
    """
    path = Path(path)
    records = list(records)
    if merge:
        records = merge_records(load_records(path), records)
    commits = sorted({r.commit for r in records if r.commit})
    if len(commits) > 1:
        warnings.warn(
            f"{path.name} mixes measurements from commits "
            f"{', '.join(commits)}; stale rows are not comparable — "
            "re-run their sweeps at the current commit",
            MixedCommitWarning,
            stacklevel=2,
        )
    path.write_text(
        json.dumps([asdict(r) for r in records], indent=2) + "\n"
    )
    return records
