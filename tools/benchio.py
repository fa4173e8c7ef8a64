"""The run record shared by the layer benchmarks in tools/.

Each benchmark script writes one BENCH_*.json holding
{"benchmark": name, "runs": {label: run}}.  A run records the commit it
measured (`git_rev`), the machine it ran on (`machine`) and the process's
peak RSS (`peak_rss_mb`); `write_run` adds it next to the runs already in
the file after checking that their deterministic counters agree.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
from pathlib import Path

import numpy as np


def git_rev(path: Path) -> str:
    """The commit of the tree at path, with "-dirty" for uncommitted
    changes; "unknown" outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "-C", str(path), "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process so far, in MB (Linux reports KB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def write_run(path: Path, benchmark: str, label: str, run: dict, counters) -> None:
    """Put run under runs[label] in path, keeping the other runs there.
    counters(run) gives a run's deterministic counters, or None where the
    run is not comparable with this one; every comparable run must give
    the same counters."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    mine = counters(run)
    for other_label, other in doc.get("runs", {}).items():
        theirs = counters(other)
        if other_label != label and theirs is not None and theirs != mine:
            raise SystemExit(f"counters differ from run {other_label!r}")
    doc["benchmark"] = benchmark
    doc.setdefault("runs", {})[label] = run
    path.write_text(json.dumps(doc, indent=2) + "\n")
