"""Helpers shared by the benchmark scripts in this directory.

Each script runs as ``python benchmarks/bench_x.py``, which puts this
directory first on ``sys.path``, so ``from _common import ...`` resolves.
"""

from __future__ import annotations

import os
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_sha() -> str:
    """HEAD of the checkout, suffixed "-dirty" when src/ has local changes."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "src"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    if head.returncode:
        return "unknown"
    return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
