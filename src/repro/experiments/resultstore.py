"""The environment fingerprint that stamps every saved report.

:func:`environment_fingerprint` records where and when a measurement was
taken (cpu count, python version, git sha, wall/process clocks), and
:func:`fingerprint_header` renders it as the comment lines that head
each ``results/*.txt`` report, so an archived artifact names the box it
ran on.
"""

from __future__ import annotations

import datetime
import functools
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

__all__ = ["environment_fingerprint", "fingerprint_header"]


@functools.lru_cache(maxsize=1)
def _git_sha() -> str:
    """Short sha of the working tree, or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover - no git
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment_fingerprint() -> dict[str, Any]:
    """Where and when a measurement was taken, machine-readably.

    ``wall_time`` is the unix epoch at emission and ``process_time`` the
    CPU seconds this process had consumed — together they let a reader
    of a report order runs and spot wall-vs-CPU skew (a loaded box)
    without trusting the filesystem.
    """
    import repro

    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": sys.platform,
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "library_version": repro.__version__,
        "wall_time": round(time.time(), 3),
        "process_time": round(time.process_time(), 3),
    }


def fingerprint_header(env: dict | None = None) -> str:
    """Comment lines stamping a ``results/*.txt`` artifact as self-describing.

    Artifacts from a 1-core box (flat thread-scaling curves and the like)
    carry their own caveat this way instead of needing one in a doc.
    """
    env = env or environment_fingerprint()
    stamp = datetime.datetime.fromtimestamp(
        env["wall_time"], tz=datetime.timezone.utc
    ).strftime("%Y-%m-%dT%H:%M:%SZ")
    return (
        f"# env: cores={env['cpu_count']} python={env['python']} "
        f"platform={env['platform']}/{env['machine']} git={env['git_sha']} "
        f"repro={env['library_version']}\n"
        f"# clocks: wall={stamp} process={env['process_time']:.1f}s"
    )
