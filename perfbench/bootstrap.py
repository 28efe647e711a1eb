"""Locate the library source the benchmark measures.

The benchmark runs from the root of a source checkout and imports
``repro`` from its ``src/`` directory. Outside such a checkout it must
fail fast, without printing a result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def require_source() -> None:
    """Put ``src/`` on the import path, or exit 2 if it is missing."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SOURCE}", file=sys.stderr)
        sys.exit(2)
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))
