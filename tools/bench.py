#!/usr/bin/env python
"""Run the feature-space construction benchmark from a checkout.

Thin wrapper over ``repro bench`` (see :mod:`repro.bench`) that works
without installing the package::

    python tools/bench.py                  # full run, writes BENCH_space.json
    python tools/bench.py --quick          # CI smoke configuration
    python tools/bench.py --min-speedup 3  # enforce the acceptance floor
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(["bench", *sys.argv[1:]]))
