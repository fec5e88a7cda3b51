"""Entry point: ``python3 benchmarks/ledger/__main__.py`` (the
``BENCHMARK.json`` command) or ``python -m benchmarks.ledger``."""

import sys
from pathlib import Path

if __package__ in (None, ""):
    # Run as a script: this directory, not the repository, heads sys.path.
    # Swap it for the root so ``benchmarks.ledger`` resolves as a package.
    sys.path[0] = str(Path(__file__).resolve().parents[2])

try:
    import repro  # noqa: F401
except ImportError:
    # Not installed and no PYTHONPATH: use the checkout's own sources.
    sys.path.insert(1, str(Path(__file__).resolve().parents[2] / "src"))

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
