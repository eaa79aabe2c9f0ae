"""Put the benchmark's modules and the repository's ``src`` on the path.

Run with ``python -m pytest perfbench/tests -q`` from the repository root;
the tier-1 suite (``testpaths`` in ``pyproject.toml``) does not collect
these.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent, HERE.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
