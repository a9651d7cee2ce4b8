"""Run with ``python -m pytest perfbench/tests -q`` from the repo root.

Not collected by the tier-1 suite (``pytest.ini`` has ``testpaths = tests``).
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import require_program  # noqa: E402

require_program()
