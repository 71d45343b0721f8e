"""Put this checkout's ``src`` on the path of ``python -m ghzbell`` children.

``pythonpath`` in pyproject.toml covers imports in the test process only; the
CLI tests start subprocesses, which read PYTHONPATH instead.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
