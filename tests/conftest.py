"""Shared test setup.

Puts this checkout's ``src`` on the path of ``python -m ghzbell`` children:
``pythonpath`` in pyproject.toml covers imports in the test process only; the
CLI tests start subprocesses, which read PYTHONPATH instead. Also holds the
40-digit mpmath reference for ``critical_visibility``.
"""

import os

import pytest

from ghzbell import entry_sum_closed_form

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture(scope="session")
def mpmath_visibility():
    """v_cr(n, eta) = bound (1 - c (1-eta)^N) / (eta^N 3^N / 2) in 40-digit mpmath."""
    mp = pytest.importorskip("mpmath")

    def reference(n, eta):
        with mp.workdps(40):
            eta = mp.mpf(eta)
            deficit = 1 if entry_sum_closed_form(n) == 0 else -mp.expm1(n * mp.log1p(-eta))
            bound = mp.mpf(2) ** (n - 1) * mp.sqrt(3)
            return bound * deficit / (eta ** n * mp.mpf(3) ** n / 2)

    return reference
