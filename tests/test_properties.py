"""Property-based tests of the thresholds and the two classical maximizers.

Core claims covered here:
  * the critical visibility falls as the detection efficiency rises, and it
    is defined (finite or inf, never an error) for every efficiency in (0, 1],
  * at the critical efficiency the critical visibility is exactly 1,
  * the critical efficiency falls with N and approaches 2/3 from above,
  * the phase-class dynamic program is never beaten by a sampled strategy
    and equals the exhaustive maximum wherever that one runs (N <= 8),
  * the CLI's JSON renderer prints what json.dumps(value, indent=2) prints,
    also for float lists with signed zeros, NaNs, infinities and repeats.

Examples are derandomized so that a run is reproducible.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzbell import (
    build_settings,
    entry_sum_closed_form,
    lhv_bound,
    critical_efficiency,
    critical_visibility,
    max_score_brute,
    max_score_factorized,
    quantum_tensor,
    random_strategy,
    strategy_score,
)
from ghzbell.cli import _to_json

PROPERTY = settings(derandomize=True, deadline=None)
TABLE_N = st.integers(min_value=2, max_value=646)
EFFICIENCY = st.floats(min_value=0.05, max_value=1.0)


@PROPERTY
@given(n=st.integers(min_value=2, max_value=40), a=EFFICIENCY, b=EFFICIENCY)
def test_critical_visibility_decreases_in_efficiency(n, a, b):
    lo, hi = min(a, b), max(a, b)
    v_lo = critical_visibility(n, lo).v_critical
    v_hi = critical_visibility(n, hi).v_critical
    assert v_lo >= v_hi * (1.0 - 1e-12)


@PROPERTY
@given(n=TABLE_N, eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
def test_critical_visibility_never_raises(n, eta):
    v = critical_visibility(n, eta).v_critical
    assert v >= 0.0
    denominator = eta ** n * 3.0 ** n / 2.0
    if denominator > 0.0:
        # Where eta^N does not underflow, the value is the plain quotient.
        numerator = lhv_bound(n) - abs(entry_sum_closed_form(n)) * (1.0 - eta) ** n
        assert v == numerator / denominator
    else:
        assert v > 1.0 or math.isinf(v)


@PROPERTY
@given(n=TABLE_N)
def test_unit_visibility_at_critical_efficiency(n):
    eta = critical_efficiency(n)
    assert abs(critical_visibility(n, eta).v_critical - 1.0) < 1e-9


@PROPERTY
@given(n=TABLE_N, step=st.integers(min_value=1, max_value=100))
def test_critical_efficiency_falls_toward_two_thirds(n, step):
    m = min(n + step, 646)
    if m > n:
        assert critical_efficiency(m) < critical_efficiency(n)
    # Above 2/3, and below the N = 1 (mod 3) closed form (2/3) 3^(1/(2N)),
    # which the other residues undercut through their (1 - eta)^N term.
    eta = critical_efficiency(n)
    assert 2.0 / 3.0 < eta <= (2.0 / 3.0) * 3.0 ** (1.0 / (2 * n)) + 1e-12


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_factorized_maximum_bounds_sampled_and_equals_exhaustive(n, seed):
    factorized = max_score_factorized(n)
    q = quantum_tensor(build_settings(n))
    rng = np.random.default_rng(seed)
    sampled = max(strategy_score(random_strategy(n, rng), q) for _ in range(50))
    assert sampled <= factorized + 1e-9
    brute, _ = max_score_brute(n)
    assert round(brute, 9) == round(factorized, 9)


# Few distinct values, so lists repeat them, plus any float at all.
FLOAT = st.sampled_from([-0.0, 0.0, 5e-324, 1e300, -1.0, 0.5]) | st.floats()
JSON_VALUE = st.recursive(
    st.lists(FLOAT, min_size=1) | st.none() | st.booleans() | st.integers() | FLOAT | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=12,
)


@PROPERTY
@given(value=JSON_VALUE)
def test_renderer_matches_json_dumps(value):
    assert _to_json(value) == json.dumps(value, indent=2)
