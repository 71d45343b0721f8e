"""Property-based tests of the thresholds and the two classical maximizers.

Core claims covered here:
  * the critical visibility falls as the detection efficiency rises, and it
    is defined (finite or inf, never an error) for every efficiency in (0, 1],
    where it matches a 40-digit mpmath value to 1e-12,
  * at the critical efficiency the critical visibility is exactly 1,
  * the critical efficiency falls with N and approaches 2/3 from above,
  * the phase-class dynamic program is never beaten by a sampled strategy
    and equals the exhaustive maximum wherever that one runs (N <= 8),
  * the CLI's JSON renderer prints what json.dumps(value, indent=2) prints,
    also for float lists with signed zeros, NaNs, infinities and repeats, and
    for float64 arrays as for their lists,
  * run_experiment summarizes exactly what generate_trials draws,
  * a trials file loads to what a line-by-line reading gives, or fails with
    the same message, and a saved batch is the text of a "%d" formatter that
    loads back bit for bit.

Examples are derandomized so that a run is reproducible.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzbell import (
    BLOCK_TRIALS,
    SETTING_POLICIES,
    DeterministicStrategy,
    ExperimentConfig,
    TrialBatch,
    critical_efficiency,
    critical_visibility,
    generate_trials,
    max_score_brute,
    max_score_factorized,
    quantum_tensor,
    run_experiment,
    strategy_score,
    summarize_batch,
)
from ghzbell.cli import _json_pieces
from ghzbell.experiment import _raise_first_bad_record

PROPERTY = settings(derandomize=True, deadline=None)
TABLE_N = st.integers(min_value=2, max_value=646)
EFFICIENCY = st.floats(min_value=0.05, max_value=1.0)


@PROPERTY
@given(n=st.integers(min_value=2, max_value=40), a=EFFICIENCY, b=EFFICIENCY)
def test_critical_visibility_decreases_in_efficiency(n, a, b):
    lo, hi = min(a, b), max(a, b)
    v_lo = critical_visibility(n, lo)
    v_hi = critical_visibility(n, hi)
    assert v_lo >= v_hi * (1.0 - 1e-12)


@PROPERTY
@given(n=TABLE_N, eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
@example(n=2, eta=1e-20)
@example(n=646, eta=0.316)
def test_critical_visibility_never_raises(n, eta, mpmath_visibility):
    # The two examples once gave 0.0 (a cancelled numerator) and a value
    # 27 % high (a subnormal eta^N in the plain quotient).
    v = critical_visibility(n, eta)
    assert v >= 0.0
    assert v == pytest.approx(float(mpmath_visibility(n, eta)), rel=1e-12, abs=0.0)


@PROPERTY
@given(n=TABLE_N)
def test_unit_visibility_at_critical_efficiency(n):
    eta = critical_efficiency(n)
    assert abs(critical_visibility(n, eta) - 1.0) < 1e-9


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
    q = quantum_tensor(n)
    rng = np.random.default_rng(seed)
    signs = (2 * rng.integers(0, 2, size=(n, 3)) - 1 for _ in range(50))
    sampled = max(strategy_score(DeterministicStrategy(assignments=s), q) for s in signs)
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
    assert "".join(_json_pieces(value)) == json.dumps(value, indent=2)


@PROPERTY
@given(value=st.lists(FLOAT, max_size=12))
def test_renderer_prints_a_float_array_as_its_list(value):
    array = np.array(value, dtype=np.float64)
    assert "".join(_json_pieces(array)) == json.dumps(value, indent=2)
    wrapped = {"entries": array, "inner": {"entries": array, "n": len(value)}}
    as_lists = {"entries": value, "inner": {"entries": value, "n": len(value)}}
    assert "".join(_json_pieces(wrapped)) == json.dumps(as_lists, indent=2)


# Extreme values at and near the two ends of [0, 1], or anything between.
UNIT = st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53]) | st.floats(min_value=0.0, max_value=1.0)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=2, max_value=5),
    visibility=UNIT,
    efficiency=UNIT,
    policy=st.sampled_from(SETTING_POLICIES),
    # Up to two full blocks, then a partial one.
    trials=st.builds(
        lambda full, tail: full * BLOCK_TRIALS + tail, st.integers(0, 2), st.integers(1, 2000)
    ),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_streaming_summary_equals_the_summary_of_generated_trials(
    n, visibility, efficiency, policy, trials, seed
):
    if policy == "round-robin":
        trials = -(-trials // 3 ** n) * 3 ** n
    config = ExperimentConfig(n, visibility, efficiency, trials, seed, policy)
    assert run_experiment(config).to_dict() == summarize_batch(
        generate_trials(config), config
    ).to_dict()


# Trials files near the grammar: records of one width with the odd token too
# many or too few, odd tokens, every blank, blank lines, any line ending, and
# now and then one stray character.
ODD_TOKENS = ["01", "0002", "+3", "-0", "+0", "-001", "10", "257", "-129", "4", "+-1", "1-"]
SETTING = st.sampled_from(["1", "2", "3"] * 8 + ODD_TOKENS)
OUTCOME = st.sampled_from(["-1", "0", "1"] * 8 + ODD_TOKENS)
BLANK = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", " \t "])
STRAY = st.sampled_from(list("1230-+|\n\r\t\x0b\x0c\x1c x_\u00e9"))


@st.composite
def trials_texts(draw):
    width = draw(st.integers(min_value=0, max_value=3))
    count = st.sampled_from([width] * 6 + [width + 1, max(width - 1, 0)])
    record = st.builds(
        lambda left, bar, right, blank: blank.join(left) + bar + blank.join(right),
        count.flatmap(lambda k: st.lists(SETTING, min_size=k, max_size=k)),
        st.sampled_from([" | ", "|", "\t|  "]),
        count.flatmap(lambda k: st.lists(OUTCOME, min_size=k, max_size=k)),
        BLANK,
    )
    lines = draw(st.lists(record | st.sampled_from(["", "  ", "\t"]), min_size=1, max_size=6))
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)
    text += draw(st.sampled_from(["", "\n", "\r\n", "\n\n"]))
    for where, char in draw(st.lists(st.tuples(st.integers(0, 10 ** 6), STRAY), max_size=1)):
        where %= len(text) + 1
        text = text[:where] + char + text[where:]
    return text


def _load(path: Path):
    try:
        batch = TrialBatch.load(path)
    except ValueError as err:
        return str(err)
    return batch.settings.shape, batch.settings.tolist(), batch.outcomes.tolist()


def _load_line_by_line(path: Path):
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        text = fh.read()
    try:
        _raise_first_bad_record(path, text)
    except ValueError as err:
        return str(err)
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        rows = [line.replace("|", " ").split() for line in fh if line.strip()]
    if not rows:
        return f"{path}: no trial records"
    values = np.array([[int(token) for token in row] for row in rows], dtype=np.int64)
    width = values.shape[1] // 2
    return (len(rows), width), values[:, :width].tolist(), values[:, width:].tolist()


@settings(derandomize=True, deadline=None, max_examples=400)
@given(text=trials_texts())
@example(text=" | \n")
@example(text="\r\n1|-1\r\n2 | 0")
def test_load_matches_a_line_by_line_reading(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trials.txt"
        path.write_bytes(text.encode("utf-8"))
        loaded = _load(path)
        assert loaded == _load_line_by_line(path)
    # A 0- or 1-party file never loads: both readers name its first record line.
    assert isinstance(loaded, str) or loaded[0][1] >= 2


@PROPERTY
@given(
    n=st.integers(min_value=2, max_value=13),
    trials=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=2, trials=1, seed=0)  # the smallest batch
def test_save_matches_the_record_formatter(n, trials, seed):
    rng = np.random.default_rng(seed)
    settings_ = rng.integers(1, 4, size=(trials, n))
    outcomes = rng.integers(-1, 2, size=(trials, n))
    record = " | ".join([" ".join(["%d"] * n)] * 2) + "\n"
    expected = (record * trials) % tuple(np.hstack([settings_, outcomes]).ravel().tolist())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trials.txt"
        TrialBatch(settings=settings_, outcomes=outcomes).save(path)
        assert path.read_bytes() == expected.encode("ascii")
        loaded = TrialBatch.load(path)
    for got, want in ((loaded.settings, settings_), (loaded.outcomes, outcomes)):
        assert got.dtype == np.int8 and np.array_equal(got, want)


def test_saved_trials_file_golden_digest(tmp_path):
    batch = generate_trials(ExperimentConfig(4, 0.9, 0.5, 32400, seed=5))
    path = tmp_path / "trials.txt"
    batch.save(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "1b0eaf5c97df9b961e9c880526bea4d64f4865bb8db9d7a934aa09e4ddcb5789"
