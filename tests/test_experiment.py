"""Tests for the Monte Carlo experiment engine.

Core claims covered here:
  * configs validate their ranges, including the round-robin divisibility rule,
  * trial generation is bit-reproducible from the seed and independent of the
    worker count, and the streaming summary equals the batch summary exactly,
  * the batch constructor accepts and rejects exactly what the earlier np.isin
    range check did once a batch has 2 parties and 1 trial, refuses fewer,
    and keeps read-only int8 copies that no caller can change,
  * generate_trials draws the same outcomes as the earlier sign fill (np.where,
    boolean gather, prod and scatter) for N = 2..6 and 12, and generate_trials
    and run_experiment draw the same trials as parity thresholds computed per
    block, (1 + V q[combos])/2, for any V down to the subnormal 5e-324,
  * the key-count tally equals a per-combination loop over explicit trials, in
    one block or several, its counts take the narrowest signed type that
    holds the most trials one key can receive, and each sampled trial's
    outcome product is the one its key encodes,
  * the auxiliary estimator's entries equal a masked divide of the folded
    per-combination sums bit for bit,
  * a batch's keys hold the place-value combination index and the outcome
    product for N = 2..12, and a caller's later writes to the arrays a batch
    was built from do not reach the estimators,
  * two worker threads build the cached quantum tensor once, not once each,
  * the summary's estimate, lhs and standard error equal the masked-divide
    formulas bit for bit, in one chunk of combinations or several, the
    infinite standard error and the clip of a variance rounded below 0
    included,
  * per-entry estimates converge to eta^N V Q within statistical error, the
    all-zero frequency converges to (1-eta)^N, and folding lost detections to
    -1 shifts every entry by (-1)^N (1-eta)^N,
  * lost detections leave registered stations with fair independent signs,
  * edge cases eta = 0, eta = 1 and V = 0 behave exactly as the model says.

Statistical checks run at fixed seeds with 4 to 4.5 sigma windows, so they are
deterministic once recorded.
"""

import concurrent.futures
import copy
import dataclasses
import hashlib
import json
import math
import os
import pickle
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzbell import (
    ROUND_ROBIN,
    UNIFORM_RANDOM,
    ExperimentConfig,
    ExperimentSummary,
    TrialBatch,
    auxiliary_tensor,
    entry_sum_closed_form,
    generate_trials,
    lhv_bound,
    quantum_tensor,
    run_experiment,
    setting_phase_classes,
    summarize_batch,
    visibility_sweep,
)
import ghzbell.experiment as experiment
import ghzbell.quantum as quantum
from ghzbell.experiment import (
    BLOCK_TRIALS,
    _batch_block,
    _block_combos,
    _draw,
    _sample,
    _summarize,
    _summary_from_stats,
    _threshold_table,
)
from ghzbell.quantum import _FieldError

SQRT3 = math.sqrt(3.0)


def _combo_indices(batch: TrialBatch) -> np.ndarray:
    n = batch.n_parties
    place = 3 ** (n - 1 - np.arange(n, dtype=np.int64))
    return ((batch.settings.astype(np.int64) - 1) * place).sum(axis=1)


def _summaries_equal(a: ExperimentSummary, b: ExperimentSummary) -> bool:
    return (
        np.array_equal(a.estimated_tensor.entries, b.estimated_tensor.entries)
        and a.p_all_zero == b.p_all_zero
        and a.lhs == b.lhs
        and a.rhs == b.rhs
        and a.violated == b.violated
        and a.standard_error_lhs == b.standard_error_lhs
    )


def _isin_check(settings, outcomes):
    """The batch check as np.isin made it, with the party and trial rules: its message or None."""
    settings, outcomes = np.asarray(settings), np.asarray(outcomes)
    if settings.ndim != 2 or settings.shape != outcomes.shape:
        return "settings and outcomes must be equal-shaped 2-D arrays"
    trials, n = settings.shape
    if n < 2:
        return f"need at least 2 parties, got {n}"
    if not trials:
        return "trials must be positive, got 0"
    if not np.isin(settings, (1, 2, 3)).all():
        return "setting indices must be in 1..3"
    if not np.isin(outcomes, (-1, 0, 1)).all():
        return "outcomes must be in {-1, 0, +1}"
    return None


def _reference_threshold(config, combos):
    """(1 + V q[combos])/2 for one block, as the earlier ``_draw`` computed it."""
    threshold = quantum_tensor(config.n_parties).entries[combos]
    threshold *= config.visibility
    threshold += 1.0
    threshold /= 2.0
    return threshold


def _reference_draw(config, combos, rng):
    """The earlier ``_draw``: each block computes its own thresholds."""
    detected = np.asfortranarray(rng.random((combos.size, config.n_parties)) < config.efficiency)
    parity_u = rng.random(combos.size)
    all_det = detected.all(axis=1)
    plus = parity_u < _reference_threshold(config, combos)
    key = 3 * combos + np.where(all_det, np.where(plus, 2, 0), 1)
    return detected, all_det, key


def _reference_sample(config, combos, rng):
    """The earlier fair-sign fill: signs by np.where, then a gather, prod and scatter."""
    detected, all_det, key = _reference_draw(config, combos, rng)
    outcomes = np.where(rng.random(detected.shape) < 0.5, -1, 1).astype(np.int8)
    signs = np.asfortranarray(outcomes[all_det]).prod(axis=1)
    outcomes[all_det, -1] *= (key[all_det] % 3 - 1) * signs
    outcomes *= detected
    return outcomes


class TestExperimentConfig:
    def test_valid(self):
        cfg = ExperimentConfig(
            n_parties=3, visibility=0.9, efficiency=0.8, trials=27, seed=0
        )
        assert cfg.n_combos == 27
        assert cfg.setting_policy == ROUND_ROBIN

    def test_to_dict(self):
        cfg = ExperimentConfig(
            n_parties=2, visibility=1.0, efficiency=1.0, trials=9, seed=5
        )
        assert cfg.to_dict() == {
            "n_parties": 2,
            "visibility": 1.0,
            "efficiency": 1.0,
            "trials": 9,
            "seed": 5,
            "setting_policy": ROUND_ROBIN,
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_parties=1, visibility=1.0, efficiency=1.0, trials=3, seed=0),
            dict(n_parties=2, visibility=1.5, efficiency=1.0, trials=9, seed=0),
            dict(n_parties=2, visibility=-0.1, efficiency=1.0, trials=9, seed=0),
            dict(n_parties=2, visibility=1.0, efficiency=1.1, trials=9, seed=0),
            dict(n_parties=2, visibility=1.0, efficiency=-0.5, trials=9, seed=0),
            dict(n_parties=2, visibility=1.0, efficiency=1.0, trials=0, seed=0),
            dict(n_parties=2, visibility=1.0, efficiency=1.0, trials=9, seed=-1),
            dict(n_parties=2, visibility=1.0, efficiency=1.0, trials=9, seed=2 ** 64),
            dict(
                n_parties=2,
                visibility=1.0,
                efficiency=1.0,
                trials=9,
                seed=0,
                setting_policy="alternating",
            ),
            dict(n_parties=2, visibility=1.0, efficiency=1.0, trials=10, seed=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [("n_parties", 3.0), ("trials", 27.0), ("seed", 1.5)])
    def test_non_integer_rejected_at_construction(self, field, value):
        kwargs = dict(n_parties=3, visibility=0.9, efficiency=0.8, trials=27, seed=0)
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value}$") as info:
            ExperimentConfig(**{**kwargs, field: value})
        assert info.value.field == field

    def test_unknown_setting_policy_names_the_field(self):
        message = r"^setting policy must be one of \('round-robin', 'uniform-random'\), got 'x'$"
        for call in (
            lambda: ExperimentConfig(3, 0.9, 0.8, 27, seed=0, setting_policy="x"),
            lambda: visibility_sweep(3, 0.9, [0.5], 27, seed=0, setting_policy="x"),
        ):
            with pytest.raises(_FieldError, match=message) as info:
                call()
            assert info.value.field == "setting_policy"

    def test_numpy_integers_accepted(self):
        cfg = ExperimentConfig(np.int64(3), 0.9, 0.8, np.int32(27), seed=np.uint64(2 ** 64 - 1))
        assert cfg.n_combos == 27

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_out_of_range_names_the_field(self, seed):
        with pytest.raises(ValueError, match="64 unsigned bits") as info:
            ExperimentConfig(n_parties=2, visibility=1.0, efficiency=1.0, trials=9, seed=seed)
        assert info.value.field == "seed"

    @pytest.mark.parametrize("policy", [ROUND_ROBIN, UNIFORM_RANDOM])
    @pytest.mark.parametrize("n", [39, 10 ** 4, 10 ** 8])
    def test_parties_past_int64_keys_rejected_before_3_to_the_n(self, n, policy):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="at most 38 parties") as info:
            ExperimentConfig(n, 0.5, 0.5, 10, seed=0, setting_policy=policy)
        assert info.value.field == "n_parties"
        assert time.perf_counter() - start < 5.0  # 3 ** 10 ** 8 alone takes over a minute

    def test_uniform_random_skips_divisibility(self):
        cfg = ExperimentConfig(
            n_parties=2,
            visibility=1.0,
            efficiency=1.0,
            trials=10,
            seed=0,
            setting_policy=UNIFORM_RANDOM,
        )
        assert cfg.trials == 10

    def test_zero_efficiency_allowed(self):
        ExperimentConfig(n_parties=2, visibility=1.0, efficiency=0.0, trials=9, seed=0)


class TestTrialBatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialBatch(settings=np.ones((3, 2)), outcomes=np.ones((4, 2)))
        with pytest.raises(ValueError):
            TrialBatch(settings=np.full((2, 2), 4), outcomes=np.ones((2, 2)))
        with pytest.raises(ValueError):
            TrialBatch(settings=np.ones((2, 2)), outcomes=np.full((2, 2), 2))

    # The int8 cast of 1+0j warns that it drops the imaginary part, as it did before.
    @pytest.mark.filterwarnings("ignore:Casting complex values to real")
    @pytest.mark.parametrize(
        "value", [1.0, 1.5, True, False, np.nan, 1 + 0j, 1 + 1j, -2, np.int64(257)]
    )
    @pytest.mark.parametrize("where", ["settings", "outcomes"])
    def test_range_check_matches_isin(self, value, where):
        # 257 is the int8-wrap guard: cast first, it would read as 1.
        settings = np.array([[1, 2], [3, 1]], dtype=np.asarray(value).dtype)
        outcomes = np.array([[-1, 0], [1, 1]], dtype=settings.dtype)
        (settings if where == "settings" else outcomes)[1, 0] = value
        message = _isin_check(settings, outcomes)
        if message is None:
            batch = TrialBatch(settings=settings, outcomes=outcomes)
            assert batch.settings.dtype == batch.outcomes.dtype == np.int8
            assert np.array_equal(batch.settings, settings.real.astype(np.int8))
            assert np.array_equal(batch.outcomes, outcomes.real.astype(np.int8))
        else:
            with pytest.raises(ValueError) as err:
                TrialBatch(settings=settings, outcomes=outcomes)
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "settings, outcomes",
        [
            (np.empty((0, 3)), np.empty((0, 3))),
            (np.empty((3, 0)), np.empty((3, 0))),
            (np.empty((0, 3)), np.empty((3, 0))),
            (np.full((0, 3), 9), np.full((0, 3), 9)),
            (np.ones(3), np.ones(3)),
            (np.ones((2, 3)), np.ones((2, 2))),
            (np.full((2, 2), 4), np.ones((2, 2))),
            (np.ones((2, 2)), np.full((2, 2), 2)),
            (np.full((2, 2), 4), np.full((2, 2), 2)),
        ],
        ids=[
            "zero-trials", "zero-parties", "transposed-empty", "empty-out-of-range", "1-d",
            "unequal", "setting-4", "outcome-2", "both-out-of-range",
        ],
    )
    def test_shapes_and_empty_arrays_match_isin(self, settings, outcomes):
        message = _isin_check(settings, outcomes)
        if message is None:
            batch = TrialBatch(settings=settings, outcomes=outcomes)
            assert batch.settings.shape == batch.outcomes.shape == settings.shape
        else:
            with pytest.raises(ValueError) as err:
                TrialBatch(settings=settings, outcomes=outcomes)
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "make", ["constructor", "generate_trials", "load", "copy", "deepcopy", "pickle"]
    )
    def test_arrays_are_read_only(self, tmp_path, make):
        # A batch is checked once: no write can take its values out of range.
        cfg = ExperimentConfig(n_parties=2, visibility=1.0, efficiency=0.5, trials=9, seed=0)
        made = generate_trials(cfg)
        if make == "constructor":
            batch = TrialBatch(settings=np.ones((2, 3)), outcomes=np.zeros((2, 3)))
        elif make == "generate_trials":
            batch = made
        elif make == "load":
            made.save(tmp_path / "trials.txt")
            batch = TrialBatch.load(tmp_path / "trials.txt")
        else:
            copy_of = {"copy": copy.copy, "deepcopy": copy.deepcopy}.get(make)
            batch = copy_of(made) if copy_of else pickle.loads(pickle.dumps(made))
            assert np.array_equal(batch.settings, made.settings)
            assert np.array_equal(batch.outcomes, made.outcomes)
        for values in (batch.settings, batch.outcomes):
            assert values.dtype == np.int8
            assert values.flags.owndata and not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            batch.outcomes[0, 0] = 5
        with pytest.raises(ValueError, match="read-only"):
            batch.settings[0, 0] = 0

    def test_fields_cannot_be_rebound(self):
        batch = TrialBatch(settings=np.ones((2, 3)), outcomes=np.zeros((2, 3)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            batch.settings = np.full((2, 3), 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            batch.outcomes = np.zeros((1, 3))

    def test_equality_is_identity(self):
        # Two batches of equal arrays are two batches: numpy's == has no single
        # truth value to compare them by, and a batch hashes like any object.
        a = TrialBatch(settings=np.ones((2, 3)), outcomes=np.zeros((2, 3)))
        b = TrialBatch(settings=np.ones((2, 3)), outcomes=np.zeros((2, 3)))
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_a_callers_int8_arrays_are_not_aliased(self, tmp_path):
        settings = np.array([[1, 3], [2, 2]], dtype=np.int8)
        outcomes = np.array([[-1, 0], [1, 1]], dtype=np.int8)
        batch = TrialBatch(settings=settings, outcomes=outcomes)
        assert batch.settings is not settings and batch.outcomes is not outcomes
        settings[0, 0], outcomes[0, 0] = 3, 5
        assert settings.flags.writeable and outcomes.flags.writeable
        batch.save(tmp_path / "trials.txt")
        assert (tmp_path / "trials.txt").read_text() == "1 3 | -1 0\n2 2 | 1 1\n"

    def test_len_and_parties(self):
        batch = TrialBatch(settings=np.ones((5, 3)), outcomes=np.zeros((5, 3)))
        assert len(batch) == 5
        assert batch.n_parties == 3

    def test_save_golden_format(self, tmp_path):
        batch = TrialBatch(
            settings=np.array([[1, 3], [2, 2]]), outcomes=np.array([[-1, 0], [1, 1]])
        )
        path = tmp_path / "trials.txt"
        batch.save(path)
        assert path.read_text() == "1 3 | -1 0\n2 2 | 1 1\n"

    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(
            n_parties=3, visibility=0.8, efficiency=0.7, trials=270, seed=3
        )
        batch = generate_trials(cfg)
        path = tmp_path / "trials.txt"
        batch.save(path)
        again = TrialBatch.load(path)
        assert np.array_equal(again.settings, batch.settings)
        assert np.array_equal(again.outcomes, batch.outcomes)

    def test_load_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 -1 0\n")
        with pytest.raises(ValueError):
            TrialBatch.load(bad)
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        with pytest.raises(ValueError):
            TrialBatch.load(empty)

    @pytest.mark.parametrize(
        "text",
        [
            "1 3|-1 0\n2 2|1 1\n",
            "1\t3 |\t-1 0\n2 2 | 1 1",
            "\n1 3 | -1 0\n\n  \n2 2 | 1 1\n\n",
            " 1 3 | -1 0  \n2 2 | 1 1 \t\n",
            "+1 3 | -1 +0\n2 2 | +1 1\n",
            "1 3 | -1 0\r\n2 2 | 1 1\r\n",
            "1 3 | -1 0\r2 2 | 1 1\r",
            "1 " + "0" * 5000 + "3 | -1 0\n2 2 | 1 +" + "0" * 5000 + "1\n",
        ],
        ids=[
            "no-spaces", "tabs", "blank-lines", "trailing-spaces", "plus-signs", "crlf", "lone-cr",
            "leading-zeros-past-int-digit-limit",
        ],
    )
    def test_load_spacing_variants_roundtrip(self, tmp_path, text):
        path = tmp_path / "trials.txt"
        path.write_bytes(text.encode("ascii"))
        batch = TrialBatch.load(path)
        assert batch.settings.dtype == batch.outcomes.dtype == np.int8
        assert batch.settings.tolist() == [[1, 3], [2, 2]]
        assert batch.outcomes.tolist() == [[-1, 0], [1, 1]]
        batch.save(path)
        assert path.read_text() == "1 3 | -1 0\n2 2 | 1 1\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2 | 1 1\n1 257 | 1 1\n", ":2: settings must be in 1..3"),
            ("1 2 | 1 1\n0_1 2 | 1 1\n", ":2: non-integer token in '0_1 2 | 1 1'"),
        ],
        ids=["wraps-to-int8", "underscore"],
    )
    def test_load_rejects_what_int8_or_int_would_mangle(self, tmp_path, text, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        with pytest.raises(ValueError) as err:
            TrialBatch.load(bad)
        assert str(err.value).startswith(str(bad) + message)
        with pytest.raises(ValueError):
            TrialBatch(settings=np.array([[1, 257]]), outcomes=np.ones((1, 2)))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2 | 1 1\n1 2 3 | 1 1 1\n", ":2: expected 2 settings and 2 outcomes, got 3 and 3"),
            ("1 2 3 | 1 1 1\n\n1 2 3 | 1 x 1\n", ":3: non-integer token in '1 2 3 | 1 x 1'"),
            ("1 2 | 1 1 1\n1 2 | 1 1 1\n", ":1: expected 2 settings and 2 outcomes, got 2 and 3"),
            ("1 2 | 1 1\n1 4 | 1 1\n", ":2: settings must be in 1..3"),
        ],
        ids=["ragged", "bad-token", "unequal-halves", "out-of-range"],
    )
    def test_load_error_names_the_line(self, tmp_path, text, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        with pytest.raises(ValueError) as err:
            TrialBatch.load(bad)
        assert str(err.value).startswith(str(bad) + message)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2 | 1 1\n1 " + "1" * 5000 + " | 1 1\n", ":2: settings must be in 1..3"),
            (
                "1 2 | 1 1\n" + "0" * 5000 + "1 2 | 1 1\n1 2 | 1\n",
                ":3: expected 2 settings and 2 outcomes, got 2 and 1",
            ),
        ],
        ids=["on-the-bad-line", "before-the-bad-line"],
    )
    def test_load_error_names_the_line_past_a_very_long_token(self, tmp_path, text, message):
        # A token of more than 4300 digits is beyond int(); it is read saturated.
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        with pytest.raises(ValueError) as err:
            TrialBatch.load(bad)
        assert str(err.value).startswith(str(bad) + message)

    def test_zero_column_and_zero_trial_batches(self, tmp_path):
        # No estimator reads them, so neither the constructor nor load builds one.
        for shape, field, message in [
            ((3, 0), "n_parties", "need at least 2 parties, got 0"),
            ((3, 1), "n_parties", "need at least 2 parties, got 1"),
            ((0, 4), "trials", "trials must be positive, got 0"),
        ]:
            with pytest.raises(_FieldError) as err:
                TrialBatch(settings=np.ones(shape), outcomes=np.ones(shape))
            assert (err.value.field, str(err.value)) == (field, message)
        path = tmp_path / "trials.txt"
        for text, message in [
            (" | \n" * 3, ":1: need at least 2 parties, got 0"),
            ("\n1 | -1\n2 | 0\n", ":2: need at least 2 parties, got 1"),
            ("1|1\n1 2 | 1 1\n", ":1: need at least 2 parties, got 1"),
            ("\n\n", ": no trial records"),
        ]:
            path.write_text(text)
            with pytest.raises(ValueError) as err:
                TrialBatch.load(path)
            assert type(err.value) is ValueError
            assert str(err.value) == str(path) + message

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="opens a pipe as /dev/fd/N")
    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 2 | 1 1\n1 4 | 1 1\n", ":2: settings must be in 1..3"),
            ("1 2 | 1 1\n1 x | 1 1\n", ":2: non-integer token in '1 x | 1 1'"),
        ],
        ids=["out-of-range", "bad-token"],
    )
    def test_load_error_names_the_line_of_a_pipe(self, text, message):
        # A pipe can be read only once, so the line scan must reuse the text.
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w") as fh:
            fh.write(text)
        path = f"/dev/fd/{read_end}"
        try:
            with pytest.raises(ValueError) as err:
                TrialBatch.load(path)
        finally:
            os.close(read_end)
        assert str(err.value).startswith(path + message)

    def test_load_names_the_line_of_a_non_ascii_byte(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes("1 2 | 1 1\n1 2 | 1 \u00e9\n".encode("utf-8"))
        with pytest.raises(ValueError) as err:
            TrialBatch.load(bad)
        assert type(err.value) is ValueError
        assert str(err.value).startswith(f"{bad}:2: non-integer token")


class TestDeterminism:
    def test_repeat_run_identical(self):
        cfg = ExperimentConfig(
            n_parties=3, visibility=0.9, efficiency=0.85, trials=27 * 100, seed=17
        )
        assert _summaries_equal(run_experiment(cfg), run_experiment(cfg))

    def test_workers_do_not_change_results(self):
        # Three blocks' worth of trials, so the pool actually splits work.
        cfg = ExperimentConfig(
            n_parties=2, visibility=0.9, efficiency=0.8, trials=135000, seed=23
        )
        assert _summaries_equal(run_experiment(cfg, workers=1), run_experiment(cfg, workers=4))

    def test_workers_do_not_change_multi_block_tally(self):
        # 2 * 3^11 trials span six blocks, each added into one array of key
        # counts as it arrives.
        cfg = ExperimentConfig(
            n_parties=11, visibility=0.7, efficiency=0.9, trials=2 * 3 ** 11, seed=3
        )
        assert _summaries_equal(run_experiment(cfg, workers=1), run_experiment(cfg, workers=3))

    def test_workers_do_not_change_trials(self):
        cfg = ExperimentConfig(
            n_parties=2,
            visibility=0.7,
            efficiency=0.9,
            trials=140000,
            seed=29,
            setting_policy=UNIFORM_RANDOM,
        )
        one = generate_trials(cfg, workers=1)
        three = generate_trials(cfg, workers=3)
        assert np.array_equal(one.settings, three.settings)
        assert np.array_equal(one.outcomes, three.outcomes)

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param(
                dict(n_parties=3, visibility=0.8, efficiency=0.75, trials=27 * 50, seed=31),
                id="n3-round-robin",
            ),
            # Three blocks, the last one partial.
            pytest.param(
                dict(n_parties=2, visibility=0.7, efficiency=0.9, trials=9 * 15556, seed=29),
                id="n2-partial-last-block",
            ),
            pytest.param(
                dict(
                    n_parties=4, visibility=0.9, efficiency=0.85, trials=140000, seed=7,
                    setting_policy=UNIFORM_RANDOM,
                ),
                id="n4-uniform-random",
            ),
            pytest.param(
                dict(n_parties=3, visibility=0.9, efficiency=0.0, trials=27 * 20, seed=5),
                id="eta0",
            ),
            pytest.param(
                dict(n_parties=3, visibility=0.9, efficiency=1.0, trials=27 * 20, seed=5),
                id="eta1",
            ),
            pytest.param(
                dict(n_parties=3, visibility=0.0, efficiency=0.8, trials=27 * 20, seed=5),
                id="v0",
            ),
            pytest.param(
                dict(n_parties=6, visibility=0.6, efficiency=0.9, trials=729 * 20, seed=4),
                id="n6",
            ),
            # 3^11 > 65536: four blocks, none of which holds every combination.
            pytest.param(
                dict(
                    n_parties=11, visibility=0.7, efficiency=0.9, trials=200000, seed=6,
                    setting_policy=UNIFORM_RANDOM,
                ),
                id="n11-multi-block",
            ),
        ],
    )
    def test_streaming_equals_batch_summary(self, kwargs):
        # run_experiment never draws the fair signs; generate_trials draws them
        # after everything the summary depends on, so the two must agree exactly.
        cfg = ExperimentConfig(**kwargs)
        assert _summaries_equal(
            run_experiment(cfg), summarize_batch(generate_trials(cfg), cfg)
        )

    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            (
                dict(
                    n_parties=3, visibility=0.8, efficiency=0.75, trials=27 * 5000, seed=31,
                    setting_policy=ROUND_ROBIN,
                ),
                "30716da4be25eed08fdbffef30f78909cde89f03f97387e6ed6638c459264b95",
            ),
            (
                dict(
                    n_parties=4, visibility=0.9, efficiency=0.9, trials=140000, seed=29,
                    setting_policy=UNIFORM_RANDOM,
                ),
                "086a12886724df012cc87357bfc0616e00443852d13313451e0f78f81822e491",
            ),
            # 3^11 = 177147 lies inside block 2, the one block that wraps past 3^N;
            # the last block ends at exactly 2 * 3^11, where nothing wraps.
            (
                dict(n_parties=11, visibility=0.7, efficiency=0.9, trials=2 * 3 ** 11, seed=6),
                "eba3edeb911a64a4b09fc9c3c3443b16130c2fb2be4a560105a59e41f7d59cb9",
            ),
        ],
        ids=["round-robin", "uniform-random", "round-robin-blocks-wrap-past-3^N"],
    )
    def test_summary_golden_digest(self, kwargs, digest):
        # Pins the random stream: a change that shifts any draw the summary
        # depends on changes these digests.
        payload = json.dumps(run_experiment(ExperimentConfig(**kwargs)).to_dict())
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

    def test_different_seeds_differ(self):
        base = dict(n_parties=2, visibility=0.9, efficiency=0.9, trials=900)
        a = generate_trials(ExperimentConfig(seed=1, **base))
        b = generate_trials(ExperimentConfig(seed=2, **base))
        assert not np.array_equal(a.outcomes, b.outcomes)

    def test_invalid_workers(self):
        cfg = ExperimentConfig(
            n_parties=2, visibility=1.0, efficiency=1.0, trials=9, seed=0
        )
        with pytest.raises(ValueError, match="workers must be positive, got 0") as info:
            run_experiment(cfg, workers=0)
        assert info.value.field == "workers"

    @pytest.mark.parametrize("workers", [2.5, "2"], ids=["float", "str"])
    def test_non_integer_workers(self, workers):
        cfg = ExperimentConfig(
            n_parties=2, visibility=1.0, efficiency=1.0, trials=9, seed=0
        )
        message = re.escape(f"workers must be an integer, got {workers!r}")
        with pytest.raises(ValueError, match=message) as info:
            run_experiment(cfg, workers=workers)
        assert info.value.field == "workers"

    @pytest.mark.parametrize(
        "workers, cpus, pool_sizes",
        [(3, 4, [3]), (100000, 4, [4]), (5, None, [])],
        ids=["below-cpus", "above-cpus", "cpu-count-unknown"],
    )
    def test_pool_gets_at_most_one_thread_per_cpu(self, monkeypatch, workers, cpus, pool_sizes):
        # The recorder starts at most 2 threads whatever it is asked for, so a
        # broken cap cannot start one thread per block.
        sizes = []
        pool = concurrent.futures.ThreadPoolExecutor

        def recording(max_workers):
            sizes.append(max_workers)
            return pool(max_workers=min(max_workers, 2))

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
        cfg = ExperimentConfig(
            n_parties=2, visibility=0.9, efficiency=0.8, trials=2 * experiment.BLOCK_TRIALS,
            seed=5, setting_policy=UNIFORM_RANDOM,
        )
        summary = run_experiment(cfg, workers=workers)
        assert sizes == pool_sizes
        monkeypatch.undo()
        assert _summaries_equal(summary, run_experiment(cfg))

    @pytest.mark.parametrize("run", [run_experiment, generate_trials])
    def test_two_workers_build_the_quantum_tensor_once(self, monkeypatch, run):
        # functools.cache lets two threads that miss at once both build; the
        # slowed build makes the first two blocks miss together unless the
        # tensor is built before the pool starts.
        builds = []
        classes = quantum.setting_phase_classes

        def slow_classes(n):
            builds.append(n)
            time.sleep(0.2)
            return classes(n)

        monkeypatch.setattr(quantum, "setting_phase_classes", slow_classes)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
        cfg = ExperimentConfig(
            n_parties=3, visibility=0.9, efficiency=0.8, trials=2 * experiment.BLOCK_TRIALS,
            seed=5, setting_policy=UNIFORM_RANDOM,
        )
        quantum_tensor.cache_clear()
        try:
            run(cfg, workers=2)
        finally:
            quantum_tensor.cache_clear()
        assert builds == [3]

    def test_pool_keeps_at_most_two_blocks_per_worker_in_flight(self, monkeypatch):
        # A consumer that pauses after its first result must not find every
        # block already run: the pool submits a block only when fewer than
        # 2·workers are pending.
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
        cfg = ExperimentConfig(
            n_parties=2, visibility=1.0, efficiency=1.0,
            trials=200 * experiment.BLOCK_TRIALS, seed=0, setting_policy=UNIFORM_RANDOM,
        )
        started = []
        results = experiment._map_blocks(cfg, started.append, workers=2)
        next(results)
        time.sleep(0.2)
        assert len(started) <= 2 * 2 + 1
        results.close()
        assert len(started) <= 2 * 2 + 1


def _record_key_counts(monkeypatch) -> list:
    """A list that gets a copy of the key counts each summary reads, all-zero count after."""
    seen, summary_from_stats = [], experiment._summary_from_stats

    def record(config, key_counts, all_zero):
        seen.append((key_counts.copy(), all_zero))
        return summary_from_stats(config, key_counts, all_zero)

    monkeypatch.setattr(experiment, "_summary_from_stats", record)
    return seen


def _key_count_stats(key_counts):
    """Per-combination trial counts, product sums and nonzero counts of 3 * 3^N key counts.

    Key 3 combo + 1 + product: combination c's -1, 0, +1 counts are key counts
    3c, 3c + 1 and 3c + 2. The product sums are float64, as the summary's are.
    """
    minus, zero, plus = key_counts.reshape(-1, 3).T
    return minus + zero + plus, np.subtract(plus, minus, dtype=np.float64), plus + minus


class TestTally:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("eta", [0.0, 0.6, 1.0])
    def test_stats_match_a_per_combination_loop(self, n, eta, monkeypatch):
        m = 3 ** n
        rng = np.random.default_rng(100 * n + int(10 * eta))
        trials = 4 * m
        combos = rng.integers(0, m, size=trials)
        signs = np.where(rng.random((trials, n)) < 0.5, -1, 1)
        outcomes = (signs * (rng.random((trials, n)) < eta)).astype(np.int8)
        outcomes[:3] = 0  # all-zero rows
        outcomes[3:6, 0] = 0  # zero-product rows with registered stations
        place = 3 ** (n - 1 - np.arange(n))
        batch = TrialBatch(settings=combos[:, None] // place % 3 + 1, outcomes=outcomes)
        config = ExperimentConfig(n, 0.8, eta, trials, seed=1, setting_policy=UNIFORM_RANDOM)
        seen = _record_key_counts(monkeypatch)

        want_counts, want_sums, want_nonzero = [0] * m, [0] * m, [0] * m
        for c, row in zip(combos.tolist(), outcomes.tolist()):
            product = math.prod(row)
            want_counts[c] += 1
            want_sums[c] += product
            want_nonzero[c] += product != 0
        want_all_zero = sum(not any(row) for row in outcomes.tolist())
        # The same trials as one block, and as three blocks tallied in turn.
        key = 3 * combos + 1 + outcomes.astype(np.int64).prod(axis=1)
        cuts = [0, 5, trials // 2, trials]
        blocks = [
            (key[a:b], int((~outcomes[a:b].any(axis=1)).sum())) for a, b in zip(cuts, cuts[1:])
        ]
        summarize_batch(batch, config)
        _summarize(config, blocks, trials)
        assert len(seen) == 2
        for key_counts, all_zero in seen:
            counts, sum_prod, nonzero = _key_count_stats(key_counts)
            assert counts.tolist() == want_counts
            assert sum_prod.tolist() == [float(x) for x in want_sums]
            assert nonzero.tolist() == want_nonzero
            assert all_zero == want_all_zero
            # 36 to 972 trials, any one key could receive them all.
            assert key_counts.dtype == (np.int8 if trials < 128 else np.int16)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_combo_index_matches_place_values(self, n):
        # The combo index held in the batch keys, 3 combo + 1 + product, over
        # more rows than one block.
        rng = np.random.default_rng(n)
        rows = BLOCK_TRIALS + 3 ** min(n, 8) + 1
        settings = rng.integers(1, 4, size=(rows, n), dtype=np.int8)
        settings[0], settings[1] = 1, 3  # lowest and highest combination
        outcomes = rng.integers(-1, 2, size=(rows, n), dtype=np.int8)
        outcomes[2] = 0
        batch = TrialBatch(settings=settings, outcomes=outcomes)
        config = ExperimentConfig(n, 0.8, 0.9, rows, seed=1, setting_policy=UNIFORM_RANDOM)
        key, none_count = _batch_block(batch, config, batch.outcomes)
        assert key.dtype == np.int64
        assert np.array_equal(key // 3, _combo_indices(batch))
        assert np.array_equal(key % 3 - 1, outcomes.astype(np.int64).prod(axis=1))
        assert key[0] // 3 == 0 and key[1] // 3 == 3 ** n - 1
        assert none_count == int((outcomes == 0).all(axis=1).sum()) >= 1

    def test_key_counts_split_into_counts_sums_and_nonzero(self, monkeypatch):
        # Key 3 combo + 1 + product: combination c's -1, 0, +1 counts are key
        # counts 3c, 3c + 1 and 3c + 2, and the summary reads them so.
        key = np.repeat(np.arange(27), np.arange(27))  # key k occurs k times
        config = ExperimentConfig(2, 0.8, 0.9, key.size, seed=1, setting_policy=UNIFORM_RANDOM)
        seen = _record_key_counts(monkeypatch)
        got = _summarize(config, [(key, 5)], key.size)
        key_counts, all_zero = seen.pop()
        assert key_counts.tolist() == list(range(27)) and all_zero == 5
        counts, sum_prod, nonzero = _key_count_stats(key_counts)
        assert counts.tolist() == [9 * c + 3 for c in range(9)]
        assert sum_prod.tolist() == [2.0] * 9
        assert nonzero.tolist() == [6 * c + 2 for c in range(9)]
        est, lhs, se = _masked_divide_summary(2, counts, sum_prod, nonzero)
        assert np.array_equal(got.estimated_tensor.entries.view(np.int64), est.view(np.int64))
        assert got.lhs.hex() == lhs.hex() and got.standard_error_lhs.hex() == se.hex()
        assert got.p_all_zero == 5 / key.size
        # Combination 0: +1, +1, -1; combination 1: 0, +1; combination 2: 0, 0;
        # in two blocks.
        blocks = [(np.array([2, 2, 0]), 0), (np.array([4, 5, 7, 7]), 2)]
        _summarize(config, blocks, key.size)
        key_counts, all_zero = seen.pop()
        counts, sum_prod, nonzero = _key_count_stats(key_counts)
        assert counts.tolist() == [3, 2, 2] + [0] * 6
        assert sum_prod.tolist() == [1.0, 1.0, 0.0] + [0.0] * 6
        assert nonzero.tolist() == [3, 1, 0] + [0] * 6
        assert all_zero == 2

    @pytest.mark.parametrize(
        "policy, trials, dtype",
        [
            (ROUND_ROBIN, 9 * 127, np.int8),
            (ROUND_ROBIN, 9 * 128, np.int16),
            (ROUND_ROBIN, 9 * 32767, np.int16),
            (ROUND_ROBIN, 9 * 32768, np.int32),
            (UNIFORM_RANDOM, 127, np.int8),
            (UNIFORM_RANDOM, 128, np.int16),
            (UNIFORM_RANDOM, 2 ** 31 - 1, np.int32),
            (UNIFORM_RANDOM, 2 ** 31, np.int64),
        ],
    )
    def test_run_key_counts_are_the_narrowest_type_for_one_keys_trials(
        self, policy, trials, dtype, monkeypatch
    ):
        # A round-robin run gives each of the 3^N combinations trials / 3^N
        # trials; a uniform-random run can give one key all of them. In place
        # of the drawn blocks, one block puts that many trials (at most one
        # block's worth) on key 2: combination 0, product +1.
        most = trials // 9 if policy == ROUND_ROBIN else trials
        fill = min(most, BLOCK_TRIALS)
        monkeypatch.setattr(
            experiment, "_map_blocks", lambda config, work, workers: iter([(np.full(fill, 2), 3)])
        )
        seen = _record_key_counts(monkeypatch)
        run_experiment(ExperimentConfig(2, 0.8, 0.9, trials, seed=1, setting_policy=policy))
        [(key_counts, all_zero)] = seen
        assert key_counts.dtype == dtype
        assert key_counts[2] == key_counts.sum() == fill and all_zero == 3

    @pytest.mark.parametrize(
        "policy, trials, dtype",
        [(UNIFORM_RANDOM, 127, np.int8), (UNIFORM_RANDOM, 128, np.int16), (ROUND_ROBIN, 135, np.int16)],
    )
    def test_batch_key_counts_hold_every_trial_on_one_key(self, policy, trials, dtype, monkeypatch):
        # An explicit batch can put all its trials on one key whatever the
        # config's policy: 135 round-robin trials are 15 per combination, and
        # here every one is combination 0. Its outcomes (+1, 0) have product
        # 0; folded, (+1, -1), product -1.
        outcomes = np.tile(np.array([1, 0], dtype=np.int8), (trials, 1))
        batch = TrialBatch(settings=np.ones((trials, 2), dtype=np.int8), outcomes=outcomes)
        config = ExperimentConfig(2, 0.8, 0.9, trials, seed=1, setting_policy=policy)
        seen = _record_key_counts(monkeypatch)
        assert summarize_batch(batch, config).estimated_tensor.entries.tolist() == [0.0] * 9
        assert auxiliary_tensor(batch, config).entries.tolist() == [-1.0] + [0.0] * 8
        (plain, _), (folded, _) = seen
        assert plain.dtype == folded.dtype == dtype
        assert plain[1] == folded[0] == trials

    @pytest.mark.parametrize("n, eta", [(2, 0.7), (3, 1.0), (5, 0.9)])
    def test_sampled_products_are_the_keys_products(self, n, eta):
        config = ExperimentConfig(
            n_parties=n, visibility=0.8, efficiency=eta, trials=3 ** n * 40, seed=11
        )
        combos = np.arange(config.trials, dtype=np.int64) % config.n_combos
        threshold = _threshold_table(config)
        _, all_det, key = _draw(config, threshold, combos, np.random.default_rng(5))
        outcomes = _sample(config, threshold, combos, np.random.default_rng(5))
        products = outcomes.astype(np.int64).prod(axis=1)
        assert all_det.any() and np.array_equal(np.unique(products[all_det]), [-1, 1])
        assert np.array_equal(products[all_det], key[all_det] % 3 - 1)
        assert np.array_equal(products, key % 3 - 1)
        assert np.array_equal(key // 3, combos)

    @pytest.mark.parametrize("policy", [ROUND_ROBIN, UNIFORM_RANDOM])
    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.93, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 12])
    def test_generated_outcomes_match_the_reference_sign_fill(self, n, eta, policy):
        # At least two blocks, the last one partial.
        trials = 3 ** n * -(-70000 // 3 ** n)
        config = ExperimentConfig(
            n_parties=n, visibility=0.8, efficiency=eta, trials=trials, seed=n,
            setting_policy=policy,
        )
        blocks = -(-trials // BLOCK_TRIALS)
        expected = np.concatenate(
            [_reference_sample(config, *_block_combos(config, b)) for b in range(blocks)]
        )
        outcomes = generate_trials(config, workers=2).outcomes
        assert blocks >= 2 and outcomes.dtype == expected.dtype == np.int8
        assert outcomes.flags.c_contiguous
        assert np.array_equal(outcomes, expected)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    n=st.integers(min_value=2, max_value=5),
    policy=st.sampled_from([ROUND_ROBIN, UNIFORM_RANDOM]),
    visibility=st.one_of(
        st.sampled_from([0.0, 5e-324, 2.0 ** -1022, 0.5, 1 - 2.0 ** -53, 1.0]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    efficiency=st.sampled_from([0.0, 0.5, 0.93, 1.0]),
    seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
)
def test_run_and_generated_trials_match_thresholds_computed_per_block(
    n, policy, visibility, efficiency, seed
):
    # The run's one threshold table gives the bits that (1 + V q[combos])/2,
    # computed per block, gives: over two blocks, the second partial.
    trials = 3 ** n * -(-70000 // 3 ** n)
    config = ExperimentConfig(n, visibility, efficiency, trials, seed, policy)
    table = _threshold_table(config)
    setting_rows, outcome_rows = [], []
    for block in range(2):
        combos, rng = _block_combos(config, block)
        # A changed last bit would flip a trial only once in about 2^53 draws.
        assert np.array_equal(
            table[combos].view(np.int64), _reference_threshold(config, combos).view(np.int64)
        )
        setting_rows.append(np.array(np.unravel_index(combos, (3,) * n)).T + 1)
        outcome_rows.append(_reference_sample(config, combos, rng))
    expected = TrialBatch(np.concatenate(setting_rows), np.concatenate(outcome_rows))
    batch = generate_trials(config)
    assert np.array_equal(batch.settings, expected.settings)
    assert np.array_equal(batch.outcomes, expected.outcomes)
    got, want = run_experiment(config), summarize_batch(expected, config)
    assert np.array_equal(
        got.estimated_tensor.entries.view(np.int64), want.estimated_tensor.entries.view(np.int64)
    )
    assert (got.lhs, got.p_all_zero) == (want.lhs, want.p_all_zero)
    assert got.standard_error_lhs.hex() == want.standard_error_lhs.hex()


def _masked_divide_summary(n, counts, sum_prod, nonzero):
    """Reference: estimate, lhs and standard error by masked divides."""
    m = 3 ** n
    est = np.divide(sum_prod, counts, out=np.zeros(m), where=counts > 0)
    enough = counts >= 2
    mean_sq = np.divide(sum_prod ** 2, counts, out=np.zeros(m), where=enough)
    var = np.divide(nonzero - mean_sq, counts - 1, out=np.zeros(m), where=enough)
    se_sq = np.divide(np.clip(var, 0.0, None), counts, out=np.zeros(m), where=enough)
    q = quantum_tensor(n)
    lhs = abs(float(np.dot(q.entries, est)))
    weights = q.entries ** 2
    if (weights[~enough] > 0.0).any():
        return est, lhs, math.inf
    return est, lhs, float(np.sqrt(np.sum(weights * se_sq)))


class TestSummaryFromStats:
    @staticmethod
    def _key_counts_with_trial_counts(n, seed, weighted_low, dtype):
        """Counts of 0, 1, 2 and many trials; weighted entries get >= 2 unless asked."""
        m = 3 ** n
        rng = np.random.default_rng(seed)
        counts = rng.choice([0, 1, 2, 3, 40], size=m).astype(np.int64)
        weighted = quantum_tensor(n).entries != 0.0
        assert weighted.any() and not weighted.all()
        counts[weighted] = np.maximum(counts[weighted], 2)
        if weighted_low is not None:
            counts[np.flatnonzero(weighted)[0]] = weighted_low
        nonzero = rng.binomial(counts, 0.7)
        minus = rng.binomial(nonzero, 0.3)
        return np.stack([minus, counts - nonzero, nonzero - minus], axis=1).ravel().astype(dtype)

    @classmethod
    def _assert_matches_masked_divides(cls, n, weighted_low, dtype):
        key_counts = cls._key_counts_with_trial_counts(n, n, weighted_low, dtype)
        counts, sum_prod, nonzero = _key_count_stats(key_counts.astype(np.int64))
        trials = max(int(counts.sum()), 1)
        config = ExperimentConfig(n, 0.8, 0.9, trials, seed=1, setting_policy=UNIFORM_RANDOM)
        got = _summary_from_stats(config, key_counts, 2)
        est, lhs, se = _masked_divide_summary(n, counts, sum_prod, nonzero)
        entries = got.estimated_tensor.entries
        assert np.array_equal(entries.view(np.int64), est.view(np.int64))
        assert got.lhs.hex() == lhs.hex()
        assert got.standard_error_lhs.hex() == se.hex()
        assert math.isinf(se) == (weighted_low is not None)
        assert got.p_all_zero == 2 / trials

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("weighted_low", [None, 0, 1])
    def test_matches_masked_divides_bit_for_bit(self, n, weighted_low):
        self._assert_matches_masked_divides(n, weighted_low, np.int64)

    @pytest.mark.parametrize("n", [3, 10])
    @pytest.mark.parametrize("weighted_low", [None, 1])
    @pytest.mark.parametrize("dtype", [np.int8, np.int16])
    @pytest.mark.parametrize("chunk", [None, 7])
    def test_matches_masked_divides_in_chunks_of_narrow_counts(
        self, n, weighted_low, dtype, chunk, monkeypatch
    ):
        # N = 10 is four chunks of the default size, the last one partial; a
        # chunk of 7 splits both N here, 3^N not a multiple of it.
        if chunk is not None:
            monkeypatch.setattr(experiment, "_SUMMARY_CHUNK", chunk)
        self._assert_matches_masked_divides(n, weighted_low, dtype)

    def test_clips_a_negative_variance_to_zero(self):
        # Past 2^53 trials float64 rounds the counts and the squared sum, and
        # this combination's sample variance, nonzero - sum^2 / count, comes
        # out at -512. The other combinations have 2 trials of product +1 and
        # variance 0, so without the clip the standard error would be NaN.
        n = 2
        key_counts = np.tile(np.array([0, 0, 2], dtype=np.int64), 9)
        key_counts[:3] = 148, 3, 3963163789177938395
        counts, sum_prod, nonzero = _key_count_stats(key_counts)
        assert nonzero[0] - sum_prod[0] ** 2 / counts[0] == -512.0
        config = ExperimentConfig(n, 0.8, 0.9, int(counts.sum()), seed=1, setting_policy=UNIFORM_RANDOM)
        got = _summary_from_stats(config, key_counts.copy(), 0)
        est, lhs, se = _masked_divide_summary(n, counts, sum_prod, nonzero)
        assert np.array_equal(got.estimated_tensor.entries.view(np.int64), est.view(np.int64))
        assert got.lhs.hex() == lhs.hex()
        assert got.standard_error_lhs == se == 0.0

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    def test_matches_masked_divides_on_simulated_trials(self, eta):
        config = ExperimentConfig(3, 0.6, eta, 27 * 5, seed=4, setting_policy=UNIFORM_RANDOM)
        batch = generate_trials(config)
        combos = _combo_indices(batch)
        products = batch.outcomes.astype(np.int64).prod(axis=1)
        counts = np.bincount(combos, minlength=27)
        sum_prod = np.bincount(combos, weights=products, minlength=27)
        nonzero = np.bincount(combos, weights=np.abs(products), minlength=27).astype(np.int64)
        got = summarize_batch(batch, config)
        est, lhs, se = _masked_divide_summary(3, counts, sum_prod, nonzero)
        assert np.array_equal(got.estimated_tensor.entries.view(np.int64), est.view(np.int64))
        assert got.lhs.hex() == lhs.hex()
        assert got.standard_error_lhs.hex() == se.hex()
        assert got.p_all_zero == (~batch.outcomes.any(axis=1)).sum() / config.trials

    def test_run_experiment_peak_memory(self):
        # At N = 12 the int64 key counts and the summary's own 3^N
        # temporaries once peaked at 57 bytes per combination, and int32
        # counts with a summary in its inputs' buffers at 33. Int8 counts (2
        # trials per combination), the 8-byte threshold table and a summary
        # that reads the counts in chunks take about 25.3.
        config = ExperimentConfig(12, 0.6, 0.98, 2 * 3 ** 12, seed=7)
        run_experiment(config)  # warm-up: the cached quantum tensor
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 3 ** 12

    def test_load_peak_memory(self, tmp_path):
        # Four file-sized work arrays, the bytes read and the translated
        # records: about 6.5 bytes per file byte. A dozen file-sized
        # temporaries once took 13.
        path = tmp_path / "trials.txt"
        generate_trials(ExperimentConfig(4, 0.9, 0.5, 32400, seed=5)).save(path)
        TrialBatch.load(path)  # warm-up
        tracemalloc.start()
        try:
            TrialBatch.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * path.stat().st_size

    def test_generate_trials_peak_memory(self):
        # Settings made in int8 inside each block, and the blocks freed before
        # the range checks: about 55 MB, the threshold table's 4 MB included.
        # Int64 combos and digits kept for every trial would add over 100 MB.
        config = ExperimentConfig(12, 0.6, 0.98, 2 * 3 ** 12, seed=7)
        generate_trials(ExperimentConfig(12, 0.6, 0.98, 3 ** 12, seed=7))  # warm-up
        tracemalloc.start()
        try:
            generate_trials(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * 10 ** 6


class TestSettingPolicies:
    def test_round_robin_cycles_in_order(self):
        cfg = ExperimentConfig(
            n_parties=2, visibility=1.0, efficiency=1.0, trials=18, seed=0
        )
        batch = generate_trials(cfg)
        expected_cycle = [
            (1, 1), (1, 2), (1, 3),
            (2, 1), (2, 2), (2, 3),
            (3, 1), (3, 2), (3, 3),
        ]
        got = [tuple(int(v) for v in row) for row in batch.settings]
        assert got == expected_cycle + expected_cycle

    def test_round_robin_exact_counts_across_blocks(self):
        # 135000 trials span three 65536-trial blocks; the cycle must not
        # restart at block boundaries.
        cfg = ExperimentConfig(
            n_parties=2, visibility=1.0, efficiency=1.0, trials=135000, seed=0
        )
        counts = np.bincount(_combo_indices(generate_trials(cfg)), minlength=9)
        assert np.array_equal(counts, np.full(9, 15000))

    def test_round_robin_trials_across_wrapping_blocks_golden_digest(self):
        # The trials of the run whose summary digest TestDeterminism pins,
        # over blocks that wrap past 3^N.
        batch = generate_trials(ExperimentConfig(11, 0.7, 0.9, 2 * 3 ** 11, seed=6))
        digest = hashlib.sha256(batch.settings.tobytes() + batch.outcomes.tobytes()).hexdigest()
        assert digest == "e3cd53b60179b4c3d5a1a3addf8d7735817d1e2cb68359785e65e9965c569eea"

    @pytest.mark.parametrize(
        "policy, trials",
        [(ROUND_ROBIN, 3 ** 12), (UNIFORM_RANDOM, 2 * BLOCK_TRIALS + 1000)],
    )
    def test_generated_settings_are_int8_digits_of_the_block_combos(self, policy, trials):
        # Eight full blocks and a partial one (round-robin), or two and a partial.
        config = ExperimentConfig(12, 0.6, 0.98, trials, seed=7, setting_policy=policy)
        blocks = -(-trials // BLOCK_TRIALS)
        combos = np.concatenate([_block_combos(config, b)[0] for b in range(blocks)])
        if policy == ROUND_ROBIN:
            assert np.array_equal(combos, np.arange(trials))
        settings = generate_trials(config).settings
        assert settings.dtype == np.int8 and settings.flags.c_contiguous
        assert np.array_equal(settings, np.stack(np.unravel_index(combos, (3,) * 12), axis=1) + 1)

    def test_uniform_random_visits_all_combos(self):
        cfg = ExperimentConfig(
            n_parties=2,
            visibility=1.0,
            efficiency=1.0,
            trials=2000,
            seed=4,
            setting_policy=UNIFORM_RANDOM,
        )
        counts = np.bincount(_combo_indices(generate_trials(cfg)), minlength=9)
        assert (counts > 0).all()
        assert counts.sum() == 2000

    def test_uniform_random_unseen_combo_gives_inf_error(self):
        # 5 trials cannot cover 27 combinations; the summary must flag the
        # missing data instead of failing.
        cfg = ExperimentConfig(
            n_parties=3,
            visibility=1.0,
            efficiency=1.0,
            trials=5,
            seed=0,
            setting_policy=UNIFORM_RANDOM,
        )
        summary = run_experiment(cfg)
        assert summary.standard_error_lhs == math.inf
        assert isinstance(summary.violated, bool)


class TestEstimatorConsistency:
    def test_entries_converge_to_scaled_tensor(self):
        # Each entry estimates eta^N V Q_i; the product is +-1 on detection
        # and 0 otherwise, so Var = eta^N - (eta^N V Q_i)^2.
        n, v, eta = 3, 0.7, 0.85
        per_combo = 2000
        q = quantum_tensor(n).entries
        target = eta ** n * v * q
        var = eta ** n - target ** 2
        sigma = np.sqrt(var / per_combo)
        for seed in range(5):
            cfg = ExperimentConfig(
                n_parties=n,
                visibility=v,
                efficiency=eta,
                trials=27 * per_combo,
                seed=1000 + seed,
            )
            est = run_experiment(cfg).estimated_tensor.entries
            z = np.abs(est - target) / sigma
            assert z.max() < 4.5

    def test_p_all_zero_converges(self):
        n, eta, trials = 2, 0.8, 100008
        cfg = ExperimentConfig(
            n_parties=n, visibility=1.0, efficiency=eta, trials=trials, seed=7
        )
        p_true = (1 - eta) ** n
        sigma = math.sqrt(p_true * (1 - p_true) / trials)
        summary = run_experiment(cfg)
        assert abs(summary.p_all_zero - p_true) < 4 * sigma

    def test_summary_internal_relations(self):
        cfg = ExperimentConfig(
            n_parties=3, visibility=0.9, efficiency=0.8, trials=2700, seed=13
        )
        summary = run_experiment(cfg)
        q = quantum_tensor(3)
        assert summary.lhs == abs(float(np.dot(q.entries, summary.estimated_tensor.entries)))
        assert summary.rhs == lhv_bound(3) - summary.p_all_zero * abs(entry_sum_closed_form(3))
        assert summary.violated == (summary.lhs > summary.rhs)
        assert 0.0 <= summary.p_all_zero <= 1.0
        assert summary.standard_error_lhs > 0.0

    def test_joint_sign_law_per_phase_class(self):
        # All eight N = 3 sign patterns, in every total phase class c present,
        # against P(r) = 2^-N (1 + V prod(r) cos(c pi/6)). Pearson chi-square
        # with 7 degrees of freedom; 29.88 is its 1e-4 upper quantile.
        n, v = 3, 0.8
        cfg = ExperimentConfig(
            n_parties=n, visibility=v, efficiency=1.0, trials=27 * 3000, seed=23
        )
        batch = generate_trials(cfg)
        classes = setting_phase_classes(n)[_combo_indices(batch)]
        bits = (batch.outcomes > 0).astype(np.int64)
        pattern = (bits * (2 ** np.arange(n - 1, -1, -1))).sum(axis=1)
        parity = np.array([(-1) ** (n - bin(p).count("1")) for p in range(2 ** n)])
        present = np.unique(classes)
        assert present.size == 6
        for c in present:
            mask = classes == c
            observed = np.bincount(pattern[mask], minlength=2 ** n)
            probs = (1.0 + v * parity * math.cos(c * math.pi / 6)) / 2 ** n
            expected = mask.sum() * probs
            chi_sq = float(((observed - expected) ** 2 / expected).sum())
            assert chi_sq < 29.88, (int(c), observed.tolist())

    def test_lost_stations_keep_fair_signs(self):
        # Among trials where exactly the second station dropped out, the first
        # station's sign must be a fair coin regardless of V.
        cfg = ExperimentConfig(
            n_parties=2,
            visibility=1.0,
            efficiency=0.6,
            trials=90000,
            seed=19,
        )
        batch = generate_trials(cfg)
        mask = (batch.outcomes[:, 1] == 0) & (batch.outcomes[:, 0] != 0)
        signs = batch.outcomes[mask, 0].astype(np.float64)
        assert signs.size > 10000
        assert abs(signs.mean()) < 4.0 / math.sqrt(signs.size)


class TestEdgeCases:
    def test_perfect_efficiency_has_no_zeros(self):
        cfg = ExperimentConfig(
            n_parties=2, visibility=0.5, efficiency=1.0, trials=900, seed=2
        )
        summary = run_experiment(cfg)
        batch = generate_trials(cfg)
        assert not np.any(batch.outcomes == 0)
        assert summary.p_all_zero == 0.0
        assert math.isfinite(summary.standard_error_lhs)

    def test_zero_efficiency_blocks_everything(self):
        cfg = ExperimentConfig(
            n_parties=2, visibility=1.0, efficiency=0.0, trials=90, seed=2
        )
        batch = generate_trials(cfg)
        assert np.all(batch.outcomes == 0)
        summary = run_experiment(cfg)
        assert summary.p_all_zero == 1.0
        assert summary.lhs == 0.0
        # rhs collapses to 2 sqrt(3) - 2 sqrt(3) = 0; no violation.
        assert summary.rhs == pytest.approx(0.0, abs=1e-12)
        assert not summary.violated

    def test_zero_visibility_never_violates(self):
        cfg = ExperimentConfig(
            n_parties=2, visibility=0.0, efficiency=1.0, trials=9 * 2000, seed=3
        )
        summary = run_experiment(cfg)
        sigma = 1.0 / math.sqrt(2000)
        assert np.abs(summary.estimated_tensor.entries).max() < 4.5 * sigma
        assert not summary.violated


class TestAuxiliaryTensor:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("eta", [1.0, 0.75])
    @pytest.mark.parametrize("v", [1.0, 0.5])
    def test_fold_offset(self, n, eta, v):
        per_combo = 200
        cfg = ExperimentConfig(
            n_parties=n,
            visibility=v,
            efficiency=eta,
            trials=3 ** n * per_combo,
            seed=100 * n + int(10 * eta) + int(10 * v),
        )
        batch = generate_trials(cfg)
        plain = summarize_batch(batch, cfg).estimated_tensor.entries
        aux = auxiliary_tensor(batch, cfg).entries
        expected = (-1.0) ** n * (1.0 - eta) ** n

        if eta == 1.0:
            assert np.array_equal(aux, plain)
            assert expected == 0.0
            return

        # Per-combination mean and error of the fold-minus-plain difference.
        plain_prod = batch.outcomes.astype(np.int64).prod(axis=1).astype(np.float64)
        folded_prod = (
            np.where(batch.outcomes == 0, -1, batch.outcomes)
            .astype(np.int64)
            .prod(axis=1)
            .astype(np.float64)
        )
        d = folded_prod - plain_prod
        combos = _combo_indices(batch)
        for c in range(3 ** n):
            sel = d[combos == c]
            diff = aux[c] - plain[c]
            assert diff == pytest.approx(sel.mean(), abs=1e-12)
            se = sel.std(ddof=1) / math.sqrt(sel.size)
            assert abs(diff - expected) < 4.5 * se + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("eta", [0.5, 0.9])
    def test_entries_are_the_masked_divide_of_folded_sums_bit_for_bit(self, n, eta):
        m = 3 ** n
        cfg = ExperimentConfig(n, 0.8, eta, 2 * m, seed=7 * n, setting_policy=UNIFORM_RANDOM)
        batch = generate_trials(cfg)
        assert (batch.outcomes == 0).any()
        folded = np.where(batch.outcomes == 0, -1, batch.outcomes).astype(np.int64).prod(axis=1)
        combos = _combo_indices(batch)
        counts = np.bincount(combos, minlength=m)
        assert (counts == 0).any()  # so the masked entries are checked too
        sums = np.bincount(combos, weights=folded, minlength=m)
        want = np.divide(sums, counts, out=np.zeros(m), where=counts > 0)
        got = auxiliary_tensor(batch, cfg).entries
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_party_count_mismatch(self):
        cfg2 = ExperimentConfig(
            n_parties=2, visibility=1.0, efficiency=1.0, trials=9, seed=0
        )
        cfg3 = ExperimentConfig(
            n_parties=3, visibility=1.0, efficiency=1.0, trials=27, seed=0
        )
        batch = generate_trials(cfg2)
        with pytest.raises(ValueError):
            auxiliary_tensor(batch, cfg3)

    def test_trial_count_mismatch(self):
        # The key counts are sized from config.trials, so a longer batch could wrap them.
        batch = generate_trials(ExperimentConfig(2, 1.0, 0.9, 90, seed=0))
        short = ExperimentConfig(2, 1.0, 0.9, 9, seed=0)
        with pytest.raises(ValueError, match="batch has 90 trials but config says 9"):
            auxiliary_tensor(batch, short)


class TestSummarizeBatchValidation:
    def test_trial_count_mismatch(self):
        cfg = ExperimentConfig(
            n_parties=2, visibility=1.0, efficiency=1.0, trials=18, seed=0
        )
        short = ExperimentConfig(
            n_parties=2, visibility=1.0, efficiency=1.0, trials=9, seed=0
        )
        batch = generate_trials(cfg)
        with pytest.raises(ValueError):
            summarize_batch(batch, short)

    def test_party_count_mismatch(self):
        cfg2 = ExperimentConfig(
            n_parties=2, visibility=1.0, efficiency=1.0, trials=9, seed=0
        )
        cfg3 = ExperimentConfig(
            n_parties=3, visibility=1.0, efficiency=1.0, trials=9,
            seed=0, setting_policy=UNIFORM_RANDOM,
        )
        with pytest.raises(ValueError):
            summarize_batch(generate_trials(cfg2), cfg3)

    def test_changes_to_a_callers_arrays_do_not_reach_the_estimators(self):
        # The batch owns copies of the arrays it was built from: a setting 4
        # written into the caller's array would count in another combination.
        cfg = ExperimentConfig(n_parties=2, visibility=0.8, efficiency=0.7, trials=90, seed=3)
        made = generate_trials(cfg)
        settings, outcomes = made.settings.copy(), made.outcomes.copy()
        batch = TrialBatch(settings=settings, outcomes=outcomes)
        summary, aux = summarize_batch(batch, cfg), auxiliary_tensor(batch, cfg)
        settings[0, 1], outcomes[0, 0] = 4, 2
        settings[1:] = 1
        outcomes[1:] = 0
        assert settings.flags.writeable and outcomes.flags.writeable
        assert _summaries_equal(summarize_batch(batch, cfg), summary)
        assert _summaries_equal(summarize_batch(made, cfg), summary)
        assert np.array_equal(auxiliary_tensor(batch, cfg).entries, aux.entries)


class TestVisibilitySweep:
    def test_brackets_the_threshold(self):
        points = visibility_sweep(
            n_parties=2, eta=1.0, v_grid=[0.5, 0.95], trials_per_point=9000, seed=6
        )
        assert [p.violated for p in points] == [False, True]
        assert [p.visibility for p in points] == [0.5, 0.95]
        for p in points:
            assert p.rhs == pytest.approx(2 * SQRT3, abs=1e-12)

    def test_reproducible(self):
        kwargs = dict(
            n_parties=2, eta=0.9, v_grid=[0.4, 0.8], trials_per_point=900, seed=8
        )
        assert visibility_sweep(**kwargs) == visibility_sweep(**kwargs)

    def test_workers_do_not_change_points(self):
        kwargs = dict(
            n_parties=2, eta=1.0, v_grid=[0.6], trials_per_point=135000, seed=9
        )
        assert visibility_sweep(**kwargs, workers=1) == visibility_sweep(**kwargs, workers=4)

    def test_invalid_grid_value(self):
        with pytest.raises(ValueError):
            visibility_sweep(
                n_parties=2, eta=1.0, v_grid=[0.5, 1.2], trials_per_point=9, seed=0
            )

    def test_bad_grid_value_rejected_before_any_experiment(self, monkeypatch):
        def run_experiment(*args, **kwargs):
            raise AssertionError("an experiment ran before the whole grid was checked")

        monkeypatch.setattr(experiment, "run_experiment", run_experiment)
        with pytest.raises(ValueError, match=r"in \[0, 1\], got 1.5") as info:
            visibility_sweep(
                n_parties=3, eta=0.9, v_grid=[0.5, 0.6, 1.5], trials_per_point=27, seed=0
            )
        assert info.value.field == "visibility"

    def test_two_bad_arguments_name_the_party_count_first(self):
        with pytest.raises(_FieldError) as info:
            visibility_sweep(2.5, 0.9, ["0.5"], 27, seed=0)
        assert info.value.field == "n_parties"

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="^need at least one visibility, got none$") as info:
            visibility_sweep(3, 0.9, [], 27, 0)
        assert info.value.field == "visibility"

    def test_non_integer_seed_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$") as info:
            visibility_sweep(2, 1.0, [0.5], 9, seed=1.5)
        assert info.value.field == "seed"

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match="64 unsigned bits") as info:
            visibility_sweep(2, 1.0, [0.5], 9, seed=seed)
        assert info.value.field == "seed"

    def test_point_to_dict(self):
        (point,) = visibility_sweep(
            n_parties=2, eta=1.0, v_grid=[0.9], trials_per_point=90, seed=0
        )
        data = point.to_dict()
        assert set(data) == {"visibility", "lhs", "rhs", "violated"}
