"""Tests for the quantum-side objects.

Core claims covered here:
  * the settings grid is the fixed one (offset triple first, shared triple
    after) and rejects anything else,
  * joint probabilities are normalized and their sign-weighted sum reproduces
    the full correlation,
  * the correlation tensor carries exactly the seven values
    {0, +-1/2, +-sqrt(3)/2, +-1}, has squared norm 3^N/2 and entry sum
    -2^N sin((N-1) pi/3),
  * scalar products behave bilinearly and validate shapes.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ghzbell import (
    CorrelationTensor,
    SettingsGrid,
    build_settings,
    entry_sum_closed_form,
    joint_probability,
    quantum_correlation,
    quantum_tensor,
    scalar_product,
    setting_phase_classes,
    tensor_entry_sum,
    tensor_norm_sq,
)

SQRT3 = math.sqrt(3.0)
SEVEN_VALUES = {0.0, 0.5, -0.5, SQRT3 / 2, -SQRT3 / 2, 1.0, -1.0}


class TestSettingsGrid:
    def test_build_settings_phases(self):
        grid = build_settings(3)
        assert grid.n_parties == 3
        assert grid.phase_classes() == ((1, 3, 5), (0, 2, 4), (0, 2, 4))
        # The same phases as exact fractions of pi, to the last bit.
        first = (Fraction(1, 6), Fraction(1, 2), Fraction(5, 6))
        other = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
        assert grid.radians() == tuple(
            tuple(float(p) * math.pi for p in triple) for triple in (first, other, other)
        )

    def test_radians(self):
        grid = build_settings(2)
        first, second = grid.radians()
        assert first == pytest.approx((math.pi / 6, math.pi / 2, 5 * math.pi / 6))
        assert second == pytest.approx((0.0, math.pi / 3, 2 * math.pi / 3))

    def test_phase_classes(self):
        grid = build_settings(2)
        assert grid.phase_classes() == ((1, 3, 5), (0, 2, 4))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_phase_classes_follow_the_stored_phases(self, n):
        grid = build_settings(n)
        classes, radians = grid.phase_classes(), grid.radians()
        assert len(classes) == len(radians) == n
        for k in range(n):
            for i in range(3):
                assert radians[k][i] == classes[k][i] / 6 * math.pi

    def test_too_few_parties(self):
        with pytest.raises(ValueError):
            build_settings(1)

    def test_rejects_nonstandard_phases(self):
        other = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
        with pytest.raises(TypeError):
            SettingsGrid(n_parties=2, phases=(other, other))

    def test_rejects_wrong_triple_count(self):
        first = (Fraction(1, 6), Fraction(1, 2), Fraction(5, 6))
        other = (Fraction(0), Fraction(1, 3), Fraction(2, 3))
        with pytest.raises(TypeError):
            SettingsGrid(n_parties=3, phases=(first, other))


class TestJointProbability:
    def test_known_value(self):
        # Two parties at their first settings: 2^-2 (1 + cos(pi/6 + 0)).
        p = joint_probability([1, 1], [math.pi / 6, 0.0])
        assert p == pytest.approx(0.4665063509461097, abs=1e-15)

    def test_invalid_result_value(self):
        with pytest.raises(ValueError):
            joint_probability([1, 0], [0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            joint_probability([1, 1], [0.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            joint_probability([], [])

    def test_normalization_random_angles(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            angles = rng.uniform(0.0, 2 * math.pi, size=n)
            total = sum(
                joint_probability(r, angles)
                for r in itertools.product((-1, 1), repeat=n)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_sign_weighted_sum_matches_correlation(self):
        # The product-weighted sum over all 2^N outcomes must reproduce the
        # full correlation at every one of the 3^N setting combinations.
        for n in (2, 3, 4):
            radians = build_settings(n).radians()
            for combo in itertools.product(range(3), repeat=n):
                angles = [radians[k][combo[k]] for k in range(n)]
                weighted = sum(
                    math.prod(r) * joint_probability(r, angles)
                    for r in itertools.product((-1, 1), repeat=n)
                )
                assert weighted == pytest.approx(
                    quantum_correlation(angles), abs=1e-12
                )


class TestQuantumCorrelation:
    def test_cosine_of_sum(self):
        assert quantum_correlation([math.pi / 6, math.pi / 3]) == pytest.approx(0.0, abs=1e-15)
        assert quantum_correlation([0.0]) == 1.0

    def test_empty(self):
        with pytest.raises(ValueError):
            quantum_correlation([])


class TestQuantumTensor:
    def test_known_entries_two_parties(self):
        q = quantum_tensor(build_settings(2))
        assert q.entry((1, 1)) == pytest.approx(SQRT3 / 2, abs=1e-15)
        # pi/2 + 2pi/3 = 7pi/6.
        assert q.entry((2, 3)) == pytest.approx(-SQRT3 / 2, abs=1e-15)
        assert q.entry((2, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_entries_live_on_seven_values(self):
        for n in (2, 3, 5):
            q = quantum_tensor(build_settings(n))
            assert set(np.unique(q.entries)) <= SEVEN_VALUES

    def test_matches_float_cosine_route(self):
        for n in (2, 3, 4):
            grid = build_settings(n)
            q = quantum_tensor(grid).as_grid()
            radians = grid.radians()
            for combo in itertools.product(range(3), repeat=n):
                angles = [radians[k][combo[k]] for k in range(n)]
                assert q[combo] == pytest.approx(quantum_correlation(angles), abs=1e-12)

    def test_norm_identity(self):
        for n in range(2, 11):
            q = quantum_tensor(build_settings(n))
            assert abs(tensor_norm_sq(q) - 3.0 ** n / 2.0) < 1e-9

    def test_entry_sum_matches_closed_form(self):
        for n in range(2, 11):
            q = quantum_tensor(build_settings(n))
            assert abs(tensor_entry_sum(q) - entry_sum_closed_form(n)) < 1e-9

    def test_entry_sum_frozen_values(self):
        q2 = quantum_tensor(build_settings(2))
        assert tensor_entry_sum(q2) == pytest.approx(-2 * SQRT3, abs=1e-12)
        q5 = quantum_tensor(build_settings(5))
        assert tensor_entry_sum(q5) == pytest.approx(16 * SQRT3, abs=1e-12)

    def test_entry_sum_vanishes_at_n_1_mod_3(self):
        for n in (4, 7, 10):
            assert entry_sum_closed_form(n) == 0.0
            q = quantum_tensor(build_settings(n))
            assert abs(tensor_entry_sum(q)) < 1e-9

    def test_phase_classes_consistent_with_entries(self):
        grid = build_settings(3)
        classes = setting_phase_classes(grid)
        q = quantum_tensor(grid)
        table = np.cos(classes * math.pi / 6.0)
        assert np.allclose(q.entries, table, atol=1e-12)


class TestCorrelationTensor:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            CorrelationTensor(n_parties=2, entries=np.zeros(8))

    def test_magnitude_validation(self):
        bad = np.zeros(9)
        bad[0] = 1.5
        with pytest.raises(ValueError):
            CorrelationTensor(n_parties=2, entries=bad)

    def test_nonfinite_validation(self):
        bad = np.zeros(9)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            CorrelationTensor(n_parties=2, entries=bad)

    def test_entries_read_only(self):
        q = quantum_tensor(build_settings(2))
        with pytest.raises(ValueError):
            q.entries[0] = 0.0

    def test_entry_validates_indices(self):
        q = quantum_tensor(build_settings(2))
        with pytest.raises(ValueError):
            q.entry((0, 1))
        with pytest.raises(ValueError):
            q.entry((1, 1, 1))

    def test_dict_roundtrip(self):
        q = quantum_tensor(build_settings(2))
        data = q.to_dict()
        assert data["n_parties"] == 2
        assert len(data["entries"]) == 9
        again = CorrelationTensor.from_dict(json.loads(json.dumps(data)))
        assert np.array_equal(again.entries, q.entries)


class TestScalarProduct:
    def test_self_product_is_norm(self):
        q = quantum_tensor(build_settings(3))
        assert scalar_product(q, q) == pytest.approx(13.5, abs=1e-9)

    def test_single_entry_flip(self):
        # Flipping one entry of the partner tensor lowers the product by
        # exactly twice the squared entry.
        q = quantum_tensor(build_settings(3))
        flipped = q.entries.copy()
        flipped[0] = -flipped[0]
        partner = CorrelationTensor(n_parties=3, entries=flipped)
        expected = 13.5 - 2.0 * q.entries[0] ** 2
        assert scalar_product(q, partner) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(12.0, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            scalar_product(
                quantum_tensor(build_settings(2)), quantum_tensor(build_settings(3))
            )
