"""Tests for the quantum-side objects.

Core claims covered here:
  * the settings grid is the fixed one (offset triple first, shared triple
    after) and rejects anything else,
  * the correlation tensor carries exactly the seven values
    {0, +-1/2, +-sqrt(3)/2, +-1}, equals cos(sum of phases) entry by entry,
    has squared norm 3^N/2 and entry sum -2^N sin((N-1) pi/3),
  * tensors validate their shape, range and finiteness, and their JSON form
    round-trips.
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
    quantum_tensor,
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


class TestQuantumTensor:
    def test_known_entries_two_parties(self):
        q = quantum_tensor(build_settings(2)).as_grid()
        assert q[0, 0] == pytest.approx(SQRT3 / 2, abs=1e-15)
        # pi/2 + 2pi/3 = 7pi/6.
        assert q[1, 2] == pytest.approx(-SQRT3 / 2, abs=1e-15)
        assert q[1, 0] == pytest.approx(0.0, abs=1e-15)

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
                assert q[combo] == pytest.approx(math.cos(math.fsum(angles)), abs=1e-12)

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

    def test_dict_roundtrip(self):
        q = quantum_tensor(build_settings(2))
        data = q.to_dict()
        assert data["n_parties"] == 2
        assert len(data["entries"]) == 9
        loaded = json.loads(json.dumps(data))
        again = CorrelationTensor(n_parties=loaded["n_parties"], entries=loaded["entries"])
        assert np.array_equal(again.entries, q.entries)
