"""Tests for the self-verification suite behind ``ghzbell verify``.

Core claims covered here:
  * the brute-force maximum is computed once per N and shared by the two
    checks that need it, each N's integer table is read at most once per
    run, every critical efficiency comes from one call for N = 2..12, and
    every check passes at N_max = 8,
  * the folded three-outcome check scores all 27^3 strategies at N = 3, its
    maximum is the bound, and it fails against a slightly lowered bound,
  * the factorization check's two tables (T contracted against sign triples
    as ``max_score_brute`` does, and the phasor product) reproduce
    ``strategy_score`` on the integer table and a complex-arithmetic phasor
    product for every sign strategy at N = 2, 3, and the check fails on a
    rotated phasor or a perturbed tensor,
  * the five tensor checks are exact: each fails when one entry of the
    integer table moves by 2^-40, far below the 1e-9 they once allowed,
  * each of the other six checks fails when the one function it reads is
    moved just past its pass condition: 1 ulp, a factor 1 + 1e-11, a rotated
    phasor or a 1 % shift in the printed percentages.
The failure tests drive ``run_checks`` and pick each check's result by name.
"""

import cmath
import math
from itertools import product

import pytest

import ghzbell.checks as checks
from ghzbell import (
    SIGN_TRIPLES,
    CorrelationTensor,
    DeterministicStrategy,
    PartyPhasor,
    build_settings,
    lhv_bound,
    party_phasor,
    quantum_tensor,
    strategy_score,
)
from ghzbell.quantum import integer_tensor

PERTURBATION = 2.0 ** -40


def test_brute_force_search_runs_once_per_n(monkeypatch):
    calls = []
    search = checks.max_score_brute

    def counting(n):
        calls.append(n)
        return search(n)

    monkeypatch.setattr(checks, "max_score_brute", counting)
    results = checks.run_checks(8)
    assert sorted(calls) == list(range(2, 9))
    assert len(results) == 11
    assert [r.name for r in results if not r.passed] == []
    by_name = {r.name: r for r in results}
    assert "N=2..8" in by_name["bound-brute"].detail
    assert "N=2..8" in by_name["oracle-equivalence"].detail


def test_integer_tensor_built_once_per_n(monkeypatch):
    calls = []
    build = checks.integer_tensor

    def counting(grid):
        calls.append(grid.n_parties)
        return build(grid)

    monkeypatch.setattr(checks, "integer_tensor", counting)
    results = checks.run_checks(8)
    assert sorted(calls) == list(range(2, 11))
    assert len(results) == 11
    assert [r.name for r in results if not r.passed] == []


def test_critical_efficiency_solved_once_for_all_n(monkeypatch):
    calls = []
    solve = checks.critical_efficiency

    def counting(ns):
        calls.append(list(ns))
        return solve(ns)

    monkeypatch.setattr(checks, "critical_efficiency", counting)
    results = checks.run_checks(2)
    assert calls == [list(range(2, 13))]
    assert [r.name for r in results if not r.passed] == []


@pytest.mark.parametrize("n_max", [2, 5])
def test_brute_force_depth_follows_n_max(monkeypatch, n_max):
    calls = []
    search = checks.max_score_brute
    monkeypatch.setattr(checks, "max_score_brute", lambda n: calls.append(n) or search(n))
    checks.run_checks(n_max)
    assert sorted(calls) == list(range(2, n_max + 1))


def test_n_max_past_the_search_limit_fails_before_any_search(monkeypatch):
    # run_checks does not clamp n_max: max_score_brute rejects 9 itself, and
    # the largest N is searched first, so no smaller search runs before it.
    calls = []
    search = checks.max_score_brute
    monkeypatch.setattr(checks, "max_score_brute", lambda n: calls.append(n) or search(n))
    with pytest.raises(ValueError, match="exhaustive search supports 2..8 parties, got 9") as info:
        checks.run_checks(9)
    assert info.value.field == "n_parties"
    assert calls == [9]


def test_n_max_below_two_names_its_field():
    with pytest.raises(ValueError, match="n_max must be at least 2, got 1") as info:
        checks.run_checks(1)
    assert info.value.field == "n_max"


def test_folded_check_is_exhaustive():
    t = integer_tensor(build_settings(3))
    result = checks._check_folded_strategies(t)
    assert result.name == "folded-strategy-bound"
    assert result.passed
    assert result.detail.endswith("over all 19683 strategies")
    assert checks._folded_scores(t).size == 27 ** 3


def test_folded_maximum_equals_the_bound():
    scores = checks._folded_scores(quantum_tensor(build_settings(3)))
    assert scores.max() == pytest.approx(lhv_bound(3), abs=1e-9)
    assert checks._folded_scores(integer_tensor(build_settings(3))).max() == 2.0 ** 3


def test_folded_check_fails_against_a_lowered_bound(monkeypatch):
    real_bound = checks.lhv_bound
    monkeypatch.setattr(checks, "lhv_bound", lambda n: real_bound(n) - 1e-6)
    assert not checks._check_folded_strategies(integer_tensor(build_settings(3))).passed


def _phasor_score(assignments, grid):
    """Real part of the complex product of the party phasors over sqrt(3)/2, as an integer."""
    total = 1
    for k, triple in enumerate(assignments):
        p = party_phasor(triple, k, grid)
        total *= cmath.rect(p.magnitude, p.phase_class * math.pi / 6)
    value = total.real / (math.sqrt(3.0) / 2)
    assert abs(value - round(value)) < 1e-9
    return round(value)


@pytest.mark.parametrize("n", [2, 3])
def test_factorization_tables_match_the_library_scores(n):
    grid = build_settings(n)
    t = integer_tensor(grid)
    direct, phasor = checks._factorization_scores(n, t)
    assert direct.shape == phasor.shape == (8 ** n,)
    for i, assignments in enumerate(product(SIGN_TRIPLES, repeat=n)):
        strategy = DeterministicStrategy(assignments=assignments)
        assert direct[i] == strategy_score(strategy, t)
        assert phasor[i] == _phasor_score(assignments, grid)


def _by_name(results):
    return {r.name: r for r in results}


def _rotated_phasor(real):
    """``party_phasor`` with the (+1, +1, -1) phasor turned one pi/6 step."""

    def rotated(triple, party, grid):
        p = real(triple, party, grid)
        if tuple(triple) == (1, 1, -1) and p.magnitude:
            return PartyPhasor(magnitude=p.magnitude, phase_class=(p.phase_class + 1) % 12)
        return p

    return rotated


def _tables_with(monkeypatch, index, delta):
    """Patch ``checks.integer_tensor`` so T at N = 3 has ``delta`` added to entry ``index``."""
    build = checks.integer_tensor

    def patched(grid):
        t = build(grid)
        if grid.n_parties != 3:
            return t
        entries = t.entries.copy()
        entries[index] += delta
        return CorrelationTensor(n_parties=3, entries=entries)

    monkeypatch.setattr(checks, "integer_tensor", patched)


def test_factorization_check_fails_on_a_rotated_phasor(monkeypatch):
    monkeypatch.setattr(checks, "party_phasor", _rotated_phasor(checks.party_phasor))
    assert not _by_name(checks.run_checks(2))["factorization-identity"].passed


def test_factorization_check_fails_on_a_perturbed_tensor(monkeypatch):
    _tables_with(monkeypatch, 13, 1e-6)
    result = _by_name(checks.run_checks(3))["factorization-identity"]
    assert not result.passed
    assert "1.000e-06" in result.detail


# The five checks that read T, each exact: T[0] at N = 3 (a +1 entry) moved by
# 2^-40 fails them. The brute-force search builds its own T and stays exact.
EXACT_GATES = [
    "norm-identity",
    "entry-sum-identity",
    "bound-brute",
    "factorization-identity",
    "folded-strategy-bound",
]


@pytest.mark.parametrize("name", EXACT_GATES)
def test_gate_fails_on_a_perturbation_below_the_old_tolerance(monkeypatch, name):
    assert PERTURBATION < checks.IDENTITY_TOL
    assert integer_tensor(build_settings(3)).entries[0] == 1.0
    assert _by_name(checks.run_checks(3))[name].passed
    _tables_with(monkeypatch, 0, PERTURBATION)
    assert not _by_name(checks.run_checks(3))[name].passed


def _scaled(real, factor):
    return lambda *args: real(*args) * factor


# Each check against the one function it reads, moved just past its pass condition.
FAULTS = {
    "oracle-equivalence": (
        "max_score_factorized",
        lambda real: lambda n: math.nextafter(real(n), math.inf),
    ),
    "phasor-onto": ("party_phasor", _rotated_phasor),
    "violation-factor": ("violation_factor", lambda real: _scaled(real, 1 + 1e-11)),
    "visibility-closed-form": ("critical_visibility", lambda real: _scaled(real, 1 + 1e-11)),
    "threshold-percents": ("percent_string", lambda real: lambda value: real(value * 1.01)),
    "efficiency-consistency": ("efficiency_closed_form", lambda real: _scaled(real, 1 + 1e-11)),
}


@pytest.mark.parametrize("name", list(FAULTS))
def test_each_check_fails_when_its_input_moves(monkeypatch, name):
    attribute, fault = FAULTS[name]
    monkeypatch.setattr(checks, attribute, fault(getattr(checks, attribute)))
    results = _by_name(checks.run_checks(2))
    assert len(results) == 11
    assert not results[name].passed
