"""Tests for the self-verification suite behind ``ghzbell verify``.

Core claims covered here:
  * the brute-force maximum is computed once per N and shared by the two
    checks that need it, each N's integer table is read at most once per
    run, every critical efficiency comes from one call for N = 2..12, and
    every check passes at N_max = 8,
  * T is contracted once per N = 2, 3 against the 27 three-outcome triples,
    and the two checks that read the table share it: the factorization check
    its sign block, the detection-adjusted check all of it. That check's
    integer inequality 3^N |(T, E)| + |sum T| z <= 6^N holds for every
    three-outcome strategy at N = 2, 3, 4 with a maximum of exactly 6^N, the
    never-click strategy reaches it where sum T != 0, and the check fails
    when the |sum T| term is dropped, its sign flipped or doubled,
  * the factorization check's two tables (the sign block of that contraction
    and the phasor product) reproduce ``strategy_score`` on the integer table
    and a complex-arithmetic phasor product for every sign strategy at
    N = 2, 3, and the check fails on a rotated phasor or a perturbed tensor,
  * the five tensor checks are exact: each fails when one entry of the
    integer table moves by 2^-40, far below the 1e-9 they once allowed,
  * each of the other six checks fails when the one function it reads is
    moved just past its pass condition: 1 ulp, a factor 1 + 1e-11, a rotated
    phasor or a 1 % shift in the printed percentages.
The failure tests drive ``run_checks`` and pick each check's result by name.
"""

import cmath
import math
from functools import reduce
from itertools import product

import numpy as np
import pytest

import ghzbell.checks as checks
from ghzbell import (
    SIGN_TRIPLES,
    CorrelationTensor,
    DeterministicStrategy,
    PartyPhasor,
    party_phasor,
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

    def counting(n):
        calls.append(n)
        return build(n)

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
    with pytest.raises(ValueError, match="need at least 2 parties, got 1") as info:
        checks.run_checks(1)
    assert info.value.field == "n_parties"


def test_one_three_outcome_contraction_per_n(monkeypatch):
    # max_score_brute contracts through ghzbell.lhv's own name, so only the
    # checks' calls are counted here.
    calls = []
    contract = checks._triple_scores

    def counting(t, triples):
        calls.append((t.n_parties, len(triples)))
        return contract(t, triples)

    monkeypatch.setattr(checks, "_triple_scores", counting)
    assert [r.name for r in checks.run_checks(3) if not r.passed] == []
    assert calls == [(2, 27), (3, 27)]


def test_phasor_onto_reads_the_factorization_table(monkeypatch):
    calls = []
    phasor = checks.party_phasor
    monkeypatch.setattr(checks, "party_phasor", lambda *args: calls.append(args) or phasor(*args))
    checks.run_checks(2)
    assert len(calls) == 8 * (2 + 3)


def test_outcome_rows():
    rows = checks._OUTCOME_TRIPLES
    assert rows == tuple(product((-1, 0, 1), repeat=3))
    assert [rows[i] for i in checks._SIGN_ROWS] == list(SIGN_TRIPLES)
    assert checks._ZEROS.tolist() == [3 - sum(map(abs, r)) for r in rows]


def _adjusted_reference(n):
    """3^N |(T, E)| + |sum T| z of all 27^N strategies, strategy by strategy, in Python ints."""
    t = integer_tensor(n).entries.astype(int).tolist()
    combos = list(product(range(3), repeat=n))
    total = abs(sum(t))
    values = []
    for strategy in product(product((-1, 0, 1), repeat=3), repeat=n):
        score = zeros = 0
        for entry, combo in zip(t, combos):
            outcomes = [strategy[k][d] for k, d in enumerate(combo)]
            score += entry * math.prod(outcomes)
            zeros += not any(outcomes)
        values.append(3 ** n * abs(score) + total * zeros)
    return values


def _adjusted(n):
    """The same values by one contraction per party, as ``run_checks`` scores them."""
    t = integer_tensor(n)
    scores = checks._triple_scores(t, checks._OUTCOME_TRIPLES)
    zeros = reduce(np.multiply.outer, [checks._ZEROS] * n)
    return 3 ** n * np.abs(scores) + abs(sum(t.entries)) * zeros


@pytest.mark.parametrize("n", [2, 3])
def test_adjusted_values_match_a_strategy_by_strategy_reference(n):
    adjusted = _adjusted(n)
    assert adjusted.shape == (27,) * n
    assert adjusted.ravel().tolist() == _adjusted_reference(n)
    t = integer_tensor(n)
    assert checks._adjusted_gap(checks._triple_scores(t, checks._OUTCOME_TRIPLES), t) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_three_outcome_strategy_obeys_the_detection_adjusted_bound(n):
    # 27^4 = 531 441 strategies at N = 4, where sum T = 0 and only strategies
    # with p = 0 reach 6^N. Where sum T != 0 the never-click one does too.
    adjusted = _adjusted(n)
    assert adjusted.max() == 6 ** n
    never_click = adjusted[(checks._OUTCOME_TRIPLES.index((0, 0, 0)),) * n]
    assert never_click == (0 if n % 3 == 1 else 6 ** n)


@pytest.mark.parametrize("factor", [0, -1, 2], ids=["dropped", "flipped", "doubled"])
def test_detection_adjusted_check_fails_on_a_wrong_sum_term(monkeypatch, factor):
    # The sign strategies reach 6^N with no 0, so a dropped or flipped term
    # leaves the maximum at 6^N: the never-click value is what moves.
    assert _by_name(checks.run_checks(2))["detection-adjusted-bound"].passed
    monkeypatch.setattr(checks, "_ZEROS", factor * checks._ZEROS)
    assert not _by_name(checks.run_checks(2))["detection-adjusted-bound"].passed


def _phasor_score(assignments):
    """Real part of the complex product of the party phasors over sqrt(3)/2, as an integer."""
    total = 1
    for k, triple in enumerate(assignments):
        p = party_phasor(triple, k, len(assignments))
        total *= cmath.rect(p.magnitude, p.phase_class * math.pi / 6)
    value = total.real / (math.sqrt(3.0) / 2)
    assert abs(value - round(value)) < 1e-9
    return round(value)


@pytest.mark.parametrize("n", [2, 3])
def test_factorization_tables_match_the_library_scores(n):
    t = integer_tensor(n)
    # The sign block of the three-outcome scores, as run_checks reads it.
    scores = checks._triple_scores(t, checks._OUTCOME_TRIPLES)
    direct = scores[np.ix_(*[checks._SIGN_ROWS] * n)].ravel()
    table = [[party_phasor(s, k, n) for s in SIGN_TRIPLES] for k in range(n)]
    phasor = checks._phasor_scores(table).ravel()
    assert direct.shape == phasor.shape == (8 ** n,)
    for i, assignments in enumerate(product(SIGN_TRIPLES, repeat=n)):
        strategy = DeterministicStrategy(assignments=assignments)
        assert direct[i] == strategy_score(strategy, t)
        assert phasor[i] == _phasor_score(assignments)


def _by_name(results):
    return {r.name: r for r in results}


def _rotated_phasor(real):
    """``party_phasor`` with the (+1, +1, -1) phasor turned one pi/6 step."""

    def rotated(triple, party, n):
        p = real(triple, party, n)
        if tuple(triple) == (1, 1, -1) and p.magnitude:
            return PartyPhasor(magnitude=p.magnitude, phase_class=(p.phase_class + 1) % 12)
        return p

    return rotated


def _tables_with(monkeypatch, index, delta):
    """Patch ``checks.integer_tensor`` so T at N = 3 has ``delta`` added to entry ``index``."""
    build = checks.integer_tensor

    def patched(n):
        t = build(n)
        if n != 3:
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
    "detection-adjusted-bound",
]


@pytest.mark.parametrize("name", EXACT_GATES)
def test_gate_fails_on_a_perturbation_below_the_old_tolerance(monkeypatch, name):
    assert PERTURBATION < checks.IDENTITY_TOL
    assert integer_tensor(3).entries[0] == 1.0
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
