"""Tests for the self-verification suite behind ``ghzbell verify``.

Core claims covered here:
  * the brute-force maximum is computed once per N and shared by the two
    checks that need it, each N's quantum tensor is built at most once per
    run, every critical efficiency comes from one call for N = 2..12, and
    every check passes at N_max = 8,
  * the folded three-outcome check scores all 27^3 strategies at N = 3, its
    maximum is the bound, and it fails against a slightly lowered bound,
  * the factorization check's two tables reproduce ``strategy_score`` and
    ``strategy_score_factorized`` bit for bit for every sign strategy at
    N = 2, 3, and the check fails on a rotated phasor or a perturbed tensor.
"""

from itertools import product

import numpy as np
import pytest

import ghzbell.checks as checks
from ghzbell import (
    SIGN_TRIPLES,
    CorrelationTensor,
    DeterministicStrategy,
    PartyPhasor,
    build_settings,
    lhv_bound,
    quantum_tensor,
    strategy_score,
    strategy_score_factorized,
)


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


def test_quantum_tensor_built_once_per_n(monkeypatch):
    calls = []
    build = checks.quantum_tensor

    def counting(grid):
        calls.append(grid.n_parties)
        return build(grid)

    monkeypatch.setattr(checks, "quantum_tensor", counting)
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


def test_folded_check_is_exhaustive():
    q = quantum_tensor(build_settings(3))
    result = checks._check_folded_strategies(q)
    assert result.name == "folded-strategy-bound"
    assert result.passed
    assert result.detail.endswith("over all 19683 strategies")
    assert checks._folded_scores(q).size == 27 ** 3


def test_folded_maximum_equals_the_bound():
    scores = checks._folded_scores(quantum_tensor(build_settings(3)))
    assert scores.max() == pytest.approx(lhv_bound(3), abs=1e-9)


def test_folded_check_fails_against_a_lowered_bound(monkeypatch):
    real_bound = checks.lhv_bound
    monkeypatch.setattr(checks, "lhv_bound", lambda n: real_bound(n) - 1e-6)
    assert not checks._check_folded_strategies(quantum_tensor(build_settings(3))).passed


@pytest.mark.parametrize("n", [2, 3])
def test_factorization_tables_match_the_library_scores(n):
    grid = build_settings(n)
    q = quantum_tensor(grid)
    direct, phasor = checks._factorization_scores(n, q)
    assert direct.shape == phasor.shape == (8 ** n,)
    for i, assignments in enumerate(product(SIGN_TRIPLES, repeat=n)):
        strategy = DeterministicStrategy(assignments=assignments)
        assert float(direct[i]).hex() == strategy_score(strategy, q).hex()
        assert float(phasor[i]).hex() == strategy_score_factorized(strategy, grid).hex()


def _tensors():
    return {n: quantum_tensor(build_settings(n)) for n in (2, 3)}


def test_factorization_check_fails_on_a_rotated_phasor(monkeypatch):
    real = checks.party_phasor

    def rotated(triple, party, grid):
        p = real(triple, party, grid)
        if tuple(triple) == (1, 1, -1) and p.magnitude:
            return PartyPhasor(magnitude=p.magnitude, phase_class=(p.phase_class + 1) % 12)
        return p

    monkeypatch.setattr(checks, "party_phasor", rotated)
    assert not checks._check_factorization_identity(_tensors()).passed


def test_factorization_check_fails_on_a_perturbed_tensor():
    tensors = _tensors()
    entries = tensors[3].entries.copy()
    entries[13] += 1e-6
    tensors[3] = CorrelationTensor(n_parties=3, entries=entries)
    result = checks._check_factorization_identity(tensors)
    assert not result.passed
    assert "1.000e-06" in result.detail
