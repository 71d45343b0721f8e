"""End-to-end tests of the command line interface.

Nearly everything runs ``python -m ghzbell ...`` in a subprocess and checks
exit codes, JSON/CSV payloads and byte-level reproducibility; a few tests call
``main`` repeatedly in this process, where later calls reuse the parser and
the cached tensors that the first call built.
Exit conventions: 0 success, 1 failed verification, 2 usage error.
"""

import collections
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ghzbell.checks as checks
import ghzbell.cli as cli
import ghzbell.experiment as experiment
from ghzbell.cli import _json_pieces, main

CMD = [sys.executable, "-m", "ghzbell"]
SQRT3 = math.sqrt(3.0)


# sha256 of the stdout printed before the exact side was reworked, by test id.
EXACT_SIDE_DIGESTS = {
    "thresholds-csv-646": (
        "thresholds --n-max 646 --format csv",
        "0af6590be0003e3a5c7fb80ef22672f5ba9658eb090dff96eaeb880d6092e085",
    ),
    "bound-n8-json": (
        "bound --n 8",
        "602c8cbf8d4765f1a44ae3aab2638c2407fa76aa3aba9899ea07ec7cad121cc0",
    ),
    "bound-n8-human": (
        "bound --n 8 --format human",
        "7b5e5cc780230a04df2ce1c542b0a4fac5e14af006c2fc0241b82d64ccc1dd5d",
    ),
    # Re-pinned when the tensor checks became exact equalities on the integer
    # table (four residues print 0.000e+00 and the oracle line no longer says
    # "rounded to 1e-9"), and again when detection-adjusted-bound replaced the
    # eleventh check. Every other byte of these two outputs is unchanged.
    "verify-n8-json": (
        "verify --n-max 8 --format json",
        "525bd46d86afd0696367b0bf95d7569d99ee9d912beba8a2f443a36314a3b397",
    ),
    "verify-n8-human": (
        "verify --n-max 8 --format human",
        "df9d4cbb5a2712a9e80794b9642e8b21104bf7bd925150c6aadeb7e25d126af0",
    ),
    # The argmax's last party plays (+1, -1, -1): a flipped representative.
    "bound-n4-json": (
        "bound --n 4",
        "12ef20f7474fe9b561633acb9ab22a0cd8b6881a488074681862803568676b3c",
    ),
}


# ``verify --n-max 3 --inject-fault`` in human format, byte for byte.
INJECTED_FAULT_N3 = (
    "FAIL norm-identity: max |norm_sq - 3^N/2| = 1.000e-03 over N=2..10\n"
    "PASS entry-sum-identity: max |sum - (-2^N sin((N-1)pi/3))| = 0.000e+00 over N=2..10\n"
    "PASS bound-brute: max |brute max - 2^(N-1) sqrt(3)| = 0.000e+00 over N=2..3\n"
    "PASS oracle-equivalence: brute vs factorized max, N=2..3; max gap 0.000e+00\n"
    "PASS factorization-identity: max |tensor score - phasor score| = 0.000e+00, exhaustive "
    "N=2,3\n"
    "PASS phasor-onto: 8 sign triples map onto exactly the 7 documented phasor values per "
    "party type\n"
    "PASS violation-factor: max |(3^N/2)/bound - (3/2)^N/sqrt(3)| = 0.000e+00 over N=2..10\n"
    "PASS visibility-closed-form: max |v_cr(N, 1) - sqrt(3)(2/3)^N| = 1.110e-16 over "
    "N=2..20\n"
    "PASS threshold-percents: all rounded percentages match\n"
    "PASS efficiency-consistency: max |v_cr(N, eta_cr(N)) - 1| = 4.156e-12 over N=2..12; "
    "|bisection - closed form| = 4.083e-13 at N=4\n"
    "PASS detection-adjusted-bound: max |6^N - 3^N |(T,E)| - |sum T| zeros| at the top and "
    "never-click = 0.000e+00, 27^N strategies, N=2,3\n"
    "10/11 checks passed\n"
)


def _env(**extra):
    env = dict(os.environ)
    env.pop("GHZBELL_SEED", None)
    env.update(extra)
    return env


def run_cli(*args, env=None):
    return subprocess.run(
        CMD + list(args),
        capture_output=True,
        text=True,
        env=env if env is not None else _env(),
    )


def _assert_reports_size(*args, size=10460353203):
    """Run the CLI at N = 20 and expect a usage error that states ``size``.

    That is the 3 * 3^20 bytes of int8 key counts, which hold a uniform-random
    run of up to 127 trials, or 24 * 3^20 for int64 from 2^31 trials on.

    The child caps its own address space, so the 3^20-entry arrays fail to
    allocate at once instead of being reserved for real.
    """
    limit = 2 * 2 ** 30
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from ghzbell.cli import main\n"
        f"sys.exit(main({list(args)!r}))\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"),
    )
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "3^20 = 3486784401" in res.stderr
    assert f"their key counts take {size} bytes" in res.stderr


class TestBound:
    def test_json_payload(self):
        res = run_cli("bound", "--n", "2")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["n"] == 2
        assert data["method"] == "both"
        assert abs(data["bound"] - 2 * SQRT3) < 1e-12
        assert abs(data["max_s"] - data["bound"]) < 1e-9
        assert data["max_s_brute"] == data["max_s"]
        assert abs(data["max_s_factorized"] - data["max_s_brute"]) < 1e-9
        assert data["norm_sq"] == 4.5
        assert abs(data["q_entry_sum"] + 2 * SQRT3) < 1e-12
        assert data["argmax"] == [[-1, -1, -1], [-1, 1, 1]]

    def test_factorized_scales_past_brute_limit(self):
        res = run_cli("bound", "--n", "50", "--method", "factorized")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["max_s"] == data["bound"]
        assert len(data["argmax"]) == 50
        assert data["argmax"][0] == [1, 1, -1]

    def test_human_format(self):
        res = run_cli("bound", "--n", "3", "--format", "human")
        assert res.returncode == 0
        assert "bound 2^(N-1)sqrt3" in res.stdout
        assert "party 0: (-1, -1, -1)" in res.stdout

    def test_usage_errors(self):
        assert run_cli("bound", "--n", "1").returncode == 2
        assert run_cli("bound", "--n", "9").returncode == 2
        assert run_cli("bound", "--n", "9", "--method", "brute").returncode == 2
        assert run_cli("bound", "--n", "9", "--method", "factorized").returncode == 0

    @pytest.mark.parametrize("n", [647, 1023, 1024])
    def test_norm_sq_past_double_range_is_null(self, n):
        # 3^N/2 overflows from N = 647; the bound itself stays finite to 1024.
        res = run_cli("bound", "--n", str(n), "--method", "factorized")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["norm_sq"] is None
        assert data["max_s"] == data["bound"] == math.ldexp(SQRT3 / 2, n)
        human = run_cli("bound", "--n", str(n), "--method", "factorized", "--format", "human")
        assert "norm_sq (3^N/2)   : inf" in human.stdout

    def test_overflowing_bound_is_a_usage_error(self):
        res = run_cli("bound", "--n", "1025", "--method", "factorized")
        assert res.returncode == 2
        assert "--n: 1025 overflows double precision" in res.stderr
        assert "Traceback" not in res.stderr


class TestThresholds:
    def test_csv_golden_header(self):
        res = run_cli("thresholds", "--n-max", "10", "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "n,v_cr_new,v_cr_old,eta_cr"
        assert len(lines) == 10
        first = lines[1].split(",")
        assert first[0] == "2"
        assert abs(float(first[1]) - 0.7698003589195009) < 1e-12
        assert abs(float(first[2]) - 0.7071067811865476) < 1e-15
        assert abs(float(first[3]) - 0.8699290346957322) < 1e-10

    def test_human_percent_table(self):
        res = run_cli("thresholds", "--n-max", "5", "--format", "human")
        assert res.returncode == 0
        for token in ("77.0%", "51.3%", "34.2%", "22.8%", "70.7%", "35.4%", "87.0%", "74.4%"):
            assert token in res.stdout

    def test_json_rows(self):
        res = run_cli("thresholds", "--n-max", "4")
        assert res.returncode == 0
        rows = json.loads(res.stdout)
        assert [row["n"] for row in rows] == [2, 3, 4]
        assert set(rows[0]) == {"n", "v_cr_new", "v_cr_old", "eta_cr"}

    def test_usage_error(self):
        assert run_cli("thresholds", "--n-max", "1").returncode == 2

    def test_overflowing_n_max_is_a_usage_error(self):
        res = run_cli("thresholds", "--n-max", "700")
        assert res.returncode == 2
        assert "--n-max" in res.stderr
        assert "Traceback" not in res.stderr

    def test_first_overflowing_n_max_is_a_usage_error(self):
        # --n-max 646 is the last table that fits (see the csv-646 digest).
        res = run_cli("thresholds", "--n-max", "647")
        assert res.returncode == 2
        assert "--n-max: 647 overflows double precision" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("n_max", ["1000000000000", "100000000000000000000"])
    def test_huge_n_max_is_a_usage_error_before_any_row(self, n_max, capsys):
        # N = 2..n_max would take terabytes as an array, or not fit numpy at all.
        with pytest.raises(SystemExit) as info:
            main(["thresholds", "--n-max", n_max])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: --n-max: {n_max} overflows double precision" in err


class TestSimulate:
    def test_json_payload_and_violation(self):
        res = run_cli(
            "simulate", "--n", "3", "--v", "1.0", "--eta", "1.0",
            "--trials", "27000", "--seed", "1",
        )
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["config"]["n_parties"] == 3
        assert data["config"]["seed"] == 1
        assert data["violated"] is True
        assert data["lhs"] > data["rhs"]
        assert abs(data["rhs"] - 4 * SQRT3) < 1e-12
        assert data["p_all_zero"] == 0.0
        assert len(data["estimated_tensor"]["entries"]) == 27

    def test_repeat_runs_byte_identical(self):
        args = (
            "simulate", "--n", "2", "--v", "0.9", "--eta", "0.85",
            "--trials", "900", "--seed", "5",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_workers_byte_identical(self):
        base = (
            "simulate", "--n", "2", "--v", "0.95", "--eta", "0.9",
            "--trials", "135000", "--seed", "11",
        )
        one = run_cli(*base, "--workers", "1")
        eight = run_cli(*base, "--workers", "8")
        assert one.returncode == eight.returncode == 0
        assert one.stdout == eight.stdout

    def test_infinite_standard_error_is_null(self):
        # Round-robin gives each of the 3^8 combinations a single trial, whose
        # sample variance is undefined; strict JSON has no Infinity.
        res = run_cli(
            "simulate", "--n", "8", "--v", "0.5", "--eta", "1.0",
            "--trials", "6561", "--seed", "1",
        )
        assert res.returncode == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        data = json.loads(res.stdout, parse_constant=reject)
        assert data["standard_error_lhs"] is None

    def test_human_format(self):
        res = run_cli(
            "simulate", "--n", "2", "--v", "1.0", "--eta", "1.0",
            "--trials", "90", "--seed", "0", "--format", "human",
        )
        assert res.returncode == 0
        assert "violated       :" in res.stdout

    def test_env_seed_matches_explicit(self):
        base = ("simulate", "--n", "2", "--v", "0.8", "--eta", "0.9", "--trials", "900")
        via_env = run_cli(*base, env=_env(GHZBELL_SEED="12345"))
        via_flag = run_cli(*base, "--seed", "12345")
        assert via_env.stdout == via_flag.stdout
        default = run_cli(*base)
        explicit_zero = run_cli(*base, "--seed", "0")
        assert default.stdout == explicit_zero.stdout

    def test_env_seed_must_be_integer(self):
        res = run_cli(
            "simulate", "--n", "2", "--v", "1.0", "--eta", "1.0", "--trials", "9",
            env=_env(GHZBELL_SEED="not-a-number"),
        )
        assert res.returncode == 2
        assert "argument --seed: invalid int value: 'not-a-number'" in res.stderr

    def test_env_seed_out_of_range_names_the_flag(self):
        # GHZBELL_SEED is --seed's default, so the engine's check names --seed.
        res = run_cli(
            "simulate", "--n", "2", "--v", "1.0", "--eta", "1.0", "--trials", "9",
            env=_env(GHZBELL_SEED="-1"),
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert "error: --seed: seed must fit in 64 unsigned bits, got -1" in res.stderr

    def test_env_seed_is_read_on_every_in_process_call(self, monkeypatch, capsys):
        # One process and one parser: each main call reads GHZBELL_SEED afresh.
        base = ["simulate", "--n", "2", "--v", "0.8", "--eta", "0.9", "--trials", "900"]
        monkeypatch.delenv("GHZBELL_SEED", raising=False)
        seeds = {}
        for seed in ("12345", "0"):
            assert main(base + ["--seed", seed]) == 0
            seeds[seed] = capsys.readouterr().out
        assert seeds["12345"] != seeds["0"]

        monkeypatch.setenv("GHZBELL_SEED", "12345")
        assert main(base) == 0
        assert capsys.readouterr().out == seeds["12345"]

        monkeypatch.setenv("GHZBELL_SEED", "not-a-number")
        with pytest.raises(SystemExit) as info:
            main(base)
        assert info.value.code == 2
        assert "argument --seed: invalid int value: 'not-a-number'" in capsys.readouterr().err

        monkeypatch.delenv("GHZBELL_SEED")
        assert main(base) == 0
        assert capsys.readouterr().out == seeds["0"]

    def test_usage_errors(self):
        bad_v = run_cli(
            "simulate", "--n", "2", "--v", "1.5", "--eta", "1.0", "--trials", "9"
        )
        assert bad_v.returncode == 2
        bad_split = run_cli(
            "simulate", "--n", "2", "--v", "1.0", "--eta", "1.0", "--trials", "10"
        )
        assert bad_split.returncode == 2
        assert "divisible" in bad_split.stderr
        ok_random = run_cli(
            "simulate", "--n", "2", "--v", "1.0", "--eta", "1.0", "--trials", "10",
            "--policy", "uniform-random",
        )
        assert ok_random.returncode == 0

    def test_oversized_n_reports_size(self):
        _assert_reports_size(
            "simulate", "--n", "20", "--v", "0.9", "--eta", "0.9", "--trials", "10",
            "--policy", "uniform-random",
        )

    def test_oversized_n_reports_int64_size_from_2_to_the_31_trials(self):
        # The counts are allocated before any block draws, so no trial runs.
        _assert_reports_size(
            "simulate", "--n", "20", "--v", "0.9", "--eta", "0.9", "--trials", "2147483648",
            "--policy", "uniform-random", size=83682825624,
        )

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="reads /proc/self/statm")
    def test_memory_past_the_key_counts_names_the_flag(self):
        # The child caps its address space just above its own size plus the
        # 3 * 3^16 bytes of int8 key counts: they fit, and the quantum tensor
        # that the threshold table is made from does not. Nothing is touched, so nothing is resident.
        code = (
            "import os, resource, sys\n"
            "from ghzbell.cli import main\n"
            "with open('/proc/self/statm') as fh:\n"
            "    size = int(fh.read().split()[0]) * os.sysconf('SC_PAGE_SIZE')\n"
            "limit = size + 3 * 3 ** 16 + 64 * 2 ** 20\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "sys.exit(main(['simulate', '--n', '16', '--v', '0.9', '--eta', '0.9',\n"
            "               '--trials', '10', '--policy', 'uniform-random']))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"),
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert "error: --n: 16 parties need 3^16 = 43046721 setting combinations" in res.stderr
        assert "129140163 bytes" in res.stderr

    def test_n_beyond_numpy_size_limit_names_the_flag(self):
        # The 12 * 3^38 bytes of int32 key counts, from 32768 trials on, are
        # past what numpy can even size an array for.
        res = run_cli(
            "simulate", "--n", "38", "--v", "0.5", "--eta", "0.5", "--trials", "32768",
            "--policy", "uniform-random",
        )
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "--n: 38 parties need 3^38 = 1350851717672992089" in res.stderr
        assert "their key counts take 16210220612075905068 bytes" in res.stderr

    def test_n_38_with_int8_counts_names_the_flag(self):
        # The 3 * 3^38 bytes of int8 key counts are below sys.maxsize, so the
        # allocator refuses them instead.
        res = run_cli(
            "simulate", "--n", "38", "--v", "0.5", "--eta", "0.5", "--trials", "10",
            "--policy", "uniform-random",
        )
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "--n: 38 parties need 3^38 = 1350851717672992089" in res.stderr
        assert "their key counts take 4052555153018976267 bytes" in res.stderr

    @pytest.mark.parametrize("policy", ["round-robin", "uniform-random"])
    @pytest.mark.parametrize("n", ["39", "45", "10000", "100000000"])
    def test_n_past_int64_keys_names_the_flag_at_once(self, n, policy, capsys):
        # Rejected before 3^N is computed: no 3^N in the message, and no wait.
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--n", n, "--v", "0.5", "--eta", "0.5", "--trials", "10",
                  "--policy", policy])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: --n: the engine keys trials by setting combination in int64, which " \
            f"holds at most 38 parties, got {n}" in err


class TestSweep:
    def test_csv_brackets_threshold(self):
        res = run_cli(
            "sweep", "--n", "2", "--eta", "1.0", "--v-grid", "0.5,0.95",
            "--trials-per-point", "9000", "--seed", "6", "--format", "csv",
        )
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "v,lhs,rhs,violated"
        assert lines[1].startswith("0.5,")
        assert lines[1].endswith(",false")
        assert lines[2].startswith("0.95,")
        assert lines[2].endswith(",true")

    def test_json_points(self):
        res = run_cli(
            "sweep", "--n", "2", "--eta", "0.9", "--v-grid", "0.7",
            "--trials-per-point", "900", "--seed", "3",
        )
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["n_parties"] == 2
        assert data["seed"] == 3
        assert len(data["points"]) == 1
        assert set(data["points"][0]) == {"visibility", "lhs", "rhs", "violated"}

    def test_usage_errors(self):
        bad_grid = run_cli(
            "sweep", "--n", "2", "--eta", "1.0", "--v-grid", "0.5,abc",
            "--trials-per-point", "9",
        )
        assert bad_grid.returncode == 2
        empty_grid = run_cli(
            "sweep", "--n", "2", "--eta", "1.0", "--v-grid", ",",
            "--trials-per-point", "9",
        )
        assert empty_grid.returncode == 2
        out_of_range = run_cli(
            "sweep", "--n", "2", "--eta", "1.0", "--v-grid", "0.5,1.2",
            "--trials-per-point", "9",
        )
        assert out_of_range.returncode == 2

    def test_oversized_n_reports_size(self):
        _assert_reports_size(
            "sweep", "--n", "20", "--eta", "0.9", "--v-grid", "0.5",
            "--trials-per-point", "10", "--policy", "uniform-random",
        )

    def test_n_beyond_numpy_size_limit_names_the_flag(self):
        # From 32768 trials on, the counts are int32: 12 * 3^38 bytes.
        res = run_cli(
            "sweep", "--n", "38", "--eta", "0.5", "--v-grid", "0.5",
            "--trials-per-point", "32768", "--policy", "uniform-random",
        )
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "--n: 38 parties need 3^38 = 1350851717672992089" in res.stderr

    def test_negative_seed_names_the_flag(self):
        res = run_cli(
            "sweep", "--n", "2", "--eta", "1.0", "--v-grid", "0.5",
            "--trials-per-point", "9", "--seed", "-1",
        )
        assert res.returncode == 2
        assert "error: --seed: seed must fit in 64 unsigned bits, got -1" in res.stderr


class TestConfigErrorsNameTheFlag:
    @pytest.mark.parametrize(
        "args, message",
        [
            (
                "simulate --n 1 --v 1.0 --eta 1.0 --trials 9",
                "--n: need at least 2 parties, got 1",
            ),
            (
                "simulate --n 2 --v 1.5 --eta 1.0 --trials 9",
                "--v: visibility must be in [0, 1], got 1.5",
            ),
            (
                "sweep --n 2 --eta 1.5 --v-grid 0.5 --trials-per-point 9",
                "--eta: efficiency must be in [0, 1], got 1.5",
            ),
            (
                "simulate --n 2 --v 1.0 --eta 1.0 --trials 10",
                "--trials: round-robin needs trials divisible by 3^N",
            ),
            (
                "sweep --n 2 --eta 1.0 --v-grid 0.5 --trials-per-point 10",
                "--trials-per-point: round-robin needs trials divisible by 3^N",
            ),
            (
                "sweep --n 2 --eta 1.0 --v-grid 0.5,1.2 --trials-per-point 9",
                "--v-grid: visibility must be in [0, 1], got 1.2",
            ),
            # 3 * 3^37 bytes of int8 key counts are below sys.maxsize, so the allocator
            # refuses them at once with MemoryError.
            (
                "simulate --n 37 --v 0.5 --eta 0.5 --trials 10 --policy uniform-random",
                "--n: 37 parties need 3^37 = 450283905890997363 setting combinations; "
                "their key counts take 1350851717672992089 bytes",
            ),
            (
                "sweep --n 37 --eta 0.5 --v-grid 0.5 --trials-per-point 10 "
                "--policy uniform-random",
                "--n: 37 parties need 3^37 = 450283905890997363 setting combinations",
            ),
            (
                "sweep --n 10000 --eta 0.5 --v-grid 0.5 --trials-per-point 10",
                "--n: the engine keys trials by setting combination in int64, which holds "
                "at most 38 parties, got 10000",
            ),
            (
                "simulate --n 2 --v 1.0 --eta 1.0 --trials 9 --workers 0",
                "--workers: workers must be positive, got 0",
            ),
            (
                "sweep --n 2 --eta 1.0 --v-grid 0.5 --trials-per-point 9 --workers 0",
                "--workers: workers must be positive, got 0",
            ),
            (
                "simulate --n 2 --v 1.0 --eta 1.0 --trials 9 --seed -1",
                "--seed: seed must fit in 64 unsigned bits, got -1",
            ),
            (
                "sweep --n 2 --eta 1.0 --v-grid 0.5 --trials-per-point 9 "
                "--seed 18446744073709551616",
                "--seed: seed must fit in 64 unsigned bits, got 18446744073709551616",
            ),
            # The exact side's own checks, through the same table of flags.
            ("bound --n 1", "--n: need at least 2 parties, got 1"),
            ("bound --n 9", "--n: exhaustive search supports 2..8 parties, got 9"),
            ("bound --n 9 --method brute", "--n: exhaustive search supports 2..8 parties, got 9"),
            ("thresholds --n-max 1", "--n-max: need at least 2 parties, got 1"),
            ("verify --n-max 1", "--n-max: need at least 2 parties, got 1"),
            ("verify --n-max 9", "--n-max: exhaustive search supports 2..8 parties, got 9"),
            # A handler's own checks and overflow translations, through the same table.
            (
                "sweep --n 2 --eta 1.0 --v-grid , --trials-per-point 9",
                "--v-grid: need at least one visibility, got none",
            ),
            (
                "sweep --n 2 --eta 1.0 --v-grid 0.5,x --trials-per-point 9",
                "--v-grid: visibilities must be comma-separated numbers, got '0.5,x'",
            ),
            ("bound --n 1025 --method factorized", "--n: 1025 overflows double precision"),
        ],
        ids=[
            "n", "v", "eta", "trials", "trials-per-point", "v-grid",
            "simulate-n37", "sweep-n37", "sweep-n10000", "simulate-workers", "sweep-workers",
            "simulate-seed", "sweep-seed",
            "bound-n1", "bound-n9", "bound-n9-brute",
            "thresholds-n-max1", "verify-n-max1", "verify-n-max9",
            "v-grid-empty", "v-grid-not-numbers", "bound-n1025",
        ],
    )
    def test_message_leads_with_the_flag(self, args, message):
        res = run_cli(*args.split())
        assert res.returncode == 2
        assert res.stdout == ""
        # Reported by the subcommand's own parser, under its own usage line.
        command = args.split()[0]
        assert res.stderr.startswith(f"usage: ghzbell {command} ")
        assert f"ghzbell {command}: error: {message}" in res.stderr
        assert "Traceback" not in res.stderr


class TestSettingPolicyErrorNamesTheFlag:
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_a_policy_the_engine_rejects_is_a_usage_error(self, command, monkeypatch, capsys):
        # argparse's choices let no unknown policy through, so the engine is made to refuse one.
        monkeypatch.setattr(experiment, "SETTING_POLICIES", (experiment.UNIFORM_RANDOM,))
        args = {
            "simulate": "simulate --n 2 --v 1.0 --eta 1.0 --trials 9",
            "sweep": "sweep --n 2 --eta 1.0 --v-grid 0.5 --trials-per-point 9",
        }[command]
        with pytest.raises(SystemExit) as info:
            main([*args.split(), "--policy", "round-robin"])
        assert info.value.code == 2
        assert (
            f"ghzbell {command}: error: --policy: setting policy must be one of "
            "('uniform-random',), got 'round-robin'"
        ) in capsys.readouterr().err


class TestVerify:
    def test_all_checks_pass(self):
        res = run_cli("verify", "--n-max", "4")
        assert res.returncode == 0
        assert "FAIL" not in res.stdout
        lines = res.stdout.strip().splitlines()
        assert lines[-1].endswith("checks passed")
        passed, total = lines[-1].split()[0].split("/")
        assert passed == total

    def test_json_format(self):
        res = run_cli("verify", "--n-max", "4", "--format", "json")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["failed"] == 0
        assert data["passed"] == len(data["checks"])
        assert all(c["passed"] for c in data["checks"])

    def test_injected_fault_fails(self):
        res = run_cli("verify", "--n-max", "4", "--inject-fault")
        assert res.returncode == 1
        assert "FAIL norm-identity" in res.stdout

    def test_injected_fault_human_stdout_is_pinned(self):
        # The 1e-3 offset moves only the norm residue; every other line is the clean run's.
        res = run_cli("verify", "--n-max", "3", "--inject-fault")
        assert res.returncode == 1
        assert res.stdout == INJECTED_FAULT_N3

    def test_a_check_whose_input_moves_fails_verify(self, monkeypatch, capsys):
        # The library's way to inject a fault: move the one input a check reads.
        real = checks.violation_factor
        monkeypatch.setattr(checks, "violation_factor", lambda n: real(n) * (1 + 1e-11))
        assert main(["verify", "--n-max", "3"]) == 1
        out = capsys.readouterr().out
        assert re.findall(r"^FAIL [^:]*", out, flags=re.M) == ["FAIL violation-factor"]
        assert out.endswith("\n10/11 checks passed\n")

    def test_usage_error(self):
        assert run_cli("verify", "--n-max", "9").returncode == 2
        assert run_cli("verify", "--n-max", "1").returncode == 2


class TestTopLevel:
    def test_missing_subcommand(self):
        assert run_cli().returncode == 2

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    def test_a_plain_value_error_is_not_a_usage_error(self, monkeypatch):
        # main turns only a _FieldError into exit 2; any other ValueError is a
        # bug and keeps its traceback.
        def broken(**kwargs):
            raise ValueError("not an input check")

        monkeypatch.setattr(cli, "run_checks", broken)
        with pytest.raises(ValueError, match="not an input check"):
            main(["verify"])


class TestJsonRendering:
    @pytest.mark.parametrize(
        "args",
        [
            "bound --n 4",
            "thresholds --n-max 6",
            "simulate --n 3 --v 0.9 --eta 0.95 --trials 2700 --seed 2",
            "simulate --n 8 --v 0.5 --eta 1.0 --trials 6561 --seed 1",
            "sweep --n 3 --eta 0.9 --v-grid 0.4,0.9 --trials-per-point 270",
            "verify --n-max 3 --format json",
        ],
        ids=["bound", "thresholds", "simulate-n3", "simulate-n8-null-se", "sweep", "verify"],
    )
    def test_stdout_is_indented_json(self, args):
        res = run_cli(*args.split())
        assert res.returncode == 0
        assert res.stdout == json.dumps(json.loads(res.stdout), indent=2) + "\n"

    def test_simulate_golden_digest(self):
        # sha256 of this stdout as printed by json.dumps(..., indent=2).
        res = run_cli(
            "simulate", "--n", "8", "--v", "0.6", "--eta", "0.98",
            "--trials", "13122", "--seed", "1",
        )
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
            "4c8819a001f9168dfd1c415a7a1e02ee7578c15246586f5cf903ac9efed722a9"
        )

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                "simulate --n 11 --v 0.7 --eta 0.9 --trials 354294 --seed 3"
                " --policy uniform-random",
                "f116d2bf48298b782a9a8393564acf9ce4b36d2daada6aca1437d94c4b5a6705",
            ),
            (
                "simulate --n 12 --v 0.6 --eta 0.98 --trials 1062882 --seed 7",
                "b00bf2781e74a6ae4c8ce341a62b6fbfadb118239cb60ff3e4787e1606b0d9f1",
            ),
        ],
        ids=["simulate-n11-uniform-random", "simulate-n12-round-robin"],
    )
    def test_multi_block_simulate_golden_digest(self, args, digest):
        # 3^N exceeds one 65536-trial block here, so no block holds every
        # combination. sha256 of the stdout printed when every block was
        # tallied on its own.
        res = run_cli(*args.split())
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "args, digest", list(EXACT_SIDE_DIGESTS.values()), ids=list(EXACT_SIDE_DIGESTS)
    )
    def test_exact_side_golden_digest(self, args, digest):
        res = run_cli(*args.split())
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", ["verify-n8-json", "thresholds-csv-646", "bound-n8-json"])
    def test_repeat_in_process_matches_golden_digest(self, name, capsys):
        # The second call reads every tensor from the cache the first one filled.
        args, digest = EXACT_SIDE_DIGESTS[name]
        for _ in range(2):
            assert main(args.split()) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_interleaved_in_process_calls_share_one_parser(self, capsys):
        # The benchmark's order, then other formats and methods: no --format,
        # --method or --n-max value leaks from one call into the next.
        names = [
            "verify-n8-json", "thresholds-csv-646", "bound-n8-json",
            "verify-n8-human", "bound-n8-human", "bound-n4-json",
        ]
        cli._build_parser.cache_clear()
        for name in names:
            args, digest = EXACT_SIDE_DIGESTS[name]
            assert main(args.split()) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest, name
        assert cli._build_parser.cache_info().misses == 1

    @pytest.mark.parametrize(
        "args, digest",
        [
            (
                "thresholds --n-max 12",
                "12d3652fd2b96377b61d12931fb88da4b298843c50e3b91baa47e63c8e1949b3",
            ),
            (
                "thresholds --n-max 40 --format human",
                "da46800375cd6d9e6c8f8861bda0bc989456debd77811e99fbc129f1d2c18175",
            ),
            (
                "sweep --n 3 --eta 0.9 --v-grid 0.4,0.9 --trials-per-point 270",
                "746aa36e34046d3e4a5d4264c5645c646d56a196d22d59d224f0a899dc24bb15",
            ),
            (
                "sweep --n 2 --eta 0.8 --v-grid 0.5,0.95 --trials-per-point 900 --format human",
                "504af17f3653da4f6ac807916a08d0325515f6fb302a485cb0ad40dabefa60fa",
            ),
            (
                "bound --n 5 --method factorized",
                "c25cdad707ec95ebc886e4af3a21daa6b45562300eb56815055d6a77fc1b256d",
            ),
            (
                "bound --n 5 --method brute",
                "d16670ca5dafb0b734dcfc95660ded3d39db53eff0a4731f2606b7ead671ff75",
            ),
            # Re-pinned when detection-adjusted-bound replaced the eleventh check.
            (
                "verify --n-max 3 --format json --inject-fault",
                "60ce09a1644d508a51a6ef866f41adf795e8e6b3909d5d768ff3344705fb4587",
            ),
            (
                "sweep --n 3 --eta 0.9 --v-grid 0.4,0.9 --trials-per-point 270 --format csv",
                "08d6872a25ecd69582e4946f0ee1560b4c40a0bcd554db186be76cc93ac4f0ee",
            ),
        ],
        ids=[
            "thresholds-n12-json",
            "thresholds-n40-human",
            "sweep-n3-json",
            "sweep-n2-human",
            "bound-n5-factorized-json",
            "bound-n5-brute-json",
            "verify-n3-fault-json",
            "sweep-n3-csv",
        ],
    )
    def test_row_and_point_golden_digest(self, args, digest):
        # sha256 of the stdout printed while every to_dict listed its keys by
        # hand; pins the key order that the dataclass-derived dicts must keep.
        # The later rows pin the argmax and check lists that json.dumps renders.
        res = run_cli(*args.split())
        assert res.returncode == (1 if "--inject-fault" in args else 0)
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            {"a": [], "b": {}, "c": [[]]},
            [1, [2.5, {}], {"k": [None, True, "\u00e9\n"]}],
            {"x": float("nan"), "y": [float("inf"), -0.0, 1e300, -1]},
            (1, 2.5),
            ["a[b", "{", 3],
            "scalar",
            [0.5],
            [-0.0, 0.0, -0.0, 0.0],
            [float("nan"), float("inf"), -float("inf"), -float("nan"), float("nan")],
            [5e-324, 1e300, -5e-324, 5e-324, 1e300, 0.1, 1.0, -1.0],
            {"entries": [0.25, -0.25, 0.25, 0.0, -0.0], "n": 2},
            [[1.5, 1.5], [2.0], [-0.0, float("nan")]],
            [1.0, 1, True],
        ],
    )
    def test_renderer_matches_json_dumps(self, value):
        assert "".join(_json_pieces(value)) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "entries",
        [
            [],
            [0.5],
            [-0.0, 0.0, -0.0, 0.0],
            [float("nan"), float("inf"), -float("inf"), -float("nan"), float("nan")],
            [5e-324, 1e300, -5e-324, 5e-324, 1e300, 0.1, 1.0, -1.0],
            [0.25, -0.25, 0.25, 0.0, -0.0] * 3,
        ],
        ids=["empty", "one", "signed-zeros", "nan-inf", "extremes", "repeats"],
    )
    def test_renderer_prints_a_float_array_as_its_list(self, entries):
        array = np.array(entries, dtype=np.float64)
        value = {"n": 2, "tensor": {"n_parties": 2, "entries": array}, "after": [1.5]}
        expected = {"n": 2, "tensor": {"n_parties": 2, "entries": entries}, "after": [1.5]}
        assert "".join(_json_pieces(value)) == json.dumps(expected, indent=2)
        assert "".join(_json_pieces(array)) == json.dumps(entries, indent=2)

    @pytest.mark.parametrize("size", [65535, 65536, 65537, 131073])
    def test_renderer_joins_pieces_across_their_boundaries(self, size):
        # Arrays are rendered 65 536 entries at a time; put signed zeros,
        # nan and inf on both sides of every piece boundary and at the end.
        array = np.arange(size) / 7.0
        for edge in list(range(65536, size, 65536)) + [size]:
            array[edge - 4:edge] = [-0.0, 0.0, np.nan, np.inf]
            array[edge:edge + 4] = [np.inf, np.nan, 0.0, -0.0][:size - edge]
        entries = array.tolist()
        assert "".join(_json_pieces(array)) == json.dumps(entries, indent=2)
        wrapped = "".join(_json_pieces({"entries": array, "n": 12}))
        assert wrapped == json.dumps({"entries": entries, "n": 12}, indent=2)

    def test_renderer_peak_memory(self):
        # The 3^12 entries once rendered as one joined piece, with a
        # 20.8 MiB peak; 65 536-entry pieces keep it near 3 MiB.
        array = np.random.default_rng(0).choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], 3 ** 12)
        tracemalloc.start()
        try:
            collections.deque(_json_pieces({"entries": array}), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
