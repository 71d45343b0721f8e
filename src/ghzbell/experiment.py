"""Monte Carlo simulation of the N-party test with imperfect visibility and detectors.

Model. Each trial fixes one setting (phase) per party. Detection comes first:
every station independently registers with probability eta. If all N register,
the joint sign pattern r in {-1,+1}^N is drawn from the visibility-V law

    P(r) = 2^-N (1 + V prod(r) cos(phi_1 + ... + phi_N))

at the chosen phases. If at least one station fails to register, every
registered station outputs an independent fair sign; non-registrations are
recorded as outcome 0.

Why independent fair signs are the consistent completion: summing P(r) over
the two signs of any one party cancels the two interference terms
+-V prod(r') cos(...) exactly, leaving the uniform law 2^-(N-1) on the other
parties, independent of every phase and of V. Iterating, any strict subset of
stations sees exactly independent fair signs under the ideal law. A lost
detection carries no sign information, so the registered subset keeps that
uniform marginal; drawing registered stations as independent fair signs
realizes precisely this symmetry property, and it is the property under which
the detection-adjusted comparison implemented here is valid.

Estimators. The per-setting mean of the full outcome product (any 0
annihilates the product) estimates eta^N V cos(sum of phases); the frequency
of all-zero trials estimates (1-eta)^N. The statistic lhs = |(Q, E_est)| is
compared against rhs = 2^(N-1) sqrt(3) - p_all_zero |q_N|, with |q_N| the
magnitude of the quantum tensor entry sum. The auxiliary estimator instead
folds every 0 into -1 before taking products, which shifts each expected
entry by exactly (-1)^N (1-eta)^N.

Determinism. Trials are split into fixed blocks of 65536. Block b draws all
its randomness from child b of the experiment seed's SeedSequence and reduces
to integer-valued sufficient statistics, so results are bit-identical for any
worker count and any grouping of blocks; worker threads only pick up blocks.
Each trial reduces to one signed key: 2 combo + 1 for outcome product +1,
2 combo for -1 and 2 * 3^N for 0, so a tally is two unweighted bincounts,
of the combos and of the keys. run_experiment tallies blocks together once
they hold 3^N trials, so its dense per-combination passes number
O(trials / 3^N + 1). The fair signs are a block's last draw and the
statistics do not depend on them, so run_experiment takes the keys straight
from the detection and parity draws and still matches summarize_batch on the
trials generate_trials draws.
"""

from __future__ import annotations

import functools
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .lhv import lhv_bound
from .quantum import CorrelationTensor, build_settings, entry_sum_closed_form, quantum_tensor

ROUND_ROBIN = "round-robin"
UNIFORM_RANDOM = "uniform-random"
SETTING_POLICIES = (ROUND_ROBIN, UNIFORM_RANDOM)

BLOCK_TRIALS = 65536
MAX_SEED = 2 ** 64 - 1


class _FieldError(ValueError):
    """A rejected per-run ExperimentConfig value; ``field`` names its field."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated experiment."""

    n_parties: int
    visibility: float
    efficiency: float
    trials: int
    seed: int
    setting_policy: str = ROUND_ROBIN

    def __post_init__(self) -> None:
        if self.n_parties < 2:
            raise _FieldError("n_parties", f"need at least 2 parties, got {self.n_parties}")
        if not 0.0 <= self.visibility <= 1.0:
            raise _FieldError("visibility", f"visibility must be in [0, 1], got {self.visibility}")
        if not 0.0 <= self.efficiency <= 1.0:
            raise _FieldError("efficiency", f"efficiency must be in [0, 1], got {self.efficiency}")
        if self.trials < 1:
            raise _FieldError("trials", f"trials must be positive, got {self.trials}")
        _check_seed(self.seed)
        if self.setting_policy not in SETTING_POLICIES:
            raise ValueError(
                f"setting policy must be one of {SETTING_POLICIES}, got {self.setting_policy!r}"
            )
        if self.setting_policy == ROUND_ROBIN and self.trials % 3 ** self.n_parties != 0:
            raise _FieldError(
                "trials",
                "round-robin needs trials divisible by 3^N for exactly equal "
                f"per-combination counts: {self.trials} % {3 ** self.n_parties} != 0"
            )

    @property
    def n_combos(self) -> int:
        return 3 ** self.n_parties

    def to_dict(self) -> dict:
        return asdict(self)


# Trials-file cells: "%d" of an int8 value and the separator after it, zero-
# padded to 8 bytes as one uint64. Cell 256 * k + u holds the value whose uint8
# view is u, followed by separator k: " ", " | " or "\n".
_CELLS = np.array(
    ["%d%s" % (v, sep) for sep in (" ", " | ", "\n") for v in [*range(128), *range(-128, 0)]],
    dtype="S8",
).view(np.uint64)


@dataclass
class TrialBatch:
    """Column-oriented batch of trials.

    ``settings`` is (trials, N) with 1-based setting indices; ``outcomes`` is
    (trials, N) with values in {-1, 0, +1}. Persists as newline-delimited
    ``s_1 ... s_N | m_1 ... m_N`` records: ``save`` writes each value's cell of
    ``_CELLS``, and ``load`` reads values as ``_parse_records`` describes.
    """

    settings: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        # Checked before the int8 cast, which would wrap 257 to 1.
        settings, outcomes = np.asarray(self.settings), np.asarray(self.outcomes)
        if settings.ndim != 2 or settings.shape != outcomes.shape:
            raise ValueError("settings and outcomes must be equal-shaped 2-D arrays")
        if settings.size and not np.isin(settings, (1, 2, 3)).all():
            raise ValueError("setting indices must be in 1..3")
        if outcomes.size and not np.isin(outcomes, (-1, 0, 1)).all():
            raise ValueError("outcomes must be in {-1, 0, +1}")
        self.settings = settings.astype(np.int8, copy=False)
        self.outcomes = outcomes.astype(np.int8, copy=False)

    def __len__(self) -> int:
        return self.settings.shape[0]

    @property
    def n_parties(self) -> int:
        return self.settings.shape[1]

    def save(self, path) -> None:
        n = self.n_parties
        text = " | \n" * len(self)
        if n:
            separators = 256 * np.array([0] * (n - 1) + [1] + [0] * (n - 1) + [2])
            values = np.hstack([self.settings, self.outcomes]).view(np.uint8)
            text = _CELLS[values + separators].tobytes().translate(None, b"\0").decode("ascii")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path) -> "TrialBatch":
        try:
            with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
                values = _parse_records(fh.read())
            if not len(values):
                raise ValueError(f"{path}: no trial records")
            return cls(*map(np.ascontiguousarray, np.split(values, 2, axis=1)))
        except ValueError:
            _raise_first_bad_record(path)
            raise


# Trials-file bytes by role: "d" digit, "s" sign, " " blank within a line
# (what str.split() splits on), "\n" and "|" themselves, "x" anything else.
_BYTE_ROLE = np.full(256, ord("x"), dtype=np.uint8)
_BYTE_ROLE[[9, 11, 12, 13, 28, 29, 30, 31, 32]] = ord(" ")
_BYTE_ROLE[[ord("\n"), ord("|")]] = [ord("\n"), ord("|")]
_BYTE_ROLE[[ord("+"), ord("-")]] = ord("s")
_BYTE_ROLE[ord("0") : ord("9") + 1] = ord("d")

# "0".."9" read 0..9; "p".."y", the same digits moved up by 64 after a "-", read 0..-9.
_DIGITS = bytes.maketrans(b"0123456789pqrstuvwxy", bytes(np.r_[0:10, 0:-10:-1].astype(np.int8)))
# The sign and first four significant digits of a longer token saturate to the
# same int8 as the token, with no digit string too long for int().
_TOKEN_HEAD = re.compile(rb"([+-]?)0*([0-9]{1,4})")


def _saturated(data: bytes, at: int = 0) -> int:
    """The int8-saturated value of the token that starts at ``data[at]``."""
    sign, digits = _TOKEN_HEAD.match(data, at).groups()
    return min(max(int(sign + digits), -128), 127)


def _parse_records(text: str) -> np.ndarray:
    """The (records, 2N) int8 values of a trials file's text, blank lines skipped.

    Each non-blank line must be N tokens ``[+-]?[0-9]+``, one ``|`` and N more,
    with the same N on every line. The check runs on the whole text at once: it
    reduces the text to one event per token start, bar and line end and
    compares that with the event string of a well-formed file, in uint8 and bool
    arrays only. A token's value is its last digit, negated after a ``-``; only
    longer tokens, which ``save`` never writes, go through ``int``, saturated to
    int8: ``"0001"`` reads as 1, ``"257"`` as 127, which the constructor rejects.
    """
    data = text.encode("ascii", "surrogateescape")
    roles = data.translate(_BYTE_ROLE)
    raw, role = np.frombuffer(data, dtype=np.uint8), np.frombuffer(roles, dtype=np.uint8)
    digit, sign = role == ord("d"), role == ord("s")
    token = digit | sign
    start = token & ~np.concatenate(([False], token[:-1]))
    digit_next = np.concatenate((digit[1:], [False]))
    if b"x" in roles or (sign & ~(start & digit_next)).any():
        raise ValueError("malformed trials file")
    # Token starts are "d" or "s" bytes, both below "t"; dropping the other
    # token bytes and the blanks leaves one event per start, bar and line end.
    events = np.maximum(role, start * np.uint8(ord("t"))).tobytes().translate(None, b"ds ")
    while b"\n\n" in events:  # blank lines
        events = events.replace(b"\n\n", b"\n")
    events = events.strip(b"\n")
    records, width = events.count(b"|"), max(events.find(b"|"), 0)
    if events != ((b"t" * width + b"|" + b"t" * width + b"\n") * records)[:-1]:
        raise ValueError("malformed trials file")
    end = digit & ~digit_next
    minus = np.concatenate(([False], raw[:-1] == ord("-")))
    last = (raw + np.uint8(64) * minus) * end  # 0 except at each token's last digit
    values = np.frombuffer(bytearray(last).translate(_DIGITS, b"\0"), dtype=np.int8)
    if (digit[1:] & digit[:-1]).any():
        longer = np.flatnonzero(np.concatenate(([False], digit[:-1]))[end])
        values[longer] = [_saturated(data, at) for at in np.flatnonzero(start)[longer]]
    return values.reshape(records, 2 * width)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _raise_first_bad_record(path) -> None:
    """Raise a ValueError naming the first malformed record of a trials file.

    Called only after a load has failed, so ``TrialBatch.load`` can check the
    whole file at once and leave line numbers to this scan. It accepts what
    ``_parse_records`` accepts, reading tokens through the same ``_saturated``,
    and returns if every record is well formed.
    """
    width = None
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            left, sep, right = line.partition("|")
            if not sep:
                raise ValueError(f"{where}: missing '|' separator") from None
            s_row, m_row = left.split(), right.split()
            if not all(_INTEGER.fullmatch(tok) for tok in s_row + m_row):
                raise ValueError(f"{where}: non-integer token in {line.strip()!r}") from None
            s_row, m_row = ([_saturated(tok.encode()) for tok in row] for row in (s_row, m_row))
            if width is None:
                width = len(s_row)
            if len(s_row) != width or len(m_row) != width:
                raise ValueError(
                    f"{where}: expected {width} settings and {width} outcomes, "
                    f"got {len(s_row)} and {len(m_row)}"
                ) from None
            if any(s not in (1, 2, 3) for s in s_row) or any(m not in (-1, 0, 1) for m in m_row):
                raise ValueError(
                    f"{where}: settings must be in 1..3 and outcomes in {{-1, 0, +1}}"
                ) from None


@dataclass(frozen=True)
class ExperimentSummary:
    """Result of one simulated experiment.

    ``lhs = |(Q, E_est)|`` is the absolute value of a noisy sum, so it is
    biased upward where ``(Q, E)`` is near zero: at ``(Q, E) = 0`` its mean is
    about 0.8 ``standard_error_lhs`` (sqrt(2/pi) for a normal sum), and the
    bias fades once ``|(Q, E)|`` is a few standard errors. ``violated`` is
    ``lhs > rhs`` on the estimate as it stands.
    """

    estimated_tensor: CorrelationTensor
    p_all_zero: float
    lhs: float
    rhs: float
    violated: bool
    standard_error_lhs: float

    def _json_fields(self) -> dict:
        """``to_dict`` with the estimated entries left as their float64 array."""
        se, tensor = self.standard_error_lhs, self.estimated_tensor
        return {
            "p_all_zero": self.p_all_zero,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "violated": self.violated,
            "standard_error_lhs": se if math.isfinite(se) else None,
            "estimated_tensor": {"n_parties": tensor.n_parties, "entries": tensor.entries},
        }

    def to_dict(self) -> dict:
        """JSON-ready fields; an infinite standard error becomes None (null)."""
        return {**self._json_fields(), "estimated_tensor": self.estimated_tensor.to_dict()}


@dataclass(frozen=True)
class SweepPoint:
    """One visibility sweep sample."""

    visibility: float
    lhs: float
    rhs: float
    violated: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _n_blocks(trials: int) -> int:
    return (trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS


def _place_values(n_parties: int) -> np.ndarray:
    """Base-3 weight of each party's setting in a combo index, party 0 slowest."""
    return 3 ** (n_parties - 1 - np.arange(n_parties, dtype=np.int64))


def _combo_index(settings: np.ndarray) -> np.ndarray:
    """Combo index of each 1-based settings row in CorrelationTensor order, by Horner's rule."""
    idx = np.zeros(settings.shape[0], dtype=np.int64)
    for k in range(settings.shape[1]):
        idx *= 3
        idx += settings[:, k]
        idx -= 1
    return idx


def _draw(config: ExperimentConfig, combos: np.ndarray, rng: np.random.Generator):
    """Detection and outcome-product draws of one trial per entry of ``combos``.

    Draws detection uniforms, then one parity uniform per trial. Returns the
    (trials, N) detection mask, the all-detected mask and each trial's signed
    key. In an all-detected trial the key is 2 combo + 1 for target parity +1,
    drawn with probability (1 + V q)/2 for q the quantum tensor entry, and
    2 combo for parity -1; the outcome product is that parity. Every other
    trial has product 0 and the key 2 * 3^N.
    """
    n, m = config.n_parties, config.n_combos
    # Column-major, so the reductions over the N stations run along contiguous
    # columns instead of over short rows.
    detected = np.asfortranarray(rng.random((combos.size, n)) < config.efficiency)
    parity_u = rng.random(combos.size)
    all_det = detected.all(axis=1)
    plus = parity_u < (1.0 + config.visibility * build_q_cached(n).entries[combos]) / 2.0
    key = np.where(all_det, 2 * combos + plus, 2 * m)
    return detected, all_det, key


def _sample(config: ExperimentConfig, combos: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Outcomes of one trial per entry of ``combos``, drawn from ``rng``.

    After the draws of ``_draw`` come one fair-sign uniform per station, last.
    Every registered station takes a fair sign. In an all-detected trial the
    last sign is then flipped when the product misses the target parity, the
    low bit of the key. The product is all the law depends on, so this gives
    exactly P(r) = 2^-N (1 + V prod(r) q).
    """
    detected, all_det, key = _draw(config, combos, rng)
    outcomes = np.where(rng.random(detected.shape) < 0.5, -1, 1).astype(np.int8)
    signs = np.asfortranarray(outcomes[all_det]).prod(axis=1)
    outcomes[all_det, -1] *= (2 * (key[all_det] & 1) - 1) * signs
    outcomes *= detected
    return outcomes


def _block_combos(
    config: ExperimentConfig, block: int, seed_seq: np.random.SeedSequence
) -> tuple[np.ndarray, np.random.Generator]:
    """Combo index of each trial of one block, and the block's generator.

    The setting combos are drawn first (uniform-random policy only); the
    trial draws follow from the returned generator.
    """
    start = block * BLOCK_TRIALS
    size = min(BLOCK_TRIALS, config.trials - start)
    rng = np.random.default_rng(seed_seq)
    if config.setting_policy == UNIFORM_RANDOM:
        combos = rng.integers(0, config.n_combos, size=size, dtype=np.int64)
    else:
        combos = (start + np.arange(size, dtype=np.int64)) % config.n_combos
    return combos, rng


def _map_blocks(config: ExperimentConfig, func, workers: int):
    """Iterator over ``func(block, seed_seq)`` for every block, in block order.

    Results arrive one at a time, so a caller that folds them in keeps only
    a few blocks' results alive at once. ``workers`` is checked when
    iteration starts.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    blocks = _n_blocks(config.trials)
    children = np.random.SeedSequence(config.seed).spawn(blocks)
    if workers == 1 or blocks == 1:
        yield from map(func, range(blocks), children)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(func, range(blocks), children)


def generate_trials(config: ExperimentConfig, workers: int = 1) -> TrialBatch:
    """Sample every trial of the experiment as an explicit batch."""

    def work(block, seq):
        combos, rng = _block_combos(config, block, seq)
        return combos, _sample(config, combos, rng)

    parts = list(_map_blocks(config, work, workers))
    combos = np.concatenate([p[0] for p in parts])
    outcomes = np.concatenate([p[1] for p in parts])
    place = _place_values(config.n_parties)
    settings = ((combos[:, None] // place) % 3 + 1).astype(np.int8)
    return TrialBatch(settings=settings, outcomes=outcomes)


def _tally(combos: np.ndarray, key: np.ndarray, n_combos: int):
    """Per-combination trial counts, product sums and nonzero-product counts.

    ``key`` is each trial's signed key (see ``_draw``): 2 combo + 1 for
    product +1, 2 combo for -1, and 2 * ``n_combos`` for product 0. Two
    unweighted bincounts give every statistic; the sums are exact in float64.
    """
    counts = np.bincount(combos, minlength=n_combos)
    signs = np.bincount(key, minlength=2 * n_combos + 1)[:-1].reshape(n_combos, 2)
    minus, plus = signs[:, 0], signs[:, 1]
    return counts, (plus - minus).astype(np.float64), plus + minus


def _stats(combos: np.ndarray, outcomes: np.ndarray, n_combos: int):
    """Integer sufficient statistics of a set of explicit trials, all-zero count last."""
    cols = np.asfortranarray(outcomes)
    prods = cols.prod(axis=1, dtype=np.int64)
    key = np.where(prods != 0, 2 * combos + (prods > 0), 2 * n_combos)
    return (*_tally(combos, key, n_combos), int((~cols.any(axis=1)).sum()))


def _summary_from_stats(
    config: ExperimentConfig,
    counts: np.ndarray,
    sum_prod: np.ndarray,
    nonzero: np.ndarray,
    all_zero: int,
) -> ExperimentSummary:
    n = config.n_parties
    # Sample variance (ddof=1) of the product per combination; (prod)^2 is the
    # nonzero indicator, so sum of squares == nonzero count. Entries with no
    # trials have no estimate and those with fewer than 2 no variance; they
    # are set to 0 after the divides.
    with np.errstate(divide="ignore", invalid="ignore"):
        est = sum_prod / counts
        se_sq = sum_prod ** 2
        se_sq /= counts
        np.subtract(nonzero, se_sq, out=se_sq)
        se_sq /= counts - 1
        np.clip(se_sq, 0.0, None, out=se_sq)
        se_sq /= counts
    enough = counts >= 2
    est[counts == 0] = 0.0
    se_sq[~enough] = 0.0

    q = build_q_cached(n)
    lhs = abs(float(np.dot(q.entries, est)))
    # The standard error is infinite exactly when a weighted entry has no
    # variance; zero-weight entries contribute nothing either way.
    weights = q.entries ** 2
    if (weights[~enough] > 0.0).any():
        se_lhs = math.inf
    else:
        se_lhs = float(np.sqrt(np.sum(weights * se_sq)))

    p_all_zero = all_zero / config.trials
    rhs = lhv_bound(n) - p_all_zero * abs(entry_sum_closed_form(n))
    return ExperimentSummary(
        estimated_tensor=CorrelationTensor(n_parties=n, entries=est),
        p_all_zero=p_all_zero,
        lhs=lhs,
        rhs=rhs,
        violated=bool(lhs > rhs),
        standard_error_lhs=se_lhs,
    )


@functools.cache
def build_q_cached(n_parties: int) -> CorrelationTensor:
    """Quantum tensor, cached per party count (it is immutable)."""
    return quantum_tensor(build_settings(n_parties))


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentSummary:
    """Simulate the whole experiment and reduce it to an ExperimentSummary.

    Statistics are merged from fixed per-seed trial blocks, so the summary is
    bit-identical for any ``workers`` value. A block keeps only its combos,
    the signed keys of ``_draw`` and its none-detected count. Finished blocks
    are held until they hold 3^N trials, then tallied in one ``_tally`` pass;
    the rest at the end. Up to N = 10 a full block holds at least 3^N trials
    and is tallied alone; beyond, this saves a dense 3^N pass per block.
    """
    m = config.n_combos

    def work(block, seq):
        combos, rng = _block_combos(config, block, seq)
        detected, _, key = _draw(config, combos, rng)
        return combos, key, combos.size - int(detected.any(axis=1).sum())

    counts = np.zeros(m, dtype=np.int64)
    sum_prod = np.zeros(m, dtype=np.float64)
    nonzero = np.zeros(m, dtype=np.int64)
    all_zero = 0
    held, blocks_left = [], _n_blocks(config.trials)
    for *arrays, none_count in _map_blocks(config, work, workers):
        held.append(arrays)
        all_zero += none_count
        blocks_left -= 1
        del arrays  # so a tallied block is freed before the next block draws
        if sum(part[0].size for part in held) < m and blocks_left:
            continue
        arrays = held[0] if len(held) == 1 else [np.concatenate(col) for col in zip(*held)]
        held = []
        for total, part in zip((counts, sum_prod, nonzero), _tally(*arrays, m)):
            total += part
        del arrays, part
    return _summary_from_stats(config, counts, sum_prod, nonzero, all_zero)


def summarize_batch(batch: TrialBatch, config: ExperimentConfig) -> ExperimentSummary:
    """Summary of an explicit trial batch (e.g. one loaded from disk)."""
    if batch.n_parties != config.n_parties:
        raise ValueError(
            f"batch has {batch.n_parties} parties but config has {config.n_parties}"
        )
    if len(batch) != config.trials:
        raise ValueError(f"batch has {len(batch)} trials but config says {config.trials}")
    counts, sum_prod, nonzero, all_zero = _stats(
        _combo_index(batch.settings), batch.outcomes, config.n_combos
    )
    return _summary_from_stats(config, counts, sum_prod, nonzero, all_zero)


def auxiliary_tensor(batch: TrialBatch, config: ExperimentConfig) -> CorrelationTensor:
    """Estimator with non-detections folded to -1 before taking products.

    Entrywise, its expectation exceeds the plain estimator's by
    (-1)^N (1-eta)^N.
    """
    if batch.n_parties != config.n_parties:
        raise ValueError(
            f"batch has {batch.n_parties} parties but config has {config.n_parties}"
        )
    folded = np.where(batch.outcomes == 0, -1, batch.outcomes)
    m = config.n_combos
    counts, sums, _, _ = _stats(_combo_index(batch.settings), folded, m)
    est = np.divide(sums, counts, out=np.zeros(m), where=counts > 0)
    return CorrelationTensor(n_parties=config.n_parties, entries=est)


def visibility_sweep(
    n_parties: int,
    eta: float,
    v_grid,
    trials_per_point: int,
    seed: int,
    setting_policy: str = ROUND_ROBIN,
    workers: int = 1,
) -> list[SweepPoint]:
    """Run one experiment per visibility value and collect the verdicts.

    Each point derives an independent child seed from (seed, point index), so
    the whole sweep is reproducible from ``seed`` alone. Every grid value is
    checked before the first experiment runs.
    """
    _check_seed(seed)
    grid = [float(v) for v in v_grid]
    for v in grid:
        if not 0.0 <= v <= 1.0:
            raise _FieldError("visibility", f"visibility grid values must be in [0, 1], got {v}")
    points = []
    for i, v in enumerate(grid):
        child = int(np.random.SeedSequence(entropy=[int(seed), i]).generate_state(1, np.uint64)[0])
        config = ExperimentConfig(
            n_parties=n_parties,
            visibility=v,
            efficiency=eta,
            trials=trials_per_point,
            seed=child,
            setting_policy=setting_policy,
        )
        summary = run_experiment(config, workers=workers)
        points.append(
            SweepPoint(visibility=v, lhs=summary.lhs, rhs=summary.rhs, violated=summary.violated)
        )
    return points
