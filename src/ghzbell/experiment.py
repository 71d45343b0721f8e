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
Each trial reduces to one key, 3 combo + 1 + its outcome product, so one
array of 3 * 3^N counts holds every combination's -1, 0 and +1 counts. One
tally, _summarize, adds each block's keys into that array as the block
arrives, in block order, and frees the block; no block is held for another.
run_experiment passes it its stream of blocks; summarize_batch and
auxiliary_tensor pass explicit trials as one block. The fair signs are a
block's last draw and the statistics do not depend on them, so run_experiment
takes the keys straight from the detection and parity draws and still matches
summarize_batch on the trials generate_trials draws.
"""

from __future__ import annotations

import math
import os
import re
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .lhv import lhv_bound
from .quantum import (
    CorrelationTensor,
    _FieldError,
    _check_integer,
    _check_parties,
    _check_rate,
    entry_sum_closed_form,
    quantum_tensor,
)

ROUND_ROBIN = "round-robin"
UNIFORM_RANDOM = "uniform-random"
SETTING_POLICIES = (ROUND_ROBIN, UNIFORM_RANDOM)

BLOCK_TRIALS = 65536
MAX_SEED = 2 ** 64 - 1
# A trial's key, 3 combo + 1 + product, is below 3^(N+1): int64 holds it up to N = 38.
_MAX_PARTIES = 38


def _check_seed(seed: int) -> int:
    seed = _check_integer("seed", seed)
    if not 0 <= seed <= MAX_SEED:
        raise _FieldError("seed", f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


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
        object.__setattr__(self, "n_parties", _check_parties(self.n_parties))
        if self.n_parties > _MAX_PARTIES:
            raise _FieldError(
                "n_parties",
                f"the engine keys trials by setting combination in int64, which holds at "
                f"most {_MAX_PARTIES} parties, got {self.n_parties}",
            )
        object.__setattr__(self, "visibility", _check_rate("visibility", self.visibility))
        object.__setattr__(self, "efficiency", _check_rate("efficiency", self.efficiency))
        object.__setattr__(self, "trials", _check_integer("trials", self.trials))
        if self.trials < 1:
            raise _FieldError("trials", f"trials must be positive, got {self.trials}")
        object.__setattr__(self, "seed", _check_seed(self.seed))
        if self.setting_policy not in SETTING_POLICIES:
            raise _FieldError(
                "setting_policy",
                f"setting policy must be one of {SETTING_POLICIES}, got {self.setting_policy!r}",
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
# padded to 4 bytes as one uint32, or empty if wider. Cell 256 * k + u holds the
# value whose uint8 view is u, followed by separator k: " ", " | " or "\n".
_CELLS = np.array(
    [cell if len(cell) <= 4 else "" for sep in (" ", " | ", "\n")
     for cell in ["%d%s" % (v, sep) for v in [*range(128), *range(-128, 0)]]],
    dtype="S4",
).view(np.uint32)


@dataclass(frozen=True, eq=False)
class TrialBatch:
    """Column-oriented batch of trials, checked once and read-only for its whole life.

    ``settings`` (indices 1..3) and ``outcomes`` (in {-1, 0, +1}) are (trials, N)
    with N >= 2 and trials >= 1; the batch keeps read-only int8 copies of both.
    ``save`` writes one ``s_1 ... s_N | m_1 ... m_N`` record per line from the
    cells of ``_CELLS``, and ``load`` reads values as ``_parse_records`` describes.
    """

    settings: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        # Ranges by == before the int8 cast, which would wrap 257 to 1; 1.0 and True pass.
        settings, outcomes = np.asarray(self.settings), np.asarray(self.outcomes)
        if settings.ndim != 2 or settings.shape != outcomes.shape:
            raise ValueError("settings and outcomes must be equal-shaped 2-D arrays")
        _check_parties(settings.shape[1])
        if not len(settings):
            raise _FieldError("trials", "trials must be positive, got 0")
        if not ((settings == 1) | (settings == 2) | (settings == 3)).all():
            raise ValueError("setting indices must be in 1..3")
        if not ((outcomes == -1) | (outcomes == 0) | (outcomes == 1)).all():
            raise ValueError("outcomes must be in {-1, 0, +1}")
        for name, values in (("settings", settings), ("outcomes", outcomes)):
            values = values.astype(np.int8)  # a copy, even of an int8 array
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def __reduce__(self):  # so a copied or unpickled batch is checked and read-only too
        return type(self), (self.settings, self.outcomes)

    def __len__(self) -> int:
        return self.settings.shape[0]

    @property
    def n_parties(self) -> int:
        return self.settings.shape[1]

    def save(self, path) -> None:
        """Write each value's ``_CELLS`` cell."""
        n = self.n_parties
        separators = np.array([0] * (n - 1) + [256] + [0] * (n - 1) + [512], dtype=np.uint16)
        # Column by column (order="C" on the transposed views), so each add runs
        # one long inner loop rather than one N-cell loop per row.
        cells = np.empty((len(self), 2 * n), dtype=np.uint16)
        for values, half in ((self.settings, slice(n)), (self.outcomes, slice(n, None))):
            np.add(values.view(np.uint8).T, separators[half, None], out=cells[:, half].T, order="C")
        text = _CELLS.take(cells).tobytes().translate(None, b"\0").decode("ascii")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path) -> "TrialBatch":
        """Read the file as bytes, its line endings as text mode reads them, then parse it.

        ``\r\n`` and a lone ``\r`` become ``\n``. Only a failed load decodes
        the bytes, with ``surrogateescape``, for the line scan that names the
        first malformed record.
        """
        with open(path, "rb") as fh:
            data = fh.read()
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            settings, outcomes = _parse_records(data)
            if not len(settings):
                raise ValueError(f"{path}: no trial records")
            return cls(settings, outcomes)
        except ValueError:
            _raise_first_bad_record(path, data.decode("ascii", "surrogateescape"))
            raise


# The bytes of a trials file: signs, digits, "|", "\n" and the blanks within a
# line (what str.split() splits on).
_BLANKS = b"\t\x0b\x0c\r\x1c\x1d\x1e\x1f "
_GRAMMAR = b"+-0123456789|\n" + _BLANKS

# "0".."9" read 0..9; "p".."y", the same digits moved up by 64 after a "-", read
# 0..-9. Every other byte, "|" and "\n" among them, reads as itself.
_DIGITS = bytes.maketrans(b"0123456789pqrstuvwxy", bytes(np.r_[0:10, 0:-10:-1].astype(np.int8)))
# The sign and first four significant digits of a longer token saturate to the
# same int8 as the token, with no digit string too long for int().
_TOKEN_HEAD = re.compile(rb"([+-]?)0*([0-9]{1,4})")


def _saturated(data: bytes, at: int = 0) -> int:
    """The int8-saturated value of the token that starts at ``data[at]``."""
    sign, digits = _TOKEN_HEAD.match(data, at).groups()
    return min(max(int(sign + digits), -128), 127)


def _parse_records(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The (records, N) int8 settings and outcomes of a trials file's bytes, blank lines skipped.

    Each non-blank line must be N tokens ``[+-]?[0-9]+``, one ``|`` and N more,
    with the same N on every line. The check runs on the whole file at once.
    Once every byte is of the grammar and every sign opens a token and has a
    digit after it, one ``translate`` keeps each token's value at its last
    digit, each ``|`` and each ``\n``, and drops every other byte. Every
    record must then read as N values, ``|``, N values and ``\n``, which the
    count of bars and line ends and the bytes at their places show. A token's
    value is its last digit, negated after a ``-``; only longer tokens, which
    ``save`` never writes, go through ``int``, saturated to int8: ``"0001"``
    reads as 1, ``"257"`` as 127, which the constructor rejects.

    The file-sized passes write with ``out=`` into four work arrays made once:
    bool ``token``, ``digit`` (later the bytes to keep) and ``end`` (first the
    signs, then each token's last digit), and the uint8 ``mark``. ``translate``
    reads ``mark``'s bytearray as it is, with no copy. Beside ``data``, only
    the kept bytes that ``translate`` returns, and their stripped copy, are of
    the file's order of size.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    if data.translate(None, _GRAMMAR):
        raise ValueError("malformed trials file")
    token, digit, end = np.empty((3, len(raw)), dtype=bool)
    marks = bytearray(len(raw))
    mark = np.frombuffer(marks, dtype=np.uint8)
    flag = mark.view(bool)
    # Past the grammar check a token byte is "+", "-" or a digit: 43..57 but ",./".
    np.less(np.subtract(raw, ord("+"), out=mark), 15, out=token)
    np.less(np.subtract(raw, ord("0"), out=mark), 10, out=digit)
    sign = np.greater(token, digit, out=end)
    if (
        np.logical_and(sign[1:], token[:-1], out=flag[1:]).any()  # a sign inside a token
        or np.greater(sign[:-1], digit[1:], out=flag[:-1]).any()  # a sign without a digit
        or sign[-1:].any()
    ):
        raise ValueError("malformed trials file")
    np.greater(digit[:-1], digit[1:], out=end[:-1])
    end[-1:] = digit[-1:]
    longer = np.count_nonzero(digit) > np.count_nonzero(end)  # a token of more than one digit
    keep = np.less_equal(token, end, out=digit)  # a token's last digit or no token byte
    # The marks: each kept byte, a last digit moved up by 64 after a "-"; 0 elsewhere.
    flag[:1] = False
    np.equal(raw[:-1], ord("-"), out=flag[1:])
    np.multiply(mark, np.uint8(64), out=mark)
    np.multiply(np.add(mark, raw, out=mark), keep, out=mark)
    text = marks.translate(_DIGITS, b"\0" + _BLANKS).strip(b"\n")
    records, line_ends = text.count(b"|"), text.count(b"\n")
    while line_ends >= records and b"\n\n" in text:  # blank lines, after the first record
        text = text.replace(b"\n\n", b"\n")
        line_ends = text.count(b"\n")
    width = max(text.find(b"|"), 0)
    line = 2 * width + 2  # a record's bytes: N values, "|", N values, "\n"
    rows = np.frombuffer(text, dtype=np.int8)
    if text and (
        len(text) + 1 != records * line
        or line_ends != records - 1
        or (rows[width::line] != ord("|")).any()
        or (rows[line - 1 :: line] != ord("\n")).any()
    ):
        raise ValueError("malformed trials file")
    if not records:
        return np.empty((0, 0), np.int8), np.empty((0, 0), np.int8)
    if longer:
        starts = np.flatnonzero(token & ~np.concatenate(([False], token[:-1])))
        ends = np.flatnonzero(end)
        at = np.flatnonzero(ends - starts > (raw[starts] < ord("0")))  # a sign is no digit
        column = at % (2 * width)
        where = at // (2 * width) * line + column + (column >= width)
        rows[where] = [_saturated(data, start) for start in starts[at]]
    # Each record's halves as two N-byte fields, copied whole.
    field = np.dtype(f"V{width}")
    halves = (np.ndarray((records, 1), field, text, i, (line, width)) for i in (0, width + 1))
    return tuple(np.ascontiguousarray(half).view(np.int8) for half in halves)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _raise_first_bad_record(path, text: str) -> None:
    """Raise a ValueError naming the first malformed record of a trials file.

    Called only after a load has failed, so ``TrialBatch.load`` can check the
    whole file at once and leave line numbers to this scan of the ``text`` it
    read from ``path`` (which may be a pipe, read once). It accepts what
    ``load`` accepts, reading tokens through ``_parse_records``' ``_saturated``,
    and returns if every record is well formed.
    """
    width = None
    for lineno, line in enumerate(text.split("\n"), 1):
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
        if width < 2:
            raise ValueError(f"{where}: need at least 2 parties, got {width}") from None
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


def _draw(config: ExperimentConfig, combos: np.ndarray, rng: np.random.Generator):
    """Detection and outcome-product draws of one trial per entry of ``combos``.

    Draws detection uniforms, then one parity uniform per trial. Returns the
    (trials, N) detection mask, the all-detected mask and each trial's key,
    3 combo + 1 + product. In an all-detected trial the product is the parity,
    +1 with probability (1 + V q)/2 for q the quantum tensor entry and -1
    otherwise; in every other trial it is 0.
    """
    n = config.n_parties
    # Column-major, so the reductions over the N stations run along contiguous
    # columns instead of over short rows.
    detected = np.asfortranarray(rng.random((combos.size, n)) < config.efficiency)
    parity_u = rng.random(combos.size)
    all_det = detected.all(axis=1)
    q = quantum_tensor(n).entries
    threshold = q[combos]  # (1 + V q) / 2, in place: one trial-sized float temporary
    threshold *= config.visibility
    threshold += 1.0
    threshold /= 2.0
    plus = parity_u < threshold
    key = 3 * combos
    # 1 + product in int8: 2 or 0 for parity +1 or -1 when all detect, else 1.
    key += np.int8(2) * (plus & all_det) + ~all_det
    return detected, all_det, key


def _sample(config: ExperimentConfig, combos: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Outcomes of one trial per entry of ``combos``, drawn from ``rng``.

    After the draws of ``_draw`` come one fair-sign uniform per station, last.
    Every registered station takes a fair sign, minus below 1/2. In an all-detected
    trial the last sign is then flipped where the XOR of the minus bits misses the
    target parity, ``key % 3 - 1``. The product is all the law depends on, so
    this gives exactly P(r) = 2^-N (1 + V prod(r) q).
    """
    detected, all_det, key = _draw(config, combos, rng)
    # Column-major, as in _draw, so the parity runs along contiguous columns.
    minus = np.asfortranarray(rng.random(detected.shape) < 0.5)
    minus[:, -1] ^= all_det & (np.logical_xor.reduce(minus, axis=1) != (key % 3 == 0))
    return np.ascontiguousarray(detected.view(np.int8) - np.int8(2) * (minus & detected))


def _block_combos(config: ExperimentConfig, block: int) -> tuple[np.ndarray, np.random.Generator]:
    """Combo index of each trial of one block, and the block's generator.

    The generator is seeded by child ``block`` of ``SeedSequence(config.seed)``,
    made on demand: the same child ``spawn`` returns. The setting combos are
    drawn first (uniform-random policy only); the trial draws follow from the
    returned generator.
    """
    start = block * BLOCK_TRIALS
    size = min(BLOCK_TRIALS, config.trials - start)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(block,)))
    if config.setting_policy == UNIFORM_RANDOM:
        combos = rng.integers(0, config.n_combos, size=size, dtype=np.int64)
    else:
        # Consecutive combos; only a block that runs past 3^N - 1 is reduced mod 3^N.
        first = start % config.n_combos
        combos = np.arange(first, first + size, dtype=np.int64)
        if first + size > config.n_combos:
            combos %= config.n_combos
    return combos, rng


def _map_blocks(config: ExperimentConfig, func, workers: int):
    """Iterator over ``func(block)`` for every block, in block order.

    Results arrive one at a time, and a pool submits a block only when fewer
    than 2·workers are pending, so a caller that folds them in keeps at most
    that many blocks' results alive at once. ``workers`` is checked when
    iteration starts, and the pool gets no more threads than there are CPUs.
    The pool starts after the cached quantum tensor is built: two threads that
    miss functools.cache at once would both build it. Closing the iterator
    early cancels the blocks not yet started.
    """
    workers = _check_integer("workers", workers)
    if workers < 1:
        raise _FieldError("workers", f"workers must be positive, got {workers}")
    blocks = -(-config.trials // BLOCK_TRIALS)
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1 or blocks == 1:
        yield from map(func, range(blocks))
        return
    from concurrent.futures import ThreadPoolExecutor  # only a pool pays for the import

    quantum_tensor(config.n_parties)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        try:
            for block in range(blocks):
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(func, block))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def generate_trials(config: ExperimentConfig, workers: int = 1) -> TrialBatch:
    """Sample every trial of the experiment as an explicit batch."""

    def work(block):
        # Each block's int8 settings straight from its digits, so no trial-sized
        # int64 array outlives the block.
        combos, rng = _block_combos(config, block)
        digits = np.array(np.unravel_index(combos, (3,) * config.n_parties), dtype=np.int8)
        settings = np.ascontiguousarray(digits.T)
        settings += np.int8(1)
        return settings, _sample(config, combos, rng)

    settings, outcomes = zip(*_map_blocks(config, work, workers))
    # Rebinding frees the blocks before the constructor's range checks run.
    settings, outcomes = np.concatenate(settings), np.concatenate(outcomes)
    return TrialBatch(settings=settings, outcomes=outcomes)


def _summary_from_stats(
    config: ExperimentConfig,
    counts: np.ndarray,
    sum_prod: np.ndarray,
    nonzero: np.ndarray,
    all_zero: int,
) -> ExperimentSummary:
    """Summary of per-combination statistics; consumes its arguments.

    ``sum_prod`` becomes the estimated tensor's entries and ``nonzero``'s
    buffer takes ``counts - 1``, so the only new float arrays are the
    variances and their weights.
    """
    n = config.n_parties
    # Sample variance (ddof=1) of the product per combination; (prod)^2 is the
    # nonzero indicator, so sum of squares == nonzero count. Entries with no
    # trials have no estimate and those with fewer than 2 no variance; they
    # are set to 0 after the divides.
    with np.errstate(divide="ignore", invalid="ignore"):
        se_sq = sum_prod ** 2
        est = np.divide(sum_prod, counts, out=sum_prod)
        se_sq /= counts
        np.subtract(nonzero, se_sq, out=se_sq)
        se_sq /= np.subtract(counts, 1, out=nonzero)
        np.clip(se_sq, 0.0, None, out=se_sq)
        se_sq /= counts
    enough = counts >= 2
    est[counts == 0] = 0.0
    se_sq[~enough] = 0.0

    q = quantum_tensor(n)
    lhs = abs(float(np.dot(q.entries, est)))
    # The standard error is infinite exactly when a weighted entry has no
    # variance; zero-weight entries contribute nothing either way.
    if (q.entries[~enough] != 0.0).any():
        se_lhs = math.inf
    else:
        se_sq *= q.entries ** 2
        se_lhs = float(np.sqrt(np.sum(se_sq)))

    p_all_zero = all_zero / config.trials
    rhs = lhv_bound(n) - p_all_zero * abs(entry_sum_closed_form(n))
    return ExperimentSummary(
        estimated_tensor=CorrelationTensor(n, est, _take=True),
        p_all_zero=p_all_zero,
        lhs=lhs,
        rhs=rhs,
        violated=bool(lhs > rhs),
        standard_error_lhs=se_lhs,
    )


def _summarize(config: ExperimentConfig, blocks) -> ExperimentSummary:
    """Summary of ``blocks``, an iterable of (keys, none-detected count); see ``_draw``.

    Each block's keys are added, in block order, into 3 * 3^N key counts by
    ``np.add.at`` (fast from numpy 1.25 on). Row c holds combination c's -1, 0
    and +1 counts; the product sums are +1 minus -1 counts, exact in float64.
    No count exceeds ``config.trials``, so they are int32 below 2^31 trials,
    else int64, and are freed once split, before the summary. Where the run
    does not fit in memory, ``n_parties`` is rejected here with the size of
    those counts: numpy cannot size them at N = 38, and any MemoryError
    on the way (the blocks, the quantum tensor built as they start, the count
    split or the summary) is reported the same way.
    """
    n, combos = config.n_parties, config.n_combos
    dtype = np.dtype(np.int32 if config.trials < 2 ** 31 else np.int64)
    try:
        try:
            key_counts = np.zeros(3 * combos, dtype=dtype)
        except ValueError:  # past what numpy can size: out of memory all the same
            raise MemoryError from None
        one, all_zero = dtype.type(1), 0  # a plain 1 takes np.add.at off its fast path
        for key, none_count in blocks:
            np.add.at(key_counts, key, one)
            all_zero += none_count
            del key  # so a tallied block is freed before the next block draws
        minus, zero, plus = key_counts.reshape(combos, 3).T
        nonzero = plus + minus
        counts, sum_prod = nonzero + zero, np.subtract(plus, minus, dtype=np.float64)
        del key_counts, minus, zero, plus  # so the summary's 3^N temporaries do not stack on them
        return _summary_from_stats(config, counts, sum_prod, nonzero, all_zero)
    except MemoryError:
        raise _FieldError(
            "n_parties",
            f"{n} parties need 3^{n} = {combos} setting combinations; their key counts "
            f"take {3 * combos * dtype.itemsize} bytes, and the run does not fit in this "
            "process's memory",
        ) from None


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentSummary:
    """Simulate the whole experiment and reduce it to an ExperimentSummary.

    Statistics are merged from fixed per-seed trial blocks, so the summary is
    bit-identical for any ``workers`` value. A block keeps only the keys of
    ``_draw`` and its none-detected count, which ``_summarize`` tallies.
    """

    def work(block):
        combos, rng = _block_combos(config, block)
        detected, _, key = _draw(config, combos, rng)
        return key, combos.size - int(detected.any(axis=1).sum())

    return _summarize(config, _map_blocks(config, work, workers))


def _batch_block(batch: TrialBatch, config: ExperimentConfig, outcomes: np.ndarray):
    """The (keys, none-detected count) block of ``batch``'s settings with ``outcomes``."""
    if batch.n_parties != config.n_parties:
        raise ValueError(
            f"batch has {batch.n_parties} parties but config has {config.n_parties}"
        )
    if len(batch) != config.trials:  # _summarize sizes its key counts from config.trials
        raise ValueError(f"batch has {len(batch)} trials but config says {config.trials}")
    # The inverse of generate_trials' np.unravel_index: CorrelationTensor order.
    combos = np.ravel_multi_index(tuple(batch.settings.T - np.int8(1)), (3,) * config.n_parties)
    cols = np.asfortranarray(outcomes)
    key = 3 * combos + 1 + cols.prod(axis=1, dtype=np.int64)
    return key, int((~cols.any(axis=1)).sum())


def summarize_batch(batch: TrialBatch, config: ExperimentConfig) -> ExperimentSummary:
    """Summary of an explicit trial batch (e.g. one loaded from disk)."""
    return _summarize(config, [_batch_block(batch, config, batch.outcomes)])


def auxiliary_tensor(batch: TrialBatch, config: ExperimentConfig) -> CorrelationTensor:
    """Estimator with non-detections folded to -1 before taking products.

    Entrywise, its expectation exceeds the plain estimator's by
    (-1)^N (1-eta)^N, so (Q, E_aux) moves by (-1)^N p q_N, with p = (1-eta)^N
    the all-zero probability. That is -p|q_N| only for N = 2, 5 (mod 6); it
    is +p|q_N| for N = 0, 3 (mod 6), and no shift for N = 1 (mod 3), where
    q_N = 0.
    """
    folded = batch.outcomes - (batch.outcomes == 0)  # 0 - 1 = -1
    return _summarize(config, [_batch_block(batch, config, folded)]).estimated_tensor


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
    the whole sweep is reproducible from ``seed`` alone. The grid must not be
    empty, and every point's config is checked before the first one runs.
    """
    seed = _check_seed(seed)
    configs = [
        ExperimentConfig(
            n_parties=n_parties,
            visibility=v,
            efficiency=eta,
            trials=trials_per_point,
            seed=np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0],
            setting_policy=setting_policy,
        )
        for i, v in enumerate(v_grid)
    ]
    if not configs:
        raise _FieldError("visibility", "need at least one visibility, got none")
    points = []
    for config in configs:
        summary = run_experiment(config, workers=workers)
        points.append(SweepPoint(config.visibility, summary.lhs, summary.rhs, summary.violated))
    return points
