"""Seeded uniform sampling over GF(q), the randomness-preserving reduction,
and Monte Carlo estimation of minor-containment probabilities.

RNG contract (bit-exact, reproducible across platforms and schedules):

* Each (seed, stream) pair owns an independent word stream produced by the
  Philox-4x64-10 counter-based generator with key ``[seed mod 2^64,
  stream mod 2^64]`` and counter starting at 0 (numpy's Philox bit
  generator, drained via ``random_raw``).  A process keeps one generator,
  built on its first draw, and rekeys it for each stream (`_philox`); the
  words are those of a newly built generator.
* Matrix entries are filled in row-major order.  With T = q * (2^64 // q),
  the first m*n words are assigned to the m*n positions in order; a word
  w < T yields the entry w mod q, a word >= T is rejected.  Rejected
  positions are refilled, in position order, from the next block of words,
  repeating until none remain.  (For q a power of two T = 2^64 and no
  rejection ever happens.)  `sample_entries` returns the codes as a 1-D
  int64 array.  A sampled GF(2) or GF(3) matrix also carries its columns
  and rows in its backend's form (`linalg.ops_for`), built from that array
  with numpy: GF(2) ints, GF(3) pairs of bit-planes.  They are built from
  the codes after the draw, so the words and the entries are unchanged.
* Monte Carlo trial i uses stream i, so trials are independent of execution
  order and may be split across processes without changing any output.

Every Monte Carlo path runs through `run_trials`, the one trial runner: it
splits the trial indices into contiguous ranges, one per process, runs a
chunk function on each range and sums the Counters.  Minor and class
trials are one-trial functions made into chunks by `each_trial`.  A rank
event over GF(2) is decided in chunks: the codes of a range's trials are
stacked and one `linalg.gf2_ranks` elimination ranks the whole stack, with
the same words and counts as one trial at a time; over other fields each
trial is ranked by `linalg.fast_rank`.  Estimates carry Wilson 95%
intervals.  A minor trial counts as a success only when
`minor.decide` finds a witness that verifies; budget-exhausted searches and
failed verifications are reported in `unknowns` (the latter also in
`unverified`), never folded into successes.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import linalg
from .errors import BadArgumentsError, UnknownEventError
from .gf import field
from .matrix import FqMatrix
from .matroid import Matroid
from .minor import DEFAULT_BUDGET, check_budget, decide, find_minor_matrix, verify_witness_matrix

_MASK64 = (1 << 64) - 1
# the most entries a sampled matrix may have; larger shapes are rejected
# before any word is drawn
MAX_ENTRIES = 2**22
_WILSON_Z95 = 1.959963984540054
# the most entries in one stack of GF(2) rank trials
_RANK_STACK_ENTRIES = 2**18


@dataclass(frozen=True)
class SeedSpec:
    """(seed, stream) fully determines every sampled bit."""

    seed: int
    stream: int


# the process's one Philox generator, rekeyed for every stream; built on
# the first draw, so importing the package does not load numpy.random
_generator = None


def _philox(spec: SeedSpec) -> np.random.Philox:
    """The generator positioned at the start of spec's stream: key set,
    counter zeroed, buffer emptied, exactly as a newly built
    ``np.random.Philox(key=...)``, at a fraction of the cost."""
    global _generator
    if _generator is None:
        _generator = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    # a uint64 array keeps keys >= 2^63 exact; a list of ints would go
    # through float64 and round them
    key = np.array([spec.seed & _MASK64, spec.stream & _MASK64], dtype=np.uint64)
    _generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return _generator


def check_shape(m: int, n: int):
    """Reject a negative dimension, or an m x n matrix with more than
    MAX_ENTRIES entries (an empty dimension counts as 1)."""
    if m < 0 or n < 0:
        raise BadArgumentsError(f"negative shape {m}x{n}")
    if max(m, 1) * max(n, 1) > MAX_ENTRIES:
        raise BadArgumentsError(f"shape {m}x{n} exceeds {MAX_ENTRIES} entries")


def sample_entries(q: int, count: int, spec: SeedSpec) -> np.ndarray:
    """`count` i.i.d. uniform element codes per the module RNG contract, as
    a 1-D int64 array."""
    field(q)  # validates q
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    bg = _philox(spec)
    words = bg.random_raw(count)
    out = (words % np.uint64(q)).astype(np.int64)
    threshold = (2**64 // q) * q
    if threshold < 2**64:
        bad = np.flatnonzero(words >= np.uint64(threshold))
        while bad.size:
            redraw = bg.random_raw(bad.size)
            accept = redraw < np.uint64(threshold)
            out[bad[accept]] = (redraw[accept] % np.uint64(q)).astype(np.int64)
            bad = bad[~accept]
    return out


def sample_matrix(q: int, m: int, n: int, spec: SeedSpec) -> FqMatrix:
    """Uniform m x n matrix over GF(q), deterministic in (q, m, n, spec).
    Over GF(2) and GF(3) it carries its columns and rows in its backend's
    form."""
    check_shape(m, n)
    codes = sample_entries(q, m * n, spec)
    f = field(q)
    entries = tuple(codes.tolist())
    packed = linalg.ops_for(f, m).pack(codes.reshape(m, n))
    if packed is None:
        return FqMatrix(f, m, n, entries)
    return FqMatrix.with_packed(f, m, n, entries, *packed)


# ----------------------------------------------------------------------
# the reduction procedure
# ----------------------------------------------------------------------


def reduce(A: FqMatrix, k: int) -> FqMatrix | None:
    """Contract k columns out of M[A] by the deterministic realization of
    the randomness-preserving reduction; None when the independence test
    fails.

    For m > n the first k columns must be linearly independent.  For m <= n
    the first k rows must be linearly independent, and the contracted
    columns are the leftmost pivot set of that top block (a fixed concrete
    choice where any independent k columns would do).  In both cases
    `linalg.contract` sends the chosen columns to unit vectors by an
    invertible change of basis and contracts them away, leaving the last m-k
    rows of the other n-k columns, in column order.
    Conditioned on success the output is exactly uniform; the oracle module
    verifies this exhaustively at small sizes.
    """
    m, n = A.m, A.n
    if not 0 <= k <= min(m, n):
        raise BadArgumentsError(f"need 0 <= k <= min(m, n), got k={k} for {m}x{n}")
    if k == 0:
        return A
    if m > n:
        chosen = list(range(k))
    else:
        o_top = linalg.ops_for(A.field, k)
        top = FqMatrix(A.field, k, n, A.entries[: k * n])
        chosen = linalg.leftmost_independent(o_top, o_top.cols_of(top), k)
        if len(chosen) != k:
            return None
    # contract returns None on dependent chosen columns, which for m <= n
    # the independent top block has already ruled out
    keep = [j for j in range(n) if j not in chosen]
    return linalg.contract(linalg.ops_for(A.field, m), A, chosen, keep)


# ----------------------------------------------------------------------
# estimates
# ----------------------------------------------------------------------


def wilson_interval(successes: int, trials: int, z: float = _WILSON_Z95) -> tuple[float, float]:
    if trials < 1:
        raise BadArgumentsError("trials must be >= 1")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials)) / denom
    # the interval provably contains phat; clamp against float rounding
    return (max(0.0, min(center - half, phat)), min(1.0, max(center + half, phat)))


@dataclass(frozen=True)
class Estimate:
    trials: int
    successes: int
    unknowns: int
    unverified: int  # the part of unknowns whose witness failed verification
    point: float
    wilson_lo: float
    wilson_hi: float
    seed: int

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "unknowns": self.unknowns,
            "unverified": self.unverified,
            "point": self.point,
            "ci": [self.wilson_lo, self.wilson_hi],
            "seed": self.seed,
            "method": "wilson95",
        }


def _make_estimate(trials: int, successes: int, unknowns: int, unverified: int,
                   seed: int) -> Estimate:
    lo, hi = wilson_interval(successes, trials)
    return Estimate(trials, successes, unknowns, unverified, successes / trials, lo, hi, seed)


# ----------------------------------------------------------------------
# the trial runner
# ----------------------------------------------------------------------


def run_trials(chunk, args, trials: int, seed: int, jobs: int = 1) -> Counter:
    """Sum of the Counters chunk(args, seed, lo, hi) over a partition of the
    trial indices 0..trials-1 into contiguous ranges [lo, hi); trial i uses
    SeedSpec(seed, i).  Wrap a function of one trial in `each_trial`.

    `jobs` is clamped to min(jobs, trials, cpu count); with more than one,
    each worker process runs one range, so the counts do not depend on
    `jobs`.  `chunk` must be picklable (a module-level function, or
    `each_trial` of one) and so must `args`.
    """
    if trials < 1:
        raise BadArgumentsError("trials must be >= 1")
    if jobs < 1:
        raise BadArgumentsError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, trials, os.cpu_count() or 1)
    bounds = [round(i * trials / jobs) for i in range(jobs + 1)]
    chunks = [(chunk, args, seed, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if jobs == 1:
        return _run_chunk(chunks[0])
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return sum(pool.map(_run_chunk, chunks), Counter())


def _run_chunk(job) -> Counter:
    chunk, *call = job
    return chunk(*call)


def each_trial(trial):
    """The chunk form of trial(args, spec) -> outcome: a Counter of the
    outcomes of the trials in its range."""
    return partial(_count_trials, trial)


def _count_trials(trial, args, seed: int, lo: int, hi: int) -> Counter:
    return Counter(trial(args, SeedSpec(seed, i)) for i in range(lo, hi))


# ----------------------------------------------------------------------
# named events (shared with the oracle)
# ----------------------------------------------------------------------


def parse_event(name: str):
    """Named rank predicates: full-column-rank, is-free-matroid,
    rank-at-least:r, rank-exactly:k."""
    if name in ("full-column-rank", "is-free-matroid"):
        # M[A] is free exactly when the columns are linearly independent
        return lambda rank, m, n: rank == n
    if name.startswith("rank-at-least:"):
        r = _parse_event_int(name)
        return lambda rank, m, n: rank >= r
    if name.startswith("rank-exactly:"):
        k = _parse_event_int(name)
        return lambda rank, m, n: rank == k
    raise UnknownEventError(f"unknown event {name!r}")


def _parse_event_int(name: str) -> int:
    try:
        return int(name.split(":", 1)[1])
    except ValueError:
        raise UnknownEventError(f"bad event parameter in {name!r}") from None


def _rank_chunk(shape, seed: int, lo: int, hi: int) -> Counter:
    """Counter of the ranks of trials lo..hi-1.  Over GF(2) the trials'
    codes are stacked, at most _RANK_STACK_ENTRIES entries per stack, and
    each stack is ranked by one `linalg.gf2_ranks` elimination."""
    q, m, n = shape
    if q != 2:
        return Counter(linalg.fast_rank(sample_matrix(q, m, n, SeedSpec(seed, i)))
                       for i in range(lo, hi))
    ranks: Counter = Counter()
    size = max(1, _RANK_STACK_ENTRIES // max(1, m * n))
    for start in range(lo, hi, size):
        streams = range(start, min(start + size, hi))
        stack = np.empty((len(streams), m * n), dtype=np.uint8)
        for t, i in enumerate(streams):
            stack[t] = sample_entries(2, m * n, SeedSpec(seed, i))
        ranks.update(linalg.gf2_ranks(stack.reshape(len(streams), m, n)).tolist())
    return ranks


def mc_event_prob(q: int, m: int, n: int, event: str, trials: int, seed: int) -> Estimate:
    """Monte Carlo frequency of a named rank event (no unknowns possible)."""
    pred = parse_event(event)
    check_shape(m, n)
    ranks = run_trials(_rank_chunk, (q, m, n), trials, seed)
    successes = sum(count for rank, count in ranks.items() if pred(rank, m, n))
    return _make_estimate(trials, successes, 0, 0, seed)


def _minor_trial(args, spec: SeedSpec) -> str:
    q, m, n, target, budget = args
    A = sample_matrix(q, m, n, spec)
    return decide(A, target, budget, find_minor_matrix, verify_witness_matrix)[0]


def mc_minor_prob(q: int, m: int, n: int, target: Matroid, trials: int, seed: int,
                  budget: int | None = DEFAULT_BUDGET, jobs: int = 1) -> Estimate:
    """Monte Carlo estimate of P{target is a minor of M[A]}, A uniform m x n.

    Trial i uses SeedSpec(seed, i); a trial counts as a success only when
    the witness found verifies.  Budget-exceeded searches and failed
    verifications are reported in `unknowns` (the truth lies in [successes,
    successes + unknowns] trials), the failed verifications also in
    `unverified`.  The result is independent of `jobs`.
    """
    check_budget(budget)
    outcomes = run_trials(each_trial(_minor_trial), (q, m, n, target, budget), trials, seed, jobs)
    unverified = outcomes["unverified"]
    return _make_estimate(trials, outcomes["found"], outcomes["unknown"] + unverified,
                          unverified, seed)
