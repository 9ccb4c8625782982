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
  int64 array.  A sampled GF(3) matrix also carries its columns as pairs
  of bit-planes (`linalg.TriOps.pack`), built from that array with numpy
  after the draw, so the words and the entries are unchanged.
* Monte Carlo trial i uses stream i, so trials are independent of execution
  order and may be split across processes without changing any output.

Every Monte Carlo path runs through `run_trials`, the one trial runner: it
splits the trial indices into contiguous ranges, one per process, runs a
chunk function on each range and sums the Counters.  A chunk function
(args, seed, lo, hi) -> Counter counts the outcomes of trials lo..hi-1.
Over GF(2) every chunk function draws a range's codes into stacks
(`_gf2_stacks`, the same words as one trial at a time).  A rank chunk
packs each stack's side with fewer vectors (`linalg.pack_words`) and
ranks it by one `linalg.gf2_ranks`, the stacked search's
`linalg.gf2_coset_reps` kernel with all of a matrix's vectors as one set.
Minor and class trials run through one chunk function, `search_chunk`,
a minor trial being a class trial with one target.  It counts each trial
by the tuple of its targets' `minor.outcome`s, up to the first 'found',
and one estimate, `mc_any_minor_prob`, reads every such tuple through
`minor.membership`.  Over GF(2) the chunk builds no host matrix and
decides each stack by `minor.decide_stack`, which packs the stack and
ranks it by the same kernel.  Over other fields each trial is sampled
by `sample_matrix` and ranked by `linalg.fast_rank` or decided as in the
`class` command, on the per-host path (`minor.has_excluded_minor_matrix`).
Estimates carry Wilson 95% intervals.  A minor or class trial counts as
a success only when a witness of its own verifies; budget-exhausted
searches and failed verifications are reported in `unknowns` (the latter
also in `unverified`), never folded into successes.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import linalg
from .errors import BadArgumentsError
from .gf import field
from .matrix import FqMatrix
from .matroid import Matroid
from .minor import (DEFAULT_BUDGET, check_budget, decide_stack, has_excluded_minor_matrix,
                    membership)

_MASK64 = (1 << 64) - 1
# the most entries a sampled matrix may have; larger shapes are rejected
# before any word is drawn
MAX_ENTRIES = 2**22
_WILSON_Z95 = 1.959963984540054
# the most entries in one stack of GF(2) trials, rank or minor
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
    bg = _philox(spec)
    words = bg.random_raw(count)
    if q & (q - 1) == 0:
        # a power of two divides 2^64: the words' low bits, none rejected,
        # are the codes `% q` gives, without numpy's integer division
        return (words & np.uint64(q - 1)).astype(np.int64)
    out = (words % np.uint64(q)).astype(np.int64)
    # q is not a power of two, so it does not divide 2^64: threshold < 2^64
    threshold = (2**64 // q) * q
    bad = np.flatnonzero(words >= np.uint64(threshold))
    while bad.size:
        redraw = bg.random_raw(bad.size)
        accept = redraw < np.uint64(threshold)
        out[bad[accept]] = (redraw[accept] % np.uint64(q)).astype(np.int64)
        bad = bad[~accept]
    return out


def sample_matrix(q: int, m: int, n: int, spec: SeedSpec) -> FqMatrix:
    """Uniform m x n matrix over GF(q), deterministic in (q, m, n, spec).
    Over GF(3) it carries its columns as pairs of bit-planes."""
    check_shape(m, n)
    codes = sample_entries(q, m * n, spec)
    f = field(q)
    entries = tuple(codes.tolist())
    return FqMatrix(f, m, n, entries, packed_cols=linalg.ops_for(f, m).pack(codes.reshape(m, n)))


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
    `linalg.contract` pivots on the chosen columns by one Gauss-Jordan pass
    and keeps the last m-k rows of the other n-k columns, in column order.
    For m <= n every pivot falls in the top k rows, so the output is the
    Schur complement A_bot - L T^{-1} A_top at the other columns, where T
    is the top k x k block of the chosen columns and L their bottom rows.
    Conditioned on success the output is exactly uniform, because the
    elimination depends only on the chosen columns; the oracle module
    verifies this exhaustively at small sizes.
    """
    m, n = A.m, A.n
    if not 0 <= k <= min(m, n):
        raise BadArgumentsError(f"need 0 <= k <= min(m, n), got k={k} for {m}x{n}")
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
    SeedSpec(seed, i).

    `jobs` is clamped to min(jobs, trials, cpu count); with more than one,
    each worker process runs one range, so the counts do not depend on
    `jobs`.  `chunk` must be a module-level function, and `args` picklable.
    """
    if trials < 1:
        raise BadArgumentsError("trials must be >= 1")
    if jobs < 1:
        raise BadArgumentsError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, trials, os.cpu_count() or 1)
    if jobs == 1:
        return chunk(args, seed, 0, trials)
    bounds = [round(i * trials / jobs) for i in range(jobs + 1)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return sum(pool.map(chunk, repeat(args, jobs), repeat(seed, jobs), bounds, bounds[1:]),
                   Counter())


# ----------------------------------------------------------------------
# named events
# ----------------------------------------------------------------------


def parse_event(name: str):
    """Named rank predicates: full-column-rank, is-free-matroid,
    rank-at-least:r."""
    if name in ("full-column-rank", "is-free-matroid"):
        # M[A] is free exactly when the columns are linearly independent
        return lambda rank, m, n: rank == n
    if name.startswith("rank-at-least:"):
        r = _parse_event_int(name)
        return lambda rank, m, n: rank >= r
    raise BadArgumentsError(f"unknown event {name!r}")


def _parse_event_int(name: str) -> int:
    try:
        return int(name.split(":", 1)[1])
    except ValueError:
        raise BadArgumentsError(f"bad event parameter in {name!r}") from None


def _gf2_stacks(seed: int, lo: int, hi: int, m: int, n: int):
    """The codes of GF(2) trials lo..hi-1 in stacks of at most
    _RANK_STACK_ENTRIES entries: (streams, stack) pairs, stack[t] the
    m x n uint8 codes `sample_entries` draws for stream streams[t]."""
    size = max(1, _RANK_STACK_ENTRIES // max(1, m * n))
    for start in range(lo, hi, size):
        streams = range(start, min(start + size, hi))
        stack = np.empty((len(streams), m * n), dtype=np.uint8)
        for t, i in enumerate(streams):
            stack[t] = sample_entries(2, m * n, SeedSpec(seed, i))
        yield streams, stack.reshape(len(streams), m, n)


def _rank_chunk(shape, seed: int, lo: int, hi: int) -> Counter:
    """Counter of the ranks of trials lo..hi-1.  Over GF(2) each stack of
    `_gf2_stacks` is packed once, on its side with fewer vectors (one
    `linalg.pack_words`), and ranked by one `linalg.gf2_ranks`, the
    stacked search's `linalg.gf2_coset_reps` kernel."""
    q, m, n = shape
    if q != 2:
        return Counter(linalg.fast_rank(sample_matrix(q, m, n, SeedSpec(seed, i)))
                       for i in range(lo, hi))
    ranks: Counter = Counter()
    for _, stack in _gf2_stacks(seed, lo, hi, m, n):
        narrow = stack if m <= n else stack.transpose(0, 2, 1)
        ranks.update(linalg.gf2_ranks(linalg.pack_words(narrow)).tolist())
    return ranks


def mc_event_prob(q: int, m: int, n: int, event: str, trials: int, seed: int) -> Estimate:
    """Monte Carlo frequency of a named rank event (no unknowns possible)."""
    pred = parse_event(event)
    check_shape(m, n)
    ranks = run_trials(_rank_chunk, (q, m, n), trials, seed)
    successes = sum(count for rank, count in ranks.items() if pred(rank, m, n))
    return _make_estimate(trials, successes, 0, 0, seed)


def search_chunk(args, seed: int, lo: int, hi: int) -> Counter:
    """Counter of the results of trials lo..hi-1, args = (q, m, n,
    targets, budget), each searching its host for `targets`, (name,
    matroid) pairs, in order, up to the first found.  A trial's result
    is the tuple of the outcomes in `minor.has_excluded_minor_matrix`'s
    short-circuit report on its `sample_matrix` host, which decides
    every trial over fields other than GF(2).

    Over GF(2) each stack of `_gf2_stacks` is decided by one
    `minor.decide_stack`, which packs it and ranks it by one
    `linalg.gf2_ranks`; no host is built as a matrix.  A stack's first
    trial is also decided on the per-host path, a spot check of the
    stacked one: when the two tuples differ it counts as
    ('unverified',).  The per-host search ranks its host and reduces
    each contraction set one at a time, so it shares no kernel with the
    stacked one's `linalg.gf2_coset_reps`, which gives the stack's ranks
    and screens alike."""
    q, m, n, targets, budget = args
    check_shape(m, n)

    def per_host(i: int) -> tuple[str, ...]:
        A = sample_matrix(q, m, n, SeedSpec(seed, i))
        return tuple(has_excluded_minor_matrix(A, targets, budget, short_circuit=True)
                     .outcomes.values())

    if q != 2:
        return Counter(per_host(i) for i in range(lo, hi))
    results: Counter = Counter()
    for streams, stack in _gf2_stacks(seed, lo, hi, m, n):
        outcomes = decide_stack(stack, targets, budget)
        if outcomes[0] != per_host(streams[0]):
            outcomes[0] = ("unverified",)
        results.update(outcomes)
    return results


def mc_any_minor_prob(q: int, m: int, n: int, targets, trials: int, seed: int,
                      budget: int | None = DEFAULT_BUDGET, jobs: int = 1) -> Estimate:
    """Monte Carlo estimate of P{some target is a minor of M[A]}, A uniform
    m x n and `targets` (name, matroid) pairs, by the `minor.membership` of
    each distinct outcome tuple of `search_chunk`; trial i uses SeedSpec(seed,
    i).  A success is a trial with a verified witness ('no').  The 'unknown'
    trials are reported in `unknowns` (the truth lies in [successes,
    successes + unknowns] trials), those holding a failed verification also
    in `unverified`.  The result is independent of `jobs`."""
    check_budget(budget)
    members: Counter = Counter()  # membership -> trials, and 'unverified'
    for outcomes, count in run_trials(search_chunk, (q, m, n, targets, budget), trials, seed,
                                      jobs).items():
        member = membership(outcomes)
        members[member] += count
        if member == "unknown" and "unverified" in outcomes:
            members["unverified"] += count
    return _make_estimate(trials, members["no"], members["unknown"], members["unverified"], seed)


def mc_minor_prob(q: int, m: int, n: int, target: Matroid, trials: int, seed: int,
                  budget: int | None = DEFAULT_BUDGET, jobs: int = 1) -> Estimate:
    """P{target is a minor of M[A]}: `mc_any_minor_prob` with the one target."""
    return mc_any_minor_prob(q, m, n, (("target", target),), trials, seed, budget, jobs)
