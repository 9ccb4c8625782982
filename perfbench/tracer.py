"""Per-layer tracing from outside the package.

`Tracer.install()` replaces each listed function with a timing wrapper in
every `fqminors.*` module that binds it (matched by object identity), so
calls made through re-exported names such as `sampler.find_minor_matrix` or
`cli.has_excluded_minor_matrix` are seen too.  Methods are replaced on their
class.  `uninstall()` puts the originals back.

Each call records a span (name, parent span, trial, start, end) in memory.
Self time is the call's duration minus the time its traced children took,
tracked with a parent stack.  A trial is the latest
`sample_matrix`/`sample_entries` call's (seed, stream, q, entries), or the
oracle call's shape; the functions that loop over trials reset it.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

from fqminors.errors import BudgetExceededError

# (module, qualified name) of every traced function, in report order
TRACED = (
    ("sampler", "sample_entries"),
    ("sampler", "sample_matrix"),
    ("sampler", "mc_event_prob"),
    ("sampler", "mc_minor_prob"),
    ("linalg", "BitOps.cols_of"),
    ("linalg", "GenOps.cols_of"),
    ("linalg", "BitOps.rank_cols"),
    ("linalg", "GenOps.rank_cols"),
    ("linalg", "BitOps.inverse_rows"),
    ("linalg", "GenOps.inverse_rows"),
    ("linalg", "fast_rank"),
    ("minor", "find_minor_matrix"),
    ("minor", "verify_witness_matrix"),
    ("minor", "has_excluded_minor_matrix"),
    ("minor", "find_minor"),
    ("minor", "verify_witness"),
    ("matroid", "from_matrix"),
    ("matroid", "is_isomorphic"),
    ("oracle", "rank_histogram"),
    ("oracle", "exact_minor_prob"),
    ("sweep", "run_minor_sweep"),
    ("sweep", "run_class_sweep"),
    ("sweep", "bounds_for"),
    ("cli", "main"),
)

# functions that loop over many trials: no trial is current inside them
# until the next sample call
_TRIAL_LOOPS = {"cli.main", "sweep.run_minor_sweep", "sweep.run_class_sweep",
            "sampler.mc_event_prob", "sampler.mc_minor_prob"}
_ORACLES = {"oracle.rank_histogram", "oracle.exact_minor_prob"}
# a rank call directly under rank_histogram, or a find_minor call directly
# under exact_minor_prob, is one oracle memo miss
_MEMO_MISS = {
    ("oracle.rank_histogram", "linalg.BitOps.rank_cols"),
    ("oracle.rank_histogram", "linalg.GenOps.rank_cols"),
    ("oracle.exact_minor_prob", "minor.find_minor"),
}

_RAISED = object()  # outcome of a call that raised something else
MAX_SPANS = 1_000_000
_SPAN_FIELDS = 5  # name id, parent span, trial id, start ns, end ns


class _Stat:
    __slots__ = ("calls", "self_ns", "durations", "outcomes")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.durations = array("q")
        self.outcomes: dict = {}


def _resolve(module: str, qualname: str):
    """(owner, attribute, original) for a traced name."""
    owner = importlib.import_module(f"fqminors.{module}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.stats = {f"{m}.{q}": _Stat() for m, q in TRACED}
        self.names = list(self.stats)
        self.spans = array("q")
        self.spans_dropped = 0
        self.trials: dict = {}
        self.trial = -1
        self.words = 0
        self.matrices_enumerated = 0
        self.memo_misses = 0
        self._stack: list = []  # [stat name, child ns, span index]
        self._restore: list = []

    # -- installation -------------------------------------------------

    def install(self) -> int:
        """Wrap every traced function; returns the number of bindings."""
        packages = [mod for name, mod in sys.modules.items()
                    if name == "fqminors" or name.startswith("fqminors.")]
        for name_id, (module, qualname) in enumerate(TRACED):
            owner, attr, original = _resolve(module, qualname)
            wrapper = self._wrap(self.names[name_id], name_id, original)
            if isinstance(owner, type):
                self._bind(owner, attr, wrapper)
                continue
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapper)
        return len(self._restore)

    def _bind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, name_id: int, fn):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        enter = self._enter_hook(name)
        leave = self._leave_hook(name)

        def traced(*args, **kwargs):
            if enter is not None:
                enter(args)
            parent = stack[-1] if stack else None
            if parent is not None and (parent[0], name) in _MEMO_MISS:
                self.memo_misses += 1
            if len(spans) < MAX_SPANS * _SPAN_FIELDS:
                span = len(spans) // _SPAN_FIELDS
                spans.extend((name_id, -1 if parent is None else parent[2],
                               self.trial, 0, 0))
            else:
                span = -1
                self.spans_dropped += 1
            frame = [name, 0, span]
            stack.append(frame)
            outcome = _RAISED
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                outcome = result
                return result
            except BudgetExceededError:
                outcome = BudgetExceededError
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stat.calls += 1
                stat.self_ns += dur - frame[1]
                stat.durations.append(dur)
                if span >= 0:
                    base = span * _SPAN_FIELDS
                    spans[base + 3] = t0
                    spans[base + 4] = t1
                if leave is not None:
                    leave(stat, outcome)

        traced.__wrapped__ = fn
        return traced

    def _enter_hook(self, name: str):
        if name in _TRIAL_LOOPS:
            def enter(args):
                self.trial = -1
            return enter
        if name == "sampler.sample_entries":
            def enter(args):
                q, count, spec = args
                self.words += count
                self._set_trial(("stream", spec.seed, spec.stream, q, count))
            return enter
        if name == "sampler.sample_matrix":
            def enter(args):
                q, m, n, spec = args
                self._set_trial(("stream", spec.seed, spec.stream, q, m * n))
            return enter
        if name in _ORACLES:
            def enter(args):
                q, m, n = args[:3]
                self.matrices_enumerated += q ** (m * n)
                target = args[3] if len(args) > 3 else None
                shape = () if target is None else (target.ground_size, target.rank)
                self._set_trial(("shape", name, q, m, n) + shape)
            return enter
        return None

    def _leave_hook(self, name: str):
        if name == "minor.find_minor_matrix":
            def leave(stat, outcome):
                if outcome is BudgetExceededError:
                    key = "budget_exhausted"
                elif outcome is _RAISED:
                    key = "error"
                else:
                    key = "absent" if outcome is None else "found"
                stat.outcomes[key] = stat.outcomes.get(key, 0) + 1
            return leave
        if name == "minor.verify_witness_matrix":
            def leave(stat, outcome):
                stat.outcomes["pass"] = stat.outcomes.get("pass", 0) + (outcome is True)
            return leave
        return None

    def _set_trial(self, key):
        self.trial = self.trials.setdefault(key, len(self.trials))

    # -- results ------------------------------------------------------

    def mc_trials(self) -> int:
        return sum(1 for key in self.trials if key[0] == "stream")

    def metrics(self) -> dict:
        """Per-layer metrics: `<module>.<function>.{calls,self_s,p50_us,p99_us}`
        plus the per-layer counts and ratios."""
        out = {}
        for name in self.names:
            st = self.stats[name]
            durs = sorted(st.durations)
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.self_s"] = (st.self_ns / 1e9, "s")
            out[f"{name}.p50_us"] = (_quantile(durs, 0.50) / 1e3, "us")
            out[f"{name}.p99_us"] = (_quantile(durs, 0.99) / 1e3, "us")
        s = self.stats
        out["sampler.sample_entries.words"] = (self.words, "count")
        trials = self.mc_trials()
        out["linalg.BitOps.cols_of.per_trial"] = (
            s["linalg.BitOps.cols_of"].calls / trials if trials else 0.0, "calls/trial")
        fm = s["minor.find_minor_matrix"].outcomes
        for key in ("found", "absent", "budget_exhausted"):
            out[f"minor.find_minor_matrix.{key}"] = (fm.get(key, 0), "count")
        vw = s["minor.verify_witness_matrix"]
        out["minor.verify_witness_matrix.pass_ratio"] = (
            vw.outcomes.get("pass", 0) / vw.calls if vw.calls else 0.0, "ratio")
        out["oracle.memo_miss_ratio"] = (
            self.memo_misses / self.matrices_enumerated
            if self.matrices_enumerated else 0.0, "ratio")
        return out

    def self_total_s(self) -> float:
        return sum(st.self_ns for st in self.stats.values()) / 1e9

    def write_spans(self, path) -> int:
        """Spans as gzip CSV; returns the number written."""
        trial_keys = {v: k for k, v in self.trials.items()}
        count = len(self.spans) // _SPAN_FIELDS
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,parent,trial,start_ns,end_ns,trial_key\n")
            for i in range(count):
                name_id, parent, trial, t0, t1 = self.spans[i * _SPAN_FIELDS:(i + 1) * _SPAN_FIELDS]
                key = trial_keys.get(trial, "")
                fh.write(f"{i},{self.names[name_id]},{parent},{trial},{t0},{t1},"
                         f"\"{key}\"\n")
        return count


def _quantile(sorted_values, p: float) -> float:
    if not sorted_values:
        return 0.0
    return float(sorted_values[min(len(sorted_values) - 1, int(p * len(sorted_values)))])
