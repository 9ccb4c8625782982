"""fqminors benchmark: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload mc-minor --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py                     # every workload, metrics by name
    python3 perfbench/run.py --smoke             # the harness's own test
    python3 perfbench/run.py --record            # rewrite perfbench/digests.json

Run it from the repository root; it imports the package from `src/`.  With
`--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` it has the per-layer metrics of a traced run,
which also runs the untraced benchmark once in a child process to report the
tracing overhead.  Workloads, metrics and bounds are in BENCHMARK.json;
why they were chosen is in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
SETUP_PROBES = 9
RECORDED_SEEDS = tuple(range(10)) + (12345,)  # 0 is the default, 12345 held out


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


@dataclass(frozen=True)
class Timed:
    round: object
    result: object
    seconds: float
    ref_seconds: float   # at reference host speed; equal to seconds unprobed
    error: str | None


def _timed(rounds, probe=None) -> list[Timed]:
    """Run each round once."""
    spans = []
    for rnd in rounds:
        t0 = time.perf_counter()
        try:
            result, error = rnd.run(), None
        except Exception as exc:  # a failing operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        spans.append((rnd, result, t0, time.perf_counter(), error))
    if probe is None:
        return [Timed(rnd, res, t1 - t0, t1 - t0, err) for rnd, res, t0, t1, err in spans]
    return [Timed(rnd, res, probe.raw_seconds(t0, t1), probe.reference_seconds(t0, t1), err)
            for rnd, res, t0, t1, err in spans]


def _rates(timed) -> tuple[float, float]:
    """(units per second, units per reference second) over the rounds that
    completed."""
    ok = [t for t in timed if t.error is None]
    if not ok:
        return 0.0, 0.0
    units = sum(t.round.units for t in ok)
    return (units / sum(t.seconds for t in ok), units / sum(t.ref_seconds for t in ok))


def _results(timed) -> list[tuple]:
    return [(t.round, t.result) for t in timed if t.error is None]


def _attempted(timed) -> int:
    return sum(t.round.units for t in timed)


def _setup_seconds(wl) -> list[tuple[float, float]]:
    """Set-up time of fresh processes, from launch until the package is
    imported and the workload's tables and targets are built: (seconds,
    reference seconds by the probe loop timed just before and after)."""
    samples = []
    for _ in range(SETUP_PROBES):
        before = speed.loop_seconds()
        t0 = time.monotonic_ns()
        done = subprocess.run([sys.executable, "-c", wl.probe_code(), str(SRC)],
                              capture_output=True, text=True, check=True, timeout=60)
        raw = (int(done.stdout) - t0) / 1e9
        samples.append((raw, raw * speed.REF_S * 2 / (before + speed.loop_seconds())))
    return samples


def _check(wl, args, timed) -> tuple[int, int, list[str]]:
    """(units failed, rounds compared with a recorded digest, problems).
    Smoke runs have no recorded digests."""
    import workloads

    recorded = {}
    if DIGESTS.exists() and not args.smoke:
        recorded = json.loads(DIGESTS.read_text()).get(wl.name, {})
    expected = recorded.get(str(args.seed), {}) if wl.seeded else recorded
    failed = compared = 0
    problems = []
    for t in timed:
        bad, key = t.error, t.round.key
        if bad is None and key in expected:
            compared += 1
            got = workloads.digest(t.result)
            if got != expected[key]:
                bad = f"round {key}: digest {got} != recorded {expected[key]}"
        if bad is not None:
            failed += t.round.units
            problems.append(bad)
    found = wl.check(_results(timed))
    if found:
        failed = max(failed, 1)
        problems += found
    return failed, compared, problems


def _provenance(args, wl, rounds: int) -> dict:
    import numpy

    return {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "rounds": rounds, "jobs": 1, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _report(info: dict, problems: list[str], result: dict):
    print("provenance: " + json.dumps(info, sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps(result))


def run_workload(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    # one CPU for the run and its set-up processes, so the speed probe
    # measures the core the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl.setup()
    rounds = wl.plan(args.seed, args.seconds, args.smoke)
    if args.trace:
        return _run_traced(args, wl, rounds)
    setup = _setup_seconds(wl)
    if not workloads.oracle_caches_empty():
        raise RuntimeError("oracle caches are not empty when timing starts")
    with speed.SpeedProbe() as probe:
        timed = _timed(rounds, probe)
    failed, compared, problems = _check(wl, args, timed)
    raw_rate, ref_rate = _rates(timed)
    undecided, trials = workloads.unknowns(wl.name, _results(timed))
    metrics = {
        "matrices_per_s": _metric(ref_rate, "1/s"),
        "setup_s": _metric(statistics.median(ref for _, ref in setup), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = _provenance(args, wl, len(rounds))
    info.update(
        digests_compared=compared, raw_matrices_per_s=raw_rate,
        raw_setup_s=statistics.median(raw for raw, _ in setup),
        probe_loop_s=probe.median_loop_s(),
        unknown_frac=undecided / trials if trials else 0.0,
    )
    for name, m in metrics.items():
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']}")
    _report(info, problems, {"correct": not problems, "attempted": _attempted(timed),
                             "failed": failed, "metrics": metrics})
    return 0


def _run_traced(args, wl, rounds) -> int:
    """Per-layer metrics of one traced pass over the same rounds, and the
    tracing overhead against an untraced run in a fresh child process (raw
    times on both sides: the speed probe would run inside traced calls)."""
    import tracer
    import workloads

    child = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", wl.name, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        + (["--smoke"] if args.smoke else []),
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
    lines = child.stdout.strip().splitlines()
    untraced = json.loads(lines[-1])
    untraced_info = json.loads(next(ln for ln in lines if ln.startswith("provenance: "))
                               .split(": ", 1)[1])
    if not workloads.oracle_caches_empty():
        raise RuntimeError("oracle caches are not empty when timing starts")
    tr = tracer.Tracer()
    bindings = tr.install()
    try:
        timed = _timed(rounds)
    finally:
        tr.uninstall()
    failed, compared, problems = _check(wl, args, timed)
    if not untraced["correct"]:
        problems.append("the untraced run failed its checks")
    missing = [name for name in wl.layers if tr.stats[name].calls == 0]
    if missing:
        problems.append(f"no calls recorded for {', '.join(missing)}")
    metrics = {k: _metric(v, unit) for k, (v, unit) in tr.metrics().items()}
    undecided, trials = workloads.unknowns(wl.name, _results(timed))
    wall = sum(t.seconds for t in timed)
    traced_rate, _ = _rates(timed)
    metrics["minor.unknown_frac"] = _metric(undecided / trials if trials else 0.0, "ratio")
    metrics["bench.trace_overhead"] = _metric(
        untraced_info["raw_matrices_per_s"] / traced_rate if traced_rate else 0.0, "ratio")
    metrics["bench.wall_s"] = _metric(wall, "s")
    metrics["bench.untraced_s"] = _metric(wall - tr.self_total_s(), "s")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.csv.gz"
    info = _provenance(args, wl, len(rounds))
    info.update(digests_compared=compared, bindings_wrapped=bindings,
                spans=tr.write_spans(spans_path),
                spans_dropped=tr.spans_dropped, spans_file=str(spans_path.relative_to(ROOT)))
    _report(info, problems, {"correct": not problems, "attempted": _attempted(timed),
                             "failed": failed, "metrics": metrics})
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; with --smoke, traced at a
    tiny size, failing if a workload misses one of its layers."""
    import workloads

    correct = True
    attempted = failed = 0
    metrics = {}
    for name in workloads.WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", "1" if args.smoke else str(args.trace)]
        done = subprocess.run([sys.executable, str(Path(__file__))] + argv
                              + (["--smoke"] if args.smoke else []),
                              capture_output=True, text=True, timeout=600, cwd=ROOT)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"run.py {' '.join(argv)} exited {done.returncode}")
        print("\n".join(lines[:-1]))
        got = json.loads(lines[-1])
        correct &= got["correct"]
        attempted += got["attempted"]
        failed += got["failed"]
        metrics.update({f"{name}.{k}": v for k, v in got["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct or not args.smoke else 1


def record(args) -> int:
    """Digest every round of each workload for the recorded seeds."""
    import workloads

    out = {}
    for wl in workloads.WORKLOADS.values():
        wl.setup()
        for seed in RECORDED_SEEDS if wl.seeded else RECORDED_SEEDS[:1]:
            timed = _timed(wl.plan(seed, args.seconds, False))
            problems = [t.error for t in timed if t.error is not None]
            problems = problems or wl.check(_results(timed))
            if problems:
                raise SystemExit(f"{wl.name} seed {seed}: {problems}")
            digests = {rnd.key: workloads.digest(res) for rnd, res in _results(timed)}
            if wl.seeded:
                out.setdefault(wl.name, {})[str(seed)] = digests
            else:
                out[wl.name] = digests
            print(f"recorded {wl.name} seed {seed}: {len(digests)} digests", flush=True)
    out["seconds"] = args.seconds
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="every workload at a tiny size, traced; fails if a layer is missed")
    p.add_argument("--record", action="store_true",
                   help="rewrite the recorded result digests")
    args = p.parse_args(argv)
    if not (SRC / "fqminors" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no package source at {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.record:
        return record(args)
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
