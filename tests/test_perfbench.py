"""The benchmark harness names package functions by string, so renaming or
deleting one of them must fail here and not only in `perfbench/run.py
--smoke`.  The harness files are loaded by path and left as they are."""

import importlib.util
import sys
from pathlib import Path

from fqminors import oracle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_traced_names_resolve(monkeypatch):
    tracer = _load(monkeypatch, "tracer")
    workloads = _load(monkeypatch, "workloads")
    traced = set()
    for module, qualname in tracer.TRACED:
        _, _, original = tracer._resolve(module, qualname)
        assert callable(original), (module, qualname)
        traced.add(f"{module}.{qualname}")
    for w in workloads.WORKLOADS.values():
        assert set(w.layers) <= traced, (w.name, set(w.layers) - traced)


def test_benchmark_smoke_calls_every_layer(monkeypatch):
    """What `perfbench/run.py --smoke` checks, in-process: each workload's
    smoke rounds, traced, record a call in every layer it names."""
    tracer = _load(monkeypatch, "tracer")
    workloads = _load(monkeypatch, "workloads")
    for w in workloads.WORKLOADS.values():
        # a warm oracle memo would skip the enumeration's rank calls
        monkeypatch.setattr(oracle, "_rank_hist_cache", {})
        monkeypatch.setattr(oracle, "_census_cache", {})
        tr = tracer.Tracer()
        tr.install()
        try:
            for rnd in w.plan(0, 15, True):
                rnd.run()
        finally:
            tr.uninstall()
        missing = [name for name in w.layers if tr.stats[name].calls == 0]
        assert not missing, (w.name, missing)
