"""Tests of the benchmark's own code: metric arithmetic, tracing, workloads.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
The workload smoke tests run one trial of each workload (about half a
minute in all).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, layers, trace
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """Stands in for ``time`` inside perfbench.trace."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(trace, "time", fake)
    return fake


def test_quartile_spread():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # quantiles(n=4), exclusive method: q1 = 2.75, q3 = 8.25; median 5.5.
    assert harness.quartile_spread(values) == pytest.approx(5.5 / 5.5)
    assert harness.quartile_spread([4.0] * 10) == 0.0


def test_ratios_and_shares():
    assert layers.ratio(3, 4) == 0.75
    assert layers.ratio(3, 0) == 0.0
    assert layers.pct(1.0, 4.0) == 25.0
    assert layers.pct(1.0, 0.0) == 0.0


def test_trial_seeds_are_distinct_per_run_and_index():
    seen = {harness.trial_seed(s, i) for s in range(5) for i in range(50)}
    assert len(seen) == 250


def test_self_time_subtracts_child_spans(clock):
    tracer = trace.Tracer()
    with tracer.span("outer"):
        clock.now += 1.0
        with tracer.span("inner"):
            clock.now += 3.0
        clock.now += 0.5
    assert tracer.total_s["outer"] == pytest.approx(4.5)
    assert tracer.self_s["outer"] == pytest.approx(1.5)
    assert tracer.self_s["inner"] == pytest.approx(3.0)
    assert tracer.calls == {"outer": 1, "inner": 1}


def test_wrap_counts_nested_kernel_once(clock):
    tracer = trace.Tracer()

    def leaf():
        clock.now += 2.0
        return 7

    inner = tracer.wrap("memsys.kernel", leaf, flat_prefix="memsys.")

    def kernel():
        clock.now += 1.0
        return inner()

    outer = tracer.wrap("memsys.kernel", kernel, flat_prefix="memsys.")
    seen = []
    timed = tracer.wrap("evset.prune", lambda: outer(),
                        after=lambda t, args, r: seen.append(r))
    assert timed() == 7
    assert seen == [7]
    assert tracer.calls["memsys.kernel"] == 1
    assert tracer.self_s["memsys.kernel"] == pytest.approx(3.0)
    assert tracer.self_s["evset.prune"] == pytest.approx(0.0)


def test_patched_restores_module_and_class_attributes():
    class Base:
        def f(self):
            return "base"

    class Sub(Base):
        pass

    holder = type("Holder", (), {})()
    holder.g = lambda: "g"
    original_g = holder.g
    with trace.patched([
        (Base, "f", lambda fn: lambda self: "wrapped " + fn(self)),
        (holder, "g", lambda fn: lambda: "wrapped " + fn()),
    ]):
        assert Sub().f() == "wrapped base"
        assert holder.g() == "wrapped g"
    assert Sub().f() == "base"
    assert holder.g is original_g


def test_benchmark_workloads_are_registered():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke(name):
    result, record = harness.run(name, seed=3, seconds=0, trace=False)
    assert result["correct"], record["errors"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]}
        for m in spec["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("nproc", "platform", "python", "numpy"):
        assert key in record["host"]
    assert record["trial_seeds"] == [harness.trial_seed(3, 0)]


def test_traced_and_untraced_digests_match():
    result, record = harness.run("defended-bulk", seed=2, seconds=0,
                                 trace=True)
    assert result["correct"], record["errors"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["evset.valid_frac"] == 1.0
    # The partitioned caches disengage every accelerated tier.
    assert metrics["memsys.accel_engaged"] == 0.0
    # Self-time shares account for the whole traced wall time.
    shares = [v for k, v in metrics.items()
              if k.endswith("_pct") and not k.startswith("stage.")
              and k not in ("exec.dispatch_pct", "trace.overhead_pct")]
    assert sum(shares) == pytest.approx(100.0)
    assert metrics["memsys.kernel_pct"] > 50.0
    assert metrics["stage.construct_pct"] > 90.0
    assert metrics["stage.monitor_pct"] == 0.0


def test_run_without_program_source_fails_cleanly(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "defended-bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
