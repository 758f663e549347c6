"""Tests of the end-to-end benchmark itself, on tiny workloads.

Run from the root of the repository::

    python3 -m pytest bench_e2e/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads
from layers import LayerProbe
from tracer import Target, Tracer
from workloads import FleetSpec, SessionSpec

BENCH_DIR = Path(run.__file__).resolve().parent
CONFIG = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

#: Each workload shrunk to about a second of wall time per repeat.
TINY = {
    "iq-session": SessionSpec(
        name="iq-session", fidelity="iq", n_ues=4, air_s=0.06,
        traffic="video", arrival_window_s=0.02),
    "message-session": SessionSpec(
        name="message-session", fidelity="message", n_ues=8, air_s=0.3,
        traffic="mixed", arrival_window_s=0.1),
    "fleet-churn": FleetSpec(
        name="fleet-churn", n_cells=2, ues_per_cell=3, air_s=0.4,
        interval_s=0.2),
}


@pytest.fixture
def tmp(tmp_path: Path) -> Path:
    return tmp_path


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONFIG[section]}


def test_every_workload_is_specified_and_documented():
    names = sorted(w["name"] for w in CONFIG["workloads"])
    notes = json.loads((BENCH_DIR / "workloads.json").read_text())
    assert names == sorted(TINY) == sorted(workloads.SPECS) \
        == sorted(notes["workloads"])
    assert notes["held_out_seed"] not in range(200)
    for note in notes["workloads"].values():
        assert note["why"] and note["loads"] and note["bypasses"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp):
    payload = run.measure(TINY[name], seed=5, seconds=0, tmp=tmp)
    assert payload["correct"] and payload["failed"] == 0
    assert payload["attempted"] >= 1
    got = {k: m["unit"] for k, m in payload["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(m["value"] > 0 for m in payload["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(name, tmp):
    payload = run.trace(TINY[name], seed=5, seconds=0, tmp=tmp)
    assert payload["correct"]
    got = {k: m["unit"] for k, m in payload["metrics"].items()}
    assert got == _units("per_layer")
    assert payload["metrics"]["trace.overhead"]["value"] > 0


@pytest.mark.parametrize("name", ["iq-session", "fleet-churn"])
def test_tracing_leaves_telemetry_unchanged(name, tmp):
    plain = workloads.run_once(TINY[name], 9, tmp)
    with Tracer(LayerProbe().targets()) as tracer:
        traced = workloads.run_once(TINY[name], 9, tmp,
                                    lambda: tracer.attributed_s)
    assert traced.digests == plain.digests
    assert (traced.misses, traced.opportunities) == \
        (plain.misses, plain.opportunities)
    assert tracer.layers["simulation.step"].calls > 0


def test_tracer_restores_every_wrapped_attribute():
    targets = LayerProbe().targets()
    before = [(t.owner, t.attr, t.owner.__dict__[t.attr]) for t in targets]
    with pytest.raises(KeyError):
        with Tracer(targets):
            assert all(owner.__dict__[attr] is not original
                       for owner, attr, original in before)
            raise KeyError("leave the block early")
    assert all(owner.__dict__[attr] is original
               for owner, attr, original in before)


class _Layered:
    def outer(self, n: int) -> int:
        return sum(self.inner(i) for i in range(n))

    def inner(self, i: int) -> int:
        return self.inner(i - 1) + 1 if i > 0 else 0

    @classmethod
    def build(cls) -> "_Layered":
        return cls()


def test_tracer_self_time_and_reentrant_calls():
    targets = [Target(_Layered, "outer", "outer"),
               Target(_Layered, "inner", "inner"),
               Target(_Layered, "build", "build")]
    with Tracer(targets) as tracer:
        assert _Layered.build().outer(4) == 6
    outer, inner = tracer.layers["outer"], tracer.layers["inner"]
    # The recursive inner calls fold into the outermost one.
    assert (outer.calls, inner.calls, tracer.layers["build"].calls) \
        == (1, 4, 1)
    assert outer.self_s == pytest.approx(outer.busy_s - inner.busy_s)
    assert inner.self_s == pytest.approx(inner.busy_s)
    assert tracer.attributed_s == pytest.approx(
        outer.busy_s + tracer.layers["build"].busy_s)
    assert isinstance(_Layered.__dict__["build"], classmethod)


def test_times_scale_to_the_reference_speed():
    nominal = reference.NOMINAL_S
    assert reference.scale(0.3, nominal, nominal) == pytest.approx(0.3)
    # At half speed the reference takes twice as long, and so did the
    # work: it reads as half the CPU time at the reference speed.
    assert reference.scale(0.3, 2 * nominal, 2 * nominal) \
        == pytest.approx(0.15)
    assert reference.gauge() > 0
    clock = workloads.RunClock(workloads.Gauge(enabled=False))
    clock.start()
    clock.commit(0.001)
    clock.commit()
    clock.close()
    assert clock.slot_s == [0.001] and clock.run_s > 0


def test_gate_rejects_a_repeat_that_differs():
    gate = run.Gate()
    first = workloads.RepeatResult(digests={"cell": "a"}, slots=3)
    gate.check(first)
    with pytest.raises(run.GateError):
        gate.check(workloads.RepeatResult(digests={"cell": "b"}))
    with pytest.raises(run.GateError):
        gate.check(workloads.RepeatResult(digests={"cell": "a"},
                                          gate=["2 slots dropped"]))


def test_mismatches_count_as_failed_operations():
    gate = run.Gate()
    gate.check(workloads.RepeatResult(digests={}, checks=2,
                                      mismatches=["restore differs"]))
    payload = run._payload(gate, {}, [])
    assert (payload["correct"], payload["attempted"], payload["failed"]) \
        == (False, 2, 1)


def test_seeded_inputs_repeat_and_stagger():
    spec = workloads.SPECS["fleet-churn"]
    assert workloads.churn_sessions(4, spec, 0) == \
        workloads.churn_sessions(4, spec, 0)
    assert workloads.churn_sessions(4, spec, 0) != \
        workloads.churn_sessions(5, spec, 0)
    sessions = workloads.staggered_sessions(4, 16, 0.08, 1.0)
    arrivals = [s.arrival_s for s in sessions]
    assert arrivals == sorted(arrivals)
    assert min(b - a for a, b in zip(arrivals, arrivals[1:])) > 0.002


def test_without_the_program_it_fails_without_a_result(tmp_path):
    copy = tmp_path / BENCH_DIR.name
    shutil.copytree(BENCH_DIR, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *CONFIG["command"][1:], "--workload",
         "iq-session", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
