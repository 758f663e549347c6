"""End-to-end benchmark of the NR-Scope reproduction.

Usage, from the root of a checkout::

    python3 bench_e2e/run.py --workload iq-session --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` times each layer's public functions with the span tracer
and prints the per-layer metrics, the tracing overhead and the run time
left unattributed.  ``--workload all`` runs every workload in turn, each
in a process of its own.  Human-readable tables go to stdout; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Each run starts with a short warm-up repeat (lazy imports and kernel
caches fill, as in any long-lived session), then repeats the workload
while another repeat fits in ``--seconds``, at least twice.  Times are
process CPU times scaled to a fixed reference speed (``reference.py``):
the host's speed moves in steps of up to a factor of two within a
second, and a reference computation run either side of each timed span
moves with it.  The throughput is total air over total scaled CPU time;
every other time is a median over many samples: pooled slots, the
repeats' query passes, checkpoints and restores, and set-ups spread over
the run.  Every repeat of a seed must produce the same telemetry digests
and DCI miss count, drop no slot and track every admitted UE; otherwise
the run exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

#: Timed repeats per run, at least: the gate compares repeats of a seed.
MIN_REPEATS = 2
#: Air time of the warm-up repeat, as a share of the workload's.
WARMUP_SCALE = 0.25
#: Set-ups timed on their own after each repeat, besides its own.
SETUPS_PER_REPEAT = 8
#: Repeats whose slot times are compared slot by slot.
SLOT_REPEATS = 2


class GateError(RuntimeError):
    """A repeat broke the correctness gate; no metric is reported."""


def _load_program() -> None:
    """Put the checkout's ``src`` on the path, or stop: the benchmark
    measures the program in its own checkout and nothing else."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench_e2e: no program sources under {ROOT}/src")
    for path in (str(BENCH_DIR), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


class Gate:
    """Checks every repeat of one seed against the first."""

    def __init__(self) -> None:
        self.first: tuple | None = None
        self.attempted = 0
        self.failed: list[str] = []

    def check(self, result) -> None:
        if result.gate:
            raise GateError("; ".join(result.gate))
        fingerprint = (result.digests, result.misses,
                       result.opportunities)
        if self.first is None:
            self.first = fingerprint
        elif fingerprint != self.first:
            raise GateError("telemetry digest or DCI miss count differs "
                            "between repeats of one seed")
        self.attempted += result.slots + result.checks
        self.failed.extend(result.mismatches)


def _repeat(spec, seed: int, tmp: Path, gate: Gate, clock=None,
            gauge=None):
    import workloads

    gc.collect()
    result = workloads.run_once(spec, seed, tmp, clock, gauge)
    gate.check(result)
    return result


def _warm_up(spec, seed: int, tmp: Path) -> None:
    """One short repeat, outside the gate and the figures, so lazy
    imports and kernel caches fill before anything is timed."""
    import workloads

    workloads.run_once(workloads.scaled(spec, WARMUP_SCALE), seed, tmp)


def _summary(result) -> dict:
    """The small part of a repeat that outlives it."""
    return {"cell_s": [result.cell_s], "run_s": [result.run_s],
            "setup_s": [result.setup_s], "query_s": result.query_s,
            "checkpoint_s": result.checkpoint_s,
            "resume_s": result.resume_s,
            "slot_s": result.slot_s, "hit_ratio": result.hit_ratio}


def _repeat_while(seconds: float, body, at_least: int) -> None:
    """Call ``body`` at least ``at_least`` times, then again while one
    more call, at the mean duration so far, fits in ``seconds``."""
    started = time.perf_counter()
    done = 0
    while True:
        body()
        done += 1
        elapsed = time.perf_counter() - started
        if done >= at_least and elapsed * (done + 1) / done > seconds:
            return


def measure(spec, seed: int, seconds: float, tmp: Path) -> dict:
    """Untraced run: every end-to-end metric."""
    import workloads

    gate = Gate()
    gauge = workloads.Gauge()
    repeats: list[dict] = []

    def body() -> None:
        repeats.append(_summary(_repeat(spec, seed, tmp, gate)))
        # Set-ups sampled between repeats spread over the whole run.
        for _ in range(SETUPS_PER_REPEAT):
            gc.collect()
            repeats[-1]["setup_s"].append(
                workloads.setup_once(spec, seed, gauge))

    _warm_up(spec, seed, tmp)
    _repeat_while(seconds, body, MIN_REPEATS)

    def pooled(key: str) -> list[float]:
        return [x for r in repeats for x in r[key]]

    # Every repeat replays the same slots, so a slot's lesser time over
    # two repeats is its cost without a burst of host noise in either.
    slots = [min(times) for times in
             zip(*(r["slot_s"] for r in repeats[:SLOT_REPEATS]))]
    cuts = statistics.quantiles(slots, n=100, method="inclusive")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "sim_s_per_cpu_s": (sum(pooled("cell_s")) / sum(pooled("run_s")),
                            "s/s"),
        "slot_p50_us": (1e6 * cuts[49], "us"),
        "slot_p99_us": (1e6 * cuts[98], "us"),
        "query_ms": (1e3 * statistics.median(pooled("query_s")), "ms"),
        "checkpoint_max_ms": (
            1e3 * statistics.median(pooled("checkpoint_s")), "ms"),
        "resume_s": (statistics.median(pooled("resume_s")), "s"),
        "setup_s": (statistics.median(pooled("setup_s")), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "dci_hit_ratio": (repeats[0]["hit_ratio"], "ratio"),
    }
    notes = [f"{len(repeats)} timed repeats after a short warm-up; "
             f"{len(slots)} timed slots, {len(pooled('setup_s'))} "
             f"set-ups"]
    return _payload(gate, metrics, notes)


def trace(spec, seed: int, seconds: float, tmp: Path) -> dict:
    """Traced run: every per-layer metric, the tracing overhead and the
    run time no layer accounts for."""
    import workloads
    from layers import LayerProbe, repeat_layers
    from tracer import Tracer

    # No reference runs: they would add to the traced wall time.
    gauge = workloads.Gauge(enabled=False)
    gate = Gate()
    probe = LayerProbe()
    tracer = Tracer(probe.targets())
    repeats, untraced, traced, unattributed = [], [], [], []

    def body() -> None:
        # An untraced and a traced repeat side by side, so that a change
        # of host speed does not pass for tracing overhead.
        untraced.append(_repeat(spec, seed, tmp, gate,
                                gauge=gauge).run_wall_s)
        with tracer:
            result = _repeat(spec, seed, tmp, gate,
                             clock=lambda: tracer.attributed_s, gauge=gauge)
        repeats.append(repeat_layers(result))
        traced.append(result.run_wall_s)
        unattributed.append(result.run_wall_s - result.run_traced_s)

    _warm_up(spec, seed, tmp)
    _repeat_while(seconds, body, 1)
    metrics = probe.metrics(tracer, repeats)
    metrics["trace.overhead"] = (sum(traced) / sum(untraced), "ratio")
    metrics["trace.unattributed_s"] = (statistics.fmean(unattributed),
                                       "s")
    # The observer span only contains the runtime stages; rank those.
    busiest = max((k for k in metrics if k.endswith(".busy_s")
                   and k != "scope.observe_slot.busy_s"),
                  key=lambda k: metrics[k][0])
    notes = [f"{len(repeats)} traced repeats; largest layer {busiest}"]
    return _payload(gate, metrics, notes)


def _payload(gate: Gate, metrics: dict, notes: list[str]) -> dict:
    return {"correct": not gate.failed,
            "attempted": max(gate.attempted, 1),
            "failed": len(gate.failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
            "notes": notes + gate.failed}


def render(workload: str, payload: dict) -> str:
    """The human-readable table of one workload's metrics."""
    lines = [f"== {workload}: correct={payload['correct']} "
             f"attempted={payload['attempted']} "
             f"failed={payload['failed']}"]
    lines += [f"   {note}" for note in payload["notes"]]
    for name, metric in payload["metrics"].items():
        lines.append(f"   {name:34s} {metric['value']:>16.6g} "
                     f"{metric['unit']}")
    return "\n".join(lines)


def run_all(names: list[str], argv: list[str]) -> dict | None:
    """Every workload in a process of its own, so that each one's peak
    resident set is its own.  Relays each table; returns the combined
    result, or ``None`` when a workload fails."""
    results = {}
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv,
             "--workload", name], capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(done.stderr, end="", file=sys.stderr)
            return None
        results[name] = json.loads(lines[-1])
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    import workloads

    if args.workload != "all" and args.workload not in workloads.SPECS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.SPECS)} or all")
    if args.workload == "all":
        combined = run_all(list(workloads.SPECS),
                           ["--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)])
        if combined is None:
            return 1
        print(json.dumps(combined))
        return 0
    run = trace if args.trace else measure
    tmp = workloads.scratch_dir(ROOT)
    try:
        payload = run(workloads.SPECS[args.workload], args.seed,
                      args.seconds, tmp)
    except GateError as exc:
        print(f"bench_e2e: correctness gate failed: {exc}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(render(args.workload, payload), flush=True)
    payload.pop("notes")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
