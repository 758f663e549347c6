"""Command-line interface: ``python -m repro.cli <command>``.

Mirrors how the released NR-Scope tool is driven from a terminal:

* ``sniff``    - run a telemetry session against a simulated cell and
  stream/emit the decoded telemetry (optionally as a JSONL log file,
  the paper Fig 4 "log file" output).
* ``cells``    - list the built-in cell profiles (section 5.1 testbeds).
* ``figure``   - regenerate one paper figure's table on stdout.
* ``survey``   - commercial-cell population survey (sections 5.3.1/6).
* ``fleet``    - supervised multi-cell run with come-and-go UEs and
  periodic checkpoints; ``--resume`` continues a killed run from its
  checkpoint file with telemetry identical to an uninterrupted run.
* ``obs``      - observability-stream tooling: ``obs topn`` clusters a
  session's failure events, ``obs validate`` checks a stream against
  the event schema.
* ``lint``     - the nrlint 3GPP bit-contract/determinism static
  analysis (also available as ``python -m repro.lint``).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import print_tables
from repro.core.scope import NRScope
from repro.gnb.cell_config import ALL_PROFILES
from repro.simulation import Simulation


class CliError(ValueError):
    """Raised for invalid command-line usage."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="NR-Scope reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sniff = sub.add_parser("sniff", help="run one telemetry session")
    sniff.add_argument("--profile", default="srsran",
                       choices=sorted(ALL_PROFILES))
    sniff.add_argument("--ues", type=int, default=2)
    sniff.add_argument("--seconds", type=float, default=2.0)
    sniff.add_argument("--seed", type=int, default=0)
    sniff.add_argument("--traffic", default="mixed")
    sniff.add_argument("--channel", default="pedestrian")
    sniff.add_argument("--snr-db", type=float, default=18.0,
                       help="sniffer receive SNR")
    sniff.add_argument("--fidelity", default="message",
                       choices=["message", "iq"])
    sniff.add_argument("--json", metavar="PATH", default=None,
                       help="write the telemetry log as JSON lines")
    sniff.add_argument("--report", action="store_true",
                       help="print the full per-UE session report")
    sniff.add_argument("--runtime-stats", action="store_true",
                       help="print per-stage runtime statistics and "
                            "how many decode slots went over budget (the "
                            "dci stage's time and the slot budget check "
                            "are amortized over each decode window)")
    sniff.add_argument("--obs", action="append", default=[],
                       metavar="SPEC",
                       help="enable the observability bus with a "
                            "reporter: jsonl:PATH | counters | "
                            "ring[:N] | tail[:stdout] (repeatable)")

    sub.add_parser("cells", help="list built-in cell profiles")

    obs = sub.add_parser("obs", help="observability-stream tooling")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    topn = obs_sub.add_parser(
        "topn", help="cluster a stream's failure events (TopN report)")
    topn.add_argument("events", metavar="EVENTS",
                      help="JSONL stream written by sniff --obs jsonl:")
    topn.add_argument("--top", type=int, default=10,
                      help="clusters to keep (default 10)")
    topn.add_argument("--json", metavar="PATH", default=None,
                      help="write the report as a JSON document")
    topn.add_argument("--md", metavar="PATH", default=None,
                      help="write the markdown table to a file "
                           "(default: stdout)")
    validate = obs_sub.add_parser(
        "validate", help="check a stream against the event schema")
    validate.add_argument("events", metavar="EVENTS",
                          help="JSONL stream to validate")

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("name",
                        choices=["fig7", "fig8", "fig10", "fig11",
                                 "fig12", "fig13", "fig15"])
    figure.add_argument("--quick", action="store_true",
                        help="shorter sessions (coarser statistics)")

    survey = sub.add_parser("survey",
                            help="commercial-cell population survey")
    survey.add_argument("--seconds", type=float, default=600.0)
    survey.add_argument("--seed", type=int, default=0)

    fleet = sub.add_parser("fleet",
                           help="supervised multi-cell fleet run "
                                "with periodic checkpoints")
    fleet.add_argument("--cells", type=int, default=2)
    fleet.add_argument("--profile", default="srsran",
                       choices=sorted(ALL_PROFILES))
    fleet.add_argument("--seconds", type=float, default=3.0)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--snr-db", type=float, default=18.0,
                       help="sniffer receive SNR per cell")
    fleet.add_argument("--arrivals", type=float, default=2.0,
                       help="UE arrivals per second per cell")
    fleet.add_argument("--holding-p90", type=float, default=6.0,
                       help="90th-percentile session holding time")
    fleet.add_argument("--horizon", type=float, default=None,
                       help="population horizon (default: --seconds)")
    fleet.add_argument("--interval", type=float, default=1.0,
                       help="checkpoint interval, simulated seconds")
    fleet.add_argument("--checkpoint", metavar="PATH", default=None,
                       help="checkpoint file (written atomically "
                            "after each interval)")
    fleet.add_argument("--resume", action="store_true",
                       help="restore the fleet from --checkpoint "
                            "before running")
    fleet.add_argument("--fidelity", default="message",
                       choices=["message", "iq"])
    fleet.add_argument("--json-dir", metavar="DIR", default=None,
                       help="write each cell's telemetry as "
                            "DIR/<cell>.jsonl")
    fleet.add_argument("--segments-dir", metavar="DIR", default=None,
                       help="write each cell's columnar segments "
                            "under DIR/<cell>/")
    fleet.add_argument("--obs", action="append", default=[],
                       metavar="SPEC",
                       help="enable the observability bus: jsonl:PATH "
                            "| counters | ring[:N] | tail[:stdout] "
                            "(repeatable)")

    from repro.lint.cli import add_arguments as add_lint_arguments
    lint = sub.add_parser("lint",
                          help="run the nrlint static-analysis pass")
    add_lint_arguments(lint)
    return parser


def cmd_sniff(args: argparse.Namespace) -> int:
    from repro.obs import CounterReporter, ObsContext, ReporterError, \
        reporters_from_specs

    profile = ALL_PROFILES[args.profile]
    try:
        reporters = reporters_from_specs(args.obs)
    except ReporterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    counter_rep = next((r for r in reporters
                        if isinstance(r, CounterReporter)), None)
    obs = ObsContext.create(reporters, run_id=f"run-{args.seed:08x}")

    sim = Simulation.build(profile, n_ues=args.ues, seed=args.seed,
                           traffic=args.traffic, channel=args.channel,
                           fidelity=args.fidelity)
    scope = NRScope.attach(sim, snr_db=args.snr_db, obs=obs)
    sim.run(seconds=args.seconds)
    scope.close()
    obs.close()

    print(f"cell {profile.name}: band {profile.band}, "
          f"{profile.n_prb} PRB @ {profile.scs_khz} kHz, "
          f"{'TDD' if profile.is_tdd else 'FDD'}")
    print(f"observed {scope.counters.slots_observed} slots, decoded "
          f"{scope.counters.dcis_decoded} DCIs, "
          f"{scope.counters.msg4_seen} UEs via RACH "
          f"({scope.counters.msg4_missed} missed)")
    now = sim.now_s
    for rnti in scope.tracked_rntis:
        bits = scope.telemetry.bits_between(rnti, 0.0, now)
        retx = scope.telemetry.retransmission_ratio(rnti)
        srs = scope.uci.scheduling_request_count(rnti)
        cqi = scope.uci.latest_cqi(rnti)
        print(f"  UE 0x{rnti:04x}: {bits / now / 1e6:7.2f} Mbps DL, "
              f"retx {retx:6.2%}, CQI {cqi if cqi is not None else '-'}, "
              f"{srs} SRs")
    if args.runtime_stats:
        stats = scope.runtime_stats
        print(f"runtime: "
              f"{stats.slots_completed}/{stats.slots_submitted} slots, "
              f"{stats.busy_per_air_s(profile.slot_duration_s):.2f} s "
              f"per air s (sniffer stages only), "
              f"{stats.budget_overruns} over budget of "
              f"{stats.stage('dci').calls} decode slots (a slot's DCI "
              f"time is its pack, its replay and an equal share of its "
              f"window's shared work)")
        for stage in stats.stages:
            print(f"  {stage.name:<8} {stage.calls:6d} calls, "
                  f"mean {stage.mean_us:9.1f} us, "
                  f"max {1e6 * stage.max_s:9.1f} us")
    if counter_rep is not None:
        print()
        print(counter_rep.render_text(), end="")
    if args.report:
        from repro.analysis.summary import build_session_report
        print()
        print(build_session_report(scope, args.seconds).render())
    if args.json:
        count = scope.telemetry.write_jsonl(args.json)
        print(f"wrote {count} telemetry records to {args.json}")
    return 0


def cmd_cells(args: argparse.Namespace) -> int:
    print(f"{'name':<14}{'band':<6}{'duplex':<8}{'SCS':<6}{'BW MHz':<8}"
          f"{'PRB':<5}{'BWP':<4}{'MCS table'}")
    for name in sorted(ALL_PROFILES):
        p = ALL_PROFILES[name]
        print(f"{p.name:<14}{p.band:<6}"
              f"{'TDD' if p.is_tdd else 'FDD':<8}"
              f"{p.scs_khz:<6}{p.bandwidth_hz / 1e6:<8.0f}"
              f"{p.n_prb:<5}{p.bwp_id:<4}{p.mcs_table}")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    quick = 1.0 if args.quick else 4.0
    if args.name == "fig7":
        from repro.experiments import fig07_dci_miss as fig7
        srsran, amarisoft = fig7.run(duration_s=quick)
        print_tables([fig7.table(srsran, "Fig 7a - srsRAN"),
                      fig7.table(amarisoft, "Fig 7b - Amarisoft")])
    elif args.name == "fig8":
        from repro.experiments import fig08_reg_error as fig8
        srsran, amarisoft = fig8.run(duration_s=quick)
        print_tables([fig8.table(srsran, "Fig 8a - srsRAN"),
                      fig8.table(amarisoft, "Fig 8b - Amarisoft")])
    elif args.name == "fig10":
        from repro.experiments import fig10_active_time as fig10
        print_tables([fig10.table(fig10.run())])
    elif args.name == "fig11":
        from repro.experiments import fig11_ue_counts as fig11
        print_tables([fig11.table(fig11.run())])
    elif args.name == "fig12":
        from repro.experiments import fig12_processing as fig12
        if args.quick:
            rows = fig12.run(ue_counts=(1, 4, 8), n_slots=1)
        else:
            rows = fig12.run()
        print_tables([fig12.table(rows)])
    elif args.name == "fig13":
        from repro.experiments import fig13_coverage as fig13
        print_tables([fig13.table(
            fig13.run(duration_s=max(quick / 4, 0.5)))])
    elif args.name == "fig15":
        from repro.experiments import fig15_mcs_retx as fig15
        print_tables([fig15.table(
            fig15.run(n_ues=8, duration_s=max(quick / 2, 1.0)))])
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown figure: {args.name}")
    return 0


def cmd_survey(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.ue.population import ComeAndGoProcess, \
        TMOBILE_CELL1_PROFILES, active_counts

    profile = TMOBILE_CELL1_PROFILES["afternoon"]
    sessions = ComeAndGoProcess(profile, seed=args.seed) \
        .generate(args.seconds)
    holdings = np.array([s.holding_s for s in sessions])
    per_minute = active_counts(sessions, args.seconds, 60.0)
    print(f"window: {args.seconds:.0f} s, distinct UEs: {len(sessions)}")
    print(f"holding time: median {np.median(holdings):.1f} s, "
          f"p90 {np.percentile(holdings, 90):.1f} s")
    print(f"active per minute: median {np.median(per_minute):.0f}, "
          f"max {per_minute.max()}")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.fleet import FleetConfig, FleetError, FleetSupervisor
    from repro.obs import CounterReporter, ObsContext, ReporterError, \
        reporters_from_specs

    try:
        reporters = reporters_from_specs(args.obs)
    except ReporterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    obs = ObsContext.create(reporters, run_id=f"fleet-{args.seed:08x}") \
        if reporters else None

    try:
        if args.resume:
            if not args.checkpoint:
                raise FleetError("--resume needs --checkpoint PATH")
            supervisor = FleetSupervisor.restore(args.checkpoint, obs=obs)
            print(f"resumed {len(supervisor.controller.cells)} cells "
                  f"at t={supervisor.now_s:.3f} s "
                  f"from {args.checkpoint}")
        else:
            config = FleetConfig(
                n_cells=args.cells, profile=args.profile,
                seed=args.seed, snr_db=args.snr_db,
                arrivals_per_second=args.arrivals,
                holding_p90_s=args.holding_p90,
                horizon_s=args.horizon if args.horizon is not None
                else args.seconds,
                fidelity=args.fidelity,
                checkpoint_interval_s=args.interval)
            supervisor = FleetSupervisor.build(config, obs=obs)
        supervisor.run(args.seconds, checkpoint_path=args.checkpoint)
    except FleetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    controller = supervisor.controller
    now = supervisor.now_s
    print(f"fleet of {len(controller.cells)} cells at t={now:.3f} s")
    for name in controller.cells:
        stream = controller.stream(name)
        scope = stream.scope
        print(f"  {name}: {scope.counters.dcis_decoded} DCIs, "
              f"{scope.counters.msg4_seen} UEs via RACH "
              f"({scope.counters.msg4_missed} missed), "
              f"{len(scope.tracked_rntis)} tracked, "
              f"{len(scope.telemetry)} telemetry rows")
    if args.checkpoint:
        print(f"checkpoint: {args.checkpoint}")
    if args.json_dir:
        base = Path(args.json_dir)
        base.mkdir(parents=True, exist_ok=True)
        for name in controller.cells:
            scope = controller.stream(name).scope
            count = scope.telemetry.write_jsonl(base / f"{name}.jsonl")
            print(f"wrote {count} records to {base / (name + '.jsonl')}")
    if args.segments_dir:
        written = supervisor.write_segments(args.segments_dir)
        for name, rows in sorted(written.items()):
            print(f"wrote {rows} rows of columnar segments to "
                  f"{Path(args.segments_dir) / name}")
    counter_rep = next((r for r in reporters
                        if isinstance(r, CounterReporter)), None)
    if counter_rep is not None:
        print()
        print(counter_rep.render_text(), end="")
    if obs is not None:
        obs.close()
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs import KNOWN_EVENTS, SCHEMA_VERSION, \
        cluster_failures, load_events, render_markdown, \
        report_to_json, validate_events
    from repro.obs.topn import TopnError

    try:
        events = load_events(args.events)
    except TopnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.obs_command == "validate":
        problems = validate_events(events, registry=KNOWN_EVENTS)
        if problems:
            for index, problem in problems[:20]:
                print(f"event {index}: {problem}")
            if len(problems) > 20:
                print(f"... and {len(problems) - 20} more")
            print(f"invalid: {len(problems)} problems in "
                  f"{len(events)} events")
            return 1
        print(f"ok: {len(events)} events, schema v{SCHEMA_VERSION}")
        return 0

    try:
        report = cluster_failures(events, top_n=args.top)
    except TopnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        document = json.dumps(report_to_json(report), indent=2,
                              sort_keys=True)
        Path(args.json).write_text(document + "\n", encoding="utf-8")
        print(f"wrote {args.json}")
    markdown = render_markdown(report)
    if args.md:
        Path(args.md).write_text(markdown, encoding="utf-8")
        print(f"wrote {args.md}")
    else:
        print(markdown, end="")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run as run_lint
    return run_lint(args)


_COMMANDS = {"sniff": cmd_sniff, "cells": cmd_cells,
             "figure": cmd_figure, "survey": cmd_survey,
             "fleet": cmd_fleet, "obs": cmd_obs,
             "lint": cmd_lint}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
