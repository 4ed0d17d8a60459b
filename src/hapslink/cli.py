"""Command-line front end.

Subcommands:
  sweep-capacity   capacity vs platform offset, CSV out
  sweep-ee         energy efficiency vs platform offset, CSV out
  sweep-latency    offload latency vs task size, CSV out
  select           decide the mode for a single request
  replay           run a request trace through the selection engine

Exit codes: 0 success, 1 invalid input (including a scenario the model
cannot evaluate), 2 infeasible objective.
"""

import argparse
import sys

from .config import ConfigError, load_config
from .engine import (
    OBJECTIVE_TOKENS,
    CacheState,
    EngineContext,
    Request,
    RequestKind,
    decisions_to_csv,
    handle_request,
    load_trace,
    parse_objective,
    replay_trace,
)
from .modes import Action, Mode
from .sweeps import sweep_capacity, sweep_ee, sweep_latency

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2


def _add_common(parser):
    parser.add_argument("--config", help="scenario config file (or set HAPSLINK_CONFIG)")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--grid", type=float, help="override the sweep step")
    parser.add_argument(
        "--emit-gnuplot", action="store_true",
        help="also write a gnuplot script next to the CSV (requires --out)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hapslink",
        description="Multi-payload aerial backhaul simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("sweep-capacity", "per-mode capacity over platform offset"),
        ("sweep-ee", "per-mode energy efficiency over platform offset"),
        ("sweep-latency", "offload latency over task size"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)

    p = sub.add_parser("select", help="decide the mode for one request")
    _add_common(p)
    p.add_argument(
        "--kind", required=True,
        choices=[k.value for k in RequestKind],
    )
    p.add_argument("--content-id", default=None)
    p.add_argument("--size-bits", type=float, default=None)
    p.add_argument("--objective", default=None, choices=list(OBJECTIVE_TOKENS))
    p.add_argument("--qos-bps", type=float, default=None)
    p.add_argument("--t", type=float, default=0.0)

    p = sub.add_parser("replay", help="replay a request trace")
    _add_common(p)
    p.add_argument("trace", help="request trace file")
    p.add_argument(
        "--force-mode", default=None,
        choices=[m.value.lower() for m in Mode],
        help="route every request through one payload (energy comparisons)",
    )
    return parser


def _write_output(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_gnuplot(result, csv_path):
    gp_path = csv_path + ".gp"
    cols = result.header
    plots = ", ".join(
        f"'{csv_path}' using 1:{i + 2} with lines title '{name}'"
        for i, name in enumerate(cols[1:])
    )
    script = "\n".join(
        (
            "set datafile separator ','",
            f"set xlabel '{cols[0]}'",
            "set key outside",
            f"plot {plots}",
            "pause -1",
        )
    ) + "\n"
    with open(gp_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(script)


def _report_notes(notes):
    for key in sorted(notes):
        value = notes[key]
        print(f"# {key} = {value}", file=sys.stderr)


def _run_sweep(args, fn):
    cfg = load_config(args.config)
    result = fn(cfg, step=args.grid)
    out_path = args.out or cfg.output_path
    if args.emit_gnuplot and not out_path:
        raise ConfigError("--emit-gnuplot needs --out (or an [output] path)")
    _write_output(result.to_csv(), out_path)
    if args.emit_gnuplot:
        _emit_gnuplot(result, out_path)
    _report_notes(result.notes)
    return EXIT_OK


def _cmd_select(args):
    cfg = load_config(args.config)
    req = Request(
        t=args.t,
        kind=RequestKind(args.kind),
        content_id=args.content_id,
        size_bits=args.size_bits,
        objective=(
            parse_objective(args.objective, args.qos_bps) if args.objective else None
        ),
        qos_min_bps=args.qos_bps,
    )
    ctx = EngineContext(
        geom=cfg.geom, radio=cfg.radio, configs=cfg.configs,
        cloud=cfg.cloud, cycles_per_bit=cfg.cycles_per_bit,
    )
    state = CacheState(
        capacity=cfg.smbs.cache_capacity,
        popularity_threshold=cfg.popularity_threshold,
    )
    decision, _ = handle_request(req, state, ctx)
    _write_output(decisions_to_csv([req], [decision]), args.out)
    if decision.action is Action.INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_replay(args):
    cfg = load_config(args.config)
    requests = load_trace(args.trace)
    ctx = EngineContext(
        geom=cfg.geom, radio=cfg.radio, configs=cfg.configs,
        cloud=cfg.cloud, cycles_per_bit=cfg.cycles_per_bit,
    )
    state = CacheState(
        capacity=cfg.smbs.cache_capacity,
        popularity_threshold=cfg.popularity_threshold,
    )
    force = Mode(args.force_mode.upper()) if args.force_mode else None
    result = replay_trace(requests, state, ctx, force_mode=force)
    _write_output(decisions_to_csv(requests, result.decisions), args.out or cfg.output_path)
    s = result.summary
    counts = " ".join(f"{m}={c}" for m, c in sorted(s.mode_counts.items()))
    print(f"# requests = {s.requests}", file=sys.stderr)
    print(f"# mode_counts: {counts}", file=sys.stderr)
    print(f"# total_energy_J = {s.total_energy_J:.8e}", file=sys.stderr)
    print(f"# cache_hit_rate = {s.cache_hit_rate:.8e}", file=sys.stderr)
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep-capacity":
            return _run_sweep(args, sweep_capacity)
        if args.command == "sweep-ee":
            return _run_sweep(args, sweep_ee)
        if args.command == "sweep-latency":
            return _run_sweep(args, sweep_latency)
        if args.command == "select":
            return _cmd_select(args)
        if args.command == "replay":
            return _cmd_replay(args)
        parser.error(f"unknown command {args.command!r}")
    except (ValueError, ArithmeticError, OSError) as err:
        # ConfigError and RequestError are ValueErrors; so are the model's
        # own refusals, and a scenario whose numbers overflow or vanish
        # ends in an ArithmeticError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
