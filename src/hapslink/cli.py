"""Command-line front end.

Subcommands:
  sweep-capacity   capacity vs platform offset, CSV out
  sweep-ee         energy efficiency vs platform offset, CSV out
  sweep-latency    offload latency vs task size, CSV out
  select           decide the mode for a single request
  replay           run a request trace through the selection engine

Each command writes its CSV all or nothing: a run that fails leaves no
partial --out file and prints no rows. replay streams one row per
request, so its memory does not grow with the number of requests.

Exit codes: 0 success, 1 invalid input (including a scenario the model
cannot evaluate), 2 infeasible objective.
"""

import argparse
import contextlib
import errno
import os
import shutil
import sys
import tempfile

from .config import ConfigError, load_config
from .engine import (
    OBJECTIVES,
    Request,
    RequestKind,
    build_engine,
    decisions_to_csv,
    handle_request,
    stream_replay,
)
from .modes import Action, Mode
from .sweeps import sweep_capacity, sweep_ee, sweep_latency

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hapslink",
        description="Multi-payload aerial backhaul simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text, sweep in (
        ("sweep-capacity", "per-mode capacity over platform offset", sweep_capacity),
        ("sweep-ee", "per-mode energy efficiency over platform offset", sweep_ee),
        ("sweep-latency", "offload latency over task size", sweep_latency),
        ("select", "decide the mode for one request", None),
        ("replay", "replay a request trace", None),
    ):
        p = commands[name] = sub.add_parser(name, help=help_text)
        p.set_defaults(sweep=sweep)
        p.add_argument("--config", help="scenario config file (or set HAPSLINK_CONFIG)")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        if sweep is not None:
            p.add_argument("--grid", type=float, help="override the sweep step")
            p.add_argument(
                "--emit-gnuplot", action="store_true",
                help="also write a gnuplot script next to the CSV (requires --out)",
            )

    p = commands["select"]
    p.add_argument(
        "--kind", required=True,
        choices=[k.value for k in RequestKind],
    )
    p.add_argument("--content-id", default=None)
    p.add_argument("--size-bits", type=float, default=None)
    p.add_argument("--objective", default=None, choices=list(OBJECTIVES))
    p.add_argument("--qos-bps", type=float, default=None)
    p.add_argument("--t", type=float, default=0.0)

    p = commands["replay"]
    p.add_argument("trace", help="request trace file")
    p.add_argument(
        "--force-mode", default=None,
        choices=[m.value.lower() for m in Mode],
        help="route every request through one payload (energy comparisons)",
    )
    return parser


@contextlib.contextmanager
def _all_or_nothing(out_path):
    """A text file for the block to write the output into. The output
    reaches out_path, or stdout when there is none, only if the block
    completes: a run that fails leaves no partial file and prints nothing.

    out_path is written to a temporary file beside it and renamed over
    it, so its directory must be writable. An existing file keeps its
    permission bits, and one the user may not write is refused, as an
    in-place write would be. A path that names no regular file, such as
    a device, is written in place: nothing may be renamed over it.
    """
    if not out_path:
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as fh:
            yield fh
            fh.seek(0)
            shutil.copyfileobj(fh, sys.stdout)
        return
    target = os.path.realpath(out_path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        if os.path.exists(target) and not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        fh = open(tmp, "w", encoding="utf-8", newline="\n")
    except OSError as err:  # name the output, not the temporary file
        raise OSError(err.errno, err.strerror, out_path) from None
    try:
        with fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _gnuplot_script(result, csv_path):
    """The gnuplot script of the CSV at csv_path; gnuplot reads '' as ' in a '-string."""
    cols = result.header
    data = csv_path.replace("'", "''")
    plots = ", ".join(
        f"'{data}' using 1:{i + 2} with lines title '{name}'"
        for i, name in enumerate(cols[1:])
    )
    return "\n".join(
        (
            "set datafile separator ','",
            f"set xlabel '{cols[0]}'",
            "set key outside",
            f"plot {plots}",
            "pause -1",
        )
    ) + "\n"


def _run_sweep(args):
    cfg = load_config(args.config)
    result = args.sweep(cfg, step=args.grid)
    out_path = args.out or cfg.output_path
    if args.emit_gnuplot and not out_path:
        raise ConfigError("--emit-gnuplot needs --out (or an [output] path)")
    with _all_or_nothing(out_path) as fh:
        fh.write(result.to_csv())
        if args.emit_gnuplot:  # written before the CSV is renamed into place
            with _all_or_nothing(out_path + ".gp") as gp:
                gp.write(_gnuplot_script(result, out_path))
    for key in sorted(result.notes):
        print(f"# {key} = {result.notes[key]}", file=sys.stderr)
    return EXIT_OK


def _cmd_select(args):
    cfg = load_config(args.config)
    req = Request(
        t=args.t,
        kind=RequestKind(args.kind),
        content_id=args.content_id,
        size_bits=args.size_bits,
        objective=OBJECTIVES.get(args.objective),
        qos_min_bps=args.qos_bps,
    )
    ctx, state = build_engine(cfg)
    decision, _ = handle_request(req, state, ctx)
    with _all_or_nothing(args.out) as fh:
        fh.write(decisions_to_csv([req], [decision]))
    if decision.action is Action.INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_replay(args):
    cfg = load_config(args.config)
    force = Mode(args.force_mode.upper()) if args.force_mode else None
    with open(args.trace, "r", encoding="utf-8-sig") as lines:
        ctx, state = build_engine(cfg)
        with _all_or_nothing(args.out or cfg.output_path) as out:
            s = stream_replay(lines, state, ctx, out.write, force_mode=force)
    counts = " ".join(f"{m}={c}" for m, c in sorted(s.mode_counts.items()))
    print(f"# requests = {s.requests}", file=sys.stderr)
    print(f"# mode_counts: {counts}", file=sys.stderr)
    print(f"# total_energy_J = {s.total_energy_J:.8e}", file=sys.stderr)
    print(f"# cache_hit_rate = {s.cache_hit_rate:.8e}", file=sys.stderr)
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.sweep is not None:
            return _run_sweep(args)
        if args.command == "select":
            return _cmd_select(args)
        return _cmd_replay(args)
    except (ValueError, ArithmeticError, OSError) as err:
        # ConfigError and RequestError are ValueErrors; so are the model's
        # own refusals: a payload that carries nothing, a figure that
        # overflows. Inside the declared input ranges no model figure
        # raises an ArithmeticError; one that does still exits 1
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
