"""One measured process: import hapslink, load a config, run CLI calls.

Usage: python3 -I child.py SRC CONFIG JOB.json

SRC is the checkout's `src` directory and CONFIG the config whose load
is timed, with the import, as set-up. The job lists argument lists for
`hapslink.cli.main` and, for a traced run, where to write the spans.
The process prints one JSON line: set-up time, per-call exit code, wall
time and stderr, and its own peak resident memory.
"""

# Only modules the interpreter has loaded at start-up are imported before
# the set-up timer, so every import hapslink triggers is charged to it.
import os
import sys
import time


def _call(main, argv):
    import contextlib
    import io
    import traceback

    stderr = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            rc = main(list(argv))
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is recorded as a failed call
        rc = -1
        stderr.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return {"rc": rc, "wall_s": wall, "stderr": stderr.getvalue()}


def main():
    src, config, job_path = sys.argv[1:4]
    sys.path.insert(0, src)

    start = time.perf_counter()
    import hapslink.cli
    from hapslink.config import load_config
    load_config(config)
    setup_s = time.perf_counter() - start

    import json
    import resource

    where = os.path.dirname(os.path.abspath(hapslink.__file__))
    if where != os.path.join(src, "hapslink"):
        print(f"hapslink imported from {where}, not {src}", file=sys.stderr)
        return 1
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)

    tracer = None
    if job.get("spans"):
        sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
        import spans
        tracer = spans.install()
    calls = [_call(hapslink.cli.main, argv) for argv in job.get("argvs", ())]
    if tracer is not None:
        tracer.dump(job["spans"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": setup_s, "calls": calls, "peak_rss_kb": peak_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
