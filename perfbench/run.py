"""hapslink benchmark: drives `hapslink.cli.main` the way a user does.

Run from the root of a hapslink checkout:

    python3 perfbench/run.py --workload replay_mixed --seed 1 --seconds 35 --trace 0

Every run generates its workload's inputs from the seed into a scratch
directory under `.bench_build/`, checks that each generated trace line
round-trips through the program's parser, gates the golden trace, then
repeats the workload's CLI calls, each repetition (a pass) in a fresh
process, for `--seconds`. Every call's output is checked. The last line
of stdout is one JSON object: `correct`, `attempted` and `failed` count
CLI calls, and `metrics` holds the end-to-end metrics (`--trace 0`) or
the per-layer metrics (`--trace 1`); see metrics.py and README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import metrics
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
GOLDEN_TRACE = os.path.join("tests", "data", "golden_trace.txt")
GOLDEN_DECISIONS = os.path.join("tests", "data", "golden_decisions.csv")
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Bench:
    def __init__(self, root, tmpdir, workload):
        self.root = root
        self.src = os.path.join(root, "src")
        self.tmpdir = tmpdir
        self.workload = workload
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = {}  # call index -> sha256 of its first checked output
        with open(os.path.join(root, GOLDEN_DECISIONS), "rb") as fh:
            self.golden = fh.read()
        self.header = self.golden.decode().split("\n", 1)[0]
        self.env = {k: v for k, v in os.environ.items() if k != "HAPSLINK_CONFIG"}

    def elapsed(self):
        return time.perf_counter() - self.started

    def child(self, argvs, spans_path=None):
        """Run one fresh process; its report, or None if it failed."""
        job = os.path.join(self.tmpdir, "job.json")
        with open(job, "w", encoding="utf-8") as fh:
            json.dump({"argvs": argvs, "spans": spans_path}, fh)
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(
                [sys.executable, "-I", CHILD, self.src, self.workload.config, job],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"a process ran past {timeout:.0f} s")
            return None
        if proc.returncode != 0:
            self.problems.append(f"process exited {proc.returncode}: {proc.stderr[-2000:]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def _tally(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def golden_gate(self):
        out = os.path.join(self.tmpdir, "golden.csv")
        report = self.child([["replay", GOLDEN_TRACE, "--out", out]])
        ok = report is not None and report["calls"][0]["rc"] == 0
        if ok:
            with open(out, "rb") as fh:
                ok = fh.read() == self.golden
        self._tally(ok, "golden trace replay differs from " + GOLDEN_DECISIONS)

    def _check_call(self, index, call, result):
        if result["rc"] != 0:
            return f"{call.argv[0]} exited {result['rc']}: {result['stderr'][-2000:]}"
        with open(call.out, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        if index in self.reference:
            if digest != self.reference[index]:
                return f"{call.argv[0]} output changed between passes on the same inputs"
            return None
        text = data.decode()
        if call.kinds is not None:
            problems = checks.check_replay(text, result["stderr"], call.kinds, self.header)
        else:
            problems = checks.check_sweep(text, call.rows)
        if problems:
            return f"{call.argv[0]}: " + "; ".join(problems)
        self.reference[index] = digest
        return None

    def run_pass(self, spans_path=None):
        """One pass over the workload's calls in one fresh process:
        (wall s of the calls, peak MB, set-up s), or None if the process
        failed."""
        calls = self.workload.calls
        report = self.child([list(c.argv) for c in calls], spans_path)
        if report is None:
            for call in calls:
                self._tally(False, f"{call.argv[0]}: no report")
            return None
        for index, (call, result) in enumerate(zip(calls, report["calls"])):
            problem = self._check_call(index, call, result)
            self._tally(problem is None, problem)
        wall = sum(r["wall_s"] for r in report["calls"])
        return wall, report["peak_rss_kb"] / 1024.0, report["setup_s"]


def _check_inputs(bench, seed):
    """The generator is deterministic and the program parses every line
    it wrote back into the same request."""
    again = os.path.join(bench.tmpdir, "again")
    os.mkdir(again)
    workloads.generate(bench.workload.name, seed, again)
    for name in os.listdir(again):
        with open(os.path.join(again, name), "rb") as a, \
                open(os.path.join(bench.tmpdir, name), "rb") as b:
            if a.read() != b.read():
                raise BenchError(f"generator wrote different {name} for one seed")
    shutil.rmtree(again)

    sys.path.insert(0, bench.src)
    from hapslink.engine import parse_trace_line

    for trace in bench.workload.traces:
        with open(trace, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                try:
                    req = parse_trace_line(line, lineno=lineno)
                except ValueError as err:
                    raise BenchError(f"{trace}: the program rejects a generated line: {err}")
                if req is None:
                    continue
                back = workloads.format_request(req)
                if back != line:
                    raise BenchError(f"{trace}:{lineno}: {line!r} parses back as {back!r}")


def _passes(bench, seconds, traced):
    """Repeat rounds until the next would end after `seconds`. A round is
    one plain pass, followed in a traced run by one traced pass."""
    plain, spanned, analyses = [], [], []
    spans_path = os.path.join(bench.tmpdir, "spans.bin")
    loop_start = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        result = bench.run_pass()
        if result is None:
            break
        plain.append(result)
        if traced:
            result = bench.run_pass(spans_path)
            if result is None:
                break
            spanned.append(result)
            analyses.append(spans.analyse(spans_path))
            os.remove(spans_path)
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - loop_start + statistics.median(rounds) > seconds:
            break
        if bench.elapsed() + max(rounds) > RUN_LIMIT_S:
            print(f"perfbench: stopping early to end within {RUN_LIMIT_S:.0f} s",
                  file=sys.stderr)
            break
    return plain, spanned, analyses


def _end_to_end(bench, plain):
    items = bench.workload.items
    values = {
        "items_per_s": statistics.median(items / wall for wall, _, _ in plain),
        "peak_rss_mb": statistics.median(peak for _, peak, _ in plain),
        "setup_s": statistics.median(setup for _, _, setup in plain),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in metrics.END_TO_END}


def _per_layer(bench, plain, spanned, analyses):
    per_pass = [metrics.per_layer_values(a) for a in analyses]
    values = {}
    for name, unit, _ in metrics.PER_LAYER:
        if name == "trace.overhead_frac":
            continue
        if unit in metrics.TIMING_UNITS:
            values[name] = statistics.median(p[name] for p in per_pass)
        else:
            values[name] = per_pass[0][name]
            if any(p[name] != values[name] for p in per_pass):
                bench.problems.append(f"{name} differs between traced passes")
    values["trace.overhead_frac"] = (
        statistics.median(p[0] for p in spanned) / statistics.median(p[0] for p in plain)
        - 1.0
    )
    absent = analyses[0]["absent"]
    if absent:
        print("perfbench: not found, reported as 0: " + ", ".join(absent), file=sys.stderr)
    units = {name: unit for name, unit, _ in metrics.PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run(args, root, tmpdir):
    workload = workloads.generate(args.workload, args.seed, tmpdir)
    bench = Bench(root, tmpdir, workload)
    _check_inputs(bench, args.seed)
    bench.golden_gate()
    plain, spanned, analyses = _passes(bench, args.seconds, args.trace)
    if not plain or (args.trace and not analyses):
        raise BenchError("no pass completed: " + "; ".join(bench.problems[-3:]))
    if args.trace:
        values = _per_layer(bench, plain, spanned, analyses)
    else:
        values = _end_to_end(bench, plain)
    for problem in bench.problems[:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(plain)} passes, "
          f"{workload.items} items each", file=sys.stderr)
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    needed = [os.path.join("src", "hapslink", "cli.py"), GOLDEN_TRACE, GOLDEN_DECISIONS]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print("perfbench: run from the root of a hapslink checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2

    scratch = os.path.join(root, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="perfbench-", dir=scratch)
    try:
        result = run(args, root, tmpdir)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
