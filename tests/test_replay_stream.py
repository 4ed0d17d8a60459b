"""The streamed `hapslink replay`: byte-identical to a per-request
reference, with the trace parsed in this process or in a forked child;
all-or-nothing output, a bounded decision memo, and trace lines that
round-trip through the parser."""

import contextlib
import io
import math
import os
import re
import stat
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hapslink import (
    Action,
    CacheState,
    EngineContext,
    Mode,
    RequestError,
    RequestKind,
    decisions_to_csv,
    handle_request,
    load_config,
    load_trace,
    parse_trace_line,
    replay_trace,
)
from hapslink import engine
from hapslink.cli import EXIT_INVALID, EXIT_OK, main
from hapslink.engine import OBJECTIVES, iter_trace, stream_replay

from conftest import _in_the_child, sends_half_a_frame_then_exits

GOLDEN_TRACE = os.path.join(os.path.dirname(__file__), "data", "golden_trace.txt")

# scenarios the differential test draws from: stock, a one-sighting
# cache of two entries, a corridor where only the relay carries anything
# (a task or a cache hit is refused mid-trace), and one outside the
# declared ranges, refused as it is loaded
CONFIGS = {
    "default": "",
    "eager": "[smbs]\ncache_capacity = 2\n\n[engine]\npopularity_threshold = 1\n",
    "far": "[geometry]\nD = 1e6\nx = 5e5\n\n[radio]\nf = 5e10\n",
    "huge": "[geometry]\nD = 1e9\nx = 5e8\n",
}
FORCE = (None, "smbs", "rs", "ris")


def _context(cfg):
    return EngineContext(
        geom=cfg.geom, radio=cfg.radio, configs=cfg.configs,
        cloud=cfg.cloud, cycles_per_bit=cfg.cycles_per_bit,
    )


def _reference(trace, config, force):
    """(exit code, stdout CSV, stderr) of a replay, computed without the
    stream or the memo: the whole trace is parsed first, then each request
    is decided on a fresh EngineContext."""
    try:
        cfg = load_config(config)
        with open(trace, encoding="utf-8") as fh:
            parsed = [parse_trace_line(line, lineno) for lineno, line in enumerate(fh, 1)]
        requests = [req for req in parsed if req is not None]
        mode = Mode(force.upper()) if force else None
        state = CacheState(cfg.smbs.cache_capacity, cfg.popularity_threshold)
        decisions = []
        for index, req in enumerate(requests):
            try:
                if mode is None:
                    decision, state = handle_request(req, state, _context(cfg))
                else:
                    decision = replay_trace(
                        [req], state, _context(cfg), force_mode=mode
                    ).decisions[0]
            except RequestError as err:  # replay_trace numbers its one request
                raise RequestError(f"request {index}: " + str(err)[len("request 0: "):])
            except ValueError as err:
                raise RequestError(f"request {index}: {err}")
            if index and req.t < requests[index - 1].t:
                raise RequestError(
                    f"request {index}: timestamps must be non-decreasing "
                    f"({req.t} after {requests[index - 1].t})"
                )
            decisions.append(decision)
        counts = {m.value: 0 for m in Mode}
        for d in decisions:
            if d.mode is not None:
                counts[d.mode.value] += 1
        total = sum(d.energy_J for d in decisions if d.energy_J is not None)
        if not math.isfinite(total):
            raise ValueError(f"total_energy_J overflows to {total}")
        content = [d for r, d in zip(requests, decisions)
                   if r.kind is RequestKind.CONTENT_DELIVERY]
        # a forced replay bypasses the cache, so it has no hits
        hits = 0 if mode else sum(d.action is Action.SERVE_DIRECT for d in content)
        rate = hits / len(content) if content else 0.0
    except (ValueError, ArithmeticError, OSError) as err:
        return EXIT_INVALID, "", f"error: {err}\n"
    summary = "".join((
        f"# requests = {len(requests)}\n",
        "# mode_counts: " + " ".join(f"{m}={c}" for m, c in sorted(counts.items())) + "\n",
        f"# total_energy_J = {total:.8e}\n",
        f"# cache_hit_rate = {rate:.8e}\n",
    ))
    return EXIT_OK, decisions_to_csv(requests, decisions), summary


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def reader(forked):
    """Replays parse every regular-file trace in a forked child, in blocks
    of 3 lines, as on a machine with two usable CPUs (forked), or every
    trace in this process; yields the list of the children forked
    meanwhile."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "SPLIT_MIN_BYTES", 0 if forked else math.inf)
        if forked:
            patch.setattr(engine, "_BLOCK_LINES", 3)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        patch.setattr(os, "fork", counted_fork)
        yield forks


def _replay_file(lines, state, ctx, force_mode=None):
    """stream_replay of lines written to a trace file: (summary, CSV), or
    the RequestError raised."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.trace")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        out = io.StringIO()
        with open(path, encoding="utf-8") as fh:
            try:
                summary = stream_replay(fh, state, ctx, out.write, force_mode)
            except RequestError as err:
                return err
    return summary, out.getvalue()


# "{i}" stands for the line's index, so time runs forward unless another
# timestamp is drawn; the small pools make tails repeat
_T = st.sampled_from(["{i}", "{i}", "{i}", "0", " 2.5 ", "-1", "nan", "1e400", "t"])
_SIZE = st.sampled_from(["", "0", "-0", "0.0", "1e6", "2.5e7", "1.7e308", "-5", "bits"])
_ID = st.sampled_from(["", "a", "b", " a ", "vid 9"])
_KIND = st.sampled_from(
    ["content_delivery", "content_delivery", "caching", "communication",
     "task_offloading", "teleport"]
)
_GOAL = st.sampled_from([
    ",", ",", "max_capacity,", "max_energy_efficiency,", "min_energy,5e7",
    "min_energy,1.5e8", "min_energy,", ",1.2e8", "up,",
])
_REQUEST_LINE = st.tuples(_T, _KIND, _ID, _SIZE, _GOAL).map(",".join)
_LINE = st.one_of(
    _REQUEST_LINE, _REQUEST_LINE, _REQUEST_LINE,
    st.sampled_from(["", "# comment", "1,2", "1,communication,,,,,"]),
)


@settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    lines=st.lists(_LINE, max_size=12),
    copies=st.one_of(st.just(1), st.integers(1, 40)),
    config=st.sampled_from(sorted(CONFIGS)),
    force=st.sampled_from(FORCE),
    to_stdout=st.booleans(),
)
# a refused request, then a malformed line: the line is the error
@example(lines=["{i},task_offloading,,1.7e308,,", "t,caching,a,,,"], copies=1,
         config="default", force=None, to_stdout=False)
# signed zero: the same tail but for its sign prints different energy
@example(lines=["{i},communication,,0,,", "{i},communication,,-0,,"] * 2, copies=1,
         config="default", force=None, to_stdout=True)
@example(lines=["{i},content_delivery,a,1e6,,"] * 4 + ["{i},content_delivery,b,1e6,,"],
         copies=1, config="eager", force="smbs", to_stdout=False)
# a repeated tail whose content_id goes missing is parsed, and refused
@example(lines=["{i},content_delivery,a,1e6,,"] * 2 + ["{i},content_delivery,,1e6,,"],
         copies=1, config="default", force=None, to_stdout=False)
# rows past one block (_BLOCK_LINES rows), then a refusal and a later
# malformed line
@example(lines=["{i},content_delivery,a,1e6,,", "{i},communication,,1e6,,"], copies=150,
         config="default", force=None, to_stdout=True)
@example(lines=["{i},content_delivery,a,1e6,,"] * 299
         + ["{i},task_offloading,,1.7e308,,", "{i},caching,b,1e6,,", "t,caching,a,,,"],
         copies=1, config="eager", force=None, to_stdout=False)
def test_streamed_replay_matches_per_request_reference(
    tmp_path, lines, copies, config, force, to_stdout
):
    # copies repeats the drawn lines, so traces run past one block
    # (_BLOCK_LINES rows) and their tails repeat; the forked reader sends
    # blocks of 3 lines
    lines = lines * copies
    trace = tmp_path / "trace.txt"
    trace.write_text("\n".join(line.replace("{i}", str(i)) for i, line in enumerate(lines)))
    cfg = tmp_path / "scenario.ini"
    cfg.write_text(CONFIGS[config])
    out = tmp_path / "decisions.csv"
    argv = ["replay", str(trace), "--config", str(cfg)]
    if force:
        argv += ["--force-mode", force]
    if not to_stdout:
        argv += ["--out", str(out)]

    want_code, want_csv, want_err = _reference(str(trace), str(cfg), force)
    for forked in (False, True):
        out.unlink(missing_ok=True)
        with reader(forked) as forks:
            code, stdout, stderr = _cli(argv)
        # a config refused as it is loaded reads no trace
        assert len(forks) == (forked and config != "huge")
        assert (code, stderr) == (want_code, want_err)
        written = not to_stdout and code == EXIT_OK
        csv = out.read_text() if written else stdout
        assert csv == (want_csv if code == EXIT_OK else "")
        # no partial output, and no temporary file left beside it
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["trace.txt", "scenario.ini"] + (["decisions.csv"] if written else [])
        )


# ---------------------------------------------------------------
# all-or-nothing output
# ---------------------------------------------------------------

BAD_LAST_LINE = "0,content_delivery,a,1e6,,\n1,content_delivery,a,1e6,,\n2,nonsense,,,,\n"


def test_failed_replay_prints_no_rows(tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text(BAD_LAST_LINE)
    code, stdout, stderr = _cli(["replay", str(trace)])
    assert code == EXIT_INVALID
    assert stdout == ""
    assert stderr == "error: line 3: unknown kind 'nonsense'\n"


def _long_trace(k, tail):
    """A comment, then k in-order requests over a few ids and kinds, then
    the lines of tail, whose "{i}" stands for the request index."""
    kinds = ("{i},content_delivery,c{c},1e6,,", "{i},communication,,2e6,,",
             "{i},caching,c{c},5e6,,", "{i},task_offloading,,1e5,,")
    body = [kinds[i % 4].format(i=i, c=i % 5) for i in range(k)]
    return "\n".join(["# t,kind,content_id,size_bits,objective,qos_bps"] + body
                     + [line.replace("{i}", str(k + j)) for j, line in enumerate(tail)])


# request k overflows: its task's computation time is inf
_REFUSED = "{i},task_offloading,,1.7e308,,"


# k straddles the block, whose rows go out in one write
@pytest.mark.parametrize("to_stdout", [False, True])
@pytest.mark.parametrize("k", [3, engine._BLOCK_LINES - 1, engine._BLOCK_LINES, 700])
def test_refusal_past_a_write_batch_leaves_no_output(tmp_path, k, to_stdout):
    trace = tmp_path / "t.trace"
    trace.write_text(_long_trace(k, [_REFUSED] + ["{i},communication,,1e6,,"] * 300))
    out = tmp_path / "d.csv"
    code, stdout, stderr = _cli(["replay", str(trace)] + ([] if to_stdout else ["--out", str(out)]))
    assert (code, stdout) == (EXIT_INVALID, "")
    assert stderr == f"error: request {k}: objective_value overflows to inf\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.trace"]


@pytest.mark.parametrize("to_stdout", [False, True])
@pytest.mark.parametrize("k", [3, 256, 700])
def test_malformed_line_after_a_refusal_is_the_error(tmp_path, k, to_stdout):
    # the refusal at request k is reported only if the rest of the trace
    # parses; the comment line shifts line numbers one past request indices
    good = ["{i},content_delivery,c1,1e6,,", "{i},task_offloading,,1e5,,"] * 200
    trace = tmp_path / "t.trace"
    trace.write_text(_long_trace(k, [_REFUSED] + good + ["{i},nonsense,,,,"] + good))
    bad_line = 1 + k + 1 + len(good) + 1
    out = tmp_path / "d.csv"
    for forked in (False, True):
        trace.write_text(_long_trace(k, [_REFUSED] + good + ["{i},nonsense,,,,"] + good))
        with reader(forked):
            code, stdout, stderr = _cli(
                ["replay", str(trace)] + ([] if to_stdout else ["--out", str(out)]))
        assert (code, stdout) == (EXIT_INVALID, "")
        assert stderr == f"error: line {bad_line}: unknown kind 'nonsense'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.trace"]
        # without the malformed line, the refusal is the error
        trace.write_text(_long_trace(k, [_REFUSED] + good + good))
        with reader(forked):
            assert _cli(["replay", str(trace), "--out", str(out)])[2] == (
                f"error: request {k}: objective_value overflows to inf\n"
            )


def test_memoised_tail_with_a_bad_timestamp_names_its_line(tmp_path):
    # the second line repeats the first one's tail, so only its t is parsed
    trace = tmp_path / "t.trace"
    trace.write_text("0,communication,,1e6,,\nx,communication,,1e6,,\n")
    for forked in (False, True):
        with reader(forked):
            assert _cli(["replay", str(trace)]) == (
                EXIT_INVALID, "", "error: line 2: bad timestamp 'x'\n"
            )


def test_total_energy_that_overflows_is_refused(tmp_path):
    # each row's energy is finite (about 9.6e307 J); their sum is not
    cfg = tmp_path / "scenario.ini"
    cfg.write_text("[smbs]\npayload_power_W = 1e300\n")
    trace = tmp_path / "t.trace"
    trace.write_text("0,communication,,1e16,,\n1,communication,,1e16,,\n")
    argv = ["replay", str(trace), "--config", str(cfg), "--force-mode", "smbs"]
    for forked in (False, True):
        with reader(forked):
            assert _cli(argv) == (EXIT_INVALID, "", "error: total_energy_J overflows to inf\n")


def test_stream_of_a_list_drains_on_from_the_refused_line():
    cfg = load_config(None)
    lines = ["# header", "0,task_offloading,,1.7e308,,", "1,communication,,,,",
             "2,nonsense,,,,"]
    with pytest.raises(RequestError, match=r"^line 4: unknown kind 'nonsense'$"):
        stream_replay(lines, CacheState(), _context(cfg), io.StringIO().write)


def test_refused_out_of_order_line_leaves_the_cache_alone():
    state = CacheState()
    lines = ["5,content_delivery,a,1e6,,\n", "4,content_delivery,b,1e6,,\n"]
    with pytest.raises(RequestError, match=r"^request 1: timestamps must be "
                                           r"non-decreasing \(4.0 after 5.0\)$"):
        stream_replay(lines, state, _context(load_config(None)), io.StringIO().write)
    assert state == CacheState(popularity={"a": 1})


_ORDER_LINE = st.tuples(
    st.sampled_from(["{i}", "{i}", "0", "-1"]),
    st.sampled_from(["content_delivery,a", "content_delivery,b", "caching,c",
                     "caching,d", "caching,e", "communication,", "task_offloading,"]),
    st.sampled_from(["1e6", "1e6", "1.7e308"]),  # a 1.7e308-bit task overflows
).map(lambda cells: ",".join(cells) + ",,")


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_ORDER_LINE, min_size=1, max_size=10),
       bounds=st.sampled_from([(16, 3), (2, 1), (1, 2)]))
# the third push would evict c; the third read would be cached, evicting d
@example(lines=["1,caching,c,1e6,,", "2,caching,d,1e6,,", "0,caching,e,1e6,,"],
         bounds=(2, 1))
@example(lines=["1,caching,c,1e6,,", "2,caching,d,1e6,,", "0,content_delivery,a,1e6,,"],
         bounds=(2, 1))
def test_a_refused_line_leaves_the_state_of_the_accepted_prefix(lines, bounds):
    ctx = _context(load_config(None))
    lines = [line.replace("{i}", str(i)) for i, line in enumerate(lines)]

    def run(trace):
        state = CacheState(*bounds)
        try:
            stream_replay(trace, state, ctx, io.StringIO().write)
        except RequestError as err:
            return state, err
        return state, None

    state, err = run(lines)
    # the same state and error when a forked child parses the trace
    forked_state = CacheState(*bounds)
    with reader(True) as forks:
        got = _replay_file(lines, forked_state, ctx)
    assert len(forks) == 1
    assert forked_state == state
    if err is None:
        assert not isinstance(got, RequestError)
    else:
        assert str(got) == str(err)
    if err is not None:
        refused = int(re.match(r"request (\d+): ", str(err))[1])
        accepted, none = run(lines[:refused])
        assert none is None
        assert state == accepted


def test_failed_replay_keeps_the_previous_output(tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text(BAD_LAST_LINE)
    out = tmp_path / "d.csv"
    out.write_text("earlier run\n")
    assert _cli(["replay", str(trace), "--out", str(out)])[0] == EXIT_INVALID
    assert out.read_text() == "earlier run\n"
    trace.write_text(BAD_LAST_LINE.rsplit("2,", 1)[0])
    assert _cli(["replay", str(trace), "--out", str(out)])[0] == EXIT_OK
    assert out.read_text().count("\n") == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "t.trace"]


def test_replaced_output_keeps_its_permission_bits(tmp_path):
    out = tmp_path / "d.csv"
    out.write_text("earlier run\n")
    out.chmod(0o640)
    assert _cli(["replay", GOLDEN_TRACE, "--out", str(out)])[0] == EXIT_OK
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert out.read_text().startswith("t,kind,")


def test_output_the_user_may_not_write_is_refused(tmp_path, monkeypatch):
    # the rename could replace it, but an in-place write could not
    out = tmp_path / "d.csv"
    out.write_text("earlier run\n")
    real = os.path.realpath(out)
    monkeypatch.setattr(os, "access", lambda path, mode: os.path.realpath(path) != real)
    code, stdout, stderr = _cli(["replay", GOLDEN_TRACE, "--out", str(out)])
    assert (code, stdout) == (EXIT_INVALID, "")
    assert stderr == f"error: [Errno 13] Permission denied: '{out}'\n"
    assert out.read_text() == "earlier run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


def test_unwritable_output_names_the_path(tmp_path):
    out = tmp_path / "missing" / "d.csv"
    code, _, stderr = _cli(["replay", GOLDEN_TRACE, "--out", str(out)])
    assert code == EXIT_INVALID
    assert stderr == f"error: [Errno 2] No such file or directory: '{out}'\n"


def test_output_that_is_no_regular_file_is_written_in_place(tmp_path):
    # nothing may be renamed over a directory or a device such as /dev/null
    target = tmp_path / "a_directory"
    target.mkdir()
    code, _, stderr = _cli(["replay", GOLDEN_TRACE, "--out", str(target)])
    assert code == EXIT_INVALID
    assert stderr == f"error: [Errno 21] Is a directory: '{target}'\n"
    assert target.is_dir() and sorted(p.name for p in tmp_path.iterdir()) == ["a_directory"]


@pytest.mark.parametrize("argv", [
    ["replay", GOLDEN_TRACE], ["sweep-capacity", "--grid", "30000"],
])
def test_output_to_a_device_is_written_in_place(monkeypatch, argv):
    # a rename over /dev/null would replace the device with a file: refuse
    # it here, so a regression fails this test and leaves the device alone
    rename = os.replace

    def guarded(src, dst, *args, **kwargs):
        if os.path.realpath(dst) == "/dev/null":
            raise PermissionError(f"renamed {src} over /dev/null")
        return rename(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", guarded)
    code, stdout, _ = _cli(argv + ["--out", "/dev/null"])
    assert (code, stdout) == (EXIT_OK, "")
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)
    assert not os.path.exists(f"/dev/null.{os.getpid()}.tmp")


def test_forced_smbs_counts_no_cache_hits(tmp_path):
    # a forced replay bypasses the cache: serve_direct is not a hit there
    out = str(tmp_path / "d.csv")
    code, _, stderr = _cli(["replay", GOLDEN_TRACE, "--force-mode", "smbs", "--out", out])
    assert code == EXIT_OK
    assert "# cache_hit_rate = 0.00000000e+00\n" in stderr
    code, _, stderr = _cli(["replay", GOLDEN_TRACE, "--out", out])
    assert "# cache_hit_rate = 3.63636364e-01\n" in stderr


# ---------------------------------------------------------------
# the decision memo
# ---------------------------------------------------------------

def test_decision_memo_stays_within_its_cap(monkeypatch):
    cfg = load_config(None)
    limit = engine._MEMO_LIMIT
    built = []
    build = engine._build

    def counting_build(req, branch, ctx):
        built.append(req.size_bits)
        return build(req, branch, ctx)

    monkeypatch.setattr(engine, "_build", counting_build)
    # a tail is kept from its first sighting on; a full memo still holds
    # it, and one more distinct tail clears the memo, so it is decided again
    sizes = [0, 0] + list(range(1, limit)) + [0, limit, 0]
    lines = [f"{i},communication,,{size},," for i, size in enumerate(sizes)]
    out = io.StringIO()
    summary = stream_replay(lines, CacheState(), _context(cfg), out.write)
    assert summary.requests == len(lines)
    assert built == [0] + list(range(1, limit)) + [limit, 0]
    requests = [parse_trace_line(line) for line in lines]
    reference = replay_trace(requests, CacheState(), _context(cfg))
    assert out.getvalue() == decisions_to_csv(requests, reference.decisions)
    assert summary == reference.summary
    # a forked child's memo clears at the same line, so the fold builds
    # the same decisions
    built.clear()
    with reader(True) as forks:
        assert _replay_file(lines, CacheState(), _context(cfg)) == (summary, out.getvalue())
    assert len(forks) == 1
    assert built == [0] + list(range(1, limit)) + [limit, 0]


def test_memo_keys_each_tail_on_the_branch_it_takes():
    # one tail takes every cache branch in turn, and its memo keeps apart
    # the decisions of each branch
    cfg = load_config(None)
    lines = ["0,content_delivery,a,1e6,,"] * 4
    cold, warm = io.StringIO(), io.StringIO()
    stream_replay(lines, CacheState(16, 3), _context(cfg), cold.write)
    stream_replay(lines, CacheState(16, 1), _context(cfg), warm.write)
    assert [row.split(",")[3] for row in cold.getvalue().split("\n")[1:-1]] == [
        "forward_via_gateway", "forward_via_gateway", "forward_and_cache", "serve_direct"
    ]
    assert [row.split(",")[3] for row in warm.getvalue().split("\n")[1:-1]] == [
        "forward_and_cache", "serve_direct", "serve_direct", "serve_direct"
    ]


# ---------------------------------------------------------------
# the forked reader: a failed child, and clean-up
# ---------------------------------------------------------------

def _exits_3_after_its_first_block(patch):
    def first_block_then_exit(original, *args, **kwargs):
        blocks = original(*args, **kwargs)
        yield next(blocks)
        os._exit(3)

    _in_the_child(patch, engine, "_blocks", first_block_then_exit)


# each failure, and whether its trace holds a refused request
CHILD_FAILURES = {
    "exits_3_after_its_first_block": (_exits_3_after_its_first_block, False),
    "sends_half_a_frame_then_exits_4": (sends_half_a_frame_then_exits(4), False),
    # only the missing end mark tells
    "sends_half_a_frame_then_exits_0": (sends_half_a_frame_then_exits(0), False),
    # refused in the first block, while the child still writes 1,000
    # more: the parent reads them to the end before it raises
    "refusal_in_the_first_block": (lambda patch: None, True),
}


@pytest.mark.parametrize("to_stdout", [False, True])
@pytest.mark.parametrize("failure", sorted(CHILD_FAILURES))
def test_a_failed_reader_gives_the_one_process_outcome(tmp_path, monkeypatch, failure,
                                                      to_stdout):
    install, refused = CHILD_FAILURES[failure]
    if refused:  # request 1, in the first block of 3 lines
        text = _long_trace(1, [_REFUSED] + ["{i},communication,,1e6,,"] * 3000)
    else:
        text = _long_trace(1000, [])
    trace = tmp_path / "t.trace"
    trace.write_text(text + "\n")
    out = tmp_path / "d.csv"
    argv = ["replay", str(trace)] + ([] if to_stdout else ["--out", str(out)])
    with reader(False):
        one = _cli(argv), out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    assert one[0][0] == (EXIT_INVALID if refused else EXIT_OK)
    install(monkeypatch)
    fds = sorted(os.listdir("/proc/self/fd"))
    with reader(True) as forks:
        assert (_cli(argv), out.read_bytes() if out.exists() else None) == one
    assert len(forks) == 1
    # the child is reaped and the pipe closed
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_a_split_replay_folds_only_what_the_reader_sent(tmp_path, monkeypatch):
    # a trace above the threshold, beside a healthy reader: this process
    # never runs the parse stage, neither for the whole trace nor for a
    # rest after a failed reader
    trace = tmp_path / "t.trace"
    trace.write_text(_long_trace(12000, []) + "\n")
    assert trace.stat().st_size >= engine.SPLIT_MIN_BYTES
    argv = ["replay", str(trace)]
    with reader(False):
        one = _cli(argv)
    blocks, parent = engine._blocks, os.getpid()

    def in_the_child_only(*args, **kwargs):
        if os.getpid() == parent:
            raise AssertionError("the parse stage ran in the parent")
        return blocks(*args, **kwargs)

    monkeypatch.setattr(engine, "_blocks", in_the_child_only)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert _cli(argv) == one


def test_a_fold_that_fails_beside_a_blocked_child_reaps_it(tmp_path):
    # the child fills the pipe long before the second write fails
    trace = tmp_path / "t.trace"
    trace.write_text(_long_trace(20000, []))
    writes = []

    def write(text):
        if writes:
            raise OSError(28, "No space left on device")
        writes.append(text)

    fds = sorted(os.listdir("/proc/self/fd"))
    with reader(True) as forks, open(trace, encoding="utf-8") as fh:
        with pytest.raises(OSError, match="No space left"):
            stream_replay(fh, CacheState(), _context(load_config(None)), write)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_a_fork_that_fails_is_a_reader_that_sent_nothing(tmp_path, monkeypatch):
    # the whole trace is then parsed here, and the pipe is closed again
    trace = tmp_path / "t.trace"
    trace.write_text(_long_trace(1000, []) + "\n")
    with reader(False):
        one = _cli(["replay", str(trace)])

    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    with reader(True) as forks:
        assert _cli(["replay", str(trace)]) == one
    assert forks == [] and one[0] == EXIT_OK
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_a_trace_on_stdin_is_read_in_one_process(tmp_path):
    # a pipe cannot be read again from its start, so it is never split;
    # the subprocess fails if it forks
    text = _long_trace(12000, []) + "\n"
    assert len(text) > engine.SPLIT_MIN_BYTES
    trace = tmp_path / "t.trace"
    trace.write_text(text)
    with reader(True) as forks:
        code, stdout, stderr = _cli(["replay", str(trace)])
    assert len(forks) == 1 and code == EXIT_OK
    script = ("import os, sys\n"
              "def fork():\n"
              "    raise AssertionError('forked')\n"
              "os.fork = fork\n"
              "from hapslink.cli import main\n"
              "sys.exit(main(['replay', '/dev/stdin']))\n")
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = {k: v for k, v in os.environ.items() if k != "HAPSLINK_CONFIG"}
    env["PYTHONPATH"] = src
    piped = subprocess.run([sys.executable, "-c", script], input=text.encode(),
                           capture_output=True, env=env, timeout=120)
    assert (piped.returncode, piped.stdout.decode(), piped.stderr.decode()) == (
        code, stdout, stderr)


@pytest.mark.parametrize("run", ["one_process", "split", "split_reader_fails"])
def test_a_trace_that_starts_with_a_byte_order_mark_replays_as_without(tmp_path,
                                                                        monkeypatch, run):
    # a failed reader's trace is read again from its start, past the mark
    with open(GOLDEN_TRACE, encoding="utf-8") as fh:
        text = fh.read()
    plain, marked = tmp_path / "plain.trace", tmp_path / "marked.trace"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    with reader(False):
        one = _cli(["replay", str(plain)])
    assert one[0] == EXIT_OK
    if run == "split_reader_fails":
        sends_half_a_frame_then_exits(4)(monkeypatch)
    with reader(run != "one_process") as forks:
        assert _cli(["replay", str(marked)]) == one
    assert len(forks) == (run != "one_process")
    assert load_trace(str(marked)) == load_trace(str(plain))


# ---------------------------------------------------------------
# trace lines round-trip
# ---------------------------------------------------------------

_TOKEN = {objective.kind: token for token, objective in OBJECTIVES.items()}


def _format(req):
    """A parsed request written back as a trace line."""
    def num(value):
        return "" if value is None else repr(value)

    objective = "" if req.objective is None else _TOKEN[req.objective.kind]
    return ",".join((num(req.t), req.kind.value, req.content_id or "",
                     num(req.size_bits), objective, num(req.qos_min_bps)))


_PAD = st.sampled_from(["", " ", "\t", "　"])
_NUMBER = st.one_of(
    st.sampled_from(["", "0", "-0", "+1.5", "1_000", "1e-320", "1.7e308", "nan", "x"]),
    st.floats(allow_nan=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
_CELL_ID = st.text(
    st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",)),
    max_size=6,
)
_RAW_LINE = st.tuples(
    _NUMBER, st.sampled_from([k.value for k in RequestKind] + ["Caching"]), _CELL_ID,
    _NUMBER, st.sampled_from(["", *OBJECTIVES]), _NUMBER,
).flatmap(lambda cells: _PAD.map(lambda pad: ",".join(pad + c + pad for c in cells)))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_RAW_LINE, max_size=6))
def test_every_parsed_line_round_trips(lines):
    parsed = []
    for lineno, line in enumerate(lines, 1):
        try:
            req = parse_trace_line(line, lineno)
        except RequestError as err:
            # the memoised trace parser stops at the same line, in the same words
            with pytest.raises(RequestError) as caught:
                list(iter_trace(lines))
            assert str(caught.value) == str(err)
            return
        parsed.append(req)
        text = _format(req)
        again = parse_trace_line(text)
        assert again == req
        assert _format(again) == text
    assert [_format(r) for r in iter_trace(lines)] == [_format(r) for r in parsed]
