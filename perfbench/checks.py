"""Correctness gates on the program's outputs. Each returns a list of
problems; an empty list means the output passed."""

import math

MODES = ("RIS", "RS", "SMBS")


def _finite(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _stderr_notes(stderr):
    """`# key = value` and `# key: a=1 b=2` lines from a replay."""
    notes = {}
    for line in stderr.splitlines():
        if not line.startswith("# "):
            continue
        key, sep, value = line[2:].partition(" = ")
        if not sep:
            key, sep, value = line[2:].partition(": ")
        if sep:
            notes[key.strip()] = value.strip()
    return notes


def check_replay(text, stderr, kinds, header):
    """One row per request in trace order, finite numbers, and stderr
    request and mode counts that agree with the CSV."""
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != header:
        return ["bad header or missing final newline"]
    rows = lines[1:-1]
    if len(rows) != len(kinds):
        return [f"{len(rows)} rows for {len(kinds)} requests"]
    modes = dict.fromkeys(MODES, 0)
    for i, (row, kind) in enumerate(zip(rows, kinds)):
        t, row_kind, mode, _action, *numbers = row.split(",")
        if row_kind != kind or len(numbers) != 3:
            return [f"row {i}: {row!r} does not answer a {kind} request"]
        if not all(_finite(c) for c in (t, *numbers) if c):
            return [f"row {i}: non-finite number in {row!r}"]
        if mode:
            if mode not in modes:
                return [f"row {i}: unknown mode {mode!r}"]
            modes[mode] += 1
    notes = _stderr_notes(stderr)
    problems = []
    if notes.get("requests") != str(len(rows)):
        problems.append(f"stderr requests {notes.get('requests')!r} != {len(rows)} rows")
    counts = " ".join(f"{m}={c}" for m, c in sorted(modes.items()))
    if notes.get("mode_counts") != counts:
        problems.append(f"stderr mode_counts {notes.get('mode_counts')!r} != {counts!r}")
    return problems


def check_sweep(text, rows_expected):
    """The expected number of rows, each as wide as the header, all finite."""
    lines = text.split("\n")
    if lines[-1] != "":
        return ["missing final newline"]
    width = len(lines[0].split(","))
    rows = lines[1:-1]
    if len(rows) != rows_expected:
        return [f"{len(rows)} rows, expected {rows_expected}"]
    for i, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != width or not all(_finite(c) for c in cells):
            return [f"row {i}: {row!r} is not {width} finite numbers"]
    return []
