"""Spans recorded from outside the program, around calls into each layer.

``instrument`` replaces module attributes of ``apvsim`` with wrappers that
open a span on entry and close it on exit, and puts every original back on
exit.  Spans are kept in flat arrays (name, start, end, parent, op id) and
written out once, at the end of a run.  Self time is a span's duration
minus the durations of its direct children; calls into the program are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name).  Each public function is wrapped in every
# module that calls it, because those modules bind the function at import.
TIMED = (
    ("apvsim.cli", "main", "cli.main"),
    ("apvsim.cli", "run", "cli.run"),
    ("apvsim.cli", "parse_scenario", "scenario.parse_scenario"),
    ("apvsim.cli", "scenario_sha256", "scenario.scenario_sha256"),
    ("apvsim.cli", "atom_scan", "scans.atom_scan"),
    ("apvsim.cli", "time_scan", "scans.time_scan"),
    ("apvsim.cli", "run_oracle_checks", "checks.run_oracle_checks"),
    ("apvsim.scans", "protocol_table", "protocols.protocol_table"),
    ("apvsim.checks", "protocol_table", "protocols.protocol_table"),
    ("apvsim.scans", "reallocate", "chain.reallocate"),
    # checks imports reallocate from the chain module inside a function
    ("apvsim.chain", "reallocate", "chain.reallocate"),
    ("apvsim.protocols", "project_deviation", "chain.project_deviation"),
    ("apvsim.checks", "project_deviation", "chain.project_deviation"),
    ("apvsim.protocols", "combine_classical_fit", "protocols.combine_classical_fit"),
    ("apvsim.checks", "combine_classical_fit", "protocols.combine_classical_fit"),
    ("apvsim.protocols", "cat_contrast", "protocols.cat_contrast"),
)

ORACLE_PRIMITIVES = (
    "build_state", "build_generator", "build_common_generator", "qfi",
    "ramsey_evolve", "parity_fringe", "cfi_parity", "common_noise_check",
)
_BUILDERS = {"build_state", "build_generator", "build_common_generator"}

# Oracle primitives get the register size in their span name; cfi_parity
# calls parity_fringe through the oracle module's own binding.
SIZED = tuple(("apvsim.checks", prim, f"oracle.{prim}") for prim in ORACLE_PRIMITIVES) + (
    ("apvsim.oracle", "parity_fringe", "oracle.parity_fringe"),
)

# Called once per CSV field: counted, and its first arguments kept for an
# untraced replay, but no span, so that a 350,000-row op stays traceable.
COUNTED = (("apvsim.cli", "format_sig", "cli.format_sig"),)
KEPT_ARGS = 20_000


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self.kept_args: dict[str, list] = defaultdict(list)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add_span(self, name: str, start: float, end: float, parent: int = -1, op: int = -1) -> int:
        """Append a finished span (used to build span trees by hand)."""
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return idx

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path):
        """Write every span as one CSV line: index,name,start,end,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start,end,parent,op\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.op[i]}\n")


def self_times(tracer: Tracer) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [e - s for s, e in zip(tracer.start, tracer.end)]
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            out[p] -= tracer.end[i] - tracer.start[i]
    return out


def aggregate(tracer: Tracer, ops) -> dict[str, dict]:
    """Per span name over the given op ids: calls, total and self seconds, durations."""
    ops = set(ops)
    selfs = self_times(tracer)
    out: dict[str, dict] = {}
    for i in range(len(tracer)):
        if tracer.op[i] not in ops:
            continue
        rec = out.setdefault(tracer.names[tracer.name[i]],
                             {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        dur = tracer.end[i] - tracer.start[i]
        rec["calls"] += 1
        rec["total_s"] += dur
        rec["self_s"] += selfs[i]
        rec["durations"].append(dur)
    return out


def _timed(tracer: Tracer, name: str, fn):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _sized(tracer: Tracer, prefix: str, fn):
    builder = fn.__name__ in _BUILDERS
    unsized = tracer.name_id(prefix)  # renamed once the register size is known

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(unsized)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        labels = result.labels if builder else args[0].labels
        tracer.name[idx] = tracer.name_id(f"{prefix}.M{len(labels)}")
        return result

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    counts, kept = tracer.counts, tracer.kept_args[name]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name, tracer.op_id] += 1
        if len(kept) < KEPT_ARGS:
            kept.append(args)
        return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every listed attribute for the duration of the block."""
    originals = []
    try:
        for table, make in ((TIMED, _timed), (SIZED, _sized), (COUNTED, _counted)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, make(tracer, name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)
