"""Timers wrapped around the library's public functions.

The library has no tracing of its own: `Tracer.install` replaces each
function named in `TARGETS` with a timing wrapper and `uninstall` puts
the originals back. Spans stay in memory until `dump`.

Coarse layers get one span record each: [name, start, end, parent].
Leaf layers, which run thousands of times per round and call nothing
traced, are summed per (parent span, name) instead, so a trace stays a
few kilobytes per round. Where a layer's functions call each other or
themselves, only the outermost call is timed.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

from depletion import circuit, mpc, waksman
from depletion import compiler as CP
from depletion import session as S

# (owner, attribute, layer name, leaf, outermost only)
TARGETS = [
    (CP, "compile_circuit", "compiler.compile", False, False),
    (circuit.BooleanCircuit, "__init__", "circuit.init", False, False),
    (mpc, "build_schedule", "mpc.schedule", False, False),
    (mpc.Engine, "__init__", "mpc.engine_init", False, False),
    (mpc, "deal_triples", "mpc.deal", False, False),
    (mpc.Engine, "share_inputs", "mpc.share", False, False),
    (mpc.Engine, "run_shared", "mpc.eval", False, False),
    (mpc.Engine, "open_wires", "mpc.open", False, False),
    (mpc.Party, "apply_xors", "mpc.xor", True, False),
    (mpc.Party, "and_send", "mpc.and", True, False),
    (mpc.Party, "and_recv", "mpc.and", True, False),
    (mpc, "encode_frame", "mpc.frame", True, False),
    (mpc, "decode_frame", "mpc.frame", True, False),
    (waksman, "route_permutation", "waksman.route", True, True),
    (S, "negotiate_u", "session.negotiate", False, False),
    (S, "prepare_inputs", "session.prepare", True, True),
    # Session.run_epoch prepares its records inline; its key and dummy
    # draws are the part of that work with a function to wrap.
    (S, "_draw_distinct", "session.prepare", True, True),
    (S, "interpret_output", "session.interpret", True, False),
]

ROUND = "round"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.leaf: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0])
        self.calls: Counter = Counter()  # per wrapped function, outermost calls
        self._depth: Counter = Counter()  # open calls per layer name
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def round_span(self, fn):
        """Run fn() inside a span that marks one round of the workload."""
        idx = self._open(ROUND)
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, leaf: bool, outermost: bool, label: str):
        tracer = self
        depth = self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost and depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            tracer.calls[label] += 1
            if leaf:
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec = tracer.leaf[(tracer._stack[-1], name)]
                    rec[0] += 1
                    rec[1] += time.perf_counter() - start
                    depth[name] -= 1
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                depth[name] -= 1

        return traced

    def install(self) -> None:
        for owner, attr, name, leaf, outermost in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, leaf, outermost, f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- totals --------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Seconds per layer name over the whole run, inclusive of nested layers."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        for (_, name), (_, seconds) in self.leaf.items():
            out[name] += seconds
        return out

    def round_self_seconds(self) -> float:
        """Round time that no traced layer directly under the round covers."""
        covered: dict[int, float] = defaultdict(float)
        for _, start, end, parent in self.spans:
            covered[parent] += end - start
        for (parent, _), (_, seconds) in self.leaf.items():
            covered[parent] += seconds
        return sum(
            end - start - covered[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name == ROUND
        )

    def dump(self, path) -> None:
        path.write_text(json.dumps({
            "spans": self.spans,
            "leaf_totals": [[p, n, c, s] for (p, n), (c, s) in self.leaf.items()],
            "calls": dict(self.calls),
        }))
