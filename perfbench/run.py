"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload {epochs,batch,recurring} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the library is imported from
`src/`. The workload's inputs come from `--seed` alone. Set-up is
repeated SETUP_REPS times with a cold compile cache; then rounds run
until `--seconds` have passed, whole passes at a time. Every round is
checked against `oracle.brute_force_shared` and the protocol's
accounting identities. A reference loop runs between rounds, and the
end-to-end times are wall times scaled by REF_SECONDS over the loop's
median time in the run. Diagnostics, the unscaled times among them, go
to lines starting with `#`; the last line of standard output is one
JSON object:
{"correct", "attempted", "failed", "metrics"}. With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPS = 3
# End-to-end times are scaled to a host on which `reference_loop` takes
# REF_SECONDS: the speed of a shared host can drift by 2x within minutes,
# and the loop, run between rounds, tracks that drift (see README.md).
# Per-layer times other than trace.round_s are not scaled.
REF_ITERATIONS = 100_000
REF_SECONDS = 0.010

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "sessions_per_s": "1/s",
    "peak_rss_mb": "MB",
    "triples_per_session": "count",
    "bytes_per_session": "bytes",
    "comm_rounds": "count",
    "circuit_gates": "count",
}

# per-layer time metric -> the tracer layer it sums
LAYER_TIMES = {
    "compiler.compile_s": "compiler.compile",
    "circuit.init_s": "circuit.init",
    "mpc.schedule_s": "mpc.schedule",
    "mpc.engine_init_s": "mpc.engine_init",
    "mpc.deal_s": "mpc.deal",
    "mpc.share_s": "mpc.share",
    "mpc.eval_s": "mpc.eval",
    "mpc.xor_s": "mpc.xor",
    "mpc.and_s": "mpc.and",
    "mpc.open_s": "mpc.open",
    "mpc.frame_s": "mpc.frame",
    "waksman.route_s": "waksman.route",
    "session.negotiate_s": "session.negotiate",
    "session.prepare_s": "session.prepare",
    "session.interpret_s": "session.interpret",
}
STAGES = ("SortCheck", "MergeTree", "DupSelect", "Shuffle")


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: how fast the host runs now."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("epochs", "batch", "recurring"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


class Runner:
    """Executes rounds, times them, referees them and keeps their counts."""

    def __init__(self, wl, W, cache, engine_log, tracer):
        self.wl, self.W, self.cache, self.tracer = wl, W, cache, tracer
        self.engines = engine_log
        self.rounds = self.failed = self.wrong = 0
        self.timed: list[float] = []
        self.refs = [reference_loop()]
        self.timed_counts: dict[str, list[float]] = defaultdict(list)
        self.all_counts: dict[str, list[float]] = defaultdict(list)
        self.cache_hits = self.cache_misses = 0

    def execute(self, rnd, timed: bool) -> float:
        """Run, check and count one round; returns its wall time."""
        run = rnd.run if self.tracer is None else (lambda: self.tracer.round_span(rnd.run))
        self.engines.drain()
        info0 = self.cache.cache_info()
        start = time.perf_counter()
        result, problems = None, ["the round returned no result"]
        try:
            result = run()
        except Exception:  # a failing round is counted and the run goes on
            problems = [traceback.format_exc(limit=4)]
        elapsed = time.perf_counter() - start
        self.refs.append(reference_loop())
        info1 = self.cache.cache_info()
        engines = self.engines.drain()
        self.rounds += 1
        if result is not None:
            try:
                problems = self.W.check_round(result, engines, rnd.plain, self.wl.config.variant)
            except Exception:
                problems = [traceback.format_exc(limit=4)]
            self.wrong += bool(problems)
        if problems:
            self.failed += 1
            if self.failed <= 3:
                print(f"# round {self.rounds} failed: {problems[0]}", file=sys.stderr)
            return elapsed
        counts = self.W.round_counts(result, engines, self.wl.sessions)
        for k, v in counts.items():
            self.all_counts[k].append(v)
        if timed:
            self.timed.append(elapsed)
            for k, v in counts.items():
                self.timed_counts[k].append(v)
            self.cache_hits += info1.hits - info0.hits
            self.cache_misses += info1.misses - info0.misses
        return elapsed

    def host_scale(self) -> float:
        """Factor that scales this run's wall times to the reference host."""
        return REF_SECONDS / statistics.median(self.refs)


def measure(wl, W, cache, engine_log, seed: int, seconds: float, tracer):
    """`cache` is the library's compile cache, emptied to make set-up cold."""
    runner = Runner(wl, W, cache, engine_log, tracer)

    def new_pass(index: int):
        return wl.make_pass(wl, np.random.default_rng([seed, index]))

    setup = []
    for i in range(SETUP_REPS):
        cache.cache_clear()
        first = new_pass(i)[0]
        setup.append(runner.execute(first, timed=False))

    index = SETUP_REPS
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if wl.cold_passes:
            cache.cache_clear()
        for j, rnd in enumerate(new_pass(index)):
            runner.execute(rnd, timed=not (wl.cold_passes and j == 0))
        index += 1
    return runner, setup, index - SETUP_REPS


def end_to_end(runner, setup, sessions) -> dict[str, float | None]:
    times = runner.timed
    scale = runner.host_scale()
    setup_s = statistics.median(setup) * scale
    if not times:
        return {"setup_s": setup_s, **{k: None for k in END_TO_END if k != "setup_s"}}
    out = {
        "setup_s": setup_s,
        "round_s": statistics.median(times) * scale,
        "sessions_per_s": len(times) * sessions / (sum(times) * scale),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for k in ("triples_per_session", "bytes_per_session", "comm_rounds", "circuit_gates"):
        out[k] = statistics.fmean(runner.timed_counts[k])
    return out


def per_layer(runner, tracer) -> dict[str, float | None]:
    n = runner.rounds
    totals = tracer.totals()
    out: dict[str, float | None] = {name: totals.get(layer, 0.0) / n for name, layer in LAYER_TIMES.items()}
    out["session.self_s"] = tracer.round_self_seconds() / n
    lookups = runner.cache_hits + runner.cache_misses
    out["compiler.cache_hit_ratio"] = runner.cache_hits / lookups if lookups else None
    for stage in STAGES:
        vals = runner.all_counts.get(f"and.{stage}")
        out[f"compiler.and.{stage}"] = statistics.fmean(vals) if vals else None
    vals = runner.all_counts.get("and_layers")
    out["mpc.and_layers"] = statistics.fmean(vals) if vals else None
    out["mpc.frames"] = tracer.calls["mpc.encode_frame"] / n
    out["waksman.routes"] = tracer.calls["waksman.route_permutation"] / n
    out["trace.round_s"] = statistics.median(runner.timed) * runner.host_scale() if runner.timed else None
    return out


LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    "session.self_s": "s",
    "compiler.cache_hit_ratio": "ratio",
    **{f"compiler.and.{s}": "count" for s in STAGES},
    "mpc.and_layers": "count",
    "mpc.frames": "count",
    "waksman.routes": "count",
    "trace.round_s": "s",
}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "depletion" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads as W
    from depletion import compiler as CP

    wl = W.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    cache = CP.compile_circuit  # the tracer replaces the module attribute
    engine_log = W.EngineLog()
    engine_log.install()
    if tracer is not None:
        tracer.install()  # after the engine log, so that it wraps it
    try:
        runner, setup, passes = measure(wl, W, cache, engine_log, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        engine_log.uninstall()

    if args.trace:
        metrics = per_layer(runner, tracer)
        units = LAYER_UNITS
    else:
        metrics = end_to_end(runner, setup, wl.sessions)
        units = END_TO_END
    sessions = runner.rounds * wl.sessions
    failed = runner.failed * wl.sessions
    print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# rounds: {runner.rounds} attempted, {runner.failed} failed, "
          f"{len(runner.timed)} timed over {passes} passes; "
          f"sessions: {sessions} attempted, {failed} failed")
    print("# unscaled set-up wall times (s): " + " ".join(f"{t:.3f}" for t in setup))
    if runner.timed:
        print(f"# unscaled median round wall time (s): {statistics.median(runner.timed):.4f}")
    refs = sorted(runner.refs)
    print(f"# reference loop (ms): min {refs[0] * 1e3:.2f}, median "
          f"{statistics.median(refs) * 1e3:.2f}, max {refs[-1] * 1e3:.2f} over {len(refs)} samples; "
          f"end-to-end times are scaled by {runner.host_scale():.4f}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "setup_wall_s": setup, "round_wall_s": runner.timed,
        "reference_loop_s": runner.refs, "host_scale": runner.host_scale(), "metrics": metrics,
    }, indent=1))
    if tracer is not None:
        tracer.dump(RESULTS / f"trace-{stem}.json")

    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": sessions,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
