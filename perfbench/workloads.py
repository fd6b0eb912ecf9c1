"""Seeded workload inputs, one round of the library per step, and the
referee checks applied to every round.

A workload is a sequence of passes; a pass is a list of rounds that
share state. `batch` and `recurring` passes hold one round each. An
`epochs` pass is the lifetime of one `Session`: its first epoch compiles
and builds everything cold, and every later epoch grows u by two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from depletion import compiler as CP
from depletion import mpc, oracle
from depletion import session as S
from depletion.circuit import AND


# -- inputs --------------------------------------------------------------------


def fresh_values(rng, count: int, sigma: int, taken: set[int]) -> list[int]:
    """`count` distinct nonzero sigma-bit values not in `taken`; adds them to it."""
    out: list[int] = []
    while len(out) < count:
        draw = rng.integers(1, 1 << sigma, size=count, dtype=np.uint64, endpoint=False)
        for v in draw.tolist():
            if v not in taken and len(out) < count:
                taken.add(v)
                out.append(v)
    return out


def make_stockpiles(rng, n_parties: int, groups, per_party: int, sigma: int) -> dict[int, set[int]]:
    """One value per holder group, then single-holder values up to `per_party`.

    Every party ends with exactly `per_party` distinct values, so u is the
    same in every round of a workload.
    """
    taken: set[int] = set()
    held: dict[int, set[int]] = {p: set() for p in range(n_parties)}
    for holders, v in zip(groups, fresh_values(rng, len(groups), sigma, taken)):
        for p in holders:
            held[p].add(v)
    for p in range(n_parties):
        if len(held[p]) > per_party:
            raise ValueError(f"party {p} is in more than {per_party} groups")
        held[p].update(fresh_values(rng, per_party - len(held[p]), sigma, taken))
    return held


# -- counts and checks -----------------------------------------------------------


class EngineLog:
    """Every `mpc.Engine` built while installed, so that the negotiation
    engine inside `negotiate_u` is counted along with the round's own."""

    def __init__(self):
        self.engines: list[mpc.Engine] = []
        self._original = None

    def install(self):
        original = self._original = mpc.Engine.__init__
        log = self.engines

        def init(engine, *args, **kwargs):
            original(engine, *args, **kwargs)
            log.append(engine)

        mpc.Engine.__init__ = init

    def uninstall(self):
        mpc.Engine.__init__ = self._original

    def drain(self) -> list[mpc.Engine]:
        out = list(self.engines)
        self.engines.clear()
        return out


def round_counts(result: S.RoundResult, engines, sessions: int) -> dict[str, float]:
    """Hardware-independent costs of one round, per session where named so."""
    counts = {
        "triples_per_session": sum(
            e.transcript.triples_consumed[e.computing_ids[0]] for e in engines
        ),
        "bytes_per_session": sum(e.transcript.total_bytes() for e in engines) / sessions,
        "comm_rounds": sum(e.transcript.rounds for e in engines),
        "circuit_gates": sum(e.circuit.n_gates for e in engines),
        "and_layers": sum(e.transcript.and_layers for e in engines),
    }
    for stage in result.compiled.stages:
        counts[f"and.{stage.name}"] = stage.and_count
    return counts


def check_round(result: S.RoundResult, engines, plain: list[dict[int, set[int]]],
                variant: S.VariantSpec) -> list[str]:
    """Referee one round: each returned string is one failed check."""
    problems: list[str] = []
    if len(result.reports) != len(plain):
        return [f"{len(result.reports)} reports for {len(plain)} sessions"]
    for b, (reports, held) in enumerate(zip(result.reports, plain)):
        expect = oracle.brute_force_shared(
            held, variant.kind, variant.m, frozenset(variant.fixed_parties)
        )
        for p, values in held.items():
            rep = reports.get(p)
            if rep is None:
                problems.append(f"session {b}: no report for party {p}")
                continue
            if set(rep.statuses) != values or len(rep.statuses) != len(values):
                problems.append(f"session {b}: party {p} report does not list each owned value once")
            if rep.shared != expect[p]:
                problems.append(f"session {b}: party {p} shared set differs from brute force")
        n_keys = 2 * len(held) * result.u
        if len(result.opened_keys[b]) != n_keys:
            problems.append(
                f"session {b}: {len(result.opened_keys[b])} opened keys, expected {n_keys}"
            )
    if result.engine is not None and all(e is not result.engine for e in engines):
        problems.append("the round's engine was not observed")
    for e in engines:
        ands = int(np.count_nonzero(e.circuit.kind == AND))
        t = e.transcript
        for pid in e.computing_ids:
            if t.triples_consumed.get(pid) != ands:
                problems.append(
                    f"party {pid} consumed {t.triples_consumed.get(pid)} triples for {ands} ANDs"
                )
        if t.rounds != t.and_layers + t.reactive_opens + 1:
            problems.append(
                f"rounds {t.rounds} != AND layers {t.and_layers} + opens {t.reactive_opens} + 1"
            )
    main_ands = int(np.count_nonzero(result.compiled.circuit.kind == AND))
    bound = sum(CP.stage_bounds(result.compiled.config).values())
    if main_ands > bound:
        problems.append(f"{main_ands} ANDs exceed the summed stage bounds {bound:.0f}")
    return problems


# -- workloads ---------------------------------------------------------------------


@dataclass
class Round:
    """One timed call into the library plus the plain sets it must match."""

    run: Callable[[], S.RoundResult]
    plain: list[dict[int, set[int]]]


@dataclass(frozen=True)
class Workload:
    name: str
    config: S.SessionConfig
    sessions: int  # sessions per round
    make_pass: Callable[["Workload", np.random.Generator], list[Round]]
    # Each pass models a new session lifetime whose circuits were never
    # compiled, so the compile cache is emptied when a pass starts.
    cold_passes: bool = False


def _seed(rng) -> int:
    return int(rng.integers(0, 1 << 62))


def _independent_round(groups, per_party):
    def make_pass(wl: Workload, rng) -> list[Round]:
        n = len(wl.config.parties)
        plain = [
            make_stockpiles(rng, n, groups, per_party, wl.config.sigma)
            for _ in range(wl.sessions)
        ]
        seed = _seed(rng)
        return [Round(lambda: S.run_sessions(wl.config, plain, seed), plain)]

    return make_pass


def _epoch_pass(initial_groups, per_party: int, epochs: int):
    def make_pass(wl: Workload, rng) -> list[Round]:
        sigma = wl.config.sigma
        held = make_stockpiles(rng, 3, initial_groups, per_party, sigma)
        taken = set().union(*held.values())
        singles = {p: sorted(v for v in held[p] if all(v not in held[q] for q in held if q != p))
                   for p in held}
        # Epoch e adds two values per party: parties a and b gain a new
        # shared value and a fresh single each; party c adopts one of a's
        # singles (making it shared) and gains a fresh single.
        additions = []
        for e in range(1, epochs):
            a, b, c = e % 3, (e + 1) % 3, (e + 2) % 3
            pair, sa, sb, sc = fresh_values(rng, 4, sigma, taken)
            adopted = singles[a].pop(0)
            singles[a].append(sa)
            singles[b].append(sb)
            singles[c].append(sc)
            additions.append({a: [pair, sa], b: [pair, sb], c: [adopted, sc]})
        seed = _seed(rng)
        state: dict = {}

        def first():
            state["session"] = S.Session(wl.config, held, seed)
            return state["session"].run_epoch()

        def later(add):
            def run():
                state["session"].epoch_advance(add)
                return state["session"].run_epoch()

            return run

        rounds = [Round(first, [{p: set(vs) for p, vs in held.items()}])]
        cumulative = {p: set(vs) for p, vs in held.items()}
        for add in additions:
            for p, vs in add.items():
                cumulative[p].update(vs)
            rounds.append(Round(later(add), [{p: set(vs) for p, vs in cumulative.items()}]))
        return rounds

    return make_pass


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="epochs",
            config=S.SessionConfig(parties=(0, 1, 2), sigma=64),
            sessions=1,
            # u = 8, 10, 12, 14, 16
            make_pass=_epoch_pass([{0, 1, 2}, {0, 1}, {0, 2}, {1, 2}], per_party=8, epochs=5),
            cold_passes=True,
        ),
        Workload(
            name="batch",
            config=S.SessionConfig(
                parties=(0, 1, 2),
                sigma=32,
                variant=S.VariantSpec("at-least-m", m=2),
                mode="outsourced",
                n_servers=2,
            ),
            sessions=256,
            make_pass=_independent_round([{0, 1, 2}, {0, 1}, {0, 2}, {1, 2}], per_party=8),
        ),
        Workload(
            name="recurring",
            config=S.SessionConfig(
                parties=(0, 1, 2, 3),
                sigma=64,
                variant=S.VariantSpec("fixed-plus-m", m=1, fixed_parties=(0,)),
            ),
            sessions=1,
            # qualifying: {0,1} {0,2} {0,3} {0,1,2} {0,1,2,3}; one holder
            # short: {1,2,3} (no fixed party), {1,2}, and the singles
            make_pass=_independent_round(
                [{0, 1}, {0, 2}, {0, 3}, {0, 1, 2}, {0, 1, 2, 3}, {1, 2, 3}, {1, 2}],
                per_party=12,
            ),
        ),
    )
}
