"""Tests of the benchmark's own referee, inputs and tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads as W  # noqa: E402
from depletion import mpc, oracle, waksman  # noqa: E402
from depletion import session as S  # noqa: E402

CONFIG = S.SessionConfig(parties=(0, 1, 2), sigma=16)


@pytest.fixture(scope="module")
def small_round():
    rng = np.random.default_rng(5)
    plain = [W.make_stockpiles(rng, 3, [{0, 1, 2}, {0, 1}, {1, 2}], 4, 16) for _ in range(2)]
    log = W.EngineLog()
    log.install()
    try:
        result = S.run_sessions(CONFIG, plain, seed=9)
    finally:
        log.uninstall()
    return result, log.drain(), plain


def _alter_report(result, engines):
    rep = result.reports[1][1]
    v = next(v for v, s in rep.statuses.items() if s == "shared")
    rep.statuses[v] = "exclusive"


def _drop_value(result, engines):
    rep = result.reports[0][2]
    del rep.statuses[next(iter(rep.statuses))]


def _drop_key(result, engines):
    result.opened_keys[0].pop()


def _extra_round(result, engines):
    engines[-1].transcript.rounds += 1


def _missing_triple(result, engines):
    t = engines[0].transcript
    pid = next(iter(t.triples_consumed))
    t.triples_consumed[pid] -= 1


def test_round_passes_every_check(small_round):
    result, engines, plain = small_round
    assert len(engines) == 2  # the negotiation engine and the round's own
    assert W.check_round(result, engines, plain, CONFIG.variant) == []


@pytest.mark.parametrize(
    "alter", [_alter_report, _drop_value, _drop_key, _extra_round, _missing_triple]
)
def test_altered_round_is_caught(small_round, alter):
    result, engines, plain = copy.deepcopy(small_round)
    alter(result, engines)
    assert W.check_round(result, engines, plain, CONFIG.variant)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_round_has_qualifying_and_one_short_values(name):
    wl = W.WORKLOADS[name]
    v = wl.config.variant
    for rnd in wl.make_pass(wl, np.random.default_rng([3, 0])):
        for held in rnd.plain[:4]:
            shared = oracle.brute_force_shared(held, v.kind, v.m, frozenset(v.fixed_parties))
            owned = set().union(*held.values())
            assert set().union(*shared.values()) and owned - set().union(*shared.values())
            assert len({len(vs) for vs in held.values()}) == 1  # u is the same for all


def test_tracer_times_outermost_calls_and_restores_originals():
    before = waksman.route_permutation, mpc.Engine.run_shared
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.round_span(lambda: waksman.route_permutation(list(range(8))[::-1]))
    finally:
        tracer.uninstall()
    assert (waksman.route_permutation, mpc.Engine.run_shared) == before
    assert tracer.calls["waksman.route_permutation"] == 1
    assert tracer.totals()["waksman.route"] > 0
    assert 0 <= tracer.round_self_seconds() < tracer.totals()["round"]


def test_tracer_counts_a_layer_once_when_its_functions_nest():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        S.prepare_inputs([3, 5], 4, 16, np.random.default_rng(0))  # draws inside
        S._draw_distinct(np.random.default_rng(0), 2, 16, set(), lowest=1)
    finally:
        tracer.uninstall()
    assert tracer.calls["session.prepare_inputs"] == 1
    assert tracer.calls["session._draw_distinct"] == 1
    assert sum(c for (_, name), (c, _) in tracer.leaf.items() if name == "session.prepare") == 2
