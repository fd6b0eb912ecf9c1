"""Round orchestration: preparation, negotiation, reports, epochs, modes."""

import gc
import random
import weakref
from collections import Counter

import numpy as np
import pytest

from depletion import compiler as CP
from depletion import mpc, oracle, session as S


def cfg2(**kw):
    base = dict(parties=(0, 1), sigma=8)
    base.update(kw)
    return S.SessionConfig(**base)


# -- preparation ------------------------------------------------------------------


def test_prepare_pads_and_sorts():
    rng = np.random.default_rng(0)
    pp = S.prepare_inputs([9, 3], 4, 8, rng)
    vs = [r.v for r in pp.records]
    assert len(vs) == 4
    assert vs == sorted(vs) and len(set(vs)) == 4
    assert sum(r.is_dummy for r in pp.records) == 2
    assert pp.real_values == {3, 9}


def test_prepare_no_dummies_when_full():
    rng = np.random.default_rng(1)
    pp = S.prepare_inputs([5, 2, 7], 3, 8, rng)
    assert sum(r.is_dummy for r in pp.records) == 0


def test_prepare_sweep_no_collisions():
    rng = np.random.default_rng(2)
    for trial in range(2000):
        real = sorted(np.random.default_rng(trial).choice(
            np.arange(1, 256), size=3, replace=False).tolist())
        forb = set(range(100, 140)) - set(real)
        pp = S.prepare_inputs(real, 6, 8, rng, forbidden_values=forb)
        vs = [r.v for r in pp.records]
        assert vs == sorted(set(vs))
        dummies = {r.v for r in pp.records if r.is_dummy}
        assert not dummies & set(real)
        assert not dummies & forb
        keys = [k for r in pp.records for k in (r.k0, r.k1)]
        assert len(keys) == len(set(keys))


def test_prepare_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(S.TooManyEntries):
        S.prepare_inputs([1, 2, 3], 2, 8, rng)
    with pytest.raises(S.RandomnessFailure):
        S.prepare_inputs([1], 4, 2, rng)  # only 3 nonzero 2-bit values
    with pytest.raises(S.SessionError):
        S.prepare_inputs([0], 2, 8, rng)  # zero value is the reserved sentinel


# -- interpretation -----------------------------------------------------------------


def test_interpret_output_basic():
    table = {5: (10, 11), 9: (20, 21)}
    rep = S.interpret_output(table, [11, 20, 20])
    assert rep.statuses == {5: "shared", 9: "exclusive"}
    assert rep.shared == {5}
    assert rep.shared_count == 1 and rep.exclusive_count == 1


def test_interpret_output_corruption():
    with pytest.raises(S.ProtocolCorruption):
        S.interpret_output({5: (10, 11)}, [12, 13])


@pytest.mark.parametrize("sigma", [1, 8, 13, 32, 64, 256])
def test_keys_from_output_reads_each_key_big_endian(sigma):
    rng = np.random.default_rng(sigma)
    n_keys, batch = 5, 3
    out = rng.integers(0, 2, size=(n_keys * sigma, batch), dtype=np.uint8)
    expect = [
        [int("".join(map(str, out[i * sigma : (i + 1) * sigma, b])), 2) for i in range(n_keys)]
        for b in range(batch)
    ]
    assert S._keys_from_output(out, n_keys, sigma) == expect


# -- negotiation --------------------------------------------------------------------


def test_negotiate_u_matches_plain_max():
    config = S.SessionConfig(parties=(0, 1, 2), sigma=8)
    got = S.negotiate_u(config, {0: [100], 1: [500], 2: [120]}, seed=3)
    assert got == [500]
    got = S.negotiate_u(config, {0: [7, 2], 1: [7, 9], 2: [7, 1]}, seed=4)
    assert got == [7, 9]


def test_negotiate_u_rejects_oversized_counts():
    config = S.SessionConfig(parties=(0, 1), sigma=8, count_bits=4)
    with pytest.raises(S.SessionError):
        S.negotiate_u(config, {0: [16], 1: [1]}, seed=0)


# -- single rounds ------------------------------------------------------------------


def test_two_party_round_reports():
    h1, h2, h3 = 11, 22, 33
    res = S.run_sessions(cfg2(), [{0: {h1, h2}, 1: {h2, h3}}], seed=5, execution="both")
    rep = res.reports[0]
    assert rep[0].statuses == {h1: "exclusive", h2: "shared"}
    assert rep[1].statuses == {h2: "shared", h3: "exclusive"}
    assert res.u == 2
    assert len(res.opened_keys[0]) == 2 * res.u * 2


def test_disjoint_stockpiles_all_exclusive():
    res = S.run_sessions(cfg2(), [{0: {1, 2, 3}, 1: {4, 5}}], seed=6, execution="both")
    rep = res.reports[0]
    assert rep[0].shared == set() and rep[1].shared == set()


def test_at_least_m_three_of_five():
    config = S.SessionConfig(
        parties=(0, 1, 2, 3, 4), sigma=8,
        variant=S.VariantSpec("at-least-m", m=3),
    )
    pools = {0: {7, 50}, 1: {7, 60}, 2: {7, 70}, 3: {80, 90}, 4: {80, 95}}
    res = S.run_sessions(config, [pools], seed=7, execution="both")
    rep = res.reports[0]
    for p in (0, 1, 2):
        assert rep[p].shared == {7}
    for p in (3, 4):
        assert rep[p].shared == set()  # held by only two parties


def test_fixed_plus_m_round():
    config = S.SessionConfig(
        parties=(0, 1, 2, 3), sigma=8,
        variant=S.VariantSpec("fixed-plus-m", m=1, fixed_parties=(0, 1)),
    )
    pools = {0: {5, 9}, 1: {5, 8}, 2: {5, 8}, 3: {40, 9}}
    res = S.run_sessions(config, [pools], seed=8, execution="both")
    rep = res.reports[0]
    assert rep[0].shared == {5}
    assert rep[1].shared == {5}
    assert rep[2].shared == {5}   # 8 lacks fixed party 0; 5 qualifies
    assert rep[3].shared == set()


def test_duplicate_fixed_parties_rejected():
    config = S.SessionConfig(
        parties=(0, 1, 2), sigma=8,
        variant=S.VariantSpec("fixed-plus-m", m=1, fixed_parties=(0, 0)),
    )
    with pytest.raises(S.ConfigMismatch):
        S.run_sessions(config, [{0: {5, 7}, 1: {5}, 2: {7, 9}}], seed=0)


@pytest.mark.parametrize("variant", [
    S.VariantSpec("at-least-m", m=4),
    S.VariantSpec("fixed-plus-m", m=3, fixed_parties=(1,)),
])
@pytest.mark.parametrize("held", [
    {0: {5}, 1: {5}, 2: {5}},      # u = 1: the threshold exceeds all N*u records
    {0: {5, 9}, 1: {5}, 2: {5}},   # u = 2: reachable by length, not by holders
])
def test_unreachable_threshold_reports_exclusive(variant, held):
    config = S.SessionConfig(parties=(0, 1, 2), sigma=8, variant=variant)
    res = S.run_sessions(config, [held], seed=4, execution="both")
    want = oracle.brute_force_shared(held, variant.kind, variant.m, frozenset(variant.fixed_parties))
    assert {p: r.shared for p, r in res.reports[0].items()} == want
    assert all(not r.shared for r in res.reports[0].values())


def test_reports_match_oracle_batch():
    rng = random.Random(9)
    config = S.SessionConfig(parties=(0, 1, 2), sigma=8)
    batch = []
    for _ in range(20):
        pool = rng.sample(range(1, 250), 6)
        batch.append({p: set(rng.sample(pool, rng.randint(1, 3))) for p in range(3)})
    res = S.run_sessions(config, batch, seed=10, execution="both")
    for b, pools in enumerate(batch):
        want = oracle.brute_force_shared(pools, "at-least-two")
        for p in range(3):
            assert res.reports[b][p].shared == want[p]


def test_unsorted_injection_aborts_with_exact_party():
    config = cfg2()
    pools = {0: {3, 9}, 1: {5, 6}}
    with pytest.raises(mpc.AbortUnsorted) as exc:
        S.run_sessions(config, [pools], seed=11, execution="mpc", inject_unsorted=1)
    assert exc.value.parties == [1]
    res = S.run_sessions(config, [pools], seed=11, execution="mpc")
    assert res.transcript.reactive_opens == 1


def test_config_mismatch():
    config = cfg2()
    other = cfg2(sigma=16)
    with pytest.raises(S.ConfigMismatch):
        S.run_sessions(
            config, [{0: {1}, 1: {2}}], seed=0, config_overrides={1: other}
        )


def test_dummy_keys_never_open_as_shared():
    rng = random.Random(12)
    config = S.SessionConfig(parties=(0, 1, 2), sigma=8)
    batch = [
        {p: set(rng.sample(range(1, 200), rng.randint(1, 2))) for p in range(3)}
        for _ in range(30)
    ]
    res = S.run_sessions(config, batch, seed=13, execution="plaintext")
    for b in range(len(batch)):
        bag = Counter(res.opened_keys[b])
        for p in range(3):
            for rec in res.prepared[b][p].records:
                if rec.is_dummy:
                    assert bag[rec.k1] == 0
                    assert bag[rec.k0] == 2


def test_outsourced_mode_matches_direct():
    rng = random.Random(14)
    parties = tuple(range(8))
    pools = {p: set(rng.sample(range(1, 200), 3)) for p in parties}
    direct = S.run_sessions(
        S.SessionConfig(parties=parties, sigma=8), [pools], seed=15, execution="both"
    )
    outsourced = S.run_sessions(
        S.SessionConfig(parties=parties, sigma=8, mode="outsourced", n_servers=3),
        [pools], seed=16, execution="both",
    )
    assert outsourced.transcript.n_parties == 3
    assert outsourced.compiled.config.shuffle_layers == 3
    for p in parties:
        assert (
            direct.reports[0][p].statuses == outsourced.reports[0][p].statuses
        )
    want = oracle.brute_force_shared(pools, "at-least-two")
    for p in parties:
        assert outsourced.reports[0][p].shared == want[p]


def test_full_width_sigma_256_round():
    rng = random.Random(77)
    pools = {
        0: {rng.getrandbits(256) | 1, 0xBEEF},
        1: {0xBEEF, rng.getrandbits(256) | 1},
    }
    res = S.run_sessions(
        cfg2(sigma=256), [pools], seed=78, execution="both"
    )
    for p in (0, 1):
        assert res.reports[0][p].shared == {0xBEEF}


def test_transcript_message_accounting():
    res = S.run_sessions(cfg2(), [{0: {3, 9}, 1: {5, 6}}], seed=17, execution="mpc")
    t = res.transcript
    t.verify()
    assert t.rounds == t.and_layers + 1 + 1
    for pid in (0, 1):
        assert t.triples_consumed[pid] == t.and_count


# -- epochs -------------------------------------------------------------------------


def test_epoch_advance_rejects_removals():
    sess = S.Session(cfg2(), {0: {1}, 1: {2}}, seed=18)
    with pytest.raises(S.RemovalAttempted):
        sess.epoch_advance({}, removals={0: {1}})


def test_two_epoch_run_equals_one_shot():
    rng = random.Random(19)
    for trial in range(3):
        start = {0: set(rng.sample(range(1, 120), 2)), 1: set(rng.sample(range(1, 120), 2))}
        extra = {0: set(rng.sample(range(130, 250), 1)), 1: set(rng.sample(range(130, 250), 2))}
        sess = S.Session(cfg2(), start, seed=20 + trial)
        first = sess.run_epoch()
        assert first.u == 2
        sess.epoch_advance(extra)
        second = sess.run_epoch()
        union = {p: start[p] | extra[p] for p in (0, 1)}
        oneshot = S.run_sessions(cfg2(), [union], seed=99 + trial, execution="both")
        for p in (0, 1):
            assert second.reports[0][p].statuses == oneshot.reports[0][p].statuses
        assert second.u >= first.u


def test_epoch_two_actually_restores_persisted_shares():
    sess = S.Session(cfg2(), {0: {10, 20}, 1: {20, 30}}, seed=31)
    sess.run_epoch()
    stored = dict(sess.store)
    assert stored  # every computing party persisted every owner's v-shares
    sess.epoch_advance({0: {40}})
    second = sess.run_epoch()
    assert second.u == 3
    for key, (epoch, _) in stored.items():
        assert epoch == 1


def test_swapped_share_blobs_abort_the_next_epoch():
    """A blob handed back for another input owner is refused; before the
    owner was checked, the epoch reported 11 as shared and 7 as exclusive."""
    held = {0: {5, 7}, 1: {5, 11}, 2: {9, 13}}
    sess = S.Session(S.SessionConfig(parties=(0, 1, 2), sigma=16), held, seed=0)
    sess.run_epoch()
    sess.epoch_advance({2: {7}})
    good = dict(sess.store)
    for cp in {cp for cp, _ in good}:
        sess.store[(cp, 0)], sess.store[(cp, 1)] = good[(cp, 1)], good[(cp, 0)]
    with pytest.raises(mpc.EpochMismatch):
        sess.run_epoch()
    sess.store = good  # the failed epoch committed nothing and can be retried
    reports = sess.run_epoch().reports[0]
    held[2].add(7)
    assert {p: rep.shared for p, rep in reports.items()} == oracle.brute_force_shared(held)


def test_session_survives_more_than_64_epochs():
    sess = S.Session(cfg2(sigma=16), {0: {5, 9}, 1: {9, 12}}, seed=40)
    for epoch in range(70):
        if epoch:
            sess.epoch_advance({})
        reports = sess.run_epoch(execution="plaintext").reports[0]
        assert reports[0].shared == {9} and reports[1].shared == {9}


def test_compile_cache_drops_circuits_of_past_epochs():
    sess = S.Session(cfg2(sigma=12), {0: {5}, 1: {6}}, seed=41)
    first = weakref.ref(sess.run_epoch(execution="plaintext").compiled)
    for v in (7, 8):  # u grows 1 -> 2 -> 3
        sess.epoch_advance({0: {v}, 1: {v + 10}})
        sess.run_epoch(execution="plaintext")
    gc.collect()
    assert first() is None
    assert CP.compile_circuit.cache_info().maxsize == 2


@pytest.mark.parametrize("bad", [0, 1 << 8])
def test_session_rejects_values_outside_the_nonzero_space(bad):
    with pytest.raises(S.SessionError):
        S.Session(cfg2(), {0: {bad, 5}, 1: {7}}, seed=42)
    sess = S.Session(cfg2(), {0: {5}, 1: {5, 7}}, seed=42)
    sess.run_epoch()
    with pytest.raises(S.SessionError):
        sess.epoch_advance({0: {9}, 1: {bad}})
    assert sess.epoch == 1 and all(not st.pending for st in sess.state.values())
    sess.epoch_advance({0: {9}})
    reports = sess.run_epoch().reports[0]
    assert reports[0].shared == {5} and reports[1].shared == {5}


def test_failed_epoch_can_be_retried(monkeypatch):
    start, extra = {0: {10, 20}, 1: {20, 30}}, {0: {40}, 1: {40, 50}}
    sess = S.Session(cfg2(), start, seed=43)
    sess.run_epoch()
    sess.epoch_advance(extra)
    run_shared = mpc.Engine.run_shared

    def fail_once(engine):
        if not engine.reactive:  # the negotiation engine runs unharmed
            return run_shared(engine)
        monkeypatch.setattr(mpc.Engine, "run_shared", run_shared)
        raise mpc.TransportFailure("injected")

    monkeypatch.setattr(mpc.Engine, "run_shared", fail_once)
    with pytest.raises(mpc.TransportFailure):
        sess.run_epoch()
    reports = sess.run_epoch().reports[0]
    want = oracle.brute_force_shared({p: start[p] | extra[p] for p in (0, 1)}, "at-least-two")
    for p in (0, 1):
        assert reports[p].shared == want[p]


def test_mpc_epochs_after_plaintext_epochs_share_fresh():
    held = {0: {5, 7}, 1: {5}}
    sess = S.Session(cfg2(), held, seed=46)
    steps = [("plaintext", None), ("mpc", {0: {9}}), ("plaintext", {1: {9, 11}}),
             ("both", {0: {11, 13}})]
    for execution, extra in steps:
        if extra:
            sess.epoch_advance(extra)
            held = {p: held[p] | extra.get(p, set()) for p in held}
        reports = sess.run_epoch(execution=execution).reports[0]
        want = oracle.brute_force_shared(held, "at-least-two")
        for p in held:
            assert reports[p].shared == want[p], (execution, p)
        assert bool(sess.store) == (execution != "plaintext")


def test_session_rejects_unknown_party():
    with pytest.raises(S.UnknownParty):
        S.Session(cfg2(), {0: {5}, 1: {5, 7}, 2: {5}}, seed=47)


def test_epoch_advance_rejects_unknown_party():
    sess = S.Session(cfg2(), {0: {5}, 1: {5, 7}}, seed=48)
    with pytest.raises(S.UnknownParty):
        sess.epoch_advance({0: {9}, 2: {3}})
    assert sess.epoch == 1 and sess.state[0].pending == [5]
    reports = sess.run_epoch().reports[0]
    assert reports[0].shared == {5} and reports[1].shared == {5}


def test_run_sessions_rejects_missing_or_unknown_party():
    with pytest.raises(S.UnknownParty):
        S.run_sessions(cfg2(), [{0: {5}}], seed=1)
    with pytest.raises(S.UnknownParty):
        S.run_sessions(cfg2(), [{0: {5}, 1: {5}}, {0: {5}, 1: {5}, 2: {5}}], seed=1)


def test_run_epoch_rejects_unknown_execution():
    sess = S.Session(cfg2(), {0: {1}, 1: {2}}, seed=44)
    with pytest.raises(S.SessionError):
        sess.run_epoch(execution="bogus")


@pytest.mark.parametrize("mode", ["direct", "outsourced"])
@pytest.mark.parametrize("variant", [
    S.VariantSpec(),
    S.VariantSpec("at-least-m", m=2),
    S.VariantSpec("fixed-plus-m", m=1, fixed_parties=(0,)),
], ids=lambda spec: spec.kind)
def test_session_epochs_match_plaintext_and_oracle(variant, mode):
    config = S.SessionConfig(
        parties=(0, 1, 2), sigma=8, variant=variant, mode=mode,
        n_servers=2 if mode == "outsourced" else 0,
    )
    held = {0: {3, 9, 17}, 1: {9, 17, 40}, 2: {17, 41}}
    sess = S.Session(config, held, seed=45)
    for extra in (None, {0: {40}, 1: {50}, 2: {3, 50}}):
        if extra:
            sess.epoch_advance(extra)
            held = {p: held[p] | extra.get(p, set()) for p in held}
        reports = sess.run_epoch(execution="both").reports[0]
        want = oracle.brute_force_shared(
            held, variant.kind, variant.m, frozenset(variant.fixed_parties)
        )
        for p in held:
            assert set(reports[p].statuses) == held[p]
            assert reports[p].shared == want[p]
