"""Round orchestration: preparation, negotiation, reports, epochs, modes."""

import gc
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from depletion import compiler as CP
from depletion import mpc, oracle, session as S
from depletion.bits import ints_to_rows, row_bytes, rows_to_ints


def cfg2(**kw):
    base = dict(parties=(0, 1), sigma=8)
    base.update(kw)
    return S.SessionConfig(**base)


def neg(k, sigma):
    """The complement ¬k of a sigma-bit key: what a shared record opens."""
    return k ^ ((1 << sigma) - 1)


def assert_pairs_disjoint(keys, sigma):
    """The pairs {k, ¬k} of `keys` share no value."""
    assert len({*keys, *(neg(k, sigma) for k in keys)}) == 2 * len(keys)


# -- preparation ------------------------------------------------------------------


def test_prepare_pads_and_sorts():
    rng = np.random.default_rng(0)
    pp = S.prepare_inputs([9, 3], 4, 8, rng)
    vs = rows_to_ints(pp.values[0])
    assert len(vs) == 4
    assert vs == sorted(vs) and len(set(vs)) == 4
    assert pp.dummy[0].sum() == 2
    assert set(rows_to_ints(pp.values[0][~pp.dummy[0]])) == {3, 9}


def test_prepare_no_dummies_when_full():
    rng = np.random.default_rng(1)
    pp = S.prepare_inputs([5, 2, 7], 3, 8, rng)
    assert not pp.dummy.any()
    assert rows_to_ints(pp.values[0]) == [2, 5, 7]


def test_prepare_sweep_no_collisions():
    rng = np.random.default_rng(2)
    for trial in range(2000):
        real = sorted(np.random.default_rng(trial).choice(
            np.arange(1, 256), size=3, replace=False).tolist())
        forb = set(range(100, 140)) - set(real)
        pp = S.prepare_inputs(real, 6, 8, rng, forbidden_values=forb)
        vs = rows_to_ints(pp.values[0])
        assert vs == sorted(set(vs))
        dummies = set(rows_to_ints(pp.values[0][pp.dummy[0]]))
        assert not dummies & set(real)
        assert not dummies & forb
        keys = rows_to_ints(pp.keys[0])
        assert len(keys) == 6
        assert_pairs_disjoint(keys, 8)


def test_prepare_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(S.TooManyEntries):
        S.prepare_inputs([1, 2, 3], 2, 8, rng)
    with pytest.raises(S.RandomnessFailure):
        S.prepare_inputs([1], 4, 2, rng)  # only 2 key pairs and 3 nonzero values
    with pytest.raises(S.SessionError):
        S.prepare_inputs([0], 2, 8, rng)  # the zero value is reserved
    with pytest.raises(S.SessionError, match="no canonical key bit"):
        S.prepare_inputs([1], 1, 1, rng)  # a key needs a flip bit and a canonical bit
    # ints come as one session's collection, rows as (sessions, u, ⌈σ/8⌉)
    with pytest.raises(S.SessionError, match="shape"):
        S.prepare_inputs(np.array([[3, 5]]), 4, 16, rng)
    with pytest.raises(S.SessionError, match="shape"):
        S.prepare_inputs(np.zeros((1, 4, 1), np.uint8), 4, 16, rng)
    # and rows as uint8: int64 rows would come back mixed with uint8 dummies
    with pytest.raises(S.SessionError, match="uint8, not int64"):
        S.prepare_inputs(np.zeros((1, 4, 2), np.int64), 4, 16, rng)


def test_prepare_refuses_rows_that_are_not_ascending_values_below_two_to_sigma():
    """Rows hold each session's distinct nonzero values below 2^σ in
    ascending order, then zero rows; any other rows are refused before
    they could come back reordered or as records out of range."""
    rng = np.random.default_rng(0)

    def rows(sessions, sigma):
        """Each session's ints as rows of ⌈σ/8⌉ whole bytes."""
        return np.stack([ints_to_rows(values, 8 * row_bytes(sigma)) for values in sessions])

    for sessions, sigma in [
        ([[5, 3, 5, 0]], 16),                     # out of order, and 5 twice
        ([[3, 5, 5, 0]], 16),                     # 5 twice
        ([[3, 0, 5, 0]], 16),                     # a value after a zero row
        ([[0xFF00, 0, 0, 0]], 12),                # a value of 16 bits at σ = 12
        ([[3, 5, 0, 0], [9, 7, 0, 0]], 16),       # one session of two out of order
        ([[1 << 200, 1 << 199, 0, 0]], 256),      # out of order in a later byte
    ]:
        with pytest.raises(S.SessionError, match="distinct ascending nonzero values below"):
            S.prepare_inputs(rows(sessions, sigma), 4, sigma, rng)
    for sessions, sigma in [
        ([[3, 5, 0, 0], [7, 9, 11, 13]], 16),
        ([[0, 0, 0, 0]], 16),
        ([[0xF00, 0xFFF, 0, 0]], 12),
        ([[1 << 199, 1 << 200, (1 << 256) - 1, 0]], 256),
    ]:
        prepared = S.prepare_inputs(rows(sessions, sigma), 4, sigma, rng)
        for held, got in zip(sessions, rows_to_ints(prepared.values)):
            assert [v for v in got if v in held] == sorted(set(held) - {0})


def test_prepare_refuses_values_that_are_not_integers():
    rng = np.random.default_rng(0)
    # one session's values, not a list of sessions
    with pytest.raises(S.SessionError, match=r"\[3, 5\] is not an integer"):
        S.prepare_inputs([[3, 5]], 4, 16, rng)
    with pytest.raises(S.SessionError, match="2.5 is not an integer"):
        S.prepare_inputs([2.5, 5], 4, 16, rng)
    # Python and numpy integers are both values
    for values in ([3, 5], np.array([3, 5]), [np.uint16(3), 5]):
        assert rows_to_ints(S.prepare_inputs(values, 4, 16, rng).values[0]).count(3) == 1


def _wide_batch(sigma, sessions=64, parties=(0, 1, 2), u=6, seed=0):
    """Stockpiles of unequal sizes, so that most parties draw dummies."""
    rng = random.Random(seed)
    space = range(1, min(1 << sigma, 1 << 30))
    batch = []
    for _ in range(sessions):
        pool = rng.sample(space, 2 * u)
        batch.append({p: set(rng.sample(pool, rng.randint(1, u))) for p in parties})
    return batch


def _session_draws(batch, sigma, u, seed):
    values = [{p: S._distinct_values(sp[p], sigma) for p in sorted(sp)} for sp in batch]
    rngs = [np.random.default_rng([seed, i]) for i in range(len(batch[0]))]
    return values, S._prepare_parties(values, u, sigma, rngs)


@pytest.mark.parametrize("sigma", [8, 16, 32, 64, 72])
def test_draw_rules_hold_in_every_session_of_a_wide_batch(sigma):
    batch = _wide_batch(sigma)
    values, prepared = _session_draws(batch, sigma, 6, seed=sigma)
    for b, held in enumerate(values):
        everyone = set().union(*map(set, held.values()))
        seen_dummies, keys = set(), []
        for p in sorted(held):  # slot order: later parties avoid earlier dummies
            pp = prepared[p]
            dummies = rows_to_ints(pp.values[b][pp.dummy[b]])
            assert sorted(rows_to_ints(pp.values[b][~pp.dummy[b]])) == held[p]
            assert len(dummies) == 6 - len(held[p])
            assert all(0 < d < 1 << sigma for d in dummies)
            assert not set(dummies) & everyone
            assert not set(dummies) & seen_dummies and len(set(dummies)) == len(dummies)
            seen_dummies |= set(dummies)
            assert rows_to_ints(pp.values[b]) == sorted(rows_to_ints(pp.values[b]))
            keys += rows_to_ints(pp.keys[b])
        assert len(keys) == 6 * len(held)
        assert_pairs_disjoint(keys, sigma)
        assert all(0 <= k < 1 << sigma for k in keys)


def test_a_nearly_exhausted_space_never_repeats_a_value():
    # at sigma 8, 14 parties of 9 records fill 126 of the 255 nonzero
    # values and their key pairs 252 of the 256 values, so the last draws of
    # a session repeat a taken row many times before the redraws find a free one
    parties = tuple(range(14))
    batch = [{p: {1 + p} for p in parties} for _ in range(64)]
    values, prepared = _session_draws(batch, 8, 9, seed=3)
    for b in range(64):
        vs = [v for p in parties for v in rows_to_ints(prepared[p].values[b])]
        keys = [k for p in parties for k in rows_to_ints(prepared[p].keys[b])]
        assert len(vs) == len(set(vs)) == 14 * 9
        assert len(keys) == 14 * 9
        assert_pairs_disjoint(keys, 8)


@pytest.mark.parametrize("sigma, parties, u", [(4, 2, 4), (9, 4, 64)])
def test_keys_that_exactly_fill_the_space_have_disjoint_pairs(sigma, parties, u):
    # N*u = 2^(sigma-1): the pairs {k, ¬k} of all parties' keys cover every
    # sigma-bit value once; sigma 9 keeps a row byte for the flip bit alone
    batch = [{p: {1 + p} for p in range(parties)}] * 4
    _, prepared = _session_draws(batch, sigma, u, seed=sigma)
    for b in range(len(batch)):
        keys = [k for p in range(parties) for k in rows_to_ints(prepared[p].keys[b])]
        assert len(keys) == 1 << (sigma - 1)
        assert_pairs_disjoint(keys, sigma)


class UntouchedGenerator:
    """A generator stub that fails the test if it is asked for anything."""

    def __getattr__(self, name):
        raise AssertionError(f"the generator was touched: {name}")


def test_one_key_past_the_space_is_refused_before_the_generator_is_touched():
    # sigma 4 holds 2^3 = 8 key pairs: three parties of u = 3 need 9, and
    # the third party finds only 2 left
    values = [{0: [1], 1: [2], 2: [3]}]
    rngs = [np.random.default_rng(0), np.random.default_rng(1), UntouchedGenerator()]
    with pytest.raises(S.RandomnessFailure):
        S._prepare_parties(values, 3, 4, rngs)
    with pytest.raises(S.RandomnessFailure):
        S.prepare_inputs([1], 9, 4, UntouchedGenerator())
    # so is a dummy space that is too small, though the keys fit
    with pytest.raises(S.RandomnessFailure):
        S.prepare_inputs([1], 4, 3, UntouchedGenerator(), forbidden_values={2, 3, 4, 5})


def test_keys_are_uniform_in_every_bit():
    # sigma 4, three parties of u = 2: 6 of the 8 key pairs per session, so
    # the pair rule is tight, yet each key's bits, the top (flip) bit
    # among them, and the key itself must be uniform
    from scipy import stats

    sessions = 3000
    batch = [{0: {1}, 1: {2}, 2: {3}}] * sessions
    _, prepared = _session_draws(batch, 4, 2, seed=41)
    keys = np.array([rows_to_ints(prepared[p].keys) for p in range(3)]).ravel()
    for bit in range(4):
        ones = int(np.count_nonzero(keys >> bit & 1))
        assert stats.chisquare([ones, len(keys) - ones]).pvalue > 0.01, bit
    assert stats.chisquare(np.bincount(keys, minlength=16)).pvalue > 0.01


def test_prepare_inputs_and_draw_distinct_keep_their_plain_forms():
    # one session's ints and sets of forbidden ints, as external callers pass them
    pp = S.prepare_inputs([3, 5], 4, 16, np.random.default_rng(0), forbidden_keys={7})
    assert pp.keys.shape == (1, 4, 2) and pp.values.shape == (1, 4, 2)
    assert not {7, neg(7, 16)} & set(rows_to_ints(pp.keys[0]))
    rows = S._draw_distinct(np.random.default_rng(0), 2, 16, set(), lowest=1)
    assert rows.shape == (1, 2, 2) and 0 not in rows_to_ints(rows[0])


class RepeatingBytes:
    """A generator stub whose byte draws repeat: the first `repeats`
    calls all return the same bytes, later ones come from a real generator."""

    def __init__(self, repeats):
        self.rng, self.repeats, self.calls = np.random.default_rng(7), repeats, []

    def bytes(self, n):
        self.calls.append(n)
        if len(self.calls) <= self.repeats:
            return b"\x5a" * n
        return self.rng.bytes(n)


def test_repeated_draws_are_drawn_again():
    stub = RepeatingBytes(repeats=2)
    rows = S._draw_distinct(stub, [3, 1, 2], 32, np.zeros((3, 0, 4), np.uint8), lowest=1)
    # the first call fills all 9 slots with one value; the 3 live slots
    # after the first of their session repeat it and are drawn again, and
    # the second call repeats it once more
    assert stub.calls == [9 * 4, 3 * 4, 3 * 4]
    ints = [rows_to_ints(rows[b]) for b in range(3)]
    assert ints[0][0] == ints[1][0] == ints[2][0] == 0x5A5A5A5A
    assert ints[1][1:] == [0, 0] and ints[2][2:] == [0]  # zero past each count
    for b, count in enumerate([3, 1, 2]):
        assert len(set(ints[b][:count])) == count
    # a repeat of a taken row is drawn again too
    stub = RepeatingBytes(repeats=1)
    taken = np.full((1, 1, 4), 0x5A, np.uint8)
    rows = S._draw_distinct(stub, [1], 32, taken, lowest=1)
    assert len(stub.calls) == 2 and rows_to_ints(rows[0]) != [0x5A5A5A5A]


def test_an_exhausted_space_is_a_randomness_failure():
    # at u = 6 each party needs 6 key pairs, two need 12 of the 8 pairs
    # of 4-bit values: refused before any draw, never an endless redraw
    with pytest.raises(S.RandomnessFailure):
        _session_draws([{0: {1}, 1: {2}, 2: {3}}] * 4, 4, 6, seed=0)
    # every 13-bit value but 0 and 1 is taken, and 0 is below `lowest`
    taken = ints_to_rows(range(2, 1 << 13), 13)[None]
    with pytest.raises(S.RandomnessFailure):
        S._draw_distinct(np.random.default_rng(0), [2], 13, taken, lowest=1)


@pytest.mark.parametrize("count, taken, lowest, per_outcome", [
    pytest.param(3, {2, 5}, 0, 40, id="keys-3-of-6"),  # 120 ordered triples
    pytest.param(2, {3}, 1, 50, id="dummies-2-of-6"),  # 30 ordered pairs
    pytest.param(5, {3}, 1, 10, id="dummies-5-of-6"),  # 720 tuples, nearly the whole space
])
def test_draws_are_uniform_over_tuples_of_distinct_allowed_values(count, taken, lowest, per_outcome):
    # each session's ordered 3-bit tuple is one outcome of a chi-square test
    from scipy import stats

    allowed = [v for v in range(lowest, 8) if v not in taken]
    outcomes = {t: n for n, t in enumerate(permutations(allowed, count))}
    sessions = per_outcome * len(outcomes)
    rows = S._draw_distinct(np.random.default_rng(25), [count] * sessions, 3, taken, lowest=lowest)
    seen = Counter(map(tuple, rows[..., 0].tolist()))
    assert set(seen) <= set(outcomes)  # distinct allowed values only
    observed = np.zeros(len(outcomes))
    for t, n in seen.items():
        observed[outcomes[t]] = n
    assert stats.chisquare(observed).pvalue > 0.01


# -- interpretation -----------------------------------------------------------------


def _prepared(values, keys, dummy, sigma=8):
    """One session's PreparedParty from ints: one key per record."""
    return S.PreparedParty(ints_to_rows(values, sigma)[None], ints_to_rows(keys, sigma)[None], np.array([dummy]))


def test_interpret_output_basic():
    prepared = {0: _prepared([5, 9], [10, 20], [False, False]),
                1: _prepared([7, 8], [30, 40], [False, True])}
    opened = ints_to_rows([neg(10, 8), neg(10, 8), 20, 20, neg(30, 8), neg(30, 8), 40, 40], 8)[None]
    (reports,) = S.interpret_output(prepared, opened, 8)
    assert reports[0].statuses == {5: "shared", 9: "exclusive"}
    assert reports[0].shared == {5}
    assert reports[0].shared_count == 1 and reports[0].exclusive_count == 1
    assert reports[1].statuses == {7: "shared"}  # dummies get no status


def test_interpret_output_matches_each_session_separately():
    prepared = {0: S.PreparedParty(
        ints_to_rows([5, 5], 8).reshape(2, 1, 1),
        ints_to_rows([10, 10], 8).reshape(2, 1, 1),
        np.zeros((2, 1), bool),
    )}
    # session 0 opens ¬k, session 1 opens k = 10: the same key rows
    opened = ints_to_rows([neg(10, 8), neg(10, 8), 10, 10], 8).reshape(2, 2, 1)
    reports = S.interpret_output(prepared, opened, 8)
    assert [r[0].statuses for r in reports] == [{5: "shared"}, {5: "exclusive"}]


def test_interpret_output_corruption():
    prepared = {0: _prepared([5], [10], [False])}
    with pytest.raises(S.ProtocolCorruption, match="value 5"):
        S.interpret_output(prepared, ints_to_rows([12, 13], 8)[None], 8)


@pytest.mark.parametrize("pairs, message", [
    pytest.param([10, neg(10, 9), 3, 3], "both k and ¬k for value 5 of party 1", id="both"),
    pytest.param([300, 300, 3, 3], "no key for value 5 of party 1", id="neither"),
    pytest.param([10, 10, 3, neg(3, 9)], "both k and ¬k for value 6 of party 1", id="both-of-a-dummy"),
    pytest.param([10, 10, 300, 300], "no key for value 6 of party 1", id="neither-of-a-dummy"),
])
def test_interpret_output_refuses_both_or_neither_key(pairs, message):
    # party 0's records open k = 7 and ¬k = 8; party 1's opened pairs are
    # `pairs`. At sigma 9 ¬k flips the row byte that holds only the top bit.
    prepared = {0: _prepared([4, 9], [7, 8], [False, False], sigma=9),
                1: _prepared([5, 6], [10, 3], [False, True], sigma=9)}
    opened = [7, 7, neg(8, 9), neg(8, 9), *pairs]
    with pytest.raises(S.ProtocolCorruption, match=message):
        S.interpret_output(prepared, ints_to_rows(opened, 9)[None], 9)


@pytest.mark.parametrize("fault", ["both", "neither"])
def test_a_corrupted_opening_is_refused_end_to_end(monkeypatch, fault):
    # the first opened pair of every session becomes ¬x, x (both) or two
    # values that are no record's key or complement (neither); plaintext
    # execution, so no negotiation reads keys through the patched reader
    config = S.SessionConfig(parties=(0, 1, 2), sigma=16)
    stockpiles = [{0: {5, 7}, 1: {5, 11}, 2: {9}}] * 3
    clean = S.run_sessions(config, stockpiles, seed=5, execution="plaintext")
    keys = {k for pp in clean.prepared.values() for k in rows_to_ints(pp.keys[0])}
    stray = next(x for x in range(1 << 16) if x not in keys and neg(x, 16) not in keys)
    read = S._keys_from_output

    def corrupted(out_bits, n_keys, sigma):
        rows = read(out_bits, n_keys, sigma)
        if fault == "both":
            rows[:, 0] ^= S._complement(sigma)
        else:
            rows[:, :2] = ints_to_rows([stray], sigma)
        return rows

    monkeypatch.setattr(S, "_keys_from_output", corrupted)
    which = "both k and ¬k" if fault == "both" else "no key"
    with pytest.raises(S.ProtocolCorruption, match=which):
        S.run_sessions(config, stockpiles, seed=5, execution="plaintext")


@pytest.mark.parametrize("sigma", [1, 8, 13, 32, 64, 256])
def test_keys_from_output_reads_each_key_big_endian(sigma):
    rng = np.random.default_rng(sigma)
    n_keys, batch = 5, 3
    out = rng.integers(0, 2, size=(n_keys * sigma, batch), dtype=np.uint8)
    expect = [
        [int("".join(map(str, out[i * sigma : (i + 1) * sigma, b])), 2) for i in range(n_keys)]
        for b in range(batch)
    ]
    rows = S._keys_from_output(out, n_keys, sigma)
    assert rows.shape == (batch, n_keys, (sigma + 7) // 8)
    assert rows_to_ints(rows) == expect
    assert np.array_equal(ints_to_rows(sum(expect, []), sigma).reshape(rows.shape), rows)


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


@pytest.mark.parametrize("counts, error", [
    ({0: [3]}, S.UnknownParty),  # party 1 is missing
    ({0: [3], 1: [2], 5: [1]}, S.UnknownParty),
    ({0: [3, 4], 1: [2]}, S.SessionError),  # unequal session counts
    ({0: [3], 1: [-1]}, S.SessionError),
    ({0: [2.5], 1: [1]}, S.SessionError),
    ({0: [], 1: []}, S.SessionError),
], ids=["missing-party", "extra-party", "unequal-sessions", "negative-count", "non-integer-count",
        "no-sessions"])
def test_negotiate_u_checks_its_counts_before_building_an_engine(monkeypatch, counts, error):
    def no_engine(*args, **kwargs):
        raise AssertionError("an engine was built for counts that cannot be negotiated")

    monkeypatch.setattr(mpc, "Engine", no_engine)
    with pytest.raises(error):
        S.negotiate_u(S.SessionConfig(parties=(0, 1), sigma=8, count_bits=4), counts, seed=0)


@pytest.mark.parametrize("execution", ["mpc", "plaintext", "both"])
def test_every_execution_refuses_a_count_over_count_bits(execution):
    """A party with 4 values does not fit count_bits = 2: each execution
    refuses the round with the error negotiation raises."""
    config = S.SessionConfig(parties=(0, 1), sigma=8, count_bits=2)
    with pytest.raises(S.SessionError, match="count 4 of party 0 does not fit 2 bits") as exc:
        S.run_sessions(config, [{0: {1, 2, 3, 4}, 1: {5}}], seed=0, execution=execution)
    assert type(exc.value) is S.SessionError


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


@pytest.mark.parametrize("variant", [
    S.VariantSpec(),
    S.VariantSpec("at-least-m", m=3),
    S.VariantSpec("fixed-plus-m", m=1, fixed_parties=(2,)),
], ids=lambda spec: spec.kind)
@pytest.mark.parametrize("width", [1, 3, 9, 256])
def test_rounds_with_dummies_match_oracle_at_every_batch_width(width, variant):
    config = S.SessionConfig(parties=(0, 2, 5), sigma=16, variant=variant)
    batch = _wide_batch(16, sessions=width, parties=config.parties, u=5, seed=width)
    res = S.run_sessions(config, batch, seed=width, execution="both")
    assert res.u == max(len(vs) for sp in batch for vs in sp.values())
    assert any(res.prepared[p].dummy.any() for p in config.parties)
    assert res.opened_rows.shape == (width, 2 * 3 * res.u, 2)
    for b, held in enumerate(batch):
        assert Counter(res.opened_keys[b]) == Counter(rows_to_ints(res.opened_rows[b]))
        want = oracle.brute_force_shared(held, variant.kind, variant.m, frozenset(variant.fixed_parties))
        for p, values in held.items():
            assert set(res.reports[b][p].statuses) == values
            assert res.reports[b][p].shared == want[p]


def test_unsorted_injection_aborts_in_a_wide_batch_with_dummies():
    config = S.SessionConfig(parties=(0, 1, 2), sigma=16)
    batch = _wide_batch(16, sessions=9, u=4, seed=5)
    for victim in (0, 2):
        with pytest.raises(mpc.AbortUnsorted) as exc:
            S.run_sessions(config, batch, seed=6, inject_unsorted=victim)
        assert exc.value.parties == [victim]


def test_unsorted_injection_aborts_with_exact_party():
    config = cfg2()
    pools = {0: {3, 9}, 1: {5, 6}}
    with pytest.raises(mpc.AbortUnsorted) as exc:
        S.run_sessions(config, [pools], seed=11, execution="mpc", inject_unsorted=1)
    assert exc.value.parties == [1]
    res = S.run_sessions(config, [pools], seed=11, execution="mpc")
    assert res.transcript.reactive_opens == 1


@pytest.mark.parametrize("mode", ["direct", "outsourced"])
def test_unsorted_abort_comes_before_any_key_is_opened(monkeypatch, seals, mode):
    """The sortedness flags are the first opening, in the round after the
    last AND layer; the abort there leaves the final opening unsent."""
    config = S.SessionConfig(parties=(0, 1, 2), sigma=8, mode=mode, n_servers=2)
    pools = {0: {3, 9}, 1: {5, 6}, 2: {4, 7}}
    engines, sent = [], []

    class RoundEngine(mpc.Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.reactive:
                engines.append(self)

    send = mpc.InProcessTransport.send

    def recording(transport, sender, recipient, data):
        sent.append((transport, seals[-1][1]))
        send(transport, sender, recipient, data)

    monkeypatch.setattr(mpc, "Engine", RoundEngine)
    monkeypatch.setattr(mpc.InProcessTransport, "send", recording)
    with pytest.raises(mpc.AbortUnsorted) as exc:
        S.run_sessions(config, [pools], seed=11, inject_unsorted=1)
    assert exc.value.parties == [1]
    (engine,) = engines
    flags_round = engine.schedule.and_layers + 1
    assert engine.transcript.rounds == flags_round
    # input shares, every AND layer, the flags, and no final opening
    rounds = {r for transport, r in sent if transport is engine.transport}
    assert rounds == set(range(flags_round + 1))


@pytest.mark.parametrize("execution", ["mpc", "plaintext", "both"])
def test_run_sessions_rejects_an_empty_batch(monkeypatch, execution):
    def engine(*args, **kwargs):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(mpc, "Engine", engine)
    with pytest.raises(S.SessionError, match="at least one session"):
        S.run_sessions(cfg2(), [], seed=1, execution=execution)


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
    assert any(res.prepared[p].dummy.any() for p in range(3))
    for b in range(len(batch)):
        bag = Counter(res.opened_keys[b])
        for p in range(3):
            pp = res.prepared[p]
            for k in rows_to_ints(pp.keys[b][pp.dummy[b]]):
                assert bag[neg(k, 8)] == 0
                assert bag[k] == 2


@pytest.mark.parametrize("sessions", [1, 9])
def test_one_server_round_sends_no_frame_after_the_input_shares(monkeypatch, seals, sessions):
    """With one computing server every broadcast round has no peer: only
    the owners' input shares travel, in round 0, and the opened keys still
    equal the plaintext circuit's and the oracle's answer."""
    rng = random.Random(sessions)
    batch = [{p: set(rng.sample(range(1, 40), rng.randint(1, 3))) for p in range(3)}
             for _ in range(sessions)]
    rounds = []
    send = mpc.InProcessTransport.send

    def recording(transport, sender, recipient, data):
        rounds.append(seals[-1][1])
        send(transport, sender, recipient, data)

    monkeypatch.setattr(mpc.InProcessTransport, "send", recording)
    config = S.SessionConfig(parties=(0, 1, 2), sigma=8, mode="outsourced", n_servers=1)
    res = S.run_sessions(config, batch, seed=sessions, execution="both")
    for held, reports in zip(batch, res.reports):
        assert {p: set(reports[p].statuses) for p in held} == held
        assert {p: reports[p].shared for p in held} == oracle.brute_force_shared(held)
    tr = res.transcript
    assert tr.n_parties == 1 and tr.batch == sessions
    assert tr.rounds == tr.and_layers + tr.reactive_opens + 1
    # the negotiation's and the round's input shares: one frame per party
    assert rounds == [0] * 6


_VARIANTS = [S.VariantSpec(), S.VariantSpec("at-least-m", m=2),
             S.VariantSpec("fixed-plus-m", m=1, fixed_parties=(0,))]


def _oracle_reports(held, variant):
    return oracle.brute_force_shared(held, variant.kind, variant.m, frozenset(variant.fixed_parties))


@pytest.mark.parametrize("mode", ["direct", "outsourced"])
@pytest.mark.parametrize("variant", _VARIANTS, ids=lambda v: v.kind)
def test_reports_match_the_oracle_at_every_width_and_over_four_epochs(variant, mode):
    """Protocol, plaintext circuit and oracle agree for every variant and
    mode, at one session, ragged widths, and a width of whole bytes, and
    through a Session of four epochs."""
    rng = random.Random(f"{variant.kind}-{mode}")
    config = S.SessionConfig(parties=(0, 1, 2), sigma=12, variant=variant, mode=mode,
                             n_servers=2 if mode == "outsourced" else 0)
    for sessions in (1, 3, 9, 256):
        batch = [{p: set(rng.sample(range(1, 40), rng.randint(1, 3))) for p in range(3)}
                 for _ in range(sessions)]
        res = S.run_sessions(config, batch, seed=sessions, execution="both")
        for held, reports in zip(batch, res.reports):
            assert {p: reports[p].shared for p in held} == _oracle_reports(held, variant)
    held = {p: set(rng.sample(range(1, 40), 2)) for p in range(3)}
    session = S.Session(config, held, seed=7)
    for epoch in range(4):
        if epoch:
            additions = {p: set(rng.sample(range(40, 80), 1)) - held[p] for p in range(3)}
            additions[epoch % 3].add(sorted(held[(epoch + 1) % 3])[0])  # a value becomes shared
            session.epoch_advance(additions)
            for p, values in additions.items():
                held[p] |= values
        res = session.run_epoch("both")
        assert {p: res.reports[0][p].shared for p in held} == _oracle_reports(held, variant)


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


def test_opened_keys_are_adjacent_pairs_in_uniform_slots():
    """The Shuffle permutes the N*u selected keys and each is opened
    twice, side by side; over many sessions of one stockpile, the pair
    slot of a shared record's ¬k and of an exclusive record's k is
    uniform over the N*u slots."""
    from scipy import stats

    stockpiles = {0: {5, 7}, 1: {5, 11}, 2: {9, 13}}
    sessions, slots = 600, 6
    res = S.run_sessions(S.SessionConfig(parties=(0, 1, 2), sigma=16), [stockpiles] * sessions, seed=29)
    rows = res.opened_rows
    assert rows.shape[1] == 2 * slots
    assert np.array_equal(rows[:, 0::2], rows[:, 1::2])
    keys = np.array(res.opened_keys)[:, 0::2]
    assert all(len(set(row)) == slots for row in keys.tolist())

    def pair_slots(party, value, shared):
        pp = res.prepared[party]
        (at,) = np.flatnonzero(np.array(rows_to_ints(pp.values[0])) == value)
        chosen = np.array([neg(k, 16) if shared else k for k in rows_to_ints(pp.keys[:, at])])
        hit = keys == chosen[:, None]
        assert (hit.sum(axis=1) == 1).all()
        return hit.argmax(axis=1)

    for party, value, shared in [(0, 5, True), (2, 9, False)]:
        counts = np.bincount(pair_slots(party, value, shared), minlength=slots)
        assert stats.chisquare(counts).pvalue > 0.01, (value, counts)


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


def test_session_takes_a_seed_sequence_as_run_sessions_does():
    held = {0: {5, 9}, 1: {9, 12}}
    by_int = S.Session(cfg2(), held, seed=3).run_epoch()
    by_sequence = S.Session(cfg2(), held, seed=np.random.SeedSequence(3)).run_epoch()
    assert by_sequence.opened_keys == by_int.opened_keys
    assert by_sequence.reports[0][0].statuses == {5: "exclusive", 9: "shared"}


_NO_NUMPY_MA = """
import sys
from depletion import session as S

config = S.SessionConfig(parties=(0, 1, 2), sigma=16)
batch = [{0: {5, 9}, 1: {9, 12}, 2: {7}}, {0: {3}, 1: {3, 4, 8}, 2: {4}}, {0: {1}, 1: {2}, 2: {1, 2}}]
S.run_sessions(config, batch, seed=1, execution="both")
# enough records that np.isin would take its sorting path
session = S.Session(config, {0: set(range(1, 25)), 1: {9, 12}, 2: {7}}, seed=2)
session.run_epoch()
for additions in ({0: {30}, 1: {5}}, {2: {5, 31, 32}}):
    session.epoch_advance(additions)
    session.run_epoch()
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""


def test_rounds_and_epochs_leave_numpy_ma_unimported():
    """np.unique, np.union1d and np.isin import numpy.ma, which costs
    about 0.7 MB of resident memory; a round and an epoch must not."""
    src = str(Path(S.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY_MA], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_epoch_advance_rejects_removals():
    sess = S.Session(cfg2(), {0: {1}, 1: {2}}, seed=18)
    with pytest.raises(S.RemovalAttempted):
        sess.epoch_advance({}, removals={0: {1}})


def test_new_value_equal_to_an_own_submitted_dummy_is_refused():
    sess = S.Session(cfg2(), {0: {5}, 1: {5, 9, 12}}, seed=21)
    first = sess.run_epoch()
    dummies = rows_to_ints(first.prepared[0].values[0][first.prepared[0].dummy[0]])
    assert len(dummies) == 2
    with pytest.raises(S.RandomnessFailure, match="collides with a submitted dummy"):
        sess.epoch_advance({0: {dummies[0]}})
    sess.epoch_advance({0: {5}})  # a value already submitted as real is dropped
    assert sess.run_epoch().u == 3


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


def test_two_epoch_session_keeps_its_dummies_and_matches_oracle():
    """Dummies submitted in epoch 1 are resubmitted as dummies, never
    reported, and the epoch's reports match the oracle."""
    held = {0: {5}, 1: {5, 9, 300}, 2: {9, 4000, 12}}
    sess = S.Session(S.SessionConfig(parties=(0, 1, 2), sigma=16), held, seed=50)
    first = sess.run_epoch(execution="both")
    old_dummies = {p: set(rows_to_ints(first.prepared[p].values[0][first.prepared[p].dummy[0]])) for p in held}
    assert [len(old_dummies[p]) for p in (0, 1, 2)] == [2, 0, 0]
    sess.epoch_advance({0: {300, 77}, 2: {5, 78, 79}})
    second = sess.run_epoch(execution="both")
    held = {0: {5, 300, 77}, 1: held[1], 2: {9, 4000, 12, 5, 78, 79}}
    assert second.u == 6
    pp = second.prepared[0]
    assert old_dummies[0] <= set(rows_to_ints(pp.values[0][pp.dummy[0]]))
    want = oracle.brute_force_shared(held)
    for p in held:
        assert set(second.reports[0][p].statuses) == held[p]
        assert second.reports[0][p].shared == want[p]


def test_fixed_parties_that_cannot_be_sorted_are_a_config_error():
    with pytest.raises(CP.ConfigInvalid, match="fixed parties"):
        S.VariantSpec("fixed-plus-m", 1, ("0", 1))
    raw = {"parties": [{"id": 0}, {"id": 1}],
           "variant": {"kind": "fixed-plus-m", "m": 1, "fixed_parties": ["0", 1]}}
    with pytest.raises(S.ConfigMismatch, match="fixed_parties"):
        S.SessionConfig.from_dict(raw, "a config")


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


@pytest.mark.parametrize("epoch", [-1, 1 << 32])
def test_epoch_outside_the_frame_header_is_a_config_mismatch(epoch):
    with pytest.raises(S.ConfigMismatch, match="epoch"):
        S.run_sessions(cfg2(epoch=epoch), [{0: {5}, 1: {5}}], seed=0)
    with pytest.raises(S.ConfigMismatch, match="epoch"):
        S.Session(cfg2(epoch=epoch), {0: {5}, 1: {5}}, seed=0)


def test_session_cannot_advance_past_the_last_frame_epoch():
    sess = S.Session(cfg2(epoch=(1 << 32) - 1), {0: {5, 9}, 1: {9}}, seed=43)
    assert sess.run_epoch().reports[0][0].shared == {9}
    sess.epoch_advance({})
    with pytest.raises(S.ConfigMismatch, match="epoch"):
        sess.run_epoch()


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


@pytest.mark.parametrize("bad", [3.7, "12", None])
def test_rounds_refuse_values_that_are_not_integers(bad):
    with pytest.raises(S.SessionError, match="is not an integer"):
        S.run_sessions(cfg2(), [{0: {bad, 5}, 1: {3}}], seed=1)
    with pytest.raises(S.SessionError, match="is not an integer"):
        S.Session(cfg2(), {0: {bad, 5}, 1: {7}}, seed=42)
    sess = S.Session(cfg2(), {0: {5}, 1: {5, 7}}, seed=42)
    with pytest.raises(S.SessionError, match="is not an integer"):
        sess.epoch_advance({1: {bad}})


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


def test_unknown_unsorted_party_is_refused_before_negotiation(monkeypatch):
    def negotiate(*args):
        raise AssertionError("negotiation started")

    monkeypatch.setattr(S, "negotiate_u", negotiate)
    config = S.SessionConfig((0, 1, 2), sigma=16)
    with pytest.raises(S.UnknownParty, match="party 7"):
        S.run_sessions(config, [{0: {5}, 1: {5}, 2: {6}}], 1, inject_unsorted=7)


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
