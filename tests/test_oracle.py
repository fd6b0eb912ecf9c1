"""Brute-force reference semantics, and the plaintext round against it."""

import random

import pytest

from depletion import oracle as O
from depletion.session import SessionConfig, run_sessions


def test_at_least_two_basics():
    got = O.brute_force_shared({1: {5}, 2: {5}})
    assert got == {1: {5}, 2: {5}}
    got = O.brute_force_shared({1: {5, 7}, 2: {5}, 3: {9}})
    assert got == {1: {5}, 2: {5}, 3: set()}


def test_at_least_m():
    sets = {1: {5}, 2: {5}, 3: {9}}
    got = O.brute_force_shared(sets, "at-least-m", m=3)
    assert got == {1: set(), 2: set(), 3: set()}
    sets = {1: {5}, 2: {5}, 3: {5}}
    got = O.brute_force_shared(sets, "at-least-m", m=3)
    assert got == {1: {5}, 2: {5}, 3: {5}}


def test_fixed_plus_m():
    sets = {1: {4}, 2: {4}, 3: {4}, 4: {9}}
    got = O.brute_force_shared(sets, "fixed-plus-m", m=1, fixed_parties={1, 2})
    assert got == {1: {4}, 2: {4}, 3: {4}, 4: set()}
    sets = {1: {9}, 2: {4}, 3: {4}, 4: {4}}
    got = O.brute_force_shared(sets, "fixed-plus-m", m=1, fixed_parties={1, 2})
    assert got == {1: set(), 2: set(), 3: set(), 4: set()}


def test_duplicates_rejected():
    with pytest.raises(ValueError):
        O.brute_force_shared({1: [5, 5]})


def test_unknown_kind():
    with pytest.raises(ValueError):
        O.brute_force_shared({1: {1}, 2: {2}}, "sometimes")


def plaintext_shared(pools, config, seed):
    result = run_sessions(config, [pools], seed=seed, execution="plaintext")
    return {party: rep.shared for party, rep in result.reports[0].items()}


def test_plaintext_round_matches_brute_force():
    rng = random.Random(31)
    for trial in range(5):
        pools = {
            p: set(rng.sample(range(1, 200), rng.randint(1, 4))) for p in range(3)
        }
        config = SessionConfig(parties=(0, 1, 2), sigma=8)
        got = plaintext_shared(pools, config, seed=trial)
        assert got == O.brute_force_shared(pools)


def test_plaintext_round_boundary_values():
    """Extreme values sit at the two ends of the merged list."""
    config = SessionConfig(parties=(0, 1), sigma=8)
    pools = {0: {1, 255}, 1: {2, 254}}
    got = plaintext_shared(pools, config, seed=0)
    assert got == {0: set(), 1: set()}
    pools = {0: {1, 255}, 1: {1, 255}}
    got = plaintext_shared(pools, config, seed=1)
    assert got == {0: {1, 255}, 1: {1, 255}}
