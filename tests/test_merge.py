"""Merging network: Batcher odd-even merge over runs of any sizes."""

import random

from depletion import merge as M


def sorted_01_lists(length):
    return [[0] * z + [1] * (length - z) for z in range(length + 1)]


def test_odd_even_merge_zero_one_exhaustive():
    """0-1 principle: a comparator network merges iff it merges 0-1 runs."""
    for p in range(0, 9):
        for q in range(0, 9):
            for a in sorted_01_lists(p):
                for b in sorted_01_lists(q):
                    got = M.merge_plain(a, b)
                    assert got == sorted(a + b), (a, b, got)


def test_odd_even_merge_random_integers():
    rng = random.Random(11)
    for _ in range(300):
        p, q = rng.randint(0, 12), rng.randint(0, 12)
        a = sorted(rng.randint(0, 30) for _ in range(p))
        b = sorted(rng.randint(0, 30) for _ in range(q))
        assert M.merge_plain(a, b) == sorted(a + b)
