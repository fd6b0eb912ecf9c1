"""Oblivious merging over comparison-exchange callbacks.

`odd_even_merge` is Batcher's merge generalized to arbitrary run
lengths. It is data-independent: the exchange positions depend only on
the input sizes, so the same recursion drives plain lists, gate
materialization, and gate counting.
"""

from __future__ import annotations


def odd_even_merge(swap, run_a: list, run_b: list) -> list:
    """Merge two ascending runs into one ascending run.

    `swap(x, y) -> (lo, hi)` is the compare-exchange. Items are opaque;
    the returned list is the merged order. Exchange positions follow
    Batcher's recursion: merge the even-indexed and odd-indexed
    subsequences, interleave, then compare-exchange the (odd, even)
    neighbor pairs.
    """
    if not run_a:
        return list(run_b)
    if not run_b:
        return list(run_a)
    if len(run_a) == 1 and len(run_b) == 1:
        lo, hi = swap(run_a[0], run_b[0])
        return [lo, hi]
    evens = odd_even_merge(swap, run_a[0::2], run_b[0::2])
    odds = odd_even_merge(swap, run_a[1::2], run_b[1::2])
    out = [evens[0]]
    for k in range(len(odds)):
        if k + 1 < len(evens):
            lo, hi = swap(odds[k], evens[k + 1])
            out.append(lo)
            out.append(hi)
        else:
            out.append(odds[k])
    out.extend(evens[len(odds) + 1 :])
    return out


def odd_even_merge_ce_count(p: int, q: int) -> int:
    """Compare-exchange count of odd_even_merge on runs of length p, q."""
    if p == 0 or q == 0:
        return 0
    if p == 1 and q == 1:
        return 1
    evens = odd_even_merge_ce_count((p + 1) // 2, (q + 1) // 2)
    odds = odd_even_merge_ce_count(p // 2, q // 2)
    len_e = (p + 1) // 2 + (q + 1) // 2
    len_o = p // 2 + q // 2
    return evens + odds + min(len_o, len_e - 1)


def merge_plain(run_a: list[int], run_b: list[int]) -> list[int]:
    """Run the network on plain integers (test oracle substrate)."""

    def swap(x, y):
        return (x, y) if x <= y else (y, x)

    return odd_even_merge(swap, run_a, run_b)
