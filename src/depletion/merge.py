"""Oblivious merging over comparison-exchange callbacks.

`odd_even_merge` is Batcher's merge generalized to arbitrary run
lengths. It is data-independent: the exchange positions depend only on
the input sizes, so the same recursion merges plain lists and, run once
on slot tokens through `circuit.exchange_layers`, gives the compiler
the comparator layers it emits as gates (one set of block calls per
layer, for either builder).
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


def merge_plain(run_a: list[int], run_b: list[int]) -> list[int]:
    """Run the network on plain integers (test oracle substrate)."""

    def swap(x, y):
        return (x, y) if x <= y else (y, x)

    return odd_even_merge(swap, run_a, run_b)
