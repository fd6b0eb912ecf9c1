"""Brute-force ground truth for every matching variant.

`brute_force_shared` is deliberately primitive: plain sets, counting,
and no imports from this package, so it can referee the circuit, the
compiler and the protocol. Tests compare it against
`session.run_sessions` in its plaintext, protocol and combined modes.
"""

from __future__ import annotations


def brute_force_shared(
    plain_sets: dict[int, set[int]],
    kind: str = "at-least-two",
    m: int = 1,
    fixed_parties: frozenset[int] | set[int] = frozenset(),
) -> dict[int, set[int]]:
    """Per-party sets of values that qualify as shared.

    kind "at-least-two": held by two or more parties.
    kind "at-least-m": held by at least m parties.
    kind "fixed-plus-m": held by every fixed party and at least m others.
    """
    holders: dict[int, set[int]] = {}
    for party, values in plain_sets.items():
        if len(values) != len(set(values)):
            raise ValueError(f"party {party} holds duplicate values")
        for v in values:
            holders.setdefault(v, set()).add(party)
    fixed = frozenset(fixed_parties)

    def qualifies(parties: set[int]) -> bool:
        if kind == "at-least-two":
            return len(parties) >= 2
        if kind == "at-least-m":
            return len(parties) >= m
        if kind == "fixed-plus-m":
            return fixed <= parties and len(parties - fixed) >= m
        raise ValueError(f"unknown variant kind {kind!r}")

    shared = {v for v, parties in holders.items() if qualifies(parties)}
    return {party: values & shared for party, values in plain_sets.items()}

