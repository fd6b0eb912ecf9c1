"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion (plus timing).
"""

import dataclasses
import functools
import itertools
import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from depletion import compiler as CP
from depletion import ledger as LG
from depletion import mpc, oracle
from depletion import session as S
from depletion import vulnid as V
from depletion import waksman as W
from depletion.circuit import CircuitBuilder


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {label}: FAIL")
                raise
            print(f"\nACCEPTANCE {label}: PASS ({time.perf_counter() - start:.1f}s)")
        return wrapper
    return deco


# -- 1. oracle equivalence across all variants --------------------------------------

VARIANTS = [
    ("at-least-two", S.VariantSpec()),
    ("at-least-m(2)", S.VariantSpec("at-least-m", m=2)),
    ("at-least-m(3)", S.VariantSpec("at-least-m", m=3)),
    ("fixed(1)+1", S.VariantSpec("fixed-plus-m", m=1, fixed_parties=(0,))),
    ("fixed(1)+2", S.VariantSpec("fixed-plus-m", m=2, fixed_parties=(0,))),
    ("fixed(2)+1", S.VariantSpec("fixed-plus-m", m=1, fixed_parties=(0, 1))),
    ("fixed(2)+2", S.VariantSpec("fixed-plus-m", m=2, fixed_parties=(0, 1))),
]

GRID = [
    (n, u, sigma)
    for n in (2, 3, 5)
    for u in (1, 4, 8)
    for sigma in (8, 16)
]


def variant_valid(spec: S.VariantSpec, n: int, u: int) -> bool:
    if spec.kind == "at-least-m":
        return spec.m <= n * u
    if spec.kind == "fixed-plus-m":
        z = len(spec.fixed_parties)
        return z <= n and z + spec.m <= n * u
    return True


def gen_pools(rng: random.Random, n: int, u: int, sigma: int) -> dict[int, set[int]]:
    pool_size = min((1 << sigma) - 1, max(u + 2, 2 * u + 3))
    pool = rng.sample(range(1, 1 << sigma), pool_size)
    full_party = rng.randrange(n)
    pools = {}
    for p in range(n):
        k = u if p == full_party else rng.randint(1, u)
        pools[p] = set(rng.sample(pool, k))
    return pools


@criterion("1 oracle-equivalence")
def test_criterion_1_oracle_equivalence():
    rng = random.Random(0xC1)
    for label, spec in VARIANTS:
        cells = [
            (n, u, sigma) for n, u, sigma in GRID if variant_valid(spec, n, u)
        ]
        per_cell = math.ceil(1000 / len(cells))
        sessions = 0
        mismatches = 0
        for idx, (n, u, sigma) in enumerate(cells):
            spec_n = spec
            if spec.kind == "fixed-plus-m":
                spec_n = S.VariantSpec(
                    spec.kind, spec.m, tuple(range(len(spec.fixed_parties)))
                )
            config = S.SessionConfig(
                parties=tuple(range(n)), sigma=sigma, variant=spec_n
            )
            batch = [gen_pools(rng, n, u, sigma) for _ in range(per_cell)]
            result = S.run_sessions(
                config, batch, seed=rng.randrange(2**32), execution="both"
            )
            assert result.u == u
            for b, pools in enumerate(batch):
                want = oracle.brute_force_shared(
                    pools, spec_n.kind, spec_n.m, frozenset(spec_n.fixed_parties)
                )
                for p in range(n):
                    if result.reports[b][p].shared != want[p]:
                        mismatches += 1
                sessions += 1
        assert sessions >= 1000, (label, sessions)
        assert mismatches == 0, (label, mismatches)


# -- 2. sortedness abort --------------------------------------------------------------


@criterion("2 sortedness-abort")
def test_criterion_2_sortedness_abort():
    rng = random.Random(0xC2)
    detections = 0
    trials = 0
    cases = itertools.cycle(
        [(n, u) for n in (2, 3, 5) for u in (2, 4)]
    )
    while trials < 100:
        n, u = next(cases)
        victim = trials % n
        pools = gen_pools(rng, n, u, 8)
        config = S.SessionConfig(parties=tuple(range(n)), sigma=8)
        seed = rng.randrange(2**32)
        with pytest.raises(mpc.AbortUnsorted) as exc:
            S.run_sessions(
                config, [pools], seed=seed, execution="mpc",
                inject_unsorted=victim,
            )
        assert exc.value.parties == [victim], (n, u, victim, exc.value.parties)
        detections += 1
        trials += 1
    assert detections == 100
    # honest runs: zero false accusations
    for n, u in [(2, 2), (3, 4), (5, 2)]:
        pools = gen_pools(rng, n, u, 8)
        config = S.SessionConfig(parties=tuple(range(n)), sigma=8)
        result = S.run_sessions(config, [pools], seed=rng.randrange(2**32))
        assert result.transcript.reactive_opens == 1


# -- 3. gate-count bounds ---------------------------------------------------------------


@criterion("3 gate-count-bounds")
def test_criterion_3_gate_count_bounds():
    for n in (2, 5, 10):
        for u in (100, 500):
            cfg = CP.CircuitConfig(n_parties=n, inputs_per_party=u, sigma=256)
            bounds = CP.stage_bounds(cfg)
            measured = {s.name: s.and_count for s in CP.stage_counts(cfg)}
            assert measured["SortCheck"] <= n * (u - 1) * (256 + 1)
            assert measured["MergeTree"] <= 2 * n * n * u * 256 * math.log2(n * u)
            assert measured["DupSelect"] <= 4 * n * u * 256
            assert measured["Shuffle"] <= n * 256 * n * u * math.log2(n * u)
            for name, count in measured.items():
                assert count <= bounds[name], (n, u, name)


# -- 4. communication accounting ----------------------------------------------------------


@criterion("4 communication-accounting")
def test_criterion_4_communication_accounting():
    rng = random.Random(0xC4)
    for n, u, sigma in [(2, 2, 8), (3, 4, 8), (5, 2, 16)]:
        pools = gen_pools(rng, n, u, sigma)
        config = S.SessionConfig(parties=tuple(range(n)), sigma=sigma)
        result = S.run_sessions(
            config, [pools], seed=rng.randrange(2**32), execution="mpc"
        )
        t = result.transcript
        t.verify()
        assert t.rounds == t.and_layers + t.reactive_opens + 1
        for pid in range(n):
            assert t.triples_consumed[pid] == t.and_count
            # N-1 messages per broadcast round plus the one input
            # distribution burst per owner
            assert t.messages_sent[pid] == (t.rounds + 1) * (n - 1)


# -- 5. identifier determinism --------------------------------------------------------------


def _mixed_case(rng: random.Random, text: str) -> str:
    return "".join(
        c.upper() if rng.random() < 0.5 else c.lower() for c in text
    )


def _random_identifier(rng: random.Random) -> dict:
    vendor = "".join(rng.choice("abcdefghijk") for _ in range(6))
    product = "".join(rng.choice("lmnopqrstuv") for _ in range(7))
    version = f"{rng.randint(0, 9)}.{rng.randint(0, 20)}"
    words = [
        rng.choice(["parse", "handle", "read", "write", "alloc", "café"]),
        rng.choice(["header", "frame", "buffer", "index", "tokén"]),
    ]
    joiner = rng.choice(["_", ""])
    function = joiner.join(words)
    return {
        "cpe": f"cpe:2.3:a:{vendor}:{product}:{version}:*:*:*:*:*:*:*",
        "cwe": rng.randint(1, 999),
        "function": function,
    }


@criterion("5 identifier-determinism")
def test_criterion_5_identifier_determinism():
    rng = random.Random(0xC5)
    mismatches = 0
    for _ in range(10_000):
        fields = _random_identifier(rng)
        sorted_json = json.dumps(fields, sort_keys=True)
        keys = list(fields)
        rng.shuffle(keys)
        shuffled = {
            k.upper() if rng.random() < 0.5 else k: (
                _mixed_case(rng, fields[k]) if isinstance(fields[k], str) else fields[k]
            )
            for k in keys
        }
        shuffled_json = json.dumps(shuffled)
        a = V.parse_identifier(sorted_json)
        b = V.parse_identifier(shuffled_json)
        if V.canonicalize(a) != V.canonicalize(b):
            mismatches += 1
            continue
        if V.hash_identifier(a, 256) != V.hash_identifier(b, 256):
            mismatches += 1
    assert mismatches == 0


# -- 6. shuffle unlinkability ------------------------------------------------------------------


@criterion("6 shuffle-unlinkability")
def test_criterion_6_shuffle_unlinkability():
    from scipy import stats

    n, sigma, runs = 8, 8, 10_000
    b = CircuitBuilder()
    keys = [b.input_vector(0, sigma) for _ in range(n)]
    ctl_a = b.input_vector(1, W.switch_count(n))
    ctl_b = b.input_vector(2, W.switch_count(n))
    out = W.build_network(b, ctl_a, keys)
    out = W.build_network(b, ctl_b, out)
    circ = b.finish([w for vec in out for w in vec])

    markers = list(range(100, 100 + n))
    rng = np.random.default_rng(0xC6)
    marker_bits = np.array(
        [[(m >> (sigma - 1 - i)) & 1 for m in markers] for i in range(sigma)]
        # shape (sigma, n) column-major per marker
    )
    key_input = np.concatenate(
        [np.tile(marker_bits[:, i : i + 1], (1, runs)) for i in range(n)]
    ).astype(np.uint8)

    def controls():
        return W.route_permutation(np.array([rng.permutation(n) for _ in range(runs)])).T

    got = circ.evaluate({0: key_input, 1: controls(), 2: controls()})
    counts = np.zeros((n, n), dtype=np.int64)  # position x marker
    for pos in range(n):
        vals = got[pos * sigma : (pos + 1) * sigma]
        weights = 1 << np.arange(sigma - 1, -1, -1)
        nums = (vals.astype(np.int64) * weights[:, None]).sum(axis=0)
        for m_idx, m in enumerate(markers):
            counts[pos, m_idx] = int((nums == m).sum())
    assert counts.sum() == n * runs
    freqs = counts / runs
    assert np.all(np.abs(freqs - 1 / n) <= 0.02), freqs
    for pos in range(n):
        p_value = stats.chisquare(counts[pos]).pvalue
        assert p_value > 0.01, (pos, p_value, counts[pos])


# -- 7. ledger attack reproduction ------------------------------------------------------------


@criterion("7 ledger-attack")
def test_criterion_7_ledger_attack():
    rng = random.Random(0xC7)
    space_bits = 16
    space = list(LG.enumerate_toy_space(space_bits))
    led = LG.Ledger()
    for w in ("w1", "w2", "w3"):
        led.register_writer(w)
    led.register_reader("r1")
    expected_counts = Counter()
    for _ in range(200):
        writer = rng.choice(("w1", "w2", "w3"))
        ident = rng.choice(space)
        led.submit(writer, V.ledger_digest_hex(ident))
        expected_counts[writer] += 1

    start = time.perf_counter()
    report = LG.brute_force_attack(led, LG.enumerate_toy_space(space_bits))
    elapsed = time.perf_counter() - start
    assert report.total_submissions == 200
    assert report.recovery_rate == 1.0
    assert elapsed < 60, elapsed
    assert report.per_writer_counts == dict(expected_counts)

    detected = 0
    for _ in range(100):
        victim = LG.Ledger.load_bytes(led.save_bytes())
        idx = rng.randrange(len(victim.blocks))
        block = victim.blocks[idx]
        field = rng.choice(["payload", "prev_digest", "submitter"])
        if field == "payload":
            payload = dict(block.payload)
            if "hash" in payload:
                flipped = int(payload["hash"], 16) ^ (1 << rng.randrange(512))
                payload["hash"] = format(flipped, "0128x")
            else:
                payload["type"] = payload["type"] + "!"
            mutated = dataclasses.replace(block, payload=payload)
        elif field == "prev_digest":
            flipped = int(block.prev_digest, 16) ^ (1 << rng.randrange(512))
            mutated = dataclasses.replace(
                block, prev_digest=format(flipped, "0128x")
            )
        else:
            mutated = dataclasses.replace(block, submitter=block.submitter + "x")
        victim.blocks[idx] = mutated
        if victim.verify_chain() == idx:
            detected += 1
    assert detected == 100


# -- 8. dummy soundness -------------------------------------------------------------------------


@criterion("8 dummy-soundness")
def test_criterion_8_dummy_soundness():
    rng = random.Random(0xC8)
    specs = [
        S.VariantSpec(),
        S.VariantSpec("at-least-m", m=2),
        S.VariantSpec("fixed-plus-m", m=1, fixed_parties=(0,)),
    ]
    cells = [
        (n, u, spec)
        for n in (2, 3)
        for u in (1, 2, 3)
        for spec in specs
        if variant_valid(spec, n, u)
    ]
    total = 0
    dummy_hits = 0
    dummy_records = 0
    false_positives = 0
    target = 100_000
    per_cell = math.ceil(target / len(cells) / 2500) * 2500
    for n, u, spec in cells:
        remaining = per_cell
        config = S.SessionConfig(parties=tuple(range(n)), sigma=8, variant=spec)
        while remaining > 0 and total < target + per_cell:
            batch_size = min(2500, remaining)
            batch = [gen_pools(rng, n, u, 8) for _ in range(batch_size)]
            result = S.run_sessions(
                config, batch, seed=rng.randrange(2**32), execution="plaintext"
            )
            # sigma 8 keys are one byte: mark each session's opened keys
            # in a table and look every dummy's complement ¬k up in it
            opened = np.zeros((batch_size, 256), bool)
            sessions = np.arange(batch_size)[:, None]
            opened[sessions, result.opened_rows[..., 0]] = True
            for p in range(n):
                pp = result.prepared[p]
                dummy_hits += int((opened[sessions, pp.keys[:, :, 0] ^ 0xFF] & pp.dummy).sum())
                dummy_records += int(pp.dummy.sum())
            for b, pools in enumerate(batch):
                want = oracle.brute_force_shared(
                    pools, spec.kind, spec.m, frozenset(spec.fixed_parties)
                )
                for p in range(n):
                    if result.reports[b][p].shared - want[p]:
                        false_positives += 1
            total += batch_size
            remaining -= batch_size
    assert total >= 100_000, total
    assert dummy_records > 0
    assert dummy_hits == 0
    assert false_positives == 0


# -- 9. epoch persistence -----------------------------------------------------------------------


@criterion("9 epoch-persistence")
def test_criterion_9_epoch_persistence():
    rng = random.Random(0xC9)
    for trial in range(100):
        n = rng.choice([2, 3])
        parties = tuple(range(n))
        config = S.SessionConfig(parties=parties, sigma=8)
        for attempt in range(20):
            pool = rng.sample(range(1, 250), 8)
            start = {p: set(rng.sample(pool, rng.randint(1, 2))) for p in parties}
            extra = {p: set(rng.sample(pool, rng.randint(1, 2))) for p in parties}
            sess = S.Session(config, start, seed=1000 * trial + attempt)
            first = sess.run_epoch()
            try:
                sess.epoch_advance(extra)
            except S.RandomnessFailure:
                continue  # a dummy collided with a later addition; redraw
            second = sess.run_epoch()
            break
        else:
            raise AssertionError("could not place additions in 20 attempts")
        assert sess.store  # shares persisted by every computing party
        union = {p: start[p] | extra[p] for p in parties}
        oneshot = S.run_sessions(
            config, [union], seed=7000 + trial, execution="both"
        )
        for p in parties:
            assert (
                second.reports[0][p].statuses == oneshot.reports[0][p].statuses
            ), (trial, p)
