"""Compiler stages, variant semantics, and gate-count accounting."""

import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from reference import apply_network, bits_to_int, int_to_bits

from depletion import compiler as CP
from depletion import oracle, waksman
from depletion.bits import ints_to_rows, rows_to_bits
from depletion.circuit import CircuitBuilder


def make_cfg(n, u, sigma, variant=None, controls=None):
    return CP.CircuitConfig(
        n_parties=n,
        inputs_per_party=u,
        sigma=sigma,
        variant=variant or CP.VariantSpec(),
        control_parties=controls,
    )


def at_least_m(m):
    return CP.VariantSpec("at-least-m", m)


def fixed_plus_m(fixed, m):
    return CP.VariantSpec("fixed-plus-m", m, fixed)


def run_plain(cfg, records, perms=None, extra_wires=None):
    """Evaluate the compiled circuit on per-party (v, k) records.

    records: {party: [(v, k), ...]} with exactly u records each.
    perms: optional permutation per shuffle layer (default: identity).
    Returns (opened key list, flag bits, extra wire values).
    """
    comp = CP.compile_circuit(cfg)
    sigma = cfg.sigma
    inputs = {}
    for p in range(cfg.n_parties):
        bits = []
        for v, k in records[p]:
            bits += int_to_bits(v, sigma) + int_to_bits(k, sigma)
        inputs[p] = bits
    if perms is None:
        perms = [list(range(cfg.total_records))] * cfg.shuffle_layers
    for owner, perm in zip(cfg.control_parties, perms):
        ctl = [int(x) for x in waksman.route_permutation(perm)]
        inputs[owner] = inputs.get(owner, []) + ctl
    wanted = list(comp.flag_wires) + list(extra_wires or [])
    out, extra = comp.circuit.evaluate(inputs, extra_wires=wanted)
    keys = [
        bits_to_int(out[i * sigma : (i + 1) * sigma])
        for i in range(cfg.output_keys)
    ]
    flags = extra[: cfg.n_parties].tolist()
    return keys, flags, extra[cfg.n_parties :]


def merged_v_wires(cfg):
    """The merged records' value wires, in merged order, as MergeTree hands
    them to DupSelect in a construction of its own: it numbers wires as
    `compile_circuit` does."""
    seen = []

    def dup_select(b, cfg, merged):
        seen.append(merged[:, cfg.field("v")])
        return select(b, cfg, merged)

    select = CP._dup_select
    with mock.patch.object(CP, "_dup_select", dup_select):
        CP._construct(CircuitBuilder(), cfg)
    return seen[0].ravel().tolist()


def neg(k, sigma):
    """The complement ¬k of a sigma-bit key: what a shared record opens."""
    return k ^ ((1 << sigma) - 1)


def fresh_keys(rng, count, sigma):
    """Keys whose pairs {k, ¬k} are disjoint."""
    seen = set()
    keys = []
    while len(keys) < count:
        k = rng.randrange(1 << sigma)
        if k not in seen:
            seen.update((k, neg(k, sigma)))
            keys.append(k)
    return keys


def records_for(rng, values_per_party, sigma):
    ks = iter(fresh_keys(rng, sum(len(v) for v in values_per_party.values()), sigma))
    return {
        p: [(v, next(ks)) for v in sorted(vals)]
        for p, vals in values_per_party.items()
    }


def shared_from_keys(records, opened, sigma):
    bag = Counter(opened)
    out = {}
    for p, recs in records.items():
        out[p] = {v for v, k in recs if bag[neg(k, sigma)] > 0}
    return out


# -- configuration validation ------------------------------------------------


def test_config_validation():
    with pytest.raises(CP.ConfigInvalid):
        make_cfg(1, 4, 8)
    with pytest.raises(CP.ConfigInvalid):
        make_cfg(2, 2, 8, at_least_m(0))
    with pytest.raises(CP.ConfigInvalid):
        make_cfg(2, 1, 8, fixed_plus_m((0, 0), 1))
    with pytest.raises(CP.ConfigInvalid):
        make_cfg(3, 2, 8, fixed_plus_m((0, 3), 1))
    with pytest.raises(CP.ConfigInvalid):
        make_cfg(3, 2, 8, fixed_plus_m((), 1))
    with pytest.raises(CP.ConfigInvalid):
        make_cfg(3, 2, 8, CP.VariantSpec("at-least-three"))
    with pytest.raises(CP.ConfigInvalid):
        make_cfg(2, 2, 8, controls=())
    # a window longer than all N*u records compiles and opens only keys k
    recs = {0: [(5, 1), (6, 3)], 1: [(5, 5), (6, 7)]}
    for variant in (at_least_m(5), fixed_plus_m((0,), 4)):
        keys, _, _ = run_plain(make_cfg(2, 2, 8, variant), recs)
        assert Counter(keys) == Counter({1: 2, 3: 2, 5: 2, 7: 2}), variant


def test_variant_spec_normalizes_unused_fields():
    assert CP.VariantSpec("at-least-m", 2, (1, 0)) == CP.VariantSpec("at-least-m", 2)
    assert CP.VariantSpec("at-least-two", 3) == CP.VariantSpec()
    assert fixed_plus_m((2, 0), 1) == fixed_plus_m((0, 2), 1)
    assert make_cfg(3, 2, 8, fixed_plus_m((2, 0), 1)) == make_cfg(3, 2, 8, fixed_plus_m((0, 2), 1))


def test_tag_bits_default():
    tags, bits = CP._slot_tags(make_cfg(3, 2, 8, fixed_plus_m((0,), 1)))
    assert (tags.tolist(), bits) == ([0, 1, 1], 1)
    tags, bits = CP._slot_tags(make_cfg(3, 2, 8, fixed_plus_m((2, 0), 1)))
    assert (tags.tolist(), bits) == ([0, 2, 1], 2)
    tags, bits = CP._slot_tags(make_cfg(2, 2, 8, fixed_plus_m((1, 0), 1)))
    assert (tags.tolist(), bits) == ([0, 1], 1)


# -- stage structure ---------------------------------------------------------


def test_stage_partition_and_names():
    cfg = make_cfg(3, 2, 8)
    comp = CP.compile_circuit(cfg)
    assert [s.name for s in comp.stages] == list(CP.STAGE_NAMES)
    assert comp.stages[0].gate_range[0] == 0
    for prev, nxt in zip(comp.stages, comp.stages[1:]):
        assert prev.gate_range[1] == nxt.gate_range[0]
    assert comp.stages[-1].gate_range[1] == comp.circuit.n_gates
    assert len(comp.flag_wires) == 3
    total = comp.circuit.gate_counts()
    assert total.and_count == sum(s.and_count for s in comp.stages)
    assert total.xor_count == sum(s.xor_count for s in comp.stages)


# -- sortedness flags --------------------------------------------------------


def test_sortcheck_flags():
    cfg = make_cfg(2, 3, 4)
    rng = random.Random(0)
    recs = records_for(rng, {0: {3, 5, 9}, 1: {1, 2, 4}}, 4)
    _, flags, _ = run_plain(cfg, recs)
    assert flags == [0, 0]

    bad = {0: list(recs[0]), 1: list(recs[1])}
    bad[0][0], bad[0][1] = bad[0][1], bad[0][0]
    _, flags, _ = run_plain(cfg, bad)
    assert flags == [1, 0]

    equal = {0: list(recs[0]), 1: list(recs[1])}
    equal[0][1] = (equal[0][0][0], 7)  # duplicate v: strict order violated
    _, flags, _ = run_plain(cfg, equal)
    assert flags == [1, 0]


def test_sortcheck_exhaustive_sigma3_u3():
    cfg = make_cfg(2, 3, 3)
    comp = CP.compile_circuit(cfg)
    fixed = [(1, 1), (2, 3), (3, 5)]
    cases = [(a, b, c) for a in range(1, 8) for b in range(1, 8) for c in range(1, 8)]
    inputs0 = []
    for a, b, c in cases:
        bits = []
        for i, v in enumerate((a, b, c)):
            bits += int_to_bits(v, 3) + int_to_bits(1, 3)
        inputs0.append(bits)
    bits1 = []
    for v, k in fixed:
        bits1 += int_to_bits(v, 3) + int_to_bits(k, 3)
    n_ctl = cfg.control_bits_per_layer
    inputs = {
        0: np.array(inputs0, dtype=np.uint8).T,
        1: np.tile(np.array(bits1 + [0] * n_ctl, dtype=np.uint8)[:, None], (1, len(cases))),
    }
    inputs[0] = np.concatenate(
        [inputs[0], np.zeros((n_ctl, len(cases)), dtype=np.uint8)]
    )
    _, extra = comp.circuit.evaluate(inputs, extra_wires=comp.flag_wires)
    for k, (a, b, c) in enumerate(cases):
        expect = 0 if a < b < c else 1
        assert extra[0, k] == expect, (a, b, c)


# -- merge tree --------------------------------------------------------------


def test_merge_tree_textbook():
    cfg = make_cfg(2, 2, 4)
    rng = random.Random(1)
    recs = records_for(rng, {0: {1, 4}, 1: {2, 3}}, 4)
    wanted = merged_v_wires(cfg)
    _, _, extra = run_plain(cfg, recs, extra_wires=wanted)
    merged = [bits_to_int(extra[i * 4 : (i + 1) * 4]) for i in range(4)]
    assert merged == [1, 2, 3, 4]

    recs = records_for(rng, {0: {1, 2}, 1: {1, 2}}, 4)
    _, _, extra = run_plain(cfg, recs, extra_wires=wanted)
    merged = [bits_to_int(extra[i * 4 : (i + 1) * 4]) for i in range(4)]
    assert merged == [1, 1, 2, 2]


def test_merge_tree_random_vs_sort():
    rng = random.Random(2)
    cfg = make_cfg(4, 4, 8)
    wanted = merged_v_wires(cfg)
    for _ in range(20):
        values = {p: set(rng.sample(range(1, 200), 4)) for p in range(4)}
        recs = records_for(rng, values, 8)
        _, _, extra = run_plain(cfg, recs, extra_wires=wanted)
        merged = [bits_to_int(extra[i * 8 : (i + 1) * 8]) for i in range(16)]
        assert merged == sorted(v for vals in values.values() for v in vals)


# -- duplicate selection -----------------------------------------------------


def test_dupselect_base_example():
    cfg = make_cfg(3, 1, 4)
    recs = {
        0: [(5, 1)],   # A: k=1, ¬k=14
        1: [(5, 3)],   # B: k=3, ¬k=12
        2: [(7, 5)],   # C: k=5, ¬k=10
    }
    keys, flags, _ = run_plain(cfg, recs)
    assert flags == [0, 0, 0]
    # the matched pair opens its complements and C its key, each twice
    assert Counter(keys) == Counter({14: 2, 12: 2, 5: 2})


def test_dupselect_at_least_m_run_of_two():
    cfg = make_cfg(3, 1, 4, at_least_m(3))
    recs = {0: [(5, 1)], 1: [(5, 3)], 2: [(9, 5)]}
    keys, _, _ = run_plain(cfg, recs)
    bag = Counter(keys)
    assert bag[14] == 0 and bag[12] == 0 and bag[10] == 0
    assert bag[1] == 2 and bag[3] == 2 and bag[5] == 2


def test_dupselect_at_least_m_satisfied():
    cfg = make_cfg(3, 1, 4, at_least_m(3))
    recs = {0: [(5, 1)], 1: [(5, 3)], 2: [(5, 5)]}
    keys, _, _ = run_plain(cfg, recs)
    bag = Counter(keys)
    assert bag[14] == 2 and bag[12] == 2 and bag[10] == 2


def test_dupselect_fixed_plus_m_tag_bruteforce():
    """z=2, m=2 over five parties: every holder set of one value, with the
    fixed pair adjacent, apart, and at either end of the slot order."""
    for fixed in [(0, 1), (3, 4), (1, 3), (0, 4)]:
        cfg = make_cfg(5, 1, 4, fixed_plus_m(fixed, 2))
        for mask in range(32):
            values = {p: {5 if mask >> p & 1 else 6 + p} for p in range(5)}
            recs = {p: [(v, 2 * p + 1)] for p, (v,) in values.items()}
            keys, _, _ = run_plain(cfg, recs)
            want = oracle.brute_force_shared(values, "fixed-plus-m", 2, frozenset(fixed))
            assert shared_from_keys(recs, keys, 4) == want, (fixed, mask)


def test_fixed_plus_m_scattered_fixed_members():
    """Fixed members at opposite ends of a long run still qualify."""
    # 5 parties all hold value 9; fixed parties are 0 and 4. With merge
    # order unspecified the fixed records may sit anywhere in the run,
    # so presence must be computed run-wide, not per window.
    cfg = make_cfg(5, 1, 5, fixed_plus_m((0, 4), 1))
    recs = {p: [(9, 2 * p + 1)] for p in range(5)}
    keys, _, _ = run_plain(cfg, recs)
    bag = Counter(keys)
    for p in range(5):
        assert bag[neg(2 * p + 1, 5)] == 2


# -- shuffle -----------------------------------------------------------------


def test_shuffle_applies_routed_permutations():
    cfg = make_cfg(2, 2, 4)
    rng = random.Random(3)
    recs = records_for(rng, {0: {1, 4}, 1: {2, 3}}, 4)
    base, _, _ = run_plain(cfg, recs)
    # the networks permute the 4 selected keys; each is then output twice
    assert base[::2] == base[1::2]

    perm1 = list(range(4))
    perm2 = list(range(4))
    rng.shuffle(perm1)
    rng.shuffle(perm2)
    keys, _, _ = run_plain(cfg, recs, perms=[perm1, perm2])
    composed = apply_network(
        waksman.route_permutation(perm2),
        apply_network(waksman.route_permutation(perm1), base[::2]),
    )
    assert keys == [k for k in composed for _ in range(2)]
    assert Counter(keys) == Counter(base)


# -- full-circuit equivalence with the brute-force oracle --------------------


def variant_cases():
    """(kind, m, number of fixed parties)"""
    yield "at-least-two", 1, 0
    for m in (2, 3):
        yield "at-least-m", m, 0
    for z in (1, 2):
        for m in (1, 2):
            yield "fixed-plus-m", m, z


def test_circuit_matches_oracle_random_instances():
    rng = random.Random(42)
    for kind, m, z in variant_cases():
        for _ in range(25):
            n = rng.choice([2, 3, 4, 5])
            u = rng.choice([1, 2, 3])
            if z > n:
                continue
            fixed = tuple(rng.sample(range(n), z))
            cfg = make_cfg(n, u, 8, CP.VariantSpec(kind, m, fixed))
            pool = rng.sample(range(1, 256), min(255, 3 * u))
            values = {
                p: set(rng.sample(pool, u)) for p in range(n)
            }
            recs = records_for(rng, values, 8)
            perms = []
            for _ in range(cfg.shuffle_layers):
                perm = list(range(n * u))
                rng.shuffle(perm)
                perms.append(perm)
            keys, flags, _ = run_plain(cfg, recs, perms=perms)
            assert flags == [0] * n
            got = shared_from_keys(recs, keys, 8)
            want = oracle.brute_force_shared(values, kind, m, frozenset(fixed))
            assert got == want, (kind, m, fixed, values)


# -- gate counting -----------------------------------------------------------


def count_grid():
    for n in (2, 3, 5):
        for u in (1, 2, 4):
            yield make_cfg(n, u, 8)
            yield make_cfg(n, u, 8, at_least_m(2))
            yield make_cfg(n, u, 8, fixed_plus_m((0,), 2))


def test_counting_builder_matches_materialized_stages():
    for cfg in count_grid():
        comp = CP.compile_circuit(cfg)
        counted = CP.stage_counts(cfg)
        assert [(s.name, s.and_count, s.xor_count) for s in comp.stages] == [
            (s.name, s.and_count, s.xor_count) for s in counted
        ], cfg
        assert [(s.gate_range, s.wire_range) for s in comp.stages] == [
            (s.gate_range, s.wire_range) for s in counted
        ], cfg


def test_stage_bounds_hold_small():
    for cfg in count_grid():
        bounds = CP.stage_bounds(cfg)
        for st in CP.stage_counts(cfg):
            assert st.and_count <= bounds[st.name], (cfg, st)


def test_stage_bounds_hold_at_the_grid_and_workload_points():
    """DupSelect's bound has no mux term: its ANDs are the equality tests,
    the windows and the fixed-tag sweeps, since the select bit reaches the
    key through XOR gates only."""
    V = CP.VariantSpec
    points = [make_cfg(n, u, 256) for n in (2, 5) for u in (100, 500)] + [
        make_cfg(4, 12, 64, fixed_plus_m((0,), 1)),  # recurring
        make_cfg(3, 8, 32, at_least_m(2), controls=(3, 4)),  # batch
        make_cfg(3, 16, 64),  # the last epoch of epochs
        make_cfg(5, 20, 64, fixed_plus_m((1,), 2)),
        make_cfg(5, 20, 64, fixed_plus_m((0, 4), 1)),
        make_cfg(5, 20, 64, V("fixed-plus-m", 2, (0, 2, 3))),
    ]
    for cfg in points:
        bounds = CP.stage_bounds(cfg)
        for st in CP.stage_counts(cfg):
            assert st.and_count <= bounds[st.name], (cfg, st)
    cfg = make_cfg(5, 100, 256)
    dup = {s.name: s.and_count for s in CP.stage_counts(cfg)}["DupSelect"]
    assert (dup, CP.stage_bounds(cfg)["DupSelect"]) == (127_743, 130_000)


def test_dupselect_spends_no_and_on_the_key():
    # the same records at twice the key width: only the value comparisons
    # grow, by one AND per bit of each of the N*u - 1 equality tests
    narrow, wide = (CP.stage_counts(make_cfg(3, 4, sigma))[2] for sigma in (8, 16))
    assert wide.and_count - narrow.and_count == 8 * (3 * 4 - 1)


def test_waksman_switches_fit_the_shuffle_bound():
    for n in range(2, 5001):
        assert waksman.switch_count(n) <= n * math.log2(n), n


def test_shuffle_is_one_network_per_layer_over_the_selected_keys():
    def shuffle_ands(cfg):
        return cfg.shuffle_layers * cfg.sigma * waksman.switch_count(cfg.total_records)

    for cfg in count_grid():
        (shuffle,) = [s for s in CP.compile_circuit(cfg).stages if s.name == "Shuffle"]
        assert shuffle.and_count == shuffle_ands(cfg), cfg
    for n in (2, 5):
        for u in (100, 500):
            cfg = make_cfg(n, u, 256)
            assert CP.stage_counts(cfg)[-1].and_count == shuffle_ands(cfg), cfg


def test_stage_and_depths_cover_the_schedule():
    for cfg in [*count_grid(), make_cfg(3, 8, 32, at_least_m(2), controls=(3, 4))]:
        comp = CP.compile_circuit(cfg)
        depths = comp.and_depths()
        assert [d.name for d in depths] == list(CP.STAGE_NAMES)
        assert [int(d.ands.sum()) for d in depths] == [s.and_count for s in comp.stages]
        assert sum(int(d.ands.sum()) for d in depths) == comp.circuit.and_count
        occupied = set()
        for d in depths:
            at = np.flatnonzero(d.ands).tolist()
            assert d.depth_count == len(at)
            assert d.span == ((at[0], at[-1]) if at else None)
            occupied.update(at)
        assert occupied == set(range(1, comp.circuit.schedule().and_layers + 1)), cfg


def test_large_instance_count_report():
    """N=5, u=1000, sigma=256: merge dominates and stays under its bound."""
    cfg = make_cfg(5, 1000, 256)
    stages = {s.name: s.and_count for s in CP.stage_counts(cfg)}
    bounds = CP.stage_bounds(cfg)
    assert stages["MergeTree"] <= bounds["MergeTree"]
    assert stages["MergeTree"] > max(stages["SortCheck"], stages["DupSelect"])
    total = sum(stages.values())
    assert total <= sum(bounds.values())


# -- pre-round maximum -------------------------------------------------------


def test_max_circuit_examples():
    circ = CP.build_max_circuit(3, 4)
    def run(vals):
        inputs = {p: int_to_bits(v, 4) for p, v in enumerate(vals)}
        return bits_to_int(circ.evaluate(inputs))
    assert run([3, 7, 5]) == 7
    assert run([6, 6, 6]) == 6
    assert circ.gate_counts().and_count <= 2 * 2 * 4


def test_max_circuit_exhaustive_3bit():
    circ = CP.build_max_circuit(3, 3)
    cases = [(a, b, c) for a in range(8) for b in range(8) for c in range(8)]
    inputs = {
        0: rows_to_bits(ints_to_rows([a for a, _, _ in cases], 3), 3).T,
        1: rows_to_bits(ints_to_rows([b for _, b, _ in cases], 3), 3).T,
        2: rows_to_bits(ints_to_rows([c for _, _, c in cases], 3), 3).T,
    }
    got = circ.evaluate(inputs)
    for k, (a, b, c) in enumerate(cases):
        assert bits_to_int(got[:, k]) == max(a, b, c)


def test_manifest_shape():
    cfg = make_cfg(2, 2, 8)
    comp = CP.compile_circuit(cfg)
    man = CP.manifest(cfg, comp.stages, depth_and=comp.circuit.gate_counts().depth_and)
    assert [row["name"] for row in man["stages"]] == list(CP.STAGE_NAMES)
    for row in man["stages"]:
        assert row["and_count"] <= row["and_bound"]
    assert man["output_keys"] == 8
