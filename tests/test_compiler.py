"""Compiler stages, variant semantics, and gate-count accounting."""

import random
from collections import Counter

import numpy as np
import pytest

from depletion import compiler as CP
from depletion import oracle, waksman
from depletion.bits import bits_to_int, int_to_bits


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
    """Evaluate the compiled circuit on per-party (v, k0, k1) records.

    records: {party: [(v, k0, k1), ...]} with exactly u records each.
    perms: optional permutation per shuffle layer (default: identity).
    Returns (opened key list, flag bits, extra wire values).
    """
    comp = CP.compile_circuit(cfg)
    sigma = cfg.sigma
    inputs = {}
    for p in range(cfg.n_parties):
        bits = []
        for v, k0, k1 in records[p]:
            bits += int_to_bits(v, sigma) + int_to_bits(k0, sigma) + int_to_bits(k1, sigma)
        inputs[p] = bits
    if perms is None:
        perms = [list(range(2 * cfg.total_records))] * cfg.shuffle_layers
    for owner, perm in zip(cfg.control_parties, perms):
        ctl = [int(x) for x in waksman.route_permutation(perm)]
        inputs[owner] = inputs.get(owner, []) + ctl
    wanted = list(comp.flag_wires) + list(extra_wires or [])
    out, extra = comp.circuit.evaluate(inputs, extra_wires=wanted)
    keys = [
        bits_to_int(out[i * sigma : (i + 1) * sigma])
        for i in range(2 * cfg.total_records)
    ]
    flags = extra[: cfg.n_parties].tolist()
    return keys, flags, extra[cfg.n_parties :]


def fresh_keys(rng, count, sigma):
    seen = set()
    keys = []
    while len(keys) < count:
        k = rng.randrange(1, 1 << sigma)
        if k not in seen:
            seen.add(k)
            keys.append(k)
    return keys


def records_for(rng, values_per_party, sigma):
    ks = iter(fresh_keys(rng, 2 * sum(len(v) for v in values_per_party.values()), sigma))
    return {
        p: [(v, next(ks), next(ks)) for v in sorted(vals)]
        for p, vals in values_per_party.items()
    }


def shared_from_keys(records, opened):
    bag = Counter(opened)
    out = {}
    for p, recs in records.items():
        out[p] = {v for v, k0, k1 in recs if bag[k1] > 0}
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
    # a window longer than all N*u records compiles and opens only 0-keys
    recs = {0: [(5, 1, 2), (6, 3, 4)], 1: [(5, 5, 6), (6, 7, 8)]}
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
    assert comp.circuit.barriers == (comp.stages[0].gate_range[1],)
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
    equal[0][1] = (equal[0][0][0], 7, 8)  # duplicate v: strict order violated
    _, flags, _ = run_plain(cfg, equal)
    assert flags == [1, 0]


def test_sortcheck_exhaustive_sigma3_u3():
    cfg = make_cfg(2, 3, 3)
    comp = CP.compile_circuit(cfg)
    fixed = [(1, 1, 2), (2, 3, 4), (3, 5, 6)]
    cases = [(a, b, c) for a in range(1, 8) for b in range(1, 8) for c in range(1, 8)]
    inputs0 = []
    for a, b, c in cases:
        bits = []
        for i, v in enumerate((a, b, c)):
            bits += int_to_bits(v, 3) + int_to_bits(1, 3) + int_to_bits(2, 3)
        inputs0.append(bits)
    bits1 = []
    for v, k0, k1 in fixed:
        bits1 += int_to_bits(v, 3) + int_to_bits(k0, 3) + int_to_bits(k1, 3)
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
    comp = CP.compile_circuit(cfg)
    rng = random.Random(1)
    recs = records_for(rng, {0: {1, 4}, 1: {2, 3}}, 4)
    wanted = [w for vec in comp.merged_v_wires for w in vec]
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
    comp = CP.compile_circuit(cfg)
    wanted = [w for vec in comp.merged_v_wires for w in vec]
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
        0: [(5, 1, 2)],   # A0=1 A1=2
        1: [(5, 3, 4)],   # B0=3 B1=4
        2: [(7, 5, 6)],   # C0=5 C1=6
    }
    keys, flags, _ = run_plain(cfg, recs)
    assert flags == [0, 0, 0]
    bag = Counter(keys)
    assert bag[2] == 1 and bag[4] == 1      # both 1-keys of the matched pair
    assert bag[5] == 2 and bag[6] == 0      # C0 twice, C1 never
    assert bag[1] == 1 and bag[3] == 1      # single 0-keys from the outer sides
    assert sum(bag.values()) == 6


def test_dupselect_at_least_m_run_of_two():
    cfg = make_cfg(3, 1, 4, at_least_m(3))
    recs = {0: [(5, 1, 2)], 1: [(5, 3, 4)], 2: [(9, 5, 6)]}
    keys, _, _ = run_plain(cfg, recs)
    bag = Counter(keys)
    assert bag[2] == 0 and bag[4] == 0 and bag[6] == 0
    assert bag[1] == 2 and bag[3] == 2 and bag[5] == 2


def test_dupselect_at_least_m_satisfied():
    cfg = make_cfg(3, 1, 4, at_least_m(3))
    recs = {0: [(5, 1, 2)], 1: [(5, 3, 4)], 2: [(5, 5, 6)]}
    keys, _, _ = run_plain(cfg, recs)
    bag = Counter(keys)
    assert bag[2] == 2 and bag[4] == 2 and bag[6] == 2


def test_dupselect_fixed_plus_m_tag_bruteforce():
    """z=2, m=2 over five parties: every holder set of one value, with the
    fixed pair adjacent, apart, and at either end of the slot order."""
    for fixed in [(0, 1), (3, 4), (1, 3), (0, 4)]:
        cfg = make_cfg(5, 1, 4, fixed_plus_m(fixed, 2))
        for mask in range(32):
            values = {p: {5 if mask >> p & 1 else 6 + p} for p in range(5)}
            recs = {p: [(v, 2 * p + 1, 2 * p + 2)] for p, (v,) in values.items()}
            keys, _, _ = run_plain(cfg, recs)
            want = oracle.brute_force_shared(values, "fixed-plus-m", 2, frozenset(fixed))
            assert shared_from_keys(recs, keys) == want, (fixed, mask)


def test_fixed_plus_m_scattered_fixed_members():
    """Fixed members at opposite ends of a long run still qualify."""
    # 5 parties all hold value 9; fixed parties are 0 and 4. With merge
    # order unspecified the fixed records may sit anywhere in the run,
    # so presence must be computed run-wide, not per window.
    cfg = make_cfg(5, 1, 5, fixed_plus_m((0, 4), 1))
    recs = {p: [(9, 2 * p + 1, 2 * p + 2)] for p in range(5)}
    keys, _, _ = run_plain(cfg, recs)
    bag = Counter(keys)
    for p in range(5):
        assert bag[2 * p + 2] == 2


# -- shuffle -----------------------------------------------------------------


def test_shuffle_applies_routed_permutations():
    cfg = make_cfg(2, 2, 4)
    rng = random.Random(3)
    recs = records_for(rng, {0: {1, 4}, 1: {2, 3}}, 4)
    base, _, _ = run_plain(cfg, recs)

    perm1 = list(range(8))
    perm2 = list(range(8))
    rng.shuffle(perm1)
    rng.shuffle(perm2)
    keys, _, _ = run_plain(cfg, recs, perms=[perm1, perm2])
    composed = waksman.apply_network(
        waksman.route_permutation(perm2),
        waksman.apply_network(waksman.route_permutation(perm1), base),
    )
    assert keys == composed
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
                perm = list(range(2 * n * u))
                rng.shuffle(perm)
                perms.append(perm)
            keys, flags, _ = run_plain(cfg, recs, perms=perms)
            assert flags == [0] * n
            got = shared_from_keys(recs, keys)
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
    import numpy as np
    from depletion.bits import ints_to_bit_array
    inputs = {
        0: ints_to_bit_array([a for a, _, _ in cases], 3).T,
        1: ints_to_bit_array([b for _, b, _ in cases], 3).T,
        2: ints_to_bit_array([c for _, _, c in cases], 3).T,
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
