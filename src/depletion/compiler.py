"""Compiler for the multi-party duplicate-detection circuit.

Stage pipeline: per-party sortedness flags (opened reactively before
anything else is revealed), an oblivious merge tree over all parties'
sorted records, duplicate-key selection under a `VariantSpec` (at
least two holders, at least m, or every fixed party plus m others), and
a composed per-party Waksman shuffle of the output keys.

Records are the rows `v | k0 | k1 | tag` of one wire array, and every
stage is emitted a layer at a time: SortCheck's comparators and
DupSelect's equality tests and muxes are one block call each, and the
merge tree and each shuffle layer emit one call set per layer of
independent exchanges. The tag column exists only for fixed-plus-m and
is derived from the variant: the i-th fixed slot carries the public
constant i and every other slot carries z, the number of fixed slots.
`_construct` takes each stage's counts and gate and wire ranges from
the builder's running AND and XOR counts, without asking which builder
it drives: `compile_circuit` materializes gates, and `stage_counts`
runs the same construction with the counting builder for
benchmark-scale sizes and returns the same stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .circuit import BooleanCircuit, CircuitBuilder, CountingBuilder, exchange_layers, pairwise
from .merge import odd_even_merge
from .waksman import build_network, switch_count

STAGE_NAMES = ("SortCheck", "MergeTree", "DupSelect", "Shuffle")
VARIANT_KINDS = ("at-least-two", "at-least-m", "fixed-plus-m")


class ConfigInvalid(Exception):
    """Circuit configuration violates a structural constraint."""


@dataclass(frozen=True)
class VariantSpec:
    """The matching rule: a value is shared when at least two parties
    hold it ("at-least-two"), at least m do ("at-least-m"), or every
    fixed party and at least m others do ("fixed-plus-m").

    Fixed parties count only for fixed-plus-m and m not for
    at-least-two; the unused fields are reset and the fixed parties
    sorted, so that equal rules compare (and cache) equal.
    """

    kind: str = "at-least-two"
    m: int = 1
    fixed_parties: tuple[int, ...] = ()

    def __post_init__(self):
        fixed = tuple(sorted(self.fixed_parties)) if self.kind == "fixed-plus-m" else ()
        object.__setattr__(self, "fixed_parties", fixed)
        if self.kind == "at-least-two":
            object.__setattr__(self, "m", 1)

    def validate(self, parties) -> None:
        """Raise ConfigInvalid unless the rule is well formed over `parties`."""
        if self.kind not in VARIANT_KINDS:
            raise ConfigInvalid(f"unknown variant kind {self.kind!r}")
        if self.kind != "at-least-two" and self.m < 1:
            raise ConfigInvalid("m must be positive")
        if self.kind == "fixed-plus-m":
            fixed = self.fixed_parties
            if not fixed:
                raise ConfigInvalid("fixed-plus-m needs fixed parties")
            if len(set(fixed)) != len(fixed):
                raise ConfigInvalid(f"fixed parties {list(fixed)} repeat a party")
            if not set(fixed) <= set(parties):
                raise ConfigInvalid(f"fixed parties {list(fixed)} must be among {sorted(parties)}")

    def describe(self) -> dict:
        d = {"kind": self.kind}
        if self.kind in ("at-least-m", "fixed-plus-m"):
            d["m"] = self.m
        if self.kind == "fixed-plus-m":
            d["fixed_parties"] = list(self.fixed_parties)
        return d


@dataclass(frozen=True)
class CircuitConfig:
    """One circuit's shape; the variant's fixed parties are slot indices."""

    n_parties: int
    inputs_per_party: int
    sigma: int
    variant: VariantSpec = VariantSpec()
    control_parties: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.control_parties is None:
            object.__setattr__(
                self, "control_parties", tuple(range(self.n_parties))
            )
        self.validate()

    def validate(self) -> None:
        N, u, sigma = self.n_parties, self.inputs_per_party, self.sigma
        if N < 2:
            raise ConfigInvalid("need at least two parties")
        if u < 1 or sigma < 1:
            raise ConfigInvalid("inputs per party and sigma must be positive")
        if not self.control_parties:
            raise ConfigInvalid("at least one shuffle layer is required")
        self.variant.validate(range(N))

    @property
    def total_records(self) -> int:
        return self.n_parties * self.inputs_per_party

    @property
    def shuffle_layers(self) -> int:
        return len(self.control_parties)

    @property
    def control_bits_per_layer(self) -> int:
        return switch_count(2 * self.total_records)

    def describe(self) -> dict:
        return {
            "parties": self.n_parties,
            "inputs_per_party": self.inputs_per_party,
            "sigma": self.sigma,
            "variant": self.variant.describe(),
            "shuffle_layers": self.shuffle_layers,
            "control_parties": list(self.control_parties),
        }


def _slot_tags(cfg: CircuitConfig) -> tuple[np.ndarray, int]:
    """Each slot's public tag and the tag width: the i-th fixed slot
    carries i and every other slot z = len(fixed parties)."""
    fixed = cfg.variant.fixed_parties
    tags = np.full(cfg.n_parties, len(fixed))
    tags[list(fixed)] = np.arange(len(fixed))
    return tags, max(1, int(tags.max()).bit_length())


@dataclass
class CompiledStage:
    name: str
    and_count: int
    xor_count: int
    gate_range: tuple[int, int]
    wire_range: tuple[int, int]


@dataclass
class Compiled:
    config: CircuitConfig
    circuit: BooleanCircuit
    stages: list[CompiledStage]
    flag_wires: list[int]
    merged_v_wires: list[list[int]]

    def v_wires(self, party: int) -> list[list[int]]:
        """Input wires carrying party's record hash values, per record slot."""
        cfg = self.config
        wires = self.circuit.input_map[party]
        step = 3 * cfg.sigma
        return [
            wires[r * step : r * step + cfg.sigma]
            for r in range(cfg.inputs_per_party)
        ]


def _construct(b, cfg: CircuitConfig):
    """Emit the four stages through builder `b`.

    A record is one flat row of wires `v | k0 | k1 | tag`: three sigma-bit
    input fields, then the party's public tag as constant wires
    (fixed-plus-m only). Records are rows of one array, so each block
    call serves every record, comparator or switch of a layer at once.
    Each stage's counts and gate and wire ranges come from the builder's
    running AND and XOR counts, since gate g drives wire 1 + (input
    wires) + g in either builder.
    """
    N, u, sigma = cfg.n_parties, cfg.inputs_per_party, cfg.sigma
    records = np.array([b.input_vector(p, u * 3 * sigma) for p in range(N)])
    records = records.reshape(N, u, 3 * sigma)
    controls = [
        b.input_vector(owner, cfg.control_bits_per_layer)
        for owner in cfg.control_parties
    ]
    first = 1 + N * u * 3 * sigma + len(controls) * cfg.control_bits_per_layer
    stages: list[CompiledStage] = []
    mark = (0, 0)

    def close(name):
        nonlocal mark
        (a0, x0), (a1, x1) = mark, (b.and_count, b.xor_count)
        g0, g1 = a0 + x0, a1 + x1
        stages.append(CompiledStage(name, a1 - a0, x1 - x0, (g0, g1), (first + g0, first + g1)))
        mark = (a1, x1)

    if u >= 2:
        v = records[:, :, :sigma]
        # axis 0 of the transposed (u-1, N) verdicts is each party's fold axis
        flags = b.not_(pairwise(b.and_v, b.lt(v[:, :-1], v[:, 1:]).T))
    else:
        flags = np.full(N, b.zero())
    close("SortCheck")
    # the sortedness flags are opened before any later gate is evaluated
    b.barrier()

    merged = records.reshape(N * u, 3 * sigma)
    if cfg.variant.kind == "fixed-plus-m":
        tags = b.const_bits(*_slot_tags(cfg))
        merged = np.concatenate([merged, np.repeat(tags, u, axis=0)], axis=1)

    def tree(swap, slots):
        merge = partial(odd_even_merge, swap)
        runs = [slots[p * u : (p + 1) * u] for p in range(N)]
        return pairwise(lambda xs, ys: list(map(merge, xs, ys)), runs)

    layers, order = exchange_layers(tree, N * u)
    for lo, hi in (layer.T for layer in layers):
        c = b.lt(merged[hi, :sigma], merged[lo, :sigma])
        merged[lo], merged[hi] = b.cond_swap(c, merged[lo], merged[hi])
    merged = merged[order]
    close("MergeTree")

    out_keys = _dup_select(b, cfg, merged)
    close("DupSelect")

    for layer_bits in controls:
        out_keys = build_network(b, layer_bits, out_keys)
    close("Shuffle")

    return flags, out_keys, stages, merged[:, :sigma]


def _dup_select(b, cfg: CircuitConfig, merged: np.ndarray) -> np.ndarray:
    """Per-record key selection over the merged sorted records, one row
    each; returns one sigma-bit output key per row.

    Every record contributes exactly two output keys. The base variant
    emits the neighbor-pair selections directly (with the all-zero
    sentinel closing both boundaries); the windowed variants emit one
    selection bit per record, listed twice. A window longer than all
    N*u records can never be filled, so every record keeps its 0-key.
    """
    total, sigma = len(merged), cfg.sigma
    v = merged[:, :sigma]
    k0 = merged[:, sigma : 2 * sigma]
    k1 = merged[:, 2 * sigma : 3 * sigma]
    variant = cfg.variant
    if variant.kind == "at-least-two":
        left_sentinel, right_sentinel = b.eq_zero(v[[0, -1]])
        eqs = b.eq(v[:-1], v[1:])
        left = np.concatenate([[left_sentinel], eqs])
        right = np.concatenate([eqs, [right_sentinel]])
        keys = np.stack([b.mux(left, k0, k1), b.mux(right, k0, k1)], axis=1)
        return keys.reshape(2 * total, sigma)

    # fixed tags are 0..z-1; z is 0 outside fixed-plus-m
    z = len(variant.fixed_parties)
    window = z + variant.m
    if window > total:
        return np.repeat(k0, 2, axis=0)

    eqs = b.eq(v[:-1], v[1:])

    # run-length test: some all-equal window of `window` records covers i
    if window == 1:
        length_ok = np.full(total, b.one)
    else:
        starts = np.arange(total - window + 1)
        win = pairwise(b.and_v, eqs[np.arange(window - 1)[:, None] + starts])
        # record i lies in windows lo[i]..hi[i]; one OR tree per row length
        i = np.arange(total)
        lo = np.maximum(0, i - window + 1)
        width = np.minimum(i, total - window) - lo + 1
        length_ok = np.empty(total, dtype=win.dtype)
        for w in np.unique(width):
            rows = np.flatnonzero(width == w)
            length_ok[rows] = pairwise(b.or_, win[np.arange(w)[:, None] + lo[rows]])

    # per fixed tag: presence anywhere inside the record's equal-key run,
    # via forward/backward sweeps that stop at run boundaries
    presence = []
    for tag in range(z):
        has = b.eq_const(merged[:, 3 * sigma :], tag)
        fwd = [has[0]]
        for i in range(1, total):
            fwd.append(b.or_(has[i], b.and_v(eqs[i - 1], fwd[i - 1])))
        bwd = [has[-1]]
        for i in range(total - 2, -1, -1):
            bwd.append(b.or_(has[i], b.and_v(eqs[i], bwd[-1])))
        presence.append(b.or_(np.array(fwd), np.array(bwd[::-1])))

    sel = pairwise(b.and_v, np.stack([length_ok, *presence]))
    return np.repeat(b.mux(sel, k0, k1), 2, axis=0)


@lru_cache(maxsize=2)  # one configuration plus one alternate
def compile_circuit(cfg: CircuitConfig) -> Compiled:
    """Materialize the full circuit plus stage metadata (cached)."""
    b = CircuitBuilder()
    flags, out_keys, stages, merged_v = _construct(b, cfg)
    circuit = b.finish(out_keys.ravel())
    return Compiled(cfg, circuit, stages, flags.tolist(), merged_v.tolist())


def stage_counts(cfg: CircuitConfig) -> list[CompiledStage]:
    """Exact per-stage gate counts without materializing the circuit."""
    b = CountingBuilder()
    _, _, stages, _ = _construct(b, cfg)
    return stages


def stage_bounds(cfg: CircuitConfig) -> dict[str, float]:
    """Analytic AND-count ceilings checked against measured counts."""
    N, u, sigma = cfg.n_parties, cfg.inputs_per_party, cfg.sigma
    total = N * u
    v = cfg.variant
    if v.kind == "at-least-two":
        dup = 4 * total * sigma
    elif v.kind == "at-least-m":
        dup = 2 * total * (sigma + v.m)
    else:
        z, omega = len(v.fixed_parties), _slot_tags(cfg)[1]
        dup = 2 * total * (sigma + (z + v.m) + z * (omega + 5))
    return {
        "SortCheck": N * (u - 1) * (sigma + 1),
        "MergeTree": 2 * N * N * u * sigma * math.log2(total) if total > 1 else 0,
        "DupSelect": dup,
        "Shuffle": cfg.shuffle_layers * sigma * 2 * total * math.log2(2 * total),
    }


@lru_cache(maxsize=8)
def build_max_circuit(n_parties: int, count_bits: int = 20) -> BooleanCircuit:
    """Maximum of one unsigned count per party; (N-1)*2*count_bits ANDs.

    Cached: every round's negotiation runs the same immutable circuit,
    which also keeps its schedule."""
    if n_parties < 1 or count_bits < 1:
        raise ConfigInvalid("need at least one party and one count bit")
    b = CircuitBuilder()
    vals = np.array([b.input_vector(p, count_bits) for p in range(n_parties)])
    return b.finish(pairwise(lambda lo, hi: b.mux(b.lt(lo, hi), lo, hi), vals))


def manifest(cfg: CircuitConfig, stages: list[CompiledStage], depth_and: int | None = None) -> dict:
    """Stage manifest for files and the benchmark reporter."""
    bounds = stage_bounds(cfg)
    rows = []
    for st in stages:
        rows.append(
            {
                "name": st.name,
                "and_count": st.and_count,
                "xor_count": st.xor_count,
                "and_bound": bounds[st.name],
                "gate_range": st.gate_range,
                "wire_range": st.wire_range,
            }
        )
    return {
        "config": cfg.describe(),
        "stages": rows,
        "total_and": sum(st.and_count for st in stages),
        "total_xor": sum(st.xor_count for st in stages),
        "and_depth": depth_and,
        "output_keys": 2 * cfg.total_records,
        "control_bits_per_layer": cfg.control_bits_per_layer,
    }
