"""Compiler for the multi-party duplicate-detection circuit.

Stage pipeline: per-party sortedness flags (opened reactively before
anything else is revealed), an oblivious merge tree over all parties'
sorted records, duplicate-key selection under a `VariantSpec` (at
least two holders, at least m, or every fixed party plus m others) that
XORs its select bit into every bit of the record's key, and a composed
per-party Waksman shuffle of those N*u keys. Each shuffled key is then
an output wire twice, side by side, so the opening shows 2*N*u keys,
each exactly twice: a record's key k if it is exclusive, its complement
¬k if it is shared.

Records are the rows `v | k | tag` of one wire array, laid out once
here (`RECORD_FIELDS`, `CircuitConfig.field`, `CircuitConfig.record_bits`,
`Compiled.v_wires`, `CircuitConfig.output_keys`) for the session layer
to read. Every stage is emitted a layer at a time: SortCheck's
comparators and DupSelect's equality tests are one block call each, and
the merge tree and each shuffle layer emit one call set per layer of
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

from .circuit import AND, BooleanCircuit, CircuitBuilder, CountingBuilder, exchange_layers, pairwise
from .merge import odd_even_merge
from .waksman import build_network, switch_count

STAGE_NAMES = ("SortCheck", "MergeTree", "DupSelect", "Shuffle")
VARIANT_KINDS = ("at-least-two", "at-least-m", "fixed-plus-m")
# a record's sigma-bit input fields in wire order: its value and its key;
# fixed-plus-m appends the slot's public tag as constant wires
RECORD_FIELDS = ("v", "k")


class ConfigInvalid(Exception):
    """Circuit configuration violates a structural constraint."""


@dataclass(frozen=True)
class VariantSpec:
    """The matching rule: a value is shared when at least two parties
    hold it ("at-least-two"), at least m do ("at-least-m"), or every
    fixed party and at least m others do ("fixed-plus-m").

    At-least-two is at-least-m with m = 2, and fixed parties count only
    for fixed-plus-m; m and the fixed parties are reset to match and the
    latter sorted, so that equal rules compare (and cache) equal.
    """

    kind: str = "at-least-two"
    m: int = 1
    fixed_parties: tuple[int, ...] = ()

    def __post_init__(self):
        fixed = self.fixed_parties if self.kind == "fixed-plus-m" else ()
        try:
            fixed = tuple(sorted(fixed))
        except TypeError:
            raise ConfigInvalid(f"fixed parties {fixed!r} are not comparable party ids") from None
        object.__setattr__(self, "fixed_parties", fixed)
        if self.kind == "at-least-two":
            object.__setattr__(self, "m", 2)

    def validate(self, parties) -> None:
        """Raise ConfigInvalid unless the rule is well formed over `parties`."""
        if self.kind not in VARIANT_KINDS:
            raise ConfigInvalid(f"unknown variant kind {self.kind!r}")
        if self.m < 1:
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
    def record_bits(self) -> int:
        """Input bits of one record: its `RECORD_FIELDS`, sigma bits each."""
        return len(RECORD_FIELDS) * self.sigma

    def field(self, name: str) -> slice:
        """Where the field `name` of `RECORD_FIELDS` lies in a record's row."""
        at = RECORD_FIELDS.index(name) * self.sigma
        return slice(at, at + self.sigma)

    @property
    def output_keys(self) -> int:
        """Opened keys: each of the N*u shuffled keys twice."""
        return 2 * self.total_records

    @property
    def control_bits_per_layer(self) -> int:
        """Switches of one Waksman network over the N*u selected keys."""
        return switch_count(self.total_records)

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


@dataclass(frozen=True)
class StageDepths:
    """Where one stage's ANDs sit: `ands[d]` of them at AND depth d."""

    name: str
    ands: np.ndarray

    @property
    def span(self) -> tuple[int, int] | None:
        """The first and last AND depth the stage occupies, if any."""
        occupied = np.flatnonzero(self.ands)
        return (int(occupied[0]), int(occupied[-1])) if len(occupied) else None

    @property
    def depth_count(self) -> int:
        """How many AND depths hold at least one of the stage's ANDs."""
        return int(np.count_nonzero(self.ands))


@dataclass
class Compiled:
    config: CircuitConfig
    circuit: BooleanCircuit
    stages: list[CompiledStage]
    flag_wires: list[int]

    def and_depths(self) -> list[StageDepths]:
        """Each stage's ANDs counted per AND depth, read from the
        circuit's recorded wire depths over the stage's gate range.
        Computed on demand: compiling does not pay for it."""
        circ = self.circuit
        first = 1 + circ.n_input_wires  # gate g drives wire first + g
        top = circ.gate_counts().depth_and
        out = []
        for st in self.stages:
            g0, g1 = st.gate_range
            depths = circ.wire_depth[first + g0 : first + g1][circ.kind[g0:g1] == AND]
            out.append(StageDepths(st.name, np.bincount(depths, minlength=top + 1)))
        return out

    def v_wires(self, party: int) -> np.ndarray:
        """Input wires carrying party's record hash values: a (u, sigma)
        array whose row r holds record slot r's."""
        cfg = self.config
        records = np.asarray(self.circuit.input_map[party][: cfg.inputs_per_party * cfg.record_bits])
        return records.reshape(cfg.inputs_per_party, cfg.record_bits)[:, cfg.field("v")]


def _construct(b, cfg: CircuitConfig):
    """Emit the four stages through builder `b`.

    A record is one flat row of wires `v | k | tag`: the sigma-bit input
    fields `RECORD_FIELDS`, then the party's public tag as constant wires
    (fixed-plus-m only). Records are rows of one array, so each block
    call serves every record, comparator or switch of a layer at once.
    Each stage's counts and gate and wire ranges come from the builder's
    running AND and XOR counts, since gate g drives wire 1 + (input
    wires) + g in either builder. Returns the sortedness flags, the
    output keys (each shuffled key twice, side by side) and the stages.
    """
    N, u, width = cfg.n_parties, cfg.inputs_per_party, cfg.record_bits
    records = np.array([b.input_vector(p, u * width) for p in range(N)])
    records = records.reshape(N, u, width)
    controls = [
        b.input_vector(owner, cfg.control_bits_per_layer)
        for owner in cfg.control_parties
    ]
    first = 1 + N * u * width + len(controls) * cfg.control_bits_per_layer
    v = cfg.field("v")
    stages: list[CompiledStage] = []
    mark = (0, 0)

    def close(name):
        nonlocal mark
        (a0, x0), (a1, x1) = mark, (b.and_count, b.xor_count)
        g0, g1 = a0 + x0, a1 + x1
        stages.append(CompiledStage(name, a1 - a0, x1 - x0, (g0, g1), (first + g0, first + g1)))
        mark = (a1, x1)

    if u >= 2:
        values = records[:, :, v]
        # axis 0 of the transposed (u-1, N) verdicts is each party's fold axis
        flags = b.not_(pairwise(b.and_v, b.lt(values[:, :-1], values[:, 1:]).T))
    else:
        flags = np.full(N, b.zero())
    close("SortCheck")

    merged = records.reshape(N * u, width)
    if cfg.variant.kind == "fixed-plus-m":
        tags = b.const_bits(*_slot_tags(cfg))
        merged = np.concatenate([merged, np.repeat(tags, u, axis=0)], axis=1)

    def tree(swap, slots):
        merge = partial(odd_even_merge, swap)
        runs = [slots[p * u : (p + 1) * u] for p in range(N)]
        return pairwise(lambda xs, ys: list(map(merge, xs, ys)), runs)

    layers, order = exchange_layers(tree, N * u)
    for lo, hi in (layer.T for layer in layers):
        c = b.lt(merged[hi, v], merged[lo, v])
        merged[lo], merged[hi] = b.cond_swap(c, merged[lo], merged[hi])
    merged = merged[order]
    close("MergeTree")

    out_keys = _dup_select(b, cfg, merged)
    close("DupSelect")

    for layer_bits in controls:
        out_keys = build_network(b, layer_bits, out_keys)
    close("Shuffle")

    return flags, np.repeat(out_keys, 2, axis=0), stages


def _dup_select(b, cfg: CircuitConfig, merged: np.ndarray) -> np.ndarray:
    """Per-record key selection over the merged sorted records, one row
    each; returns one sigma-bit key per record.

    Every variant is one window test: a record qualifies when it lies in
    a window of z + m equal values and its run of them holds each of the
    z fixed tags. Its select bit sel is XORed into every bit of its key
    k, so it yields ¬k if it qualifies and k if not, with XOR gates only.
    The Shuffle permutes these N*u keys and only then is each output
    twice, so every opened key appears exactly twice. A window longer
    than all N*u records can never be filled, so every record keeps k.
    """
    total = len(merged)
    v = merged[:, cfg.field("v")]
    k = merged[:, cfg.field("k")]
    variant = cfg.variant
    # fixed tags are 0..z-1; z is 0 outside fixed-plus-m
    z = len(variant.fixed_parties)
    window = z + variant.m
    if window > total:
        return k

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
        # a set, not np.unique, whose first call imports numpy.ma
        for w in sorted(set(width.tolist())):
            rows = np.flatnonzero(width == w)
            length_ok[rows] = pairwise(b.or_, win[np.arange(w)[:, None] + lo[rows]])

    # per fixed tag: presence anywhere inside the record's equal-key run,
    # via forward/backward sweeps that stop at run boundaries
    presence = []
    for tag in range(z):
        has = b.eq_const(merged[:, cfg.record_bits :], tag)
        fwd = [has[0]]
        for i in range(1, total):
            fwd.append(b.or_(has[i], b.and_v(eqs[i - 1], fwd[i - 1])))
        bwd = [has[-1]]
        for i in range(total - 2, -1, -1):
            bwd.append(b.or_(has[i], b.and_v(eqs[i], bwd[-1])))
        presence.append(b.or_(np.array(fwd), np.array(bwd[::-1])))

    sel = pairwise(b.and_v, np.stack([length_ok, *presence]))
    return b.xor_v(k, sel[:, None])


@lru_cache(maxsize=2)  # one configuration plus one alternate
def compile_circuit(cfg: CircuitConfig) -> Compiled:
    """Materialize the full circuit plus stage metadata (cached)."""
    b = CircuitBuilder()
    flags, out_keys, stages = _construct(b, cfg)
    circuit = b.finish(out_keys.ravel())
    return Compiled(cfg, circuit, stages, flags.tolist())


def stage_counts(cfg: CircuitConfig) -> list[CompiledStage]:
    """Exact per-stage gate counts without materializing the circuit."""
    b = CountingBuilder()
    _, _, stages = _construct(b, cfg)
    return stages


def stage_bounds(cfg: CircuitConfig) -> dict[str, float]:
    """Analytic AND-count ceilings checked against measured counts."""
    N, u, sigma = cfg.n_parties, cfg.inputs_per_party, cfg.sigma
    total = N * u
    # z = 0 outside fixed-plus-m
    z, omega = len(cfg.variant.fixed_parties), _slot_tags(cfg)[1]
    dup = total * sigma + 2 * total * (z + cfg.variant.m + z * (omega + 5))
    return {
        "SortCheck": N * (u - 1) * (sigma + 1),
        "MergeTree": 2 * N * N * u * sigma * math.log2(total) if total > 1 else 0,
        "DupSelect": dup,
        "Shuffle": cfg.shuffle_layers * sigma * total * math.log2(total),
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
    """Stage manifest that `depletion compile` writes."""
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
        "output_keys": cfg.output_keys,
        "control_bits_per_layer": cfg.control_bits_per_layer,
    }
