"""Compiler for the multi-party duplicate-detection circuit.

Stage pipeline: per-party sortedness flags (opened reactively before
anything else is revealed), an oblivious merge tree over all parties'
sorted records, duplicate-key selection (base, at-least-m, and
fixed-plus-m variants), and a composed per-party Waksman shuffle of the
output keys.

Every stage is built through the builder interface from `circuit`, so
`compile_circuit` materializes gates while `stage_counts` runs the same
construction with the counting builder for benchmark-scale sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .circuit import CircuitBuilder, CountingBuilder, BooleanCircuit
from .merge import odd_even_merge
from .waksman import build_network, switch_count

STAGE_NAMES = ("SortCheck", "MergeTree", "DupSelect", "Shuffle")


class ConfigInvalid(Exception):
    """Circuit configuration violates a structural constraint."""


@dataclass(frozen=True)
class AtLeastTwo:
    """Base variant: a key is selected when any two records share it."""


@dataclass(frozen=True)
class AtLeastM:
    """A record's 1-key is selected when it sits in a run of >= m equal keys."""

    m: int


@dataclass(frozen=True)
class FixedPlusM:
    """Selected when the run holds every fixed tag and >= z+m records.

    Runs carry at most one record per party, so run length z+m with all
    z fixed tags present means exactly the z fixed parties plus at
    least m others.
    """

    fixed_tags: tuple[int, ...]
    m: int


Variant = AtLeastTwo | AtLeastM | FixedPlusM


@dataclass(frozen=True)
class CircuitConfig:
    n_parties: int
    inputs_per_party: int
    sigma: int
    variant: Variant = AtLeastTwo()
    party_tags: tuple[int, ...] = ()
    tag_bits: int = 0
    control_parties: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.control_parties is None:
            object.__setattr__(
                self, "control_parties", tuple(range(self.n_parties))
            )
        if isinstance(self.variant, FixedPlusM) and self.tag_bits == 0:
            peak = max(self.variant.fixed_tags + self.party_tags)
            object.__setattr__(self, "tag_bits", max(1, peak.bit_length()))
        self.validate()

    def validate(self) -> None:
        N, u, sigma = self.n_parties, self.inputs_per_party, self.sigma
        if N < 2:
            raise ConfigInvalid("need at least two parties")
        if u < 1 or sigma < 1:
            raise ConfigInvalid("inputs per party and sigma must be positive")
        if not self.control_parties:
            raise ConfigInvalid("at least one shuffle layer is required")
        v = self.variant
        if isinstance(v, AtLeastM):
            if v.m < 1 or v.m > N * u:
                raise ConfigInvalid(f"m={v.m} outside [1, N*u={N * u}]")
        elif isinstance(v, FixedPlusM):
            z = len(v.fixed_tags)
            if z < 1 or v.m < 1 or z + v.m > N * u:
                raise ConfigInvalid(f"z+m={z + v.m} outside [2, N*u={N * u}]")
            if len(set(v.fixed_tags)) != z:
                raise ConfigInvalid("fixed tags must be pairwise distinct")
            if len(self.party_tags) != N:
                raise ConfigInvalid("fixed-plus-m needs one public tag per party")
            for t in v.fixed_tags + self.party_tags:
                if t < 0 or t.bit_length() > self.tag_bits:
                    raise ConfigInvalid(f"tag {t} does not fit in {self.tag_bits} bits")

    @property
    def total_records(self) -> int:
        return self.n_parties * self.inputs_per_party

    @property
    def shuffle_layers(self) -> int:
        return len(self.control_parties)

    @property
    def record_bits(self) -> int:
        width = 3 * self.sigma
        if isinstance(self.variant, FixedPlusM):
            width += self.tag_bits
        return width

    @property
    def control_bits_per_layer(self) -> int:
        return switch_count(2 * self.total_records)

    def describe(self) -> dict:
        v = self.variant
        if isinstance(v, AtLeastTwo):
            variant = {"kind": "at-least-two"}
        elif isinstance(v, AtLeastM):
            variant = {"kind": "at-least-m", "m": v.m}
        else:
            variant = {
                "kind": "fixed-plus-m",
                "fixed_tags": list(v.fixed_tags),
                "m": v.m,
                "party_tags": list(self.party_tags),
                "tag_bits": self.tag_bits,
            }
        return {
            "parties": self.n_parties,
            "inputs_per_party": self.inputs_per_party,
            "sigma": self.sigma,
            "variant": variant,
            "shuffle_layers": self.shuffle_layers,
            "control_parties": list(self.control_parties),
        }


@dataclass
class CompiledStage:
    name: str
    and_count: int
    xor_count: int
    gate_range: tuple[int, int] | None = None
    wire_range: tuple[int, int] | None = None


@dataclass
class Compiled:
    config: CircuitConfig
    circuit: BooleanCircuit
    stages: list[CompiledStage]
    flag_wires: list[int]
    barrier_gate: int
    output_keys: list[list[int]]
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


@dataclass
class _Rec:
    v: list
    k0: list
    k1: list
    tag: list

    def flat(self):
        return self.v + self.k0 + self.k1 + self.tag


def _rec_swap(b, widths):
    sv, sk, st = widths

    def swap(ra: _Rec, rb: _Rec):
        c = b.lt(rb.v, ra.v)
        fa, fb = b.cond_swap(c, ra.flat(), rb.flat())

        def unflat(f):
            return _Rec(f[:sv], f[sv : sv + sk], f[sv + sk : sv + 2 * sk], f[sv + 2 * sk :])

        return unflat(fa), unflat(fb)

    return swap


class _StageLog:
    """Record per-stage gate deltas for either builder flavor."""

    def __init__(self, b):
        self.b = b
        self.counting = isinstance(b, CountingBuilder)
        self.stages: list[CompiledStage] = []

    def _state(self):
        if self.counting:
            return self.b.and_count, self.b.xor_count, None, None
        return (
            self.b.and_count,
            self.b.xor_count,
            self.b.n_gates,
            self.b.next_wire,
        )

    def open(self):
        self._mark = self._state()

    def close(self, name):
        a0, x0, g0, w0 = self._mark
        a1, x1, g1, w1 = self._state()
        self.stages.append(
            CompiledStage(
                name,
                a1 - a0,
                x1 - x0,
                None if g0 is None else (g0, g1),
                None if w0 is None else (w0, w1),
            )
        )


def _construct(b, cfg: CircuitConfig):
    N, u, sigma = cfg.n_parties, cfg.inputs_per_party, cfg.sigma
    tagged = isinstance(cfg.variant, FixedPlusM)
    per_party = []
    for p in range(N):
        per_party.append(
            [
                (
                    b.input_vector(p, sigma),
                    b.input_vector(p, sigma),
                    b.input_vector(p, sigma),
                )
                for _ in range(u)
            ]
        )
    controls = [
        b.input_vector(owner, cfg.control_bits_per_layer)
        for owner in cfg.control_parties
    ]

    log = _StageLog(b)

    log.open()
    flags = []
    for p in range(N):
        if u >= 2:
            ordered = [
                b.lt(per_party[p][r][0], per_party[p][r + 1][0])
                for r in range(u - 1)
            ]
            flags.append(b.not_(b.and_fold(ordered)))
        else:
            flags.append(b.zero())
    log.close("SortCheck")
    # the sortedness flags are opened before any later gate is evaluated
    b.barrier()

    log.open()
    runs = []
    for p in range(N):
        tag = b.const_bits(cfg.party_tags[p], cfg.tag_bits) if tagged else []
        runs.append([_Rec(v, k0, k1, tag) for v, k0, k1 in per_party[p]])
    swap = _rec_swap(b, (sigma, sigma, cfg.tag_bits if tagged else 0))
    while len(runs) > 1:
        nxt = [
            odd_even_merge(swap, runs[i], runs[i + 1])
            for i in range(0, len(runs) - 1, 2)
        ]
        if len(runs) % 2:
            nxt.append(runs[-1])
        runs = nxt
    merged = runs[0]
    log.close("MergeTree")

    log.open()
    out_keys = _dup_select(b, cfg, merged)
    log.close("DupSelect")

    log.open()
    for layer_bits in controls:
        out_keys = build_network(b, layer_bits, out_keys)
    log.close("Shuffle")

    merged_v = [rec.v for rec in merged]
    return flags, out_keys, log.stages, merged_v


def _dup_select(b, cfg: CircuitConfig, merged: list[_Rec]) -> list[list]:
    """Per-record key selection over the merged sorted records.

    Every record contributes exactly two sigma-bit output keys. The
    base variant emits the neighbor-pair selections directly (with the
    all-zero sentinel closing both boundaries); the windowed variants
    emit one selection bit per record, listed twice.
    """
    total = len(merged)
    variant = cfg.variant
    if isinstance(variant, AtLeastTwo):
        left_sentinel = b.eq_zero(merged[0].v)
        right_sentinel = b.eq_zero(merged[-1].v)
        eqs = [b.eq(merged[i].v, merged[i + 1].v) for i in range(total - 1)]
        keys = []
        for i, rec in enumerate(merged):
            left = left_sentinel if i == 0 else eqs[i - 1]
            right = right_sentinel if i == total - 1 else eqs[i]
            keys.append(b.mux(left, rec.k0, rec.k1))
            keys.append(b.mux(right, rec.k0, rec.k1))
        return keys

    if isinstance(variant, AtLeastM):
        window = variant.m
        required_tags = ()
    else:
        window = len(variant.fixed_tags) + variant.m
        required_tags = variant.fixed_tags

    eqs = [b.eq(merged[i].v, merged[i + 1].v) for i in range(total - 1)]

    # run-length test: some all-equal window of `window` records covers i
    if window == 1:
        length_ok = [b.one] * total
    else:
        win = [
            b.and_fold(eqs[j : j + window - 1])
            for j in range(total - window + 1)
        ]
        length_ok = [
            b.or_fold(win[max(0, i - window + 1) : min(i, total - window) + 1])
            for i in range(total)
        ]

    # per fixed tag: presence anywhere inside the record's equal-key run,
    # via forward/backward sweeps that stop at run boundaries
    presence = []
    for tag in required_tags:
        has = [b.eq_const(rec.tag, tag) for rec in merged]
        fwd = [has[0]]
        for i in range(1, total):
            fwd.append(b.or_(has[i], b.and_(eqs[i - 1], fwd[i - 1])))
        bwd = [None] * total
        bwd[-1] = has[-1]
        for i in range(total - 2, -1, -1):
            bwd[i] = b.or_(has[i], b.and_(eqs[i], bwd[i + 1]))
        presence.append([b.or_(f, w) for f, w in zip(fwd, bwd)])

    keys = []
    for i, rec in enumerate(merged):
        sel = b.and_fold([length_ok[i]] + [pres[i] for pres in presence])
        chosen = b.mux(sel, rec.k0, rec.k1)
        keys.append(chosen)
        keys.append(chosen)
    return keys


@lru_cache(maxsize=2)  # one configuration plus one alternate
def compile_circuit(cfg: CircuitConfig) -> Compiled:
    """Materialize the full circuit plus stage metadata (cached)."""
    b = CircuitBuilder()
    flags, out_keys, stages, merged_v = _construct(b, cfg)
    outputs = [w for vec in out_keys for w in vec]
    circuit = b.finish(outputs)
    n_out = 2 * cfg.total_records
    key_wires = [outputs[i * cfg.sigma : (i + 1) * cfg.sigma] for i in range(n_out)]
    return Compiled(cfg, circuit, stages, flags, circuit.barriers[0], key_wires, merged_v)


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
    if isinstance(v, AtLeastTwo):
        dup = 4 * total * sigma
    elif isinstance(v, AtLeastM):
        dup = 2 * total * (sigma + v.m)
    else:
        z, omega = len(v.fixed_tags), cfg.tag_bits
        dup = 2 * total * (sigma + (z + v.m) + z * (omega + 5))
    return {
        "SortCheck": N * (u - 1) * (sigma + 1),
        "MergeTree": 2 * N * N * u * sigma * math.log2(total) if total > 1 else 0,
        "DupSelect": dup,
        "Shuffle": cfg.shuffle_layers * sigma * 2 * total * math.log2(2 * total),
    }


def build_max_circuit(n_parties: int, count_bits: int = 20) -> BooleanCircuit:
    """Maximum of one unsigned count per party; (N-1)*2*count_bits ANDs."""
    if n_parties < 1 or count_bits < 1:
        raise ConfigInvalid("need at least one party and one count bit")
    b = CircuitBuilder()
    vals = [b.input_vector(p, count_bits) for p in range(n_parties)]
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            lo, hi = vals[i], vals[i + 1]
            nxt.append(b.mux(b.lt(lo, hi), lo, hi))
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return b.finish(vals[0])


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
