"""Round orchestration: negotiate the input bound, prepare sorted keyed
inputs, evaluate the compiled circuit under the sharing protocol, and
interpret the opened keys.

The orchestrator simulates every party in one process. Party-local
steps (preparation, key tables, interpretation) only ever touch that
party's own state plus the public opened keys; the one deliberate
exception is desk-scale collision avoidance, where dummy values and
keys are drawn under a shared forbidden set so that sub-cryptographic
hash widths (sigma 8 or 16 in tests) cannot produce the accidental
cross-party collisions that are negligible at sigma 256.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import compiler as CP
from . import mpc, waksman
from .bits import int_to_bits

VARIANT_KINDS = ("at-least-two", "at-least-m", "fixed-plus-m")


class SessionError(Exception):
    """Base class for orchestration failures."""


class TooManyEntries(SessionError):
    """A stockpile holds more distinct values than the negotiated bound."""


class RandomnessFailure(SessionError):
    """Could not draw the required fresh random values or keys."""


class ConfigMismatch(SessionError):
    """Parties disagree on the session configuration digest."""


class ProtocolCorruption(SessionError):
    """Opened keys are missing both keys of a submitted record."""


class RemovalAttempted(SessionError):
    """Submitted entries are immutable; removals are rejected."""


@dataclass(frozen=True)
class VariantSpec:
    kind: str = "at-least-two"
    m: int = 1
    fixed_parties: tuple[int, ...] = ()

    def validate(self, parties: tuple[int, ...]) -> None:
        if self.kind not in VARIANT_KINDS:
            raise ConfigMismatch(f"unknown variant kind {self.kind!r}")
        if self.kind != "at-least-two":
            if self.m < 1:
                raise ConfigMismatch("m must be positive")
        if self.kind == "fixed-plus-m":
            if not self.fixed_parties:
                raise ConfigMismatch("fixed-plus-m needs fixed parties")
            if not set(self.fixed_parties) <= set(parties):
                raise ConfigMismatch("fixed parties must be active parties")

    def describe(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "at-least-m":
            d["m"] = self.m
        elif self.kind == "fixed-plus-m":
            d["m"] = self.m
            d["fixed_parties"] = sorted(self.fixed_parties)
        return d


@dataclass(frozen=True)
class SessionConfig:
    parties: tuple[int, ...]
    sigma: int = 256
    variant: VariantSpec = VariantSpec()
    mode: str = "direct"
    n_servers: int = 0
    epoch: int = 1
    count_bits: int = 20

    def validate(self) -> None:
        if len(self.parties) < 2 or len(set(self.parties)) != len(self.parties):
            raise ConfigMismatch("need at least two distinct active parties")
        if self.sigma < 2:
            raise ConfigMismatch("sigma too small")
        if self.mode not in ("direct", "outsourced"):
            raise ConfigMismatch(f"unknown mode {self.mode!r}")
        if self.mode == "outsourced" and not 1 <= self.n_servers < len(self.parties):
            raise ConfigMismatch("outsourced mode needs 1 <= n_servers < parties")
        self.variant.validate(self.parties)

    def describe(self) -> dict:
        return {
            "parties": sorted(self.parties),
            "sigma": self.sigma,
            "variant": self.variant.describe(),
            "mode": self.mode,
            "n_servers": self.n_servers,
            "epoch": self.epoch,
            "count_bits": self.count_bits,
        }

    def digest(self) -> str:
        blob = json.dumps(self.describe(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha3_256(blob.encode()).hexdigest()


@dataclass
class InputRecord:
    v: int
    k0: int
    k1: int
    is_dummy: bool


@dataclass
class PreparedParty:
    records: list[InputRecord]

    @property
    def key_table(self) -> dict[int, tuple[int, int]]:
        return {r.v: (r.k0, r.k1) for r in self.records if not r.is_dummy}

    @property
    def real_values(self) -> set[int]:
        return {r.v for r in self.records if not r.is_dummy}


@dataclass
class IntersectionReport:
    statuses: dict[int, str]

    @property
    def shared(self) -> set[int]:
        return {v for v, s in self.statuses.items() if s == "shared"}

    @property
    def shared_count(self) -> int:
        return len(self.shared)

    @property
    def exclusive_count(self) -> int:
        return len(self.statuses) - len(self.shared)


# -- input preparation ---------------------------------------------------------


def _rand_value(rng, width: int) -> int:
    """Uniform integer in [0, 2^width); byte-based above the int64 range."""
    if width <= 62:
        return int(rng.integers(0, 1 << width))
    nbytes = (width + 7) // 8
    raw = int.from_bytes(rng.bytes(nbytes), "big")
    return raw >> (nbytes * 8 - width)


def _draw_distinct(rng, count, width, taken: set[int], lowest: int) -> list[int]:
    """Fresh values from [lowest, 2^width) avoiding `taken`."""
    space = (1 << width) - lowest
    if space - len(taken) < count:
        raise RandomnessFailure(
            f"need {count} fresh {width}-bit values, space exhausted"
        )
    out: list[int] = []
    if space <= 4096:
        pool = [x for x in range(lowest, 1 << width) if x not in taken]
        idx = rng.choice(len(pool), size=count, replace=False)
        out = [pool[i] for i in idx]
    else:
        seen = set()
        while len(out) < count:
            x = _rand_value(rng, width)
            if x < lowest or x in taken or x in seen:
                continue
            seen.add(x)
            out.append(x)
    return out


def prepare_inputs(
    values,
    u: int,
    sigma: int,
    rng,
    forbidden_values=frozenset(),
    forbidden_keys=frozenset(),
) -> PreparedParty:
    """Sorted, deduplicated, dummy-padded records with fresh key pairs.

    Dummies are drawn uniformly from the nonzero value space avoiding
    the party's own values and the forbidden set, then the combined
    list is sorted, which interleaves them instead of revealing the
    real count through trailing positions.
    """
    real = sorted(set(int(v) for v in values))
    for v in real:
        if not 0 < v < (1 << sigma):
            raise SessionError(f"value {v} outside the nonzero {sigma}-bit space")
    if len(real) > u:
        raise TooManyEntries(f"{len(real)} distinct values exceed bound u={u}")
    taken = set(real) | set(forbidden_values)
    dummies = _draw_distinct(rng, u - len(real), sigma, taken, lowest=1)
    keys = _draw_distinct(
        rng, 2 * u, sigma, set(forbidden_keys), lowest=0
    )
    records = []
    dummy_set = set(dummies)
    for i, v in enumerate(sorted(real + dummies)):
        records.append(InputRecord(v, keys[2 * i], keys[2 * i + 1], v in dummy_set))
    return PreparedParty(records)


def interpret_output(key_table: dict[int, tuple[int, int]], opened) -> IntersectionReport:
    """Scan the opened key multiset against one party's key table."""
    bag = opened if isinstance(opened, Counter) else Counter(opened)
    statuses = {}
    for v, (k0, k1) in key_table.items():
        if bag[k1] > 0:
            statuses[v] = "shared"
        elif bag[k0] > 0:
            statuses[v] = "exclusive"
        else:
            raise ProtocolCorruption(f"no key for value {v} in the opened output")
    return IntersectionReport(statuses)


# -- circuit wiring --------------------------------------------------------------


def _compiler_config(config: SessionConfig, u: int) -> CP.CircuitConfig:
    slots = sorted(config.parties)
    n = len(slots)
    if config.mode == "outsourced":
        control = tuple(range(n, n + config.n_servers))
    else:
        control = tuple(range(n))
    spec = config.variant
    if spec.kind == "at-least-two":
        variant, tags = CP.AtLeastTwo(), ()
    elif spec.kind == "at-least-m":
        variant, tags = CP.AtLeastM(spec.m), ()
    else:
        fixed_slots = sorted(slots.index(p) for p in spec.fixed_parties)
        z = len(fixed_slots)
        tag_of = {s: i for i, s in enumerate(fixed_slots)}
        tags = tuple(tag_of.get(s, z) for s in range(n))
        variant = CP.FixedPlusM(tuple(range(z)), spec.m)
    return CP.CircuitConfig(
        n_parties=n,
        inputs_per_party=u,
        sigma=config.sigma,
        variant=variant,
        party_tags=tags,
        control_parties=control,
    )


def _record_bits(prepared: PreparedParty, sigma: int) -> list[int]:
    bits: list[int] = []
    for r in prepared.records:
        bits += int_to_bits(r.v, sigma) + int_to_bits(r.k0, sigma) + int_to_bits(r.k1, sigma)
    return bits


def _keys_from_output(out_bits: np.ndarray, n_keys: int, sigma: int) -> list[list[int]]:
    """Opened output bits [n_keys*sigma, B] to per-element key lists."""
    batch = out_bits.shape[1]
    arr = out_bits.reshape(n_keys, sigma, batch)
    pad = (-sigma) % 8
    if pad:
        arr = np.concatenate(
            [np.zeros((n_keys, pad, batch), dtype=np.uint8), arr], axis=1
        )
    packed = np.packbits(arr, axis=1)
    return [
        [int.from_bytes(packed[i, :, b].tobytes(), "big") for i in range(n_keys)]
        for b in range(batch)
    ]


# -- round execution --------------------------------------------------------------


@dataclass
class RoundResult:
    u: int
    reports: list[dict[int, IntersectionReport]]
    opened_keys: list[list[int]]
    prepared: list[dict[int, PreparedParty]]
    transcript: mpc.Transcript | None
    config_digest: str
    engine: mpc.Engine | None = None
    compiled: CP.Compiled | None = None


def _seed_seq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def negotiate_u(config: SessionConfig, counts: dict[int, list[int]], seed) -> list[int]:
    """Batched secure maximum over the parties' private counts."""
    slots = sorted(config.parties)
    batch = len(next(iter(counts.values())))
    for p, cs in counts.items():
        for c in cs:
            if c >= 1 << config.count_bits:
                raise SessionError(f"count {c} exceeds {config.count_bits} bits")
    circ = CP.build_max_circuit(len(slots), config.count_bits)
    computing = _computing_ids(config)
    ss = _seed_seq(seed)
    dealer_seed, *party_seeds = ss.spawn(1 + len(slots))
    rngs = {i: np.random.default_rng(s) for i, s in enumerate(party_seeds)}
    engine = mpc.Engine(
        circ,
        computing,
        dealer_seed=dealer_seed,
        batch=batch,
        epoch=config.epoch,
    )
    inputs = {}
    for i, p in enumerate(slots):
        cols = [int_to_bits(c, config.count_bits) for c in counts[p]]
        inputs[i] = np.array(cols, dtype=np.uint8).T
    out = engine.run(inputs, lambda owner: rngs[owner])
    engine.transcript.verify()
    pad = (-config.count_bits) % 8
    arr = np.concatenate(
        [np.zeros((pad, batch), dtype=np.uint8), out], axis=0
    )
    packed = np.packbits(arr, axis=0)
    maxima = [int.from_bytes(packed[:, b].tobytes(), "big") for b in range(batch)]
    expected = [
        max(counts[p][b] for p in slots) for b in range(batch)
    ]
    if maxima != expected:
        raise ProtocolCorruption("negotiated maximum disagrees with plain maximum")
    return maxima


def _computing_ids(config: SessionConfig) -> list[int]:
    n = len(config.parties)
    if config.mode == "outsourced":
        return list(range(n, n + config.n_servers))
    return list(range(n))


def run_sessions(
    config: SessionConfig,
    stockpiles_batch: list[dict[int, object]],
    seed,
    execution: str = "mpc",
    inject_unsorted: int | None = None,
    config_overrides: dict[int, SessionConfig] | None = None,
    negotiate: bool | None = None,
) -> RoundResult:
    """Run one full round for a batch of independent stockpile sets.

    Every batch element shares (parties, sigma, variant, mode); the
    input bound is negotiated across the batch and the circuit compiled
    once. `execution` is "mpc", "plaintext", or "both" (evaluates both
    paths and insists on bit-identical opened keys).
    """
    config.validate()
    if execution not in ("mpc", "plaintext", "both"):
        raise SessionError(f"unknown execution {execution!r}")
    slots = sorted(config.parties)
    digest = config.digest()
    if config_overrides:
        for p, other in config_overrides.items():
            if other.digest() != digest:
                raise ConfigMismatch(f"party {p} disagrees on the session config")
    batch = len(stockpiles_batch)
    values = [
        {p: sorted(set(int(v) for v in sp[p])) for p in slots}
        for sp in stockpiles_batch
    ]

    ss = _seed_seq(seed)
    n_owner_rngs = len(slots) + (config.n_servers if config.mode == "outsourced" else 0)
    neg_seed, dealer_seed, control_seed, *party_seeds = ss.spawn(3 + n_owner_rngs)
    party_rngs = {i: np.random.default_rng(s) for i, s in enumerate(party_seeds)}

    counts = {p: [len(values[b][p]) for b in range(batch)] for p in slots}
    if negotiate is None:
        negotiate = execution in ("mpc", "both")
    if negotiate:
        maxima = negotiate_u(config, counts, neg_seed)
    else:
        maxima = [max(counts[p][b] for p in slots) for b in range(batch)]
    u = max(1, max(maxima))

    prepared: list[dict[int, PreparedParty]] = []
    for b in range(batch):
        taken_values: set[int] = set()
        for p in slots:
            taken_values |= set(values[b][p])
        taken_keys: set[int] = set()
        per_party = {}
        for i, p in enumerate(slots):
            pp = prepare_inputs(
                values[b][p],
                u,
                config.sigma,
                party_rngs[i],
                forbidden_values=taken_values,
                forbidden_keys=taken_keys,
            )
            taken_values |= {r.v for r in pp.records}
            taken_keys |= {k for r in pp.records for k in (r.k0, r.k1)}
            per_party[p] = pp
        prepared.append(per_party)

    if inject_unsorted is not None:
        if u < 2:
            raise SessionError("unsorted injection needs at least two records")
        for per_party in prepared:
            recs = per_party[inject_unsorted].records
            recs[0], recs[1] = recs[1], recs[0]

    cfg = _compiler_config(config, u)
    compiled = CP.compile_circuit(cfg)
    n_keys = 2 * cfg.total_records

    inputs: dict[int, np.ndarray] = {}
    for i, p in enumerate(slots):
        cols = [_record_bits(prepared[b][p], config.sigma) for b in range(batch)]
        inputs[i] = np.array(cols, dtype=np.uint8).T
    control_rng = np.random.default_rng(control_seed)
    for owner in cfg.control_parties:
        cols = []
        for b in range(batch):
            perm = control_rng.permutation(n_keys).tolist()
            cols.append([int(x) for x in waksman.route_permutation(perm)])
        ctl = np.array(cols, dtype=np.uint8).T
        inputs[owner] = (
            np.concatenate([inputs[owner], ctl]) if owner in inputs else ctl
        )

    flag_parties = [slots[i] for i in range(len(slots))]

    def check_flags(flag_bits: np.ndarray) -> None:
        bad = [
            flag_parties[i]
            for i in range(len(flag_parties))
            if flag_bits[i].any()
        ]
        if bad:
            raise mpc.AbortUnsorted(bad)

    opened_plain = None
    if execution in ("plaintext", "both"):
        out, flags = compiled.circuit.evaluate(inputs, extra_wires=compiled.flag_wires)
        if out.ndim == 1:
            out, flags = out[:, None], flags[:, None]
        check_flags(flags)
        opened_plain = out

    engine = None
    transcript = None
    opened = opened_plain
    if execution in ("mpc", "both"):
        engine = mpc.Engine(
            compiled.circuit,
            _computing_ids(config),
            reactive=[
                mpc.ReactiveOpen(0, list(compiled.flag_wires), check_flags)
            ],
            dealer_seed=dealer_seed,
            batch=batch,
            epoch=config.epoch,
        )
        out = engine.run(inputs, lambda owner: party_rngs[owner])
        transcript = engine.transcript
        transcript.verify()
        if execution == "both" and not np.array_equal(out, opened_plain):
            raise ProtocolCorruption("protocol output differs from plaintext circuit")
        opened = out

    keys_per_element = _keys_from_output(opened, n_keys, config.sigma)
    reports: list[dict[int, IntersectionReport]] = []
    for b in range(batch):
        bag = Counter(keys_per_element[b])
        if sum(bag.values()) != 2 * u * len(slots):
            raise ProtocolCorruption("opened key count does not match 2*u*N")
        reports.append(
            {
                p: interpret_output(prepared[b][p].key_table, bag)
                for p in slots
            }
        )
    return RoundResult(
        u=u,
        reports=reports,
        opened_keys=keys_per_element,
        prepared=prepared,
        transcript=transcript,
        config_digest=digest,
        engine=engine,
        compiled=compiled,
    )


# -- multi-epoch session ----------------------------------------------------------


@dataclass
class _PartyEpochState:
    submitted: list[InputRecord] = field(default_factory=list)
    pending: list[int] = field(default_factory=list)

    @property
    def submitted_values(self) -> list[int]:
        return [r.v for r in self.submitted]

    @property
    def real_values(self) -> set[int]:
        return {r.v for r in self.submitted if not r.is_dummy}


class Session:
    """Stateful multi-epoch orchestration with share persistence.

    Hash-value shares are persisted by every computing party after each
    run and restored (position-remapped) in the next epoch, so only new
    records and the per-epoch fresh keys are secret-shared again.
    Submitted records are immutable: additions only.
    """

    def __init__(self, config: SessionConfig, stockpiles: dict[int, object], seed):
        config.validate()
        self.config = config
        self.slots = sorted(config.parties)
        self.state = {
            p: _PartyEpochState(pending=sorted(set(int(v) for v in stockpiles.get(p, ()))))
            for p in self.slots
        }
        self._seed = np.random.SeedSequence(seed)
        self.epoch = config.epoch
        self.store: dict[tuple[int, int], tuple[int, bytes]] = {}

    def epoch_advance(self, additions: dict[int, object], removals: dict[int, object] | None = None):
        if removals and any(removals.values()):
            raise RemovalAttempted("submitted entries cannot be removed or modified")
        dummy_pool = {
            r.v for st in self.state.values() for r in st.submitted if r.is_dummy
        }
        for p, vals in additions.items():
            st = self.state[p]
            fresh = sorted(set(int(v) for v in vals) - st.real_values)
            for v in fresh:
                if v in dummy_pool:
                    raise RandomnessFailure(
                        f"new value {v} collides with a submitted dummy"
                    )
            st.pending.extend(v for v in fresh if v not in set(st.pending))
        self.epoch += 1

    def run_epoch(self, execution: str = "mpc") -> RoundResult:
        config = SessionConfig(
            parties=self.config.parties,
            sigma=self.config.sigma,
            variant=self.config.variant,
            mode=self.config.mode,
            n_servers=self.config.n_servers,
            epoch=self.epoch,
            count_bits=self.config.count_bits,
        )
        seed = self._seed.spawn(1)[0]  # children are numbered in spawn order
        sigma = config.sigma
        required = {
            p: len(self.state[p].submitted) + len(set(self.state[p].pending) - self.state[p].real_values)
            for p in self.slots
        }
        u = max(1, max(required.values()))

        n_owner_rngs = len(self.slots) + (
            config.n_servers if config.mode == "outsourced" else 0
        )
        rng_children = seed.spawn(3 + n_owner_rngs)
        neg_seed, dealer_seed, control_seed = rng_children[:3]
        party_rngs = {
            i: np.random.default_rng(s) for i, s in enumerate(rng_children[3:])
        }
        if execution != "plaintext":
            negotiate_u(config, {p: [required[p]] for p in self.slots}, neg_seed)

        taken_values = {
            v for st in self.state.values() for v in st.submitted_values
        }
        for st in self.state.values():
            taken_values |= set(st.pending)
        prepared: dict[int, PreparedParty] = {}
        mapping: dict[int, list[int | None]] = {}
        taken_keys: set[int] = set()
        for i, p in enumerate(self.slots):
            st = self.state[p]
            old = {r.v: (j, r) for j, r in enumerate(st.submitted)}
            new_real = sorted(set(st.pending) - st.real_values)
            need_dummies = u - len(st.submitted) - len(new_real)
            if need_dummies < 0:
                raise TooManyEntries(f"party {p} exceeds the negotiated bound")
            dummies = _draw_distinct(
                party_rngs[i], need_dummies, sigma, taken_values, lowest=1
            )
            taken_values |= set(dummies)
            all_vs = sorted(st.submitted_values + new_real + dummies)
            keys = _draw_distinct(party_rngs[i], 2 * u, sigma, taken_keys, lowest=0)
            taken_keys |= set(keys)
            dummy_vs = {r.v for r in st.submitted if r.is_dummy} | set(dummies)
            records = [
                InputRecord(v, keys[2 * j], keys[2 * j + 1], v in dummy_vs)
                for j, v in enumerate(all_vs)
            ]
            prepared[p] = PreparedParty(records)
            mapping[p] = [old[v][0] if v in old else None for v in all_vs]
            st.submitted = [
                InputRecord(r.v, 0, 0, r.is_dummy) for r in records
            ]
            st.pending = []

        return self._run_prepared(config, prepared, mapping, dealer_seed,
                                   control_seed, party_rngs, execution)

    def _run_prepared(self, config, prepared, mapping, dealer_seed, control_seed,
                      party_rngs, execution):
        sigma = config.sigma
        u = len(prepared[self.slots[0]].records)
        cfg = _compiler_config(config, u)
        compiled = CP.compile_circuit(cfg)
        n_keys = 2 * cfg.total_records

        inputs = {
            i: np.array(
                [_record_bits(prepared[p], sigma)], dtype=np.uint8
            ).T
            for i, p in enumerate(self.slots)
        }
        control_rng = np.random.default_rng(control_seed)
        for owner in cfg.control_parties:
            perm = control_rng.permutation(n_keys).tolist()
            ctl = np.array(
                [[int(x) for x in waksman.route_permutation(perm)]], dtype=np.uint8
            ).T
            inputs[owner] = (
                np.concatenate([inputs[owner], ctl]) if owner in inputs else ctl
            )

        def check_flags(flag_bits):
            bad = [self.slots[i] for i in range(len(self.slots)) if flag_bits[i].any()]
            if bad:
                raise mpc.AbortUnsorted(bad)

        if execution == "plaintext":
            out, flags = compiled.circuit.evaluate(inputs, extra_wires=compiled.flag_wires)
            check_flags(flags)
            engine = transcript = None
            opened = out
        else:
            engine = mpc.Engine(
                compiled.circuit,
                _computing_ids(config),
                    reactive=[mpc.ReactiveOpen(0, list(compiled.flag_wires), check_flags)],
                dealer_seed=dealer_seed,
                batch=1,
                epoch=self.epoch,
            )
            preset = self._restore_persisted(engine, compiled, mapping)
            out = engine.run(
                inputs,
                lambda owner: party_rngs[owner],
                preset=preset,
            )
            transcript = engine.transcript
            transcript.verify()
            self._persist(engine, compiled)
            opened = out

        keys_per_element = _keys_from_output(opened, n_keys, sigma)
        bag = Counter(keys_per_element[0])
        reports = [
            {p: interpret_output(prepared[p].key_table, bag) for p in self.slots}
        ]
        return RoundResult(
            u=u,
            reports=reports,
            opened_keys=keys_per_element,
            prepared=[prepared],
            transcript=transcript,
            config_digest=config.digest(),
            engine=engine,
            compiled=compiled,
        )

    def _restore_persisted(self, engine, compiled, mapping):
        """Scatter stored v-shares into this epoch's input positions."""
        sigma = compiled.config.sigma
        preset: dict[int, set[int]] = {}
        for i, p in enumerate(self.slots):
            remap = mapping[p]
            stored = [
                (new_slot, old_slot)
                for new_slot, old_slot in enumerate(remap)
                if old_slot is not None
            ]
            if not stored:
                continue
            offsets = set()
            for new_slot, _ in stored:
                base = new_slot * 3 * sigma
                offsets |= set(range(base, base + sigma))
            preset[i] = offsets
            v_wires = compiled.v_wires(i)
            for cp in engine.computing_ids:
                entry = self.store.get((cp, i))
                if entry is None:
                    raise mpc.EpochMismatch(f"no stored shares for party {cp} owner {i}")
                saved_epoch, blob = entry
                bits = mpc.decode_share_blob(blob, cp, saved_epoch)
                old_u = bits.size // sigma
                rows = bits.reshape(old_u, sigma)
                for new_slot, old_slot in stored:
                    engine.restore_shares(
                        cp, v_wires[new_slot], rows[old_slot][:, None]
                    )
        return preset

    def _persist(self, engine, compiled):
        for i, p in enumerate(self.slots):
            wires = [w for vec in compiled.v_wires(i) for w in vec]
            for cp in engine.computing_ids:
                blob = engine.persist_shares(cp, wires, range_id=i + 1)
                self.store[(cp, i)] = (self.epoch, blob)
