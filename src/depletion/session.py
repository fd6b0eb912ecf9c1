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
from dataclasses import dataclass, field, replace

import numpy as np

from . import compiler as CP
from . import mpc, waksman
from .bits import ints_to_bit_array
from .compiler import VariantSpec


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


class UnknownParty(SessionError):
    """Stockpiles name a party outside the configuration, or lack one."""


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
        try:
            self.variant.validate(self.parties)
        except CP.ConfigInvalid as exc:
            raise ConfigMismatch(str(exc)) from None

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


def _distinct_values(values, sigma: int) -> list[int]:
    """Sorted distinct values; each must lie in the nonzero sigma-bit space."""
    real = sorted(set(int(v) for v in values))
    for v in real:
        if not 0 < v < (1 << sigma):
            raise SessionError(f"value {v} outside the nonzero {sigma}-bit space")
    return real


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
    real = _distinct_values(values, sigma)
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


def _prepare_parties(values: dict[int, list[int]], u: int, sigma: int, rngs) -> dict[int, PreparedParty]:
    """Prepare one session's parties in slot order. Dummies avoid every
    party's values and earlier dummies; keys avoid earlier parties' keys."""
    taken_values = set().union(*values.values())
    taken_keys: set[int] = set()
    prepared = {}
    for i, p in enumerate(sorted(values)):
        pp = prepare_inputs(
            values[p], u, sigma, rngs[i],
            forbidden_values=taken_values, forbidden_keys=taken_keys,
        )
        taken_values |= {r.v for r in pp.records}
        taken_keys |= {k for r in pp.records for k in (r.k0, r.k1)}
        prepared[p] = pp
    return prepared


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
    fixed = tuple(slots.index(p) for p in config.variant.fixed_parties)
    return CP.CircuitConfig(
        n_parties=len(slots),
        inputs_per_party=u,
        sigma=config.sigma,
        variant=replace(config.variant, fixed_parties=fixed),
        control_parties=tuple(_computing_ids(config)),
    )


def _round_inputs(
    prepared: list[dict[int, PreparedParty]], slots, cfg: CP.CircuitConfig, control_seed
) -> dict[int, np.ndarray]:
    """Every owner's input bits for a batch, (bits, batch) each: the
    record bits of each party, then each control party's shuffle bits.

    Shuffle permutations are drawn control party by control party,
    session by session, and all of them are routed by one call.
    """
    batch = len(prepared)
    inputs = {}
    for i, p in enumerate(slots):
        values = [x for pp in prepared for r in pp[p].records for x in (r.v, r.k0, r.k1)]
        inputs[i] = ints_to_bit_array(values, cfg.sigma).reshape(batch, -1).T
    rng = np.random.default_rng(control_seed)
    n_keys = 2 * cfg.total_records
    perms = [rng.permutation(n_keys) for _ in cfg.control_parties for _ in range(batch)]
    bits = waksman.route_permutation(np.array(perms))
    for j, owner in enumerate(cfg.control_parties):
        ctl = bits[j * batch : (j + 1) * batch].T
        inputs[owner] = np.concatenate([inputs[owner], ctl]) if owner in inputs else ctl
    return inputs


def _keys_from_output(out_bits: np.ndarray, n_keys: int, sigma: int) -> list[list[int]]:
    """Opened output bits [n_keys*sigma, B] to per-element lists of
    big-endian sigma-bit integers."""
    batch = out_bits.shape[1]
    arr = out_bits.reshape(n_keys, sigma, batch)
    pad = (-sigma) % 8
    if pad:
        arr = np.concatenate(
            [np.zeros((n_keys, pad, batch), dtype=np.uint8), arr], axis=1
        )
    nbytes = (sigma + 7) // 8
    blob = np.packbits(arr, axis=1).transpose(2, 0, 1).tobytes()  # (B, n_keys, nbytes)
    keys = [
        int.from_bytes(blob[j : j + nbytes], "big") for j in range(0, len(blob), nbytes)
    ]
    return [keys[b * n_keys : (b + 1) * n_keys] for b in range(batch)]


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
        inputs[i] = ints_to_bit_array(counts[p], config.count_bits).T
    out = engine.run(inputs, lambda owner: rngs[owner])
    maxima = [m for (m,) in _keys_from_output(out, 1, config.count_bits)]
    expected = [
        max(counts[p][b] for p in slots) for b in range(batch)
    ]
    if maxima != expected:
        raise ProtocolCorruption("negotiated maximum disagrees with plain maximum")
    return maxima


def _known_parties(config: SessionConfig, stockpiles: dict) -> None:
    unknown = sorted(set(stockpiles) - set(config.parties))
    if unknown:
        raise UnknownParty(f"parties {unknown} are not in the session config")


def _computing_ids(config: SessionConfig) -> list[int]:
    n = len(config.parties)
    if config.mode == "outsourced":
        return list(range(n, n + config.n_servers))
    return list(range(n))


def _execute(config: SessionConfig, seed, counts: dict[int, list[int]], prepare,
             execution: str, restore=None) -> RoundResult:
    """Run one round of `config` for a batch of sessions.

    `counts` maps each party to its number of distinct values in each
    session; u is their maximum, negotiated under the protocol unless
    only the plaintext circuit runs. `prepare(u, party_rngs)` returns
    every session's prepared parties. `execution` is "mpc",
    "plaintext", or "both" (evaluates both paths and insists on
    bit-identical opened keys). `restore(engine, compiled, prepared)`,
    if given, loads stored shares into the round's engine before it
    runs and returns the `preset` input offsets it covered per owner.
    """
    if execution not in ("mpc", "plaintext", "both"):
        raise SessionError(f"unknown execution {execution!r}")
    slots = sorted(config.parties)
    n_owners = len(slots) + (config.n_servers if config.mode == "outsourced" else 0)
    neg_seed, dealer_seed, control_seed, *owner_seeds = _seed_seq(seed).spawn(3 + n_owners)
    party_rngs = {i: np.random.default_rng(s) for i, s in enumerate(owner_seeds)}

    if execution == "plaintext":
        maxima = [max(per_session) for per_session in zip(*counts.values())]
    else:
        maxima = negotiate_u(config, counts, neg_seed)
    u = max(1, max(maxima))
    prepared = prepare(u, party_rngs)

    cfg = _compiler_config(config, u)
    compiled = CP.compile_circuit(cfg)
    inputs = _round_inputs(prepared, slots, cfg, control_seed)

    def check_flags(flag_bits: np.ndarray) -> None:
        bad = [p for p, flags in zip(slots, flag_bits) if flags.any()]
        if bad:
            raise mpc.AbortUnsorted(bad)

    opened = engine = None
    if execution != "mpc":
        opened, flags = compiled.circuit.evaluate(inputs, extra_wires=compiled.flag_wires)
        check_flags(flags)
    if execution != "plaintext":
        engine = mpc.Engine(
            compiled.circuit,
            _computing_ids(config),
            reactive=[mpc.ReactiveOpen(0, list(compiled.flag_wires), check_flags)],
            dealer_seed=dealer_seed,
            batch=len(prepared),
            epoch=config.epoch,
        )
        preset = restore(engine, compiled, prepared) if restore else None
        out = engine.run(inputs, lambda owner: party_rngs[owner], preset=preset)
        if opened is not None and not np.array_equal(out, opened):
            raise ProtocolCorruption("protocol output differs from plaintext circuit")
        opened = out

    keys_per_element = _keys_from_output(opened, 2 * cfg.total_records, config.sigma)
    reports: list[dict[int, IntersectionReport]] = []
    for b, keys in enumerate(keys_per_element):
        bag = Counter(keys)
        if sum(bag.values()) != 2 * u * len(slots):
            raise ProtocolCorruption("opened key count does not match 2*u*N")
        reports.append({p: interpret_output(prepared[b][p].key_table, bag) for p in slots})
    return RoundResult(
        u=u,
        reports=reports,
        opened_keys=keys_per_element,
        prepared=prepared,
        transcript=engine.transcript if engine else None,
        config_digest=config.digest(),
        engine=engine,
        compiled=compiled,
    )


def run_sessions(
    config: SessionConfig,
    stockpiles_batch: list[dict[int, object]],
    seed,
    execution: str = "mpc",
    inject_unsorted: int | None = None,
    config_overrides: dict[int, SessionConfig] | None = None,
) -> RoundResult:
    """Run one full round for a batch of independent stockpile sets.

    Every batch element shares (parties, sigma, variant, mode); the
    input bound is negotiated across the batch and the circuit compiled
    once. `execution` is "mpc", "plaintext", or "both" (evaluates both
    paths and insists on bit-identical opened keys).
    """
    config.validate()
    slots = sorted(config.parties)
    digest = config.digest()
    if config_overrides:
        for p, other in config_overrides.items():
            if other.digest() != digest:
                raise ConfigMismatch(f"party {p} disagrees on the session config")
    for sp in stockpiles_batch:
        if set(sp) != set(slots):
            raise UnknownParty(f"stockpile parties {sorted(sp)} differ from the configured {slots}")
    values = [{p: _distinct_values(sp[p], config.sigma) for p in slots} for sp in stockpiles_batch]

    def prepare(u, party_rngs):
        prepared = [_prepare_parties(v, u, config.sigma, party_rngs) for v in values]
        if inject_unsorted is not None:
            if u < 2:
                raise SessionError("unsorted injection needs at least two records")
            for per_party in prepared:
                recs = per_party[inject_unsorted].records
                recs[0], recs[1] = recs[1], recs[0]
        return prepared

    counts = {p: [len(v[p]) for v in values] for p in slots}
    return _execute(config, seed, counts, prepare, execution)


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
        _known_parties(config, stockpiles)
        self.config = config
        self.slots = sorted(config.parties)
        self.state = {
            p: _PartyEpochState(pending=_distinct_values(stockpiles.get(p, ()), config.sigma))
            for p in self.slots
        }
        self._seed = np.random.SeedSequence(seed)
        self.epoch = config.epoch
        self.store: dict[tuple[int, int], tuple[int, bytes]] = {}

    def epoch_advance(self, additions: dict[int, object], removals: dict[int, object] | None = None):
        _known_parties(self.config, additions)
        if removals and any(removals.values()):
            raise RemovalAttempted("submitted entries cannot be removed or modified")
        dummy_pool = {
            r.v for st in self.state.values() for r in st.submitted if r.is_dummy
        }
        fresh = {}
        for p, vals in additions.items():
            real = self.state[p].real_values
            fresh[p] = [v for v in _distinct_values(vals, self.config.sigma) if v not in real]
            for v in fresh[p]:
                if v in dummy_pool:
                    raise RandomnessFailure(
                        f"new value {v} collides with a submitted dummy"
                    )
        for p, vals in fresh.items():
            pending = set(self.state[p].pending)
            self.state[p].pending.extend(v for v in vals if v not in pending)
        self.epoch += 1

    def run_epoch(self, execution: str = "mpc") -> RoundResult:
        """Run this epoch's round; the parties' records are committed
        only once it has succeeded, so a failed epoch can be retried."""
        config = replace(self.config, epoch=self.epoch)
        values = {
            p: st.submitted_values + sorted(set(st.pending) - st.real_values)
            for p, st in self.state.items()
        }

        def prepare(u, party_rngs):
            prepared = _prepare_parties(values, u, config.sigma, party_rngs)
            for p, st in self.state.items():
                kept = {r.v for r in st.submitted if r.is_dummy}
                for r in prepared[p].records:
                    r.is_dummy = r.is_dummy or r.v in kept
            return [prepared]

        seed = self._seed.spawn(1)[0]  # children are numbered in spawn order
        counts = {p: [len(vs)] for p, vs in values.items()}
        result = _execute(config, seed, counts, prepare, execution,
                          restore=self._restore_persisted)
        if result.engine is None:
            self.store.clear()  # no shares of this epoch's records exist
        else:
            self._persist(result.engine, result.compiled)
        for p, st in self.state.items():
            st.submitted = [
                InputRecord(r.v, 0, 0, r.is_dummy) for r in result.prepared[0][p].records
            ]
            st.pending = []
        return result

    def _restore_persisted(self, engine, compiled, prepared):
        """Scatter stored v-shares into this epoch's input positions.

        After an epoch that ran only the plaintext circuit nothing is
        stored, and every record is shared fresh."""
        sigma = compiled.config.sigma
        preset: dict[int, set[int]] = {}
        if not self.store:
            return preset
        for i, p in enumerate(self.slots):
            old = {r.v: j for j, r in enumerate(self.state[p].submitted)}
            stored = [
                (new_slot, old[r.v])
                for new_slot, r in enumerate(prepared[0][p].records)
                if r.v in old
            ]
            if not stored:
                continue
            v_wires = compiled.v_wires(i)
            offset = {w: j for j, w in enumerate(compiled.circuit.input_map[i])}
            preset[i] = {offset[w] for new_slot, _ in stored for w in v_wires[new_slot]}
            for cp in engine.computing_ids:
                entry = self.store.get((cp, i))
                if entry is None:
                    raise mpc.EpochMismatch(f"no stored shares for party {cp} owner {i}")
                saved_epoch, blob = entry
                old_shape = (len(self.state[p].submitted), sigma)
                rows = mpc.decode_share_blob(blob, cp, saved_epoch, i + 1, old_shape)
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
