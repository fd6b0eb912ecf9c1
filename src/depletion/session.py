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
        _check_types(self, _CONFIG_FIELDS, "the session config")
        _check_types(self.variant, _VARIANT_FIELDS, "the variant")
        if len(self.parties) < 2 or len(set(self.parties)) != len(self.parties):
            raise ConfigMismatch("need at least two distinct active parties")
        if self.sigma < 2:
            raise ConfigMismatch("sigma too small")
        if self.count_bits < 1:
            raise ConfigMismatch(f"count_bits {self.count_bits} leaves no bit for a count")
        if not 0 <= self.epoch < 1 << 32:
            raise ConfigMismatch(f"epoch {self.epoch} does not fit the frame header's 32 bits")
        if self.mode not in ("direct", "outsourced"):
            raise ConfigMismatch(f"unknown mode {self.mode!r}")
        if self.mode == "outsourced" and not 1 <= self.n_servers < len(self.parties):
            raise ConfigMismatch("outsourced mode needs 1 <= n_servers < parties")
        try:
            self.variant.validate(self.parties)
        except CP.ConfigInvalid as exc:
            raise ConfigMismatch(str(exc)) from None

    @classmethod
    def from_dict(cls, raw, where: str) -> SessionConfig:
        """The validated config that the JSON object `raw` describes:
        `parties` lists objects with an integer `id`, and every other
        field may be left out for its default. A missing, unknown or
        wrongly typed field raises `ConfigMismatch` naming it and `where`."""
        parties = tuple(
            _json_field(entry, "id", int, f"party entry {n} of {where}")
            for n, entry in enumerate(_json_field(raw, "parties", list, where))
        )
        fields = _json_fields(raw, _CONFIG_FIELDS, where)
        if "variant" in fields:
            here = f"'variant' of {where}"
            spec = _json_fields(fields["variant"], _VARIANT_FIELDS, here)
            fixed = tuple(spec.get("fixed_parties", ()))
            if not all(_is_type(p, int) for p in fixed):
                raise ConfigMismatch(f"'fixed_parties' of {here} is not a list of integers: {list(fixed)}")
            fields["variant"] = VariantSpec(**{**spec, "fixed_parties": fixed})
        config = cls(**{**fields, "parties": parties})
        config.validate()
        return config

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


# every field of a config and of its variant, by JSON type; in Python a
# list is a tuple of integers and an object a VariantSpec
_CONFIG_FIELDS = {"parties": list, "sigma": int, "variant": dict, "mode": str,
                  "n_servers": int, "epoch": int, "count_bits": int}
_VARIANT_FIELDS = {"kind": str, "m": int, "fixed_parties": list}
_PYTHON_TYPES = {list: tuple, dict: VariantSpec}
_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object",
               tuple: "a tuple of integers", VariantSpec: "a VariantSpec"}


def _is_type(value, kind: type) -> bool:
    """Whether `value` is of `kind`; true and false are not integers."""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _check_types(obj, kinds: dict, where: str) -> None:
    """Raise ConfigMismatch naming the first field of the dataclass `obj`
    that is not of the Python type of its kind in `kinds`."""
    for name, kind in kinds.items():
        value, kind = getattr(obj, name), _PYTHON_TYPES.get(kind, kind)
        if not _is_type(value, kind) or kind is tuple and not all(_is_type(x, int) for x in value):
            raise ConfigMismatch(f"{name!r} of {where} is not {_TYPE_NAMES[kind]}: {value!r}")


def _json_field(obj, name: str, kind: type, where: str):
    """obj[name], where `obj` must be a JSON object holding a value of `kind` there."""
    if not _is_type(obj, dict):
        raise ConfigMismatch(f"{where} is not an object")
    if name not in obj:
        raise ConfigMismatch(f"{where} has no {name!r}")
    if not _is_type(obj[name], kind):
        raise ConfigMismatch(f"{name!r} of {where} is not {_TYPE_NAMES[kind]}: {obj[name]!r}")
    return obj[name]


def _json_fields(obj: dict, kinds: dict, where: str) -> dict:
    """The fields of `obj`, each checked for its JSON type in `kinds`, which must name them all."""
    for name in obj:
        if name not in kinds:
            raise ConfigMismatch(f"{where} has an unknown field {name!r}")
    return {name: _json_field(obj, name, kind, where) for name, kind in kinds.items() if name in obj}


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
    """Look up one party's keys among the opened keys, any container of them."""
    statuses = {}
    for v, (k0, k1) in key_table.items():
        if k1 in opened:
            statuses[v] = "shared"
        elif k0 in opened:
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
    runs; the engine then shares only the input wires left unfilled.
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
            reactive=[mpc.ReactiveOpen(list(compiled.flag_wires), check_flags)],
            dealer_seed=dealer_seed,
            batch=len(prepared),
            epoch=config.epoch,
        )
        if restore:
            restore(engine, compiled, prepared)
        out = engine.run(inputs, lambda owner: party_rngs[owner])
        if opened is not None and not np.array_equal(out, opened):
            raise ProtocolCorruption("protocol output differs from plaintext circuit")
        opened = out

    keys_per_element = _keys_from_output(opened, 2 * cfg.total_records, config.sigma)
    reports = [
        {p: interpret_output(pp[p].key_table, keys) for p in slots}
        for pp, keys in zip(prepared, map(set, keys_per_element))
    ]
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
    if not stockpiles_batch:
        raise SessionError("a round needs at least one session")
    slots = sorted(config.parties)
    digest = config.digest()
    if config_overrides:
        for p, other in config_overrides.items():
            if other.digest() != digest:
                raise ConfigMismatch(f"party {p} disagrees on the session config")
    for sp in stockpiles_batch:
        if set(sp) != set(slots):
            raise UnknownParty(f"stockpile parties {sorted(sp)} differ from the configured {slots}")
    if inject_unsorted is not None and inject_unsorted not in slots:
        raise UnknownParty(f"party {inject_unsorted} to leave unsorted is not in the configured {slots}")
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
    # submitted value -> is it a dummy, in record slot order
    submitted: dict[int, bool] = field(default_factory=dict)
    # values added since the last epoch: distinct, none of them submitted
    pending: list[int] = field(default_factory=list)


class Session:
    """Stateful multi-epoch orchestration with share persistence.

    Submitted records are immutable: additions only. Every computing
    party persists its shares of each record's hash value after a run;
    the next epoch restores them into the engine at the records' new
    slots, so only new records and the epoch's fresh keys are shared again.
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
            v for st in self.state.values() for v, dummy in st.submitted.items() if dummy
        }
        fresh = {}
        for p, vals in additions.items():
            real = {v for v, dummy in self.state[p].submitted.items() if not dummy}
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
        config.validate()
        values = {p: [*st.submitted, *st.pending] for p, st in self.state.items()}

        def prepare(u, party_rngs):
            prepared = _prepare_parties(values, u, config.sigma, party_rngs)
            for p, st in self.state.items():
                for r in prepared[p].records:
                    r.is_dummy = r.is_dummy or st.submitted.get(r.v, False)
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
            st.submitted = {r.v: r.is_dummy for r in result.prepared[0][p].records}
            st.pending = []
        return result

    def _restore_persisted(self, engine, compiled, prepared):
        """Restore the stored v-shares of every kept record into its slot
        of this epoch, with one `restore_shares` call per computing party.

        After an epoch that ran only the plaintext circuit nothing is
        stored, and every record is shared fresh."""
        if not self.store:
            return
        sigma = compiled.config.sigma
        kept = []  # per owner with kept records, their v-wires in this epoch
        bits = {cp: [] for cp in engine.computing_ids}
        for i, p in enumerate(self.slots):
            old = {v: j for j, v in enumerate(self.state[p].submitted)}
            slots = [(new, old[r.v]) for new, r in enumerate(prepared[0][p].records) if r.v in old]
            if not slots:
                continue
            new_slots, old_slots = zip(*slots)
            kept.append(compiled.v_wires(i)[list(new_slots)].ravel())
            for cp in engine.computing_ids:
                entry = self.store.get((cp, i))
                if entry is None:
                    raise mpc.EpochMismatch(f"no stored shares for party {cp} owner {i}")
                saved_epoch, blob = entry
                rows = mpc.decode_share_blob(blob, cp, saved_epoch, i + 1, (len(old), sigma))
                bits[cp].append(rows[list(old_slots)].reshape(-1, 1))
        if kept:
            wires = np.concatenate(kept)
            for cp in engine.computing_ids:
                engine.restore_shares(cp, wires, np.concatenate(bits[cp]))

    def _persist(self, engine, compiled):
        for i in range(len(self.slots)):
            wires = compiled.v_wires(i).ravel()
            for cp in engine.computing_ids:
                blob = engine.persist_shares(cp, wires, range_id=i + 1)
                self.store[(cp, i)] = (self.epoch, blob)
