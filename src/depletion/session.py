"""Round orchestration: negotiate the input bound, prepare sorted keyed
inputs, evaluate the compiled circuit under the sharing protocol, and
interpret the opened keys.

The orchestrator simulates every party in one process. Party-local
steps (preparation, interpretation) only ever touch that party's own
state plus the public opened keys; the one deliberate exception is
desk-scale collision avoidance, where dummy values and keys are drawn
under a shared forbidden set so that sub-cryptographic hash widths
(sigma 8 or 16 in tests) cannot produce the accidental cross-party
collisions that are negligible at sigma 256.

Values and keys travel as big-endian ⌈σ/8⌉-byte rows for every session
of a round at once. Each record has one key k; the circuit opens k if
the record is exclusive and its complement ¬k if it is shared, so the
pairs {k, ¬k} of a session's records must be disjoint. Each party draws
its keys and dummies for all sessions with one `rng.bytes` call, at
every width; one sort per session finds the draws that repeat a
forbidden or an earlier row, and only those are drawn again. The rows
become input bits with one `np.unpackbits` per party, the opened bits
become rows again, and one sort plus one `searchsorted` match every
party's k and ¬k against them. A
`Session` keeps each party's submitted value rows and dummy flags
between epochs, and one `searchsorted` finds each record of a new epoch
among them. Python ints appear at the API boundary (stockpiles, reports
keyed by value, `RoundResult.opened_keys`) and where `Session.epoch_advance`
and `run_epoch` turn stored rows back into ints to merge new values in.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator
from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

from . import compiler as CP
from . import mpc, waksman
from .bits import (
    distinct_counts, ints_to_rows, random_rows, repeat_flags, row_bytes, row_items, rows_to_bits,
    rows_to_ints, tagged_items,
)
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
    """The opened output contradicts the protocol: a record's k and ¬k
    are both opened or neither is, or the two evaluations disagree."""


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
class PreparedParty:
    """One party's records in every session of a round, sorted by value
    within each session: big-endian ⌈σ/8⌉-byte rows of the values
    (sessions, u, nbytes) and of their keys (sessions, u, nbytes), and
    which records are dummies (sessions, u)."""

    values: np.ndarray
    keys: np.ndarray
    dummy: np.ndarray


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


def _taken_rows(taken, sessions: int, width: int) -> np.ndarray:
    """Rows (sessions, n, nbytes) to avoid: `taken` itself, or a set of
    ints taken in every session."""
    if isinstance(taken, np.ndarray):
        return taken
    rows = ints_to_rows(sorted(taken), width)
    return np.broadcast_to(rows, (sessions, *rows.shape))


def _draw_distinct(rng, count, width: int, taken, lowest: int) -> np.ndarray:
    """Distinct fresh values of [lowest, 2^width) that avoid `taken`,
    count[b] of them in each session b, as rows (sessions, max count,
    nbytes) that are zero past count[b]. `taken` holds rows (sessions, n,
    nbytes), or is a set of ints taken in every session.

    A space with too few allowed values raises RandomnessFailure before
    anything is drawn; the rows are then drawn uniformly and made
    distinct by `_redraw_repeats`.
    """
    count, taken = _claim(count, width, taken, lowest)
    drawn = random_rows(rng, (len(count), int(count.max(initial=0))), width)
    return _redraw_repeats(rng, count, width, taken, drawn)


def _claim(count, width: int, taken, lowest: int) -> tuple[np.ndarray, np.ndarray]:
    """The counts as an array and the rows (sessions, n, nbytes) that
    fresh width-bit values must avoid: `taken` and every value below
    `lowest`. Raises RandomnessFailure unless each session b has count[b]
    values left."""
    count = np.array(count, dtype=np.int64, ndmin=1)
    sessions, need, nbytes = len(count), int(count.max(initial=0)), row_bytes(width)
    below = np.broadcast_to(ints_to_rows(range(lowest), width), (sessions, lowest, nbytes))
    taken = np.concatenate([below, _taken_rows(taken, sessions, width)], axis=1)
    space = 1 << width
    if taken.shape[1] + need > space and (distinct_counts(taken) + count > space).any():
        raise RandomnessFailure(f"need {need} fresh {width}-bit values, space exhausted")
    return count, taken


def _redraw_repeats(rng, count: np.ndarray, width: int, taken: np.ndarray, drawn: np.ndarray) -> np.ndarray:
    """`drawn`, uniform width-bit rows (sessions, max count, nbytes), made
    distinct in place: every draw that repeats a taken or an earlier row
    of its session is drawn again until none does, and the rows past
    count[b] are zeroed. Whether a draw is drawn again depends only on
    which rows are equal and where they stand, so a session's rows are
    uniform over the tuples of distinct allowed values. `count` and
    `taken` come from `_claim`."""
    live = np.arange(drawn.shape[1]) < count[:, None]
    # a dead slot sits after every live one of its session, so it never
    # makes a live draw a repeat
    while True:
        flags = repeat_flags(taken, drawn) & live
        again = np.count_nonzero(flags)
        if not again:
            break
        drawn[flags] = random_rows(rng, (again,), width)
    drawn[~live] = 0
    return drawn


def _complement(sigma: int) -> np.ndarray:
    """The row of 2^sigma - 1: XORed into a sigma-bit row, it gives ¬k."""
    return ints_to_rows([(1 << sigma) - 1], sigma)[0]


def _flip_bits(keys: np.ndarray, sigma: int) -> np.ndarray:
    """The top bit of each sigma-bit key row, shape (..., 1)."""
    return keys[..., :1] >> (7 - (8 * keys.shape[-1] - sigma)) & 1


def _canonical(keys: np.ndarray, sigma: int) -> np.ndarray:
    """min(k, ¬k) of each sigma-bit key row, as a (sigma-1)-bit row: k
    without its top bit if that bit is 0, ¬k without it if it is 1."""
    flipped = keys ^ _flip_bits(keys, sigma) * _complement(sigma)
    return flipped[..., keys.shape[-1] - row_bytes(sigma - 1) :]


def _draw_keys(rng, raw: np.ndarray, sigma: int, taken: np.ndarray) -> np.ndarray:
    """One sigma-bit key per record from the uniform rows `raw`: a row's
    top bit is its flip bit, and its canonical c = min(row, ¬row) is made
    distinct from the other records' and from the canonical rows `taken`
    (drawn again where it repeats one); the key is c, or ¬c if the flip
    bit is 1, which is the row itself unless c was drawn again. So each
    key is uniform over all sigma bits, and min(k, ¬k) = c makes the
    pairs {k, ¬k} disjoint."""
    canon = _redraw_repeats(rng, np.full(len(raw), raw.shape[1]), sigma - 1, taken, _canonical(raw, sigma))
    keys = np.zeros_like(raw)
    keys[..., raw.shape[-1] - canon.shape[-1] :] = canon
    return keys ^ _flip_bits(raw, sigma) * _complement(sigma)


def _distinct_values(values, sigma: int) -> list[int]:
    """Sorted distinct values; each must be an integer (a Python or numpy
    int, not a float or a string) in the nonzero sigma-bit space."""
    try:
        real = sorted(set(map(operator.index, values)))
    except TypeError:
        bad = next((v for v in values if not hasattr(v, "__index__")), values)
        raise SessionError(f"value {bad!r} is not an integer") from None
    if real and not 0 < real[0] <= real[-1] < 1 << sigma:
        bad = real[0] if real[0] <= 0 else real[-1]
        raise SessionError(f"value {bad} outside the nonzero {sigma}-bit space")
    return real


def _padded_rows(real: list[list[int]], u: int, sigma: int) -> np.ndarray:
    """Each session's values as rows (sessions, u, nbytes), zero past its count."""
    counts = np.array([len(vs) for vs in real])
    rows = np.zeros((len(real), u, row_bytes(sigma)), np.uint8)
    rows[np.arange(u) < counts[:, None]] = ints_to_rows([v for vs in real for v in vs], sigma)
    return rows


def prepare_inputs(
    values,
    u: int,
    sigma: int,
    rng,
    forbidden_values=frozenset(),
    forbidden_keys=frozenset(),
) -> PreparedParty:
    """One party's sorted, dummy-padded records with fresh keys, in every
    session of a round.

    `values` is a collection of ints, one session's values, or uint8 rows
    (sessions, u, ⌈σ/8⌉) that hold each session's distinct values in
    ascending order, then zero rows; an array of any other shape or dtype
    raises SessionError. Dummies are nonzero and avoid the party's values and
    `forbidden_values`. Each key k is uniform over σ bits, and the pairs
    {k, ¬k} of the party's keys are disjoint from each other and from
    those of `forbidden_keys`, so at most 2^(σ-1) keys fit in a session.
    Both are rows (sessions, n, ⌈σ/8⌉), or sets of ints forbidden in
    every session. Both spaces are checked before the generator is
    touched, and at every σ the keys and dummies of all sessions come
    from one `rng.bytes` call, redraws aside. Sorting each session's
    records interleaves the dummies instead of revealing the real count
    through trailing positions.
    """
    if sigma < 2:
        raise SessionError(f"sigma {sigma} leaves no canonical key bit")
    if isinstance(values, np.ndarray) and values.ndim != 1:
        if values.ndim != 3 or values.shape[1:] != (u, row_bytes(sigma)):
            raise SessionError(f"values of shape {values.shape} are neither ints nor rows (sessions, {u}, "
                               f"{row_bytes(sigma)})")
        if values.dtype != np.uint8:
            raise SessionError(f"rows of values are uint8, not {values.dtype}")
        rows = values.copy()
        # as equal-width byte strings, rows compare as the big-endian values
        # they hold: each nonzero row is above the row before it, which is
        # nonzero too, and the pad bits of every row are zero
        items = row_items(rows).view(f"S{rows.shape[2]}")
        held = rows.any(axis=2)
        if ((held[:, 1:] & ~(held[:, :-1] & (items[:, 1:] > items[:, :-1]))).any()
                or (rows[..., 0] > 0xFF >> (8 * rows.shape[2] - sigma)).any()):
            raise SessionError(f"rows of values must hold distinct ascending nonzero values below 2^{sigma}, "
                               "then zero rows")
    else:
        real = _distinct_values(values, sigma)
        if len(real) > u:
            raise TooManyEntries(f"{len(real)} distinct values exceed bound u={u}")
        rows = _padded_rows([real], u, sigma)
    sessions = len(rows)
    held = rows.any(axis=2)
    needed = u - held.sum(axis=1)
    spare = int(needed.max())  # the most dummies any session needs
    canonical = _canonical(_taken_rows(forbidden_keys, sessions, sigma), sigma)
    _, taken_keys = _claim([u] * sessions, sigma - 1, canonical, lowest=0)
    if spare:
        taken = np.concatenate([rows, _taken_rows(forbidden_values, sessions, sigma)], axis=1)
        needed, taken = _claim(needed, sigma, taken, lowest=1)
    raw = random_rows(rng, (sessions, u + spare), sigma)
    keys = _draw_keys(rng, raw[:, :u], sigma, taken_keys)
    if not spare:
        return PreparedParty(rows, keys, ~held)
    dummies = _redraw_repeats(rng, needed, sigma, taken, raw[:, u:])
    rows[~held] = dummies[np.arange(spare) < needed[:, None]]
    order = np.argsort(row_items(rows), axis=1)
    rows = np.take_along_axis(rows, order[..., None], axis=1)
    return PreparedParty(rows, keys, np.take_along_axis(~held, order, axis=1))


def _prepare_parties(values: list[dict[int, list[int]]], u: int, sigma: int, rngs) -> dict[int, PreparedParty]:
    """Prepare every session's parties in slot order, each party from its
    own generator. `values` holds each session's sorted distinct values
    per party. Dummies avoid every party's values and earlier parties'
    dummies in their session; each key's pair {k, ¬k} avoids those of
    earlier parties' keys."""
    slots = sorted(values[0])
    real = {p: _padded_rows([vb[p] for vb in values], u, sigma) for p in slots}
    taken_values = np.concatenate(list(real.values()), axis=1)
    taken_keys = np.zeros((len(values), 0, row_bytes(sigma)), np.uint8)
    prepared = {}
    for i, p in enumerate(slots):
        pp = prepare_inputs(real[p], u, sigma, rngs[i],
                            forbidden_values=taken_values, forbidden_keys=taken_keys)
        taken_values = np.concatenate([taken_values, pp.values], axis=1)
        taken_keys = np.concatenate([taken_keys, pp.keys], axis=1)
        prepared[p] = pp
    return prepared


_STATUS = ("exclusive", "shared")


def interpret_output(prepared: dict[int, PreparedParty], opened: np.ndarray,
                     sigma: int) -> list[dict[int, IntersectionReport]]:
    """Every party's report in every session, from the opened sigma-bit
    key rows (sessions, n_keys, nbytes): a real record is exclusive if its
    key k is among its session's opened keys and shared if its complement
    ¬k is. A record, dummy or real, with both or neither opened raises
    ProtocolCorruption.

    One sort of the opened keys and one `searchsorted` of every party's
    k and ¬k match all sessions at once."""
    slots = list(prepared)
    ref = np.sort(tagged_items(opened).ravel())
    keys = np.stack([prepared[p].keys for p in slots], axis=1)  # (sessions, N, u, nbytes)
    query = tagged_items(np.stack([keys, keys ^ _complement(sigma)], axis=3))  # (sessions, N, u, 2)
    at = np.minimum(np.searchsorted(ref, query.ravel()), len(ref) - 1)
    found = (ref[at] == query.ravel()).reshape(query.shape)
    shared = found[..., 1]
    bad = found[..., 0] == shared
    if bad.any():
        b, i, j = np.argwhere(bad)[0]
        (v,) = rows_to_ints(prepared[slots[i]].values[b, j : j + 1])
        which = "both k and ¬k" if shared[b, i, j] else "no key"
        raise ProtocolCorruption(f"{which} for value {v} of party {slots[i]} in session {b} in the opened output")
    dummy = np.stack([prepared[p].dummy for p in slots], axis=1)
    values = rows_to_ints(np.stack([prepared[p].values for p in slots], axis=1))
    real, flags = (~dummy).tolist(), shared.tolist()
    return [
        {
            p: IntersectionReport(dict(compress(zip(vs, map(_STATUS.__getitem__, fs)), keep)))
            for p, vs, fs, keep in zip(slots, values[b], flags[b], real[b])
        }
        for b in range(len(values))
    ]


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
    prepared: dict[int, PreparedParty], cfg: CP.CircuitConfig, control_seed
) -> dict[int, np.ndarray]:
    """Every owner's input bits for a batch, (bits, batch) each: the
    record bits of each party, one `np.unpackbits` per party, then each
    control party's shuffle bits.

    Shuffle permutations, each of the N*u selected keys, are drawn
    control party by control party, session by session, and all of them
    are routed by one call.
    """
    inputs = {}
    for i, pp in enumerate(prepared.values()):
        fields = {"v": pp.values, "k": pp.keys}
        rows = np.stack([fields[f] for f in CP.RECORD_FIELDS], axis=2)  # (batch, u, fields, nbytes)
        inputs[i] = rows_to_bits(rows, cfg.sigma).reshape(len(rows), -1).T
    batch = inputs[0].shape[1]
    rng = np.random.default_rng(control_seed)
    n_slots = cfg.total_records
    # row by row, the same draws as one rng.permutation(n_slots) per row
    perms = np.tile(np.arange(n_slots), (len(cfg.control_parties) * batch, 1))
    rng.permuted(perms, axis=1, out=perms)
    bits = waksman.route_permutation(perms)
    for j, owner in enumerate(cfg.control_parties):
        ctl = bits[j * batch : (j + 1) * batch].T
        inputs[owner] = np.concatenate([inputs[owner], ctl]) if owner in inputs else ctl
    return inputs


def _keys_from_output(out_bits: np.ndarray, n_keys: int, sigma: int) -> np.ndarray:
    """Opened output bits [n_keys*sigma, B] to big-endian rows (B, n_keys, ⌈sigma/8⌉)."""
    batch = out_bits.shape[1]
    bits = out_bits.reshape(n_keys, sigma, batch).transpose(2, 0, 1)
    pad = (-sigma) % 8
    if pad:
        bits = np.concatenate([np.zeros((batch, n_keys, pad), dtype=np.uint8), bits], axis=2)
    return np.packbits(bits, axis=2)


# -- round execution --------------------------------------------------------------


@dataclass
class RoundResult:
    """One round's outcome. Per session: `reports[b]` maps each party to
    its report, `opened_keys[b]` lists the opened keys as ints, and
    `opened_rows[b]` holds them as rows (n_keys, nbytes). `prepared` maps
    each party to its records in every session."""

    u: int
    reports: list[dict[int, IntersectionReport]]
    opened_keys: list[list[int]]
    opened_rows: np.ndarray
    prepared: dict[int, PreparedParty]
    transcript: mpc.Transcript | None
    config_digest: str
    engine: mpc.Engine | None = None
    compiled: CP.Compiled | None = None


def _seed_seq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _checked_maxima(config: SessionConfig, counts: dict[int, list[int]]) -> list[int]:
    """The plain maximum of `counts` in each session, after the checks
    every execution makes: UnknownParty unless `counts` names exactly the
    configured parties, and SessionError for no sessions, unequal
    session numbers, or a count that is not an integer in
    [0, 2^count_bits)."""
    slots = sorted(config.parties)
    if set(counts) != set(slots):
        raise UnknownParty(f"counts of parties {sorted(counts)} differ from the configured {slots}")
    batch = len(counts[slots[0]])
    if not batch:
        raise SessionError("a round needs at least one session")
    for p in slots:
        if len(counts[p]) != batch:
            raise SessionError(f"party {p} has counts for {len(counts[p])} sessions, party {slots[0]} for {batch}")
        for c in counts[p]:
            try:
                c = operator.index(c)
            except TypeError:
                raise SessionError(f"count {c!r} of party {p} is not an integer") from None
            if not 0 <= c < 1 << config.count_bits:
                raise SessionError(f"count {c} of party {p} does not fit {config.count_bits} bits")
    return [max(per_session) for per_session in zip(*counts.values())]


def negotiate_u(config: SessionConfig, counts: dict[int, list[int]], seed) -> list[int]:
    """Batched secure maximum over the parties' private counts: `counts`
    maps every configured party to its count in each session. Refuses
    what `_checked_maxima` refuses, before any engine is built."""
    expected = _checked_maxima(config, counts)
    slots = sorted(config.parties)
    circ = CP.build_max_circuit(len(slots), config.count_bits)
    dealer_seed, *party_seeds = _seed_seq(seed).spawn(1 + len(slots))
    rngs = {i: np.random.default_rng(s) for i, s in enumerate(party_seeds)}
    engine = mpc.Engine(circ, _computing_ids(config), dealer_seed=dealer_seed,
                        batch=len(expected), epoch=config.epoch)
    inputs = {}
    for i, p in enumerate(slots):
        inputs[i] = rows_to_bits(ints_to_rows(counts[p], config.count_bits), config.count_bits).T
    out = engine.run(inputs, lambda owner: rngs[owner])
    maxima = [m for (m,) in rows_to_ints(_keys_from_output(out, 1, config.count_bits))]
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
    every party's prepared records, for all sessions. `execution` is "mpc",
    "plaintext", or "both" (evaluates both paths and insists on
    bit-identical opened keys). `restore(engine, compiled)`, if given,
    loads stored shares into the round's engine before it runs; the
    engine then shares only the input wires left unfilled.
    """
    if execution not in ("mpc", "plaintext", "both"):
        raise SessionError(f"unknown execution {execution!r}")
    slots = sorted(config.parties)
    n_owners = len(slots) + (config.n_servers if config.mode == "outsourced" else 0)
    neg_seed, dealer_seed, control_seed, *owner_seeds = _seed_seq(seed).spawn(3 + n_owners)
    party_rngs = {i: np.random.default_rng(s) for i, s in enumerate(owner_seeds)}

    if execution == "plaintext":
        maxima = _checked_maxima(config, counts)
    else:
        maxima = negotiate_u(config, counts, neg_seed)
    u = max(1, max(maxima))
    prepared = prepare(u, party_rngs)

    cfg = _compiler_config(config, u)
    compiled = CP.compile_circuit(cfg)
    inputs = _round_inputs(prepared, cfg, control_seed)

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
            batch=len(maxima),
            epoch=config.epoch,
        )
        if restore:
            restore(engine, compiled)
        out = engine.run(inputs, lambda owner: party_rngs[owner])
        if opened is not None and not np.array_equal(out, opened):
            raise ProtocolCorruption("protocol output differs from plaintext circuit")
        opened = out

    opened_rows = _keys_from_output(opened, cfg.output_keys, config.sigma)
    return RoundResult(
        u=u,
        reports=interpret_output(prepared, opened_rows, config.sigma),
        opened_keys=rows_to_ints(opened_rows),
        opened_rows=opened_rows,
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
    if inject_unsorted is not None and inject_unsorted not in slots:
        raise UnknownParty(f"party {inject_unsorted} to leave unsorted is not in the configured {slots}")
    values = [{p: _distinct_values(sp[p], config.sigma) for p in slots} for sp in stockpiles_batch]

    def prepare(u, party_rngs):
        prepared = _prepare_parties(values, u, config.sigma, party_rngs)
        if inject_unsorted is not None:
            if u < 2:
                raise SessionError("unsorted injection needs at least two records")
            pp = prepared[inject_unsorted]
            for rows in (pp.values, pp.keys, pp.dummy):
                rows[:, [0, 1]] = rows[:, [1, 0]]
        return prepared

    counts = {p: [len(v[p]) for v in values] for p in slots}
    return _execute(config, seed, counts, prepare, execution)


# -- multi-epoch session ----------------------------------------------------------


@dataclass
class _PartyEpochState:
    """One party's records as of its last successful epoch, as ascending
    value rows (n, nbytes) and their dummy flags (n,), and the values
    added since: distinct, and none of them submitted."""

    values: np.ndarray
    dummy: np.ndarray
    pending: list[int]

    def slots_of(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each of `rows` (m, nbytes), its slot among the submitted
        rows and whether it is one of them."""
        old, new = row_items(self.values), row_items(rows)
        slot = np.searchsorted(old, new)
        kept = slot < len(old)
        kept[kept] = old[slot[kept]] == new[kept]
        return slot, kept


class Session:
    """Stateful multi-epoch orchestration with share persistence.

    Submitted records are immutable: additions only. Every computing
    party persists its shares of each record's hash value after a run,
    as a blob of the engine's packed rows; the next epoch restores every
    party's into the engine at once, at the records' new slots, so only
    new records and the epoch's fresh keys are shared again.
    """

    def __init__(self, config: SessionConfig, stockpiles: dict[int, object], seed):
        config.validate()
        _known_parties(config, stockpiles)
        self.config = config
        self.slots = sorted(config.parties)
        no_rows = np.zeros((0, row_bytes(config.sigma)), np.uint8)
        self.state = {
            p: _PartyEpochState(no_rows, np.zeros(0, bool), _distinct_values(stockpiles.get(p, ()), config.sigma))
            for p in self.slots
        }
        self._seed = _seed_seq(seed)
        self.epoch = config.epoch
        self.store: dict[tuple[int, int], tuple[int, bytes]] = {}

    def epoch_advance(self, additions: dict[int, object], removals: dict[int, object] | None = None):
        _known_parties(self.config, additions)
        if removals and any(removals.values()):
            raise RemovalAttempted("submitted entries cannot be removed or modified")
        dummy_pool = set(rows_to_ints(np.concatenate([st.values[st.dummy] for st in self.state.values()])))
        fresh = {}
        for p, vals in additions.items():
            st = self.state[p]
            real = set(rows_to_ints(st.values[~st.dummy]))
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
        values = {p: sorted([*rows_to_ints(st.values), *st.pending]) for p, st in self.state.items()}
        slots = {}  # per party, (slot, kept) of each prepared row among the submitted ones

        def prepare(u, party_rngs):
            prepared = _prepare_parties([values], u, config.sigma, party_rngs)
            for p, st in self.state.items():
                slot, kept = slots[p] = st.slots_of(prepared[p].values[0])
                prepared[p].dummy[0, kept] = st.dummy[slot[kept]]
            return prepared

        seed = self._seed.spawn(1)[0]  # children are numbered in spawn order
        counts = {p: [len(vs)] for p, vs in values.items()}
        result = _execute(config, seed, counts, prepare, execution,
                          restore=functools.partial(self._restore_persisted, slots))
        if result.engine is None:
            self.store.clear()  # no shares of this epoch's records exist
        else:
            self._persist(result.engine, result.compiled)
        self.state = {p: _PartyEpochState(pp.values[0], pp.dummy[0], []) for p, pp in result.prepared.items()}
        return result

    def _restore_persisted(self, slots, engine, compiled):
        """Restore every computing party's stored v-shares of every kept
        record into its slot of this epoch, packed rows as the blobs hold
        them, with one `restore_shares` call; `slots` holds each party's
        (slot, kept) from `slots_of`.

        After an epoch that ran only the plaintext circuit nothing is
        stored, and every record is shared fresh."""
        if not self.store:
            return
        sigma, batch = compiled.config.sigma, engine.batch
        wires = []  # per owner with kept records, their v-wires in this epoch
        rows = {cp: [] for cp in engine.computing_ids}
        for i, p in enumerate(self.slots):
            submitted, (slot, kept) = len(self.state[p].values), slots[p]
            if not kept.any():
                continue
            wires.append(compiled.v_wires(i)[kept].ravel())
            for cp in engine.computing_ids:
                entry = self.store.get((cp, i))
                if entry is None:
                    raise mpc.EpochMismatch(f"no stored shares for party {cp} owner {i}")
                saved_epoch, blob = entry
                packed = mpc.decode_share_blob(blob, cp, saved_epoch, i + 1, submitted * sigma, batch)
                rows[cp].append(packed.reshape(submitted, sigma, -1)[slot[kept]].reshape(-1, packed.shape[1]))
        if wires:
            engine.restore_shares(np.concatenate(wires), np.stack([np.concatenate(r) for r in rows.values()]))

    def _persist(self, engine, compiled):
        for i in range(len(self.slots)):
            wires = compiled.v_wires(i).ravel()
            for cp in engine.computing_ids:
                blob = engine.persist_shares(cp, wires, range_id=i + 1)
                self.store[(cp, i)] = (self.epoch, blob)
