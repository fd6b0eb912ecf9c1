"""Append-only hash-ledger prototype (the insecure baseline).

An in-process simulator of the ledger design this toolkit exists to
replace: writers append SHA3-512 hashed identifiers, readers run the
intersection check over the full history, and everything is public to
every participant. `brute_force_attack` demonstrates why that is fatal
for small identifier spaces: a local enumeration recovers every
submitted plaintext and the public metadata leaks per-writer volumes
and submission order.
"""

from __future__ import annotations

import json
import re
import struct
import threading
import time
from dataclasses import dataclass
from hashlib import sha3_512

from .vulnid import VulnIdentifier, ledger_digest_hex

LEDGER_FILE_VERSION = 1
_HASH_RE = re.compile(r"^[0-9a-f]{128}$")


class LedgerError(Exception):
    pass


class UnauthorizedWriter(LedgerError):
    pass


class UnauthorizedReader(LedgerError):
    pass


@dataclass(frozen=True)
class Block:
    index: int
    prev_digest: str
    payload: dict
    submitter: str
    digest: str


def _block_digest(index: int, prev_digest: str, payload: dict, submitter: str) -> str:
    body = json.dumps(
        [index, prev_digest, payload, submitter],
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    return sha3_512(body).hexdigest()


def _make_block(index: int, prev_digest: str, payload: dict, submitter: str) -> Block:
    return Block(
        index, prev_digest, payload, submitter,
        _block_digest(index, prev_digest, payload, submitter),
    )


class Ledger:
    """Replicated-in-spirit chain; single-writer lock, concurrent reads."""

    def __init__(self):
        self._lock = threading.Lock()
        self.writers: set[str] = set()
        self.readers: set[str] = set()
        self.blocks: list[Block] = [
            _make_block(0, "0" * 128, {"type": "genesis"}, "genesis")
        ]

    def register_writer(self, writer: str) -> None:
        self.writers.add(writer)

    def register_reader(self, reader: str) -> None:
        self.readers.add(reader)

    def _append(self, payload: dict, submitter: str) -> Block:
        with self._lock:
            block = _make_block(
                len(self.blocks), self.blocks[-1].digest, payload, submitter
            )
            self.blocks.append(block)
            return block

    def submit(self, writer: str, hash_hex: str) -> Block:
        """Append one hashed identifier; plaintext never enters the chain."""
        if writer not in self.writers:
            raise UnauthorizedWriter(f"{writer!r} is not a registered writer")
        if not _HASH_RE.match(hash_hex):
            raise LedgerError("submission must be 128 lowercase hex chars")
        return self._append({"type": "submission", "hash": hash_hex}, writer)

    def submissions(self) -> list[Block]:
        return [b for b in self.blocks if b.payload.get("type") == "submission"]

    def check_intersections(self, reader: str):
        """Hashes submitted by at least two distinct writers, with block
        references; the check itself is logged as an event block."""
        if reader not in self.readers:
            raise UnauthorizedReader(f"{reader!r} is not a registered reader")
        by_hash: dict[str, list[Block]] = {}
        for b in self.submissions():
            by_hash.setdefault(b.payload["hash"], []).append(b)
        matches = {
            h: [b.index for b in blocks]
            for h, blocks in by_hash.items()
            if len({b.submitter for b in blocks}) >= 2
        }
        event = self._append(
            {"type": "intersection-check", "matches": matches}, reader
        )
        return matches, event

    def verify_chain(self):
        """None when intact, else the index of the first broken block."""
        prev = "0" * 128
        for i, b in enumerate(self.blocks):
            expect = _block_digest(b.index, b.prev_digest, b.payload, b.submitter)
            if b.index != i or b.prev_digest != prev or b.digest != expect:
                return i
            prev = b.digest
        return None

    # -- file format -------------------------------------------------------------

    def save_bytes(self) -> bytes:
        head = struct.pack("<BI", LEDGER_FILE_VERSION, len(self.blocks))
        meta = json.dumps(
            {"writers": sorted(self.writers), "readers": sorted(self.readers)},
            sort_keys=True,
        ).encode()
        out = [head, struct.pack("<I", len(meta)), meta]
        for b in self.blocks:
            rec = json.dumps(
                [b.index, b.prev_digest, b.payload, b.submitter, b.digest],
                sort_keys=True, separators=(",", ":"),
            ).encode()
            out.append(struct.pack("<I", len(rec)))
            out.append(rec)
        return b"".join(out)

    @classmethod
    def load_bytes(cls, data: bytes) -> "Ledger":
        """The ledger that `save_bytes` wrote; `LedgerError` for any file
        that is not one, down to a field of the wrong type."""
        if len(data) < 5:
            raise LedgerError("truncated ledger file")
        version, count = struct.unpack("<BI", data[:5])
        if version != LEDGER_FILE_VERSION:
            raise LedgerError(f"unsupported ledger file version {version}")
        pos = 5

        def record(what):
            nonlocal pos
            if pos + 4 > len(data):
                raise LedgerError("truncated ledger record")
            (n,) = struct.unpack("<I", data[pos : pos + 4])
            pos += 4
            if pos + n > len(data):
                raise LedgerError("truncated ledger record")
            pos += n
            try:
                return json.loads(data[pos - n : pos])
            except ValueError as exc:  # not UTF-8, or not JSON
                raise LedgerError(f"{what} is not JSON: {exc}") from None

        meta = record("the ledger metadata")
        lists = [meta.get(k) if isinstance(meta, dict) else None for k in ("writers", "readers")]
        if not all(isinstance(names, list) and all(type(n) is str for n in names) for names in lists):
            raise LedgerError("the ledger metadata is not an object of 'writers' and 'readers' string lists")
        ledger = cls()
        ledger.writers, ledger.readers = map(set, lists)
        ledger.blocks = []
        for i in range(count):
            rec = record(f"ledger record {i}")
            # json gives exact types, so comparing them also refuses a bool index
            if not (isinstance(rec, list) and [type(v) for v in rec] == [int, str, dict, str, str]
                    and (rec[2].get("type") != "submission" or type(rec[2].get("hash")) is str)):
                raise LedgerError(f"ledger record {i} is not [index, previous digest, payload, submitter, digest]")
            ledger.blocks.append(Block(*rec))
        if pos != len(data):
            raise LedgerError(f"{len(data) - pos} trailing bytes after the last ledger record")
        return ledger


# -- attack demonstration ------------------------------------------------------------


def enumerate_toy_space(space_bits: int):
    """Deterministic toy identifier space of 2^space_bits entries."""
    cwe_bits = min(4, space_bits)
    cpe_bits = min(6, max(0, space_bits - cwe_bits))
    fn_bits = space_bits - cwe_bits - cpe_bits
    for i in range(1 << space_bits):
        cwe = (i & ((1 << cwe_bits) - 1)) + 1
        cpe_idx = (i >> cwe_bits) & ((1 << cpe_bits) - 1)
        fn_idx = i >> (cwe_bits + cpe_bits)
        yield VulnIdentifier(
            cpe=f"cpe:2.3:a:vendor{cpe_idx}:product{cpe_idx}:1.0:*:*:*:*:*:*:*",
            cwe=cwe,
            function=f"handler_{fn_idx}" if fn_bits else "handler_0",
        )


@dataclass
class AttackReport:
    recovered: dict[str, VulnIdentifier]
    total_submissions: int
    recovered_submissions: int
    per_writer_counts: dict[str, int]
    submission_order: dict[str, list[int]]
    enumerated: int
    seconds: float

    @property
    def recovery_rate(self) -> float:
        if self.total_submissions == 0:
            return 1.0
        return self.recovered_submissions / self.total_submissions

    def to_text(self) -> str:
        lines = [
            f"enumerated identifiers: {self.enumerated}",
            f"submissions: {self.total_submissions}",
            f"recovered: {self.recovered_submissions} "
            f"({100 * self.recovery_rate:.1f}%)",
            f"elapsed seconds: {self.seconds:.2f}",
            "per-writer submission counts (public metadata):",
        ]
        for writer in sorted(self.per_writer_counts):
            order = self.submission_order[writer]
            lines.append(
                f"  {writer}: {self.per_writer_counts[writer]} submissions "
                f"at block indices {order}"
            )
        lines.append("recovered plaintext identifiers:")
        for h in sorted(self.recovered):
            ident = self.recovered[h]
            lines.append(
                f"  {h[:16]}... -> cpe={ident.cpe} cwe={ident.cwe} "
                f"function={ident.function}"
            )
        return "\n".join(lines) + "\n"


def brute_force_attack(ledger: Ledger, identifier_space) -> AttackReport:
    """Local dictionary attack over a copy of the ledger.

    Recovers every submission whose preimage lies in the enumerated
    space and tabulates the per-writer metadata that any ledger holder
    sees for free.
    """
    start = time.perf_counter()
    submissions = ledger.submissions()
    targets: dict[str, list[Block]] = {}
    for b in submissions:
        targets.setdefault(b.payload["hash"], []).append(b)
    recovered: dict[str, VulnIdentifier] = {}
    enumerated = 0
    for ident in identifier_space:
        enumerated += 1
        h = ledger_digest_hex(ident)
        if h in targets and h not in recovered:
            recovered[h] = ident
    per_writer: dict[str, int] = {}
    order: dict[str, list[int]] = {}
    for b in submissions:
        per_writer[b.submitter] = per_writer.get(b.submitter, 0) + 1
        order.setdefault(b.submitter, []).append(b.index)
    recovered_count = sum(
        len(blocks) for h, blocks in targets.items() if h in recovered
    )
    return AttackReport(
        recovered=recovered,
        total_submissions=len(submissions),
        recovered_submissions=recovered_count,
        per_writer_counts=per_writer,
        submission_order=order,
        enumerated=enumerated,
        seconds=time.perf_counter() - start,
    )
