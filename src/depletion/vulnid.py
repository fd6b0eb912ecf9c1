"""Deterministic machine-readable vulnerability identifiers.

An identifier is the triple (CPE 2.3 platform, CWE class, vulnerable
function name), one platform per identifier. Canonicalization fixes a
single byte representation -- sorted-key compact JSON, lowercase CPE,
NFC-lowercased function name -- so independent parties derive identical
bytes, and therefore identical hashes, for the same vulnerability.

Hashes are SHA3-512 truncated to sigma bits; the all-zero value, which
rounds also refuse, is reserved and rejected outright.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass
from hashlib import sha3_512

ALLOWED_SIGMAS = (16, 32, 64, 128, 256)

_CPE_SPLIT = re.compile(r"(?<!\\):")
_HEX_DIGITS = re.compile(r"[0-9a-f]+")
_CPE_PARTS = {"a", "h", "o", "*", "-"}


class VulnIdError(Exception):
    """Base class for identifier validation and hashing failures."""


class InvalidCpe(VulnIdError):
    pass


class InvalidCwe(VulnIdError):
    pass


class EmptyFunction(VulnIdError):
    pass


class SentinelCollision(VulnIdError):
    """Truncated digest hit the reserved all-zero value; the
    identifier is rejected (never silently perturbed) and logged."""


@dataclass(frozen=True)
class VulnIdentifier:
    cpe: str
    cwe: int
    function: str


def hex_width(sigma: int) -> int:
    """Hex digits that spell a sigma-bit hash: ⌈sigma/4⌉."""
    return -(-sigma // 4)


@dataclass(frozen=True)
class HashedId:
    v: int
    sigma: int

    def __post_init__(self):
        if self.v == 0:
            raise SentinelCollision("the all-zero hash is reserved")
        if not 0 < self.v < (1 << self.sigma):
            raise VulnIdError(f"hash does not fit in {self.sigma} bits")

    @property
    def hex(self) -> str:
        return format(self.v, f"0{hex_width(self.sigma)}x")


def _canonical_cpe(cpe: str) -> str:
    if not isinstance(cpe, str):
        raise InvalidCpe("CPE must be a string")
    lowered = cpe.lower()
    parts = _CPE_SPLIT.split(lowered)
    if len(parts) != 13 or parts[0] != "cpe" or parts[1] != "2.3":
        raise InvalidCpe(
            f"expected 'cpe:2.3' plus 11 components, got {len(parts) - 2}"
            f" in {cpe!r}"
        )
    if parts[2] not in _CPE_PARTS:
        raise InvalidCpe(f"part field {parts[2]!r} not one of a/h/o/*/-")
    if any(p == "" for p in parts):
        raise InvalidCpe(f"empty component in {cpe!r}")
    return lowered


def _canonical_function(name: str) -> str:
    if not isinstance(name, str):
        raise EmptyFunction("function name must be a string")
    folded = unicodedata.normalize("NFC", name).lower()
    folded = unicodedata.normalize("NFC", folded)
    if not folded.strip():
        raise EmptyFunction("function name empty after normalization")
    return folded


def canonical_fields(ident: VulnIdentifier) -> dict:
    if not isinstance(ident.cwe, int) or isinstance(ident.cwe, bool) or ident.cwe <= 0:
        raise InvalidCwe(f"CWE id must be a positive integer, got {ident.cwe!r}")
    return {
        "cpe": _canonical_cpe(ident.cpe),
        "cwe": ident.cwe,
        "function": _canonical_function(ident.function),
    }


def canonicalize(ident: VulnIdentifier) -> bytes:
    """Canonical UTF-8 bytes: sorted keys, no insignificant whitespace."""
    return json.dumps(
        canonical_fields(ident), sort_keys=True, separators=(",", ":"),
        ensure_ascii=False,
    ).encode("utf-8")


def parse_identifier(data) -> VulnIdentifier:
    """Identifier from a JSON object (text, bytes, or mapping)."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise VulnIdError(f"not a JSON object: {exc}") from exc
    if not isinstance(data, dict):
        raise VulnIdError("identifier must be a JSON object")
    keys = {k.lower() for k in data}
    if keys != {"cpe", "cwe", "function"}:
        raise VulnIdError(f"expected keys cpe/cwe/function, got {sorted(keys)}")
    lowered = {k.lower(): v for k, v in data.items()}
    return VulnIdentifier(lowered["cpe"], lowered["cwe"], lowered["function"])


def hash_identifier(ident: VulnIdentifier, sigma: int = 256) -> HashedId:
    """First sigma bits of SHA3-512 over the canonical bytes."""
    if sigma not in ALLOWED_SIGMAS:
        raise VulnIdError(f"sigma must be one of {ALLOWED_SIGMAS}")
    digest = sha3_512(canonicalize(ident)).digest()
    v = int.from_bytes(digest[: sigma // 8], "big")
    if v == 0:
        raise SentinelCollision(
            f"identifier hashes to the reserved all-zero {sigma}-bit value; rejected"
        )
    return HashedId(v, sigma)


def ledger_digest_hex(ident: VulnIdentifier) -> str:
    """Full (untruncated) SHA3-512 hex as stored on the ledger."""
    return sha3_512(canonicalize(ident)).hexdigest()


# -- files -----------------------------------------------------------------------


def read_identifier_lines(lines) -> list[VulnIdentifier]:
    """Parse identifier-per-line JSON; errors carry 1-based line numbers."""
    out = []
    for no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            out.append(parse_identifier(text))
        except VulnIdError as exc:
            raise VulnIdError(f"line {no}: {exc}") from exc
    return out


def write_hash_lines(hashes) -> str:
    return "".join(h.hex + "\n" for h in hashes)


def read_hash_lines(lines, sigma: int) -> list[int]:
    """The sigma-bit hashes of a hash file, one per nonblank line, each
    exactly hex_width(sigma) lowercase hex digits that hold a value below
    2^sigma; any other line raises VulnIdError naming its 1-based number."""
    out = []
    width = hex_width(sigma)
    for no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        if len(text) != width or not _HEX_DIGITS.fullmatch(text):
            raise VulnIdError(f"line {no}: expected {width} lowercase hex digits, got {text!r}")
        value = int(text, 16)
        if value >> sigma:
            raise VulnIdError(f"line {no}: {text} does not fit in {sigma} bits")
        out.append(value)
    return out
