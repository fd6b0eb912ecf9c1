"""Hash-chain ledger, intersection transaction, tamper and attack demos."""

import dataclasses
import json
import random
import struct

import pytest

from depletion import ledger as L
from depletion.vulnid import VulnIdentifier, ledger_digest_hex


def fresh_ledger():
    led = L.Ledger()
    for w in ("w1", "w2"):
        led.register_writer(w)
    led.register_reader("r1")
    return led


def some_hash(n):
    return format(n, "0128x")


def test_first_submission_chains_to_genesis():
    led = fresh_ledger()
    block = led.submit("w1", some_hash(1))
    assert block.index == 1
    assert block.prev_digest == led.blocks[0].digest
    assert led.verify_chain() is None


def test_duplicate_submission_yields_two_blocks():
    led = fresh_ledger()
    led.submit("w1", some_hash(7))
    led.submit("w1", some_hash(7))
    assert len(led.submissions()) == 2


def test_unauthorized_roles():
    led = fresh_ledger()
    with pytest.raises(L.UnauthorizedWriter):
        led.submit("nobody", some_hash(1))
    with pytest.raises(L.UnauthorizedReader):
        led.check_intersections("w1")
    with pytest.raises(L.LedgerError):
        led.submit("w1", "XYZ")


def test_intersections_require_distinct_writers():
    led = fresh_ledger()
    led.submit("w1", some_hash(5))
    led.submit("w1", some_hash(5))
    led.submit("w1", some_hash(9))
    led.submit("w2", some_hash(9))
    matches, event = led.check_intersections("r1")
    assert set(matches) == {some_hash(9)}
    assert matches[some_hash(9)] == [3, 4]
    assert event.payload["type"] == "intersection-check"
    assert led.blocks[-1] == event


def test_empty_ledger_check_logs_event():
    led = fresh_ledger()
    matches, event = led.check_intersections("r1")
    assert matches == {}
    assert event.index == 1


def test_check_is_reader_independent():
    led = fresh_ledger()
    led.register_reader("r2")
    led.submit("w1", some_hash(4))
    led.submit("w2", some_hash(4))
    m1, _ = led.check_intersections("r1")
    m2, _ = led.check_intersections("r2")
    assert m1 == m2


def test_tamper_detection_single_bit():
    rng = random.Random(3)
    led = fresh_ledger()
    for i in range(10):
        led.submit("w1" if i % 2 else "w2", some_hash(100 + i))
    idx = rng.randrange(len(led.blocks))
    block = led.blocks[idx]
    payload = dict(block.payload)
    if "hash" in payload:
        flipped = int(payload["hash"], 16) ^ 1
        payload["hash"] = format(flipped, "0128x")
    else:
        payload["type"] = payload["type"] + "x"
    led.blocks[idx] = dataclasses.replace(block, payload=payload)
    assert led.verify_chain() == idx


def test_genesis_tamper_reports_index_zero():
    led = fresh_ledger()
    led.submit("w1", some_hash(1))
    led.blocks[0] = dataclasses.replace(
        led.blocks[0], payload={"type": "genesis", "x": 1}
    )
    assert led.verify_chain() == 0


def test_file_round_trip():
    led = fresh_ledger()
    led.submit("w1", some_hash(11))
    led.submit("w2", some_hash(11))
    led.check_intersections("r1")
    data = led.save_bytes()
    back = L.Ledger.load_bytes(data)
    assert back.verify_chain() is None
    assert [b.digest for b in back.blocks] == [b.digest for b in led.blocks]
    assert back.writers == led.writers and back.readers == led.readers
    with pytest.raises(L.LedgerError):
        L.Ledger.load_bytes(data[:10])


def _ledger_file(meta, records, tail=b""):
    """A ledger file of the metadata and records, each JSON-encoded
    unless it is bytes already, followed by `tail`."""
    out = [struct.pack("<BI", L.LEDGER_FILE_VERSION, len(records))]
    for item in [meta, *records]:
        raw = item if isinstance(item, bytes) else json.dumps(item).encode()
        out += [struct.pack("<I", len(raw)), raw]
    return b"".join(out) + tail


META = {"writers": ["w1"], "readers": ["r1"]}
GENESIS = list(dataclasses.astuple(L.Ledger().blocks[0]))


def test_hand_built_ledger_file_loads():
    """The malformed files below differ from this one in one fault each."""
    led = L.Ledger.load_bytes(_ledger_file(META, [GENESIS]))
    assert led.verify_chain() is None and led.writers == {"w1"} and led.readers == {"r1"}


@pytest.mark.parametrize("meta, records, tail", [
    (META, [7], b""),
    (["w1", "r1"], [GENESIS], b""),
    ({"readers": ["r1"]}, [GENESIS], b""),
    ({"writers": ["w1"]}, [GENESIS], b""),
    ({"writers": "w1", "readers": ["r1"]}, [GENESIS], b""),
    ({"writers": [1], "readers": ["r1"]}, [GENESIS], b""),
    (META, [[*GENESIS[:2], "genesis", *GENESIS[3:]]], b""),
    (META, [[*GENESIS[:2], ["genesis"], *GENESIS[3:]]], b""),
    (META, [GENESIS], b"\x00"),
    (META, [["0", *GENESIS[1:]]], b""),
    (META, [[True, *GENESIS[1:]]], b""),
    (META, [[*GENESIS[:3], None, GENESIS[4]]], b""),
    (META, [GENESIS[:4]], b""),
    (META, [GENESIS, [1, GENESIS[4], {"type": "submission"}, "w1", "0" * 128]], b""),
    (META, [b"\xff"], b""),
    (b"{", [GENESIS], b""),
], ids=["record-number", "metadata-list", "no-writers", "no-readers", "writers-string",
        "writer-number", "payload-string", "payload-list", "trailing-byte", "index-string",
        "index-bool", "submitter-null", "four-fields", "submission-without-hash",
        "record-not-utf8", "metadata-not-json"])
def test_malformed_ledger_file_is_a_ledger_error(meta, records, tail):
    with pytest.raises(L.LedgerError):
        L.Ledger.load_bytes(_ledger_file(meta, records, tail))


def test_attack_recovers_in_space_submissions():
    led = fresh_ledger()
    idents = list(L.enumerate_toy_space(10))
    rng = random.Random(7)
    chosen = rng.sample(idents, 30)
    for i, ident in enumerate(chosen):
        led.submit("w1" if i < 12 else "w2", ledger_digest_hex(ident))
    outside = VulnIdentifier(
        "cpe:2.3:a:outside:space:9.9:*:*:*:*:*:*:*", 999, "not_in_space"
    )
    led.submit("w2", ledger_digest_hex(outside))
    report = L.brute_force_attack(led, L.enumerate_toy_space(10))
    assert report.total_submissions == 31
    assert report.recovered_submissions == 30
    assert report.recovery_rate == pytest.approx(30 / 31)
    assert ledger_digest_hex(outside) not in report.recovered
    assert report.per_writer_counts == {"w1": 12, "w2": 19}
    assert report.submission_order["w1"] == list(range(1, 13))
    text = report.to_text()
    assert "per-writer submission counts" in text


def test_toy_space_is_injective():
    space = list(L.enumerate_toy_space(12))
    digests = {ledger_digest_hex(i) for i in space}
    assert len(digests) == len(space) == 4096
