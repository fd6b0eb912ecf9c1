"""Identifier canonicalization, hashing, and file formats."""

import pytest
from reference import write_identifier_lines

from depletion import vulnid as V

GOOD_CPE = "cpe:2.3:a:vendorx:productx:1.0:*:*:*:*:*:*:*"


def ident(cpe=GOOD_CPE, cwe=787, function="parse_header"):
    return V.VulnIdentifier(cpe, cwe, function)


def test_canonical_bytes_ignore_field_order_and_case():
    a = V.canonicalize(ident())
    b = V.parse_identifier(
        '{"function": "Parse_Header", "CWE": 787, "cpe": "%s"}' % GOOD_CPE.upper()
    )
    assert V.canonicalize(b) == a


def test_function_case_folding():
    assert V.canonicalize(ident(function="ParseHeader")) == V.canonicalize(
        ident(function="parseheader")
    )


def test_unicode_nfc_normalization():
    composed = "café_open"
    decomposed = "café_open"
    assert V.canonicalize(ident(function=composed)) == V.canonicalize(
        ident(function=decomposed)
    )


def test_canonicalize_idempotent():
    once = V.canonicalize(ident(function="Flügel_Handler"))
    again = V.canonicalize(V.parse_identifier(once))
    assert once == again


def test_invalid_inputs():
    with pytest.raises(V.InvalidCwe):
        V.canonicalize(ident(cwe=0))
    with pytest.raises(V.InvalidCwe):
        V.canonicalize(ident(cwe=-3))
    with pytest.raises(V.EmptyFunction):
        V.canonicalize(ident(function="   "))
    with pytest.raises(V.InvalidCpe):
        V.canonicalize(ident(cpe="cpe:2.3:a:missing:components"))
    with pytest.raises(V.InvalidCpe):
        V.canonicalize(ident(cpe="cpe:1.0:a:v:p:1::::::::"))
    with pytest.raises(V.InvalidCpe):
        V.canonicalize(ident(cpe="cpe:2.3:x:v:p:1.0:*:*:*:*:*:*:*"))


def test_escaped_colons_in_cpe_components():
    cpe = "cpe:2.3:a:vendor:product\\:plus:1.0:*:*:*:*:*:*:*"
    assert V.canonicalize(ident(cpe=cpe))


def test_injectivity_on_toy_domain():
    seen = {}
    for cwe in (1, 2, 3):
        for fn in ("alpha", "beta", "gamma"):
            for vendor in ("v1", "v2"):
                i = ident(
                    cpe=f"cpe:2.3:a:{vendor}:p:1.0:*:*:*:*:*:*:*",
                    cwe=cwe,
                    function=fn,
                )
                blob = V.canonicalize(i)
                assert blob not in seen, (i, seen[blob])
                seen[blob] = i


def test_hash_determinism_and_sigma():
    one = V.hash_identifier(ident(), 256)
    two = V.hash_identifier(ident(), 256)
    assert one == two
    assert one.sigma == 256
    assert len(one.hex) == 64
    with pytest.raises(V.VulnIdError):
        V.hash_identifier(ident(), 8)


def test_hash_differs_across_cwe():
    a = V.hash_identifier(ident(cwe=787), 256)
    b = V.hash_identifier(ident(cwe=788), 256)
    assert a.v != b.v


def test_pinned_reference_digest():
    # frozen once from this module's canonical bytes + SHA3-512
    got = V.hash_identifier(
        V.VulnIdentifier(
            "cpe:2.3:a:gnu:glibc:2.28:*:*:*:*:*:*:*", 120, "parse_options"
        ),
        256,
    )
    blob = V.canonicalize(
        V.VulnIdentifier(
            "cpe:2.3:a:gnu:glibc:2.28:*:*:*:*:*:*:*", 120, "parse_options"
        )
    )
    assert (
        blob
        == b'{"cpe":"cpe:2.3:a:gnu:glibc:2.28:*:*:*:*:*:*:*",'
        b'"cwe":120,"function":"parse_options"}'
    )
    from hashlib import sha3_512

    assert got.v == int.from_bytes(sha3_512(blob).digest()[:32], "big")


def test_truncation_prefix_property():
    full = V.hash_identifier(ident(), 256)
    for sigma in (16, 32, 64, 128):
        short = V.hash_identifier(ident(), sigma)
        assert short.v == full.v >> (256 - sigma)


def test_hashed_id_rejects_sentinel():
    with pytest.raises(V.SentinelCollision):
        V.HashedId(0, 16)



def test_identifier_file_round_trip():
    idents = [ident(cwe=c) for c in (1, 2, 3)]
    text = write_identifier_lines(idents)
    back = V.read_identifier_lines(text.splitlines())
    assert [V.canonicalize(i) for i in back] == [V.canonicalize(i) for i in idents]


def test_identifier_file_errors_carry_line_numbers():
    lines = [write_identifier_lines([ident()]).strip(), "{broken"]
    with pytest.raises(V.VulnIdError, match="line 2"):
        V.read_identifier_lines(lines)


def test_hash_file_round_trip():
    hashes = [V.hash_identifier(ident(cwe=c), 64) for c in (5, 6)]
    text = V.write_hash_lines(hashes)
    assert V.read_hash_lines(text.splitlines(), 64) == [h.v for h in hashes]
    with pytest.raises(V.VulnIdError, match="line 1"):
        V.read_hash_lines(["zz"], 64)


@pytest.mark.parametrize("line", ["0x1f", "+0ab", "0_ab", "-0ab"])
def test_hash_lines_are_hex_digits_only(line):
    # int(text, 16) reads each of these: 31, 171, 171 and -171
    with pytest.raises(V.VulnIdError, match="line 2"):
        V.read_hash_lines(["00ff", line], 16)


def test_hash_lines_are_ceil_sigma_over_4_digits():
    assert V.hex_width(10) == 3 and V.hex_width(16) == 4
    assert V.read_hash_lines(["3ff", "001"], 10) == [1023, 1]
    assert V.HashedId(1023, 10).hex == "3ff"
    for line in ("400", "fff", "3f", "03ff"):  # 2^10 and above, or not 3 digits
        with pytest.raises(V.VulnIdError, match="line 1"):
            V.read_hash_lines([line], 10)
