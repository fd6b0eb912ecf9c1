"""Command-line entry points, file formats, and exit codes."""

import errno
import io
import json

import pytest

from depletion import circuit, cli
from depletion import compiler as CP
from depletion import session as S
from depletion.circuit import save_circuit_text

GOOD_CPE = "cpe:2.3:a:vendorx:productx:1.%d:*:*:*:*:*:*:*"


def ident_line(i):
    return json.dumps(
        {"function": f"Handler_{i}", "cwe": i + 1, "cpe": GOOD_CPE % i}
    )


def run(argv):
    return cli.main(argv)


def test_idgen_round(tmp_path, capsys):
    infile = tmp_path / "ids.jsonl"
    infile.write_text("\n".join(ident_line(i) for i in range(5)) + "\n")
    out = tmp_path / "hashes.txt"
    assert run(["idgen", "--in", str(infile), "--sigma", "64", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert all(len(l) == 16 for l in lines)


def test_idgen_dedupe_warning(tmp_path, capsys):
    infile = tmp_path / "ids.jsonl"
    dup = json.dumps({"CWE": 1, "cpe": GOOD_CPE % 0, "Function": "handler_0"})
    infile.write_text(ident_line(0) + "\n" + dup + "\n")
    out = tmp_path / "hashes.txt"
    assert run(["idgen", "--in", str(infile), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "duplicate" in captured.err
    assert len(out.read_text().splitlines()) == 1


def test_idgen_bad_cpe_nonzero_exit(tmp_path, capsys):
    infile = tmp_path / "ids.jsonl"
    infile.write_text(json.dumps({"cpe": "nope", "cwe": 1, "function": "x"}) + "\n")
    out = tmp_path / "hashes.txt"
    assert run(["idgen", "--in", str(infile), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_compile_writes_circuit_and_manifest(tmp_path):
    out = tmp_path / "circuit.txt"
    report = tmp_path / "manifest.json"
    code = run([
        "compile", "--parties", "2", "--u", "4", "--sigma", "16",
        "--variant", "at-least-two", "--out", str(out), "--report", str(report),
    ])
    assert code == 0
    circ = CP.compile_circuit(CP.CircuitConfig(2, 4, 16)).circuit
    text = io.StringIO()
    save_circuit_text(circ, text)
    assert out.read_text() == text.getvalue()
    man = json.loads(report.read_text())
    assert man["total_and"] + man["total_xor"] == circ.n_gates
    for row in man["stages"]:
        assert row["and_count"] <= row["and_bound"]
    counted = tmp_path / "counted.json"
    assert run([
        "compile", "--parties", "2", "--u", "4", "--sigma", "16",
        "--variant", "at-least-two", "--counts-only", "--report", str(counted),
    ]) == 0
    counted_man = json.loads(counted.read_text())
    assert counted_man.pop("and_depth") is None
    assert counted_man == {k: v for k, v in man.items() if k != "and_depth"}


def test_compile_counts_only_skips_circuit(tmp_path):
    report = tmp_path / "manifest.json"
    code = run([
        "compile", "--parties", "5", "--u", "100", "--sigma", "256",
        "--counts-only", "--out", str(tmp_path / "none.txt"),
        "--report", str(report),
    ])
    assert code == 0
    assert not (tmp_path / "none.txt").exists()
    man = json.loads(report.read_text())
    assert man["total_and"] > 1_000_000


def test_compile_fixed_plus_m_manifests_agree(tmp_path):
    args = [
        "compile", "--parties", "3", "--u", "2", "--sigma", "16",
        "--variant", "fixed-plus-m", "--m", "1", "--fixed-parties", "2,0",
    ]
    report, counted = tmp_path / "manifest.json", tmp_path / "counted.json"
    assert run(args + ["--out", str(tmp_path / "c.txt"), "--report", str(report)]) == 0
    assert run(args + ["--counts-only", "--report", str(counted)]) == 0
    man = json.loads(report.read_text())
    counted_man = json.loads(counted.read_text())
    assert man["config"]["variant"] == {"kind": "fixed-plus-m", "m": 1, "fixed_parties": [0, 2]}
    assert man["and_depth"] > 0 and counted_man.pop("and_depth") is None
    assert counted_man == {k: v for k, v in man.items() if k != "and_depth"}


def test_compile_layers_sets_the_shuffle_layers(tmp_path):
    """`--layers 2` of three parties: a two-layer Shuffle of 2/3 of the
    default's ANDs, on which the counted and materialized manifests agree."""
    args = ["compile", "--parties", "3", "--u", "2", "--sigma", "8"]
    default, built, counted = (tmp_path / f"{name}.json" for name in ("default", "built", "counted"))
    assert run(args + ["--counts-only", "--report", str(default)]) == 0
    args += ["--layers", "2"]
    assert run(args + ["--out", str(tmp_path / "c.txt"), "--report", str(built)]) == 0
    assert run(args + ["--counts-only", "--report", str(counted)]) == 0
    default, built, counted = (json.loads(p.read_text()) for p in (default, built, counted))
    assert default["config"]["shuffle_layers"] == 3 and built["config"]["shuffle_layers"] == 2
    shuffle = [next(s["and_count"] for s in m["stages"] if s["name"] == "Shuffle") for m in (default, built)]
    assert 2 * shuffle[0] == 3 * shuffle[1] > 0
    assert built.pop("and_depth") > 0 and counted.pop("and_depth") is None
    assert counted == built


def test_compile_variant_defaults(tmp_path):
    """The default --fixed-parties 0 serves fixed-plus-m and is ignored
    by the other variants."""
    for variant in ("at-least-m", "fixed-plus-m"):
        assert run([
            "compile", "--parties", "3", "--u", "2", "--sigma", "8",
            "--variant", variant, "--m", "1", "--counts-only",
            "--report", str(tmp_path / f"{variant}.json"),
        ]) == 0


def test_compile_invalid_m_errors(tmp_path, capsys):
    code = run([
        "compile", "--parties", "2", "--u", "1", "--sigma", "8",
        "--variant", "at-least-m", "--m", "0",
        "--out", str(tmp_path / "c.txt"), "--report", str(tmp_path / "m.json"),
    ])
    assert code == 2
    assert "error: ConfigInvalid" in capsys.readouterr().err


def test_compile_fixed_party_outside_slots_errors(tmp_path, capsys):
    code = run([
        "compile", "--parties", "2", "--u", "1", "--sigma", "8",
        "--variant", "fixed-plus-m", "--m", "1", "--fixed-parties", "2",
        "--counts-only", "--report", str(tmp_path / "m.json"),
    ])
    assert code == 2
    assert "error: ConfigInvalid" in capsys.readouterr().err


def write_session_files(tmp_path, pools, sigma=16, extra=None):
    width = sigma // 4
    parties = []
    for p, values in pools.items():
        stock = tmp_path / f"p{p}.hashes"
        stock.write_text("".join(format(v, f"0{width}x") + "\n" for v in values))
        parties.append({"id": p, "stockpile": stock.name})
    config = {"parties": parties, "sigma": sigma, "variant": {"kind": "at-least-two"}}
    config.update(extra or {})
    path = tmp_path / "session.json"
    path.write_text(json.dumps(config))
    return path


def test_simulate_round_trip(tmp_path, capsys):
    config = write_session_files(tmp_path, {0: [10, 22], 1: [22, 40]})
    out_dir = tmp_path / "out"
    code = run([
        "--seed", "7", "simulate", "--config", str(config),
        "--out-dir", str(out_dir), "--execution", "both",
    ])
    assert code == 0
    rep0 = (out_dir / "report_party0.txt").read_text().splitlines()
    assert f"{22:04x} shared" in rep0
    assert f"{10:04x} exclusive" in rep0
    summary = json.loads((out_dir / "transcript.json").read_text())
    t = summary["transcript"]
    assert t["rounds"] == t["and_layers"] + t["reactive_opens"] + 1
    assert all(v == t["and_count"] for v in t["triples_consumed"].values())
    # each AND layer opens each of its inputs once, not a (d, e) pair per AND
    assert t["and_inputs_opened"] < 2 * t["and_count"]


@pytest.mark.parametrize("command", ["compile", "simulate"])
def test_a_builder_buffer_that_cannot_grow_exits_2(command, tmp_path, capsys, monkeypatch):
    def refuse(mm, dtype, size):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(circuit, "_grown", refuse)
    if command == "compile":
        argv = ["compile", "--parties", "2", "--u", "4", "--sigma", "16",
                "--out", str(tmp_path / "c.txt"), "--report", str(tmp_path / "m.json")]
    else:
        config = write_session_files(tmp_path, {0: [10, 22], 1: [22, 40]})
        argv = ["--seed", "7", "simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]
    CP.compile_circuit.cache_clear()  # so that the circuit is built here
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error: CircuitError: cannot grow the builder's" in err and "Cannot allocate memory" in err


def test_simulate_unsorted_injection_exit_code(tmp_path, capsys):
    config = write_session_files(tmp_path, {0: [10, 22], 1: [22, 40]})
    code = run([
        "--seed", "7", "simulate", "--config", str(config),
        "--out-dir", str(tmp_path / "out"), "--inject-unsorted", "1",
    ])
    assert code == 3
    assert "AbortUnsorted: parties=[1]" in capsys.readouterr().err


def test_simulate_unknown_unsorted_party_exit_code(tmp_path, capsys):
    config = write_session_files(tmp_path, {0: [10, 22], 1: [22, 40]})
    code = run([
        "--seed", "7", "simulate", "--config", str(config),
        "--out-dir", str(tmp_path / "out"), "--inject-unsorted", "7",
    ])
    assert code == 2
    assert "UnknownParty" in capsys.readouterr().err


def test_simulate_outsourced_matches_direct(tmp_path):
    pools = {p: [2 * p + 1, 99] for p in range(8)}
    direct_cfg = write_session_files(tmp_path, pools)
    out_direct = tmp_path / "direct"
    assert run([
        "--seed", "3", "simulate", "--config", str(direct_cfg),
        "--out-dir", str(out_direct),
    ]) == 0

    out_srv = tmp_path / "outsourced"
    cfg2 = write_session_files(
        tmp_path, pools, extra={"mode": "outsourced", "n_servers": 3}
    )
    assert run([
        "--seed", "4", "simulate", "--config", str(cfg2),
        "--out-dir", str(out_srv),
    ]) == 0
    for p in pools:
        a = (out_direct / f"report_party{p}.txt").read_text()
        b = (out_srv / f"report_party{p}.txt").read_text()
        assert a == b


def test_oracle_command(tmp_path, capsys):
    config = write_session_files(tmp_path, {0: [10, 22], 1: [22, 40]})
    assert run(["oracle", "--config", str(config)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["0"] == [f"{22:04x}"]


@pytest.mark.parametrize("drop, missing", [
    (lambda cfg: cfg.pop("parties"), "'parties'"),
    (lambda cfg: cfg["parties"][1].pop("id"), "'id'"),
    (lambda cfg: cfg["parties"][0].pop("stockpile"), "'stockpile'"),
    (lambda cfg: cfg["parties"].append(2), "not an object"),
    (lambda cfg: cfg.update(variant="at-least-two"), "'variant'"),
    (lambda cfg: cfg.update(parties=5), "'parties'"),
    (lambda cfg: cfg.update(epoch=-1), "epoch -1"),
    (lambda cfg: cfg.update(epoch=1 << 32), f"epoch {1 << 32}"),
    (lambda cfg: cfg.update(variant={"kind": "fixed-plus-m", "fixed_parties": 5}), "'fixed_parties'"),
    (lambda cfg: cfg.update(variant={"kind": "fixed-plus-m", "fixed_parties": ["0"]}), "'fixed_parties'"),
    (lambda cfg: cfg.update(sigma=None), "'sigma'"),
    (lambda cfg: cfg["parties"][0].update(id=[0]), "'id'"),
    (lambda cfg: cfg.update(sigma="16"), "'sigma'"),
    (lambda cfg: cfg.update(epoch="3"), "'epoch'"),
    (lambda cfg: cfg.update(mode="outsourced", n_servers=1.5), "'n_servers'"),
    (lambda cfg: cfg.update(count_bits=0), "count_bits 0"),
    (lambda cfg: cfg.update(count_bits=True), "'count_bits'"),
    (lambda cfg: cfg["parties"][0].update(stockpile=3), "'stockpile'"),
    (lambda cfg: cfg.update(sigmaa=8), "'sigmaa'"),
    (lambda cfg: cfg.update(count_bit=8), "'count_bit'"),
    (lambda cfg: cfg.update(variant={"kind": "at-least-m", "mm": 2}), "'mm'"),
], ids=["parties", "id", "stockpile", "entry", "variant-shape", "parties-shape",
        "epoch-negative", "epoch-too-large", "fixed-parties-shape", "fixed-party-type",
        "sigma-null", "id-list", "sigma-string", "epoch-string", "n-servers-float",
        "count-bits-zero", "count-bits-bool", "stockpile-type",
        "unknown-field", "unknown-field-with-default", "unknown-variant-field"])
def test_config_missing_field_exit_code(tmp_path, capsys, drop, missing):
    path = write_session_files(tmp_path, {0: [10, 22], 1: [22, 40]})
    config = json.loads(path.read_text())
    drop(config)
    path.write_text(json.dumps(config))
    assert run(["oracle", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "ConfigMismatch" in err and missing in err


@pytest.mark.parametrize("fields, name", [
    ({"sigma": "16"}, "'sigma'"),
    ({"epoch": None}, "'epoch'"),
    ({"count_bits": True}, "'count_bits'"),
    ({"mode": 1}, "'mode'"),
    ({"parties": (0, "1")}, "'parties'"),
    ({"variant": {"kind": "at-least-m"}}, "'variant'"),
    ({"variant": S.VariantSpec("at-least-m", m=2.0)}, "'m'"),
    ({"variant": S.VariantSpec("fixed-plus-m", 1, ("0",))}, "'fixed_parties'"),
], ids=["sigma-string", "epoch-none", "count-bits-bool", "mode-int", "party-string",
        "variant-dict", "m-float", "fixed-party-string"])
def test_config_built_in_python_checks_field_types(fields, name):
    config = S.SessionConfig(**{"parties": (0, 1), **fields})
    with pytest.raises(S.ConfigMismatch, match=name):
        config.validate()


def test_ledger_cycle(tmp_path, capsys):
    path = tmp_path / "chain.ledger"
    assert run([
        "ledger", "init", "--file", str(path),
        "--writers", "w1,w2", "--readers", "r1",
    ]) == 0
    ids = tmp_path / "ids.jsonl"
    ids.write_text(ident_line(3) + "\n")
    assert run([
        "ledger", "submit", "--file", str(path), "--writer", "w1",
        "--id-file", str(ids),
    ]) == 0
    assert run([
        "ledger", "submit", "--file", str(path), "--writer", "w2",
        "--id-file", str(ids),
    ]) == 0
    capsys.readouterr()
    assert run(["ledger", "check", "--file", str(path), "--reader", "r1"]) == 0
    assert "1 matches" in capsys.readouterr().out
    assert run(["ledger", "verify", "--file", str(path)]) == 0

    data = bytearray(path.read_bytes())
    data[-40] ^= 1
    path.write_bytes(bytes(data))
    assert run(["ledger", "verify", "--file", str(path)]) == 1


def test_ledger_attack_command(tmp_path, capsys):
    path = tmp_path / "chain.ledger"
    run(["ledger", "init", "--file", str(path), "--writers", "w1", "--readers", "r1"])
    from depletion.ledger import enumerate_toy_space
    from depletion.vulnid import ledger_digest_hex

    ident = next(iter(enumerate_toy_space(8)))
    run([
        "ledger", "submit", "--file", str(path), "--writer", "w1",
        "--hash", ledger_digest_hex(ident),
    ])
    capsys.readouterr()
    report = tmp_path / "attack.txt"
    assert run([
        "ledger", "attack", "--file", str(path), "--space-bits", "8",
        "--report", str(report),
    ]) == 0
    assert "recovered: 1 (100.0%)" in report.read_text()


def test_ledger_submit_without_a_hash_source_exits_2(tmp_path, capsys):
    path = tmp_path / "chain.ledger"
    assert run(["ledger", "init", "--file", str(path), "--writers", "w1"]) == 0
    capsys.readouterr()
    assert run(["ledger", "submit", "--file", str(path), "--writer", "w1"]) == 2
    err = capsys.readouterr().err
    assert "LedgerError" in err and "--hash" in err and "--id-file" in err


@pytest.mark.parametrize("action", ["verify", "check"])
def test_malformed_ledger_file_exits_2(tmp_path, capsys, action):
    """A file whose genesis payload is not an object is a LedgerError,
    not a traceback, whatever the action."""
    path = tmp_path / "chain.ledger"
    assert run(["ledger", "init", "--file", str(path), "--readers", "r1"]) == 0
    data = path.read_bytes()
    path.write_bytes(data.replace(b'{"type":"genesis"}', b'"genesis"'.ljust(18)))
    capsys.readouterr()
    assert run(["ledger", action, "--file", str(path), "--reader", "r1"]) == 2
    assert "LedgerError" in capsys.readouterr().err
