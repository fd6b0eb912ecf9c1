"""Command-line entry points, file formats, and exit codes."""

import json

from depletion import cli
from depletion.circuit import load_circuit_text

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
    circ = load_circuit_text(out.read_text())
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
        parties.append({"id": p, "stockpile": stock.name, "endpoint": f"inproc://p{p}"})
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


def test_simulate_unsorted_injection_exit_code(tmp_path, capsys):
    config = write_session_files(tmp_path, {0: [10, 22], 1: [22, 40]})
    code = run([
        "--seed", "7", "simulate", "--config", str(config),
        "--out-dir", str(tmp_path / "out"), "--inject-unsorted", "1",
    ])
    assert code == 3
    assert "AbortUnsorted: parties=[1]" in capsys.readouterr().err


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


def test_bench_small_grid(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = run([
        "--seed", "5", "bench", "--parties-list", "2,3", "--u-list", "2,4",
        "--sigma", "8", "--exec-cap", "200000", "--out", str(out),
    ])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 4
    assert all(r["measured"] for r in rows)
    by_key = {(r["parties"], r["u"]): r for r in rows}
    assert by_key[(2, 2)]["bytes_moved"] < by_key[(2, 4)]["bytes_moved"]
    assert by_key[(2, 4)]["bytes_moved"] < by_key[(3, 4)]["bytes_moved"]
    assert by_key[(2, 2)]["and_total"] < by_key[(3, 2)]["and_total"]
    assert "NOT comparable" in capsys.readouterr().out


def test_bench_and_column_equals_compile_manifest(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert run([
        "bench", "--parties-list", "2", "--u-list", "4", "--sigma", "8",
        "--exec-cap", "0", "--out", str(out),
    ]) == 0
    row = json.loads(out.read_text())[0]
    report = tmp_path / "manifest.json"
    assert run([
        "compile", "--parties", "2", "--u", "4", "--sigma", "8",
        "--counts-only", "--out", str(tmp_path / "c.txt"),
        "--report", str(report),
    ]) == 0
    man = json.loads(report.read_text())
    assert row["and_total"] == man["total_and"]
    assert row["stages"] == {
        r["name"]: r["and_count"] for r in man["stages"]
    }
