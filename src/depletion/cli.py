"""Operator entry points: idgen, compile, simulate, oracle, ledger, bench."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import compiler as CP
from . import ledger as LG
from . import mpc, oracle
from . import session as S
from . import vulnid as V
from .circuit import save_circuit_text

log = logging.getLogger("depletion")

DEFAULT_GATE_CAP = 20_000_000


# -- config file handling ---------------------------------------------------------


def load_session_config(path: Path):
    """Session config file plus the parties' stockpile hash files."""
    raw = json.loads(path.read_text())
    variant = raw.get("variant", {"kind": "at-least-two"})
    spec = S.VariantSpec(
        kind=variant.get("kind", "at-least-two"),
        m=int(variant.get("m", 1)),
        fixed_parties=tuple(variant.get("fixed_parties", ())),
    )
    parties = tuple(int(p["id"]) for p in raw["parties"])
    config = S.SessionConfig(
        parties=parties,
        sigma=int(raw.get("sigma", 256)),
        variant=spec,
        mode=raw.get("mode", "direct"),
        n_servers=int(raw.get("n_servers", 0)),
        epoch=int(raw.get("epoch", 1)),
        count_bits=int(raw.get("count_bits", 20)),
    )
    config.validate()
    stockpiles = {}
    for entry in raw["parties"]:
        stock_path = Path(entry["stockpile"])
        if not stock_path.is_absolute():
            stock_path = path.parent / stock_path
        stockpiles[int(entry["id"])] = V.read_hash_lines(
            stock_path.read_text().splitlines(), config.sigma
        )
    return config, stockpiles


def _hex_width(sigma: int) -> int:
    return sigma // 4


# -- commands ----------------------------------------------------------------------


def cmd_idgen(args) -> int:
    lines = Path(args.infile).read_text().splitlines()
    idents = V.read_identifier_lines(lines)
    seen: dict[bytes, None] = {}
    dupes = 0
    unique = []
    for ident in idents:
        blob = V.canonicalize(ident)
        if blob in seen:
            dupes += 1
            continue
        seen[blob] = None
        unique.append(ident)
    if dupes:
        log.warning("removed %d duplicate identifiers", dupes)
        print(f"warning: removed {dupes} duplicate identifiers", file=sys.stderr)
    hashes = [V.hash_identifier(i, args.sigma) for i in unique]
    Path(args.out).write_text(V.write_hash_lines(hashes))
    print(f"hashed {len(hashes)} identifiers -> {args.out}")
    return 0


def cmd_compile(args) -> int:
    fixed = tuple(int(x) for x in args.fixed_parties.split(",") if x != "")
    layers = args.layers if args.layers else args.parties
    cfg = CP.CircuitConfig(
        n_parties=args.parties,
        inputs_per_party=args.u,
        sigma=args.sigma,
        variant=CP.VariantSpec(args.variant, args.m, fixed),
        control_parties=tuple(range(layers)),
    )
    stages = CP.stage_counts(cfg)
    total_gates = sum(s.and_count + s.xor_count for s in stages)
    depth = None
    if args.counts_only:
        man = CP.manifest(cfg, stages)
    else:
        if total_gates > args.max_gates:
            raise CP.ConfigInvalid(
                f"{total_gates} gates exceed the materialization cap "
                f"{args.max_gates}; rerun with --counts-only"
            )
        comp = CP.compile_circuit(cfg)
        depth = comp.circuit.gate_counts().depth_and
        Path(args.out).write_text(save_circuit_text(comp.circuit))
        man = CP.manifest(cfg, comp.stages, depth_and=depth)
        print(f"circuit -> {args.out}")
    Path(args.report).write_text(json.dumps(man, indent=2) + "\n")
    print(f"manifest -> {args.report}")
    for row in man["stages"]:
        print(
            f"  {row['name']:<10} AND={row['and_count']:<12} "
            f"bound={row['and_bound']:.0f}"
        )
    print(f"  total AND={man['total_and']} XOR={man['total_xor']}")
    return 0


def cmd_simulate(args) -> int:
    config, stockpiles = load_session_config(Path(args.config))
    result = S.run_sessions(
        config,
        [stockpiles],
        seed=args.seed,
        execution=args.execution,
        inject_unsorted=args.inject_unsorted,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = _hex_width(config.sigma)
    for party, report in result.reports[0].items():
        lines = [
            f"{format(v, f'0{width}x')} {status}"
            for v, status in sorted(report.statuses.items())
        ]
        (out_dir / f"report_party{party}.txt").write_text(
            "\n".join(lines) + ("\n" if lines else "")
        )
    summary = {
        "u": result.u,
        "config_digest": result.config_digest,
        "opened_keys": len(result.opened_keys[0]),
        "reports": {
            str(p): {"shared": r.shared_count, "exclusive": r.exclusive_count}
            for p, r in result.reports[0].items()
        },
    }
    if result.transcript is not None:
        t = result.transcript
        summary["transcript"] = {
            "parties": t.n_parties,
            "and_count": t.and_count,
            "and_layers": t.and_layers,
            "reactive_opens": t.reactive_opens,
            "rounds": t.rounds,
            "messages_sent": t.messages_sent,
            "payload_bits_sent": t.payload_bits_sent,
            "bytes_sent": t.bytes_sent,
            "triples_consumed": t.triples_consumed,
        }
    (out_dir / "transcript.json").write_text(json.dumps(summary, indent=2) + "\n")
    for party, rep in sorted(result.reports[0].items()):
        print(f"party {party}: {rep.shared_count} shared, {rep.exclusive_count} exclusive")
    print(f"round complete: u={result.u}, reports in {out_dir}")
    return 0


def cmd_oracle(args) -> int:
    config, stockpiles = load_session_config(Path(args.config))
    spec = config.variant
    shared = oracle.brute_force_shared(
        {p: set(vs) for p, vs in stockpiles.items()},
        spec.kind,
        spec.m,
        frozenset(spec.fixed_parties),
    )
    width = _hex_width(config.sigma)
    payload = {
        str(p): sorted(format(v, f"0{width}x") for v in vs)
        for p, vs in shared.items()
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def _load_ledger(path: Path) -> LG.Ledger:
    return LG.Ledger.load_bytes(path.read_bytes())


def _save_ledger(path: Path, led: LG.Ledger) -> None:
    path.write_bytes(led.save_bytes())


def cmd_ledger(args) -> int:
    path = Path(args.file)
    if args.action == "init":
        led = LG.Ledger()
        for w in args.writers.split(","):
            if w:
                led.register_writer(w)
        for r in args.readers.split(","):
            if r:
                led.register_reader(r)
        _save_ledger(path, led)
        print(f"ledger initialized -> {path}")
        return 0
    led = _load_ledger(path)
    if args.action == "submit":
        if args.hash:
            hashes = [args.hash]
        else:
            idents = V.read_identifier_lines(
                Path(args.id_file).read_text().splitlines()
            )
            hashes = [V.ledger_digest_hex(i) for i in idents]
        for h in hashes:
            led.submit(args.writer, h)
        _save_ledger(path, led)
        print(f"submitted {len(hashes)} hashes; chain height {len(led.blocks)}")
        return 0
    if args.action == "check":
        matches, event = led.check_intersections(args.reader)
        _save_ledger(path, led)
        for h, idxs in sorted(matches.items()):
            print(f"match {h[:32]}... blocks {idxs}")
        print(f"{len(matches)} matches; event logged at block {event.index}")
        return 0
    if args.action == "verify":
        broken = led.verify_chain()
        if broken is None:
            print("chain ok")
            return 0
        print(f"chain broken at block {broken}")
        return 1
    if args.action == "attack":
        report = LG.brute_force_attack(
            led, LG.enumerate_toy_space(args.space_bits)
        )
        text = report.to_text()
        if args.report:
            Path(args.report).write_text(text)
        sys.stdout.write(text)
        return 0
    raise ValueError(f"unknown ledger action {args.action!r}")


def cmd_bench(args) -> int:
    parties = [int(x) for x in args.parties_list.split(",")]
    inputs = [int(x) for x in args.u_list.split(",")]
    rows = []
    for n in parties:
        for u in inputs:
            layers = args.layers if args.layers else n
            cfg = CP.CircuitConfig(
                n_parties=n,
                inputs_per_party=u,
                sigma=args.sigma,
                control_parties=tuple(range(layers)),
            )
            stages = CP.stage_counts(cfg)
            and_total = sum(s.and_count for s in stages)
            gate_total = and_total + sum(s.xor_count for s in stages)
            row = {
                "parties": n,
                "u": u,
                "sigma": args.sigma,
                "stages": {s.name: s.and_count for s in stages},
                "and_total": and_total,
                "bounds": CP.stage_bounds(cfg),
            }
            if gate_total <= args.exec_cap:
                rng = np.random.default_rng(args.seed or 0)
                pools = {
                    p: rng.choice(
                        np.arange(1, 1 << min(args.sigma, 20)), size=u, replace=False
                    ).tolist()
                    for p in range(n)
                }
                config = S.SessionConfig(parties=tuple(range(n)), sigma=args.sigma)
                start = time.perf_counter()
                result = S.run_sessions(config, [pools], seed=args.seed, execution="mpc")
                elapsed = time.perf_counter() - start
                t = result.transcript
                row.update(
                    rounds=t.rounds,
                    bytes_moved=t.total_bytes(),
                    seconds=round(elapsed, 3),
                    measured=True,
                )
            else:
                est_bits = 2 * and_total * n * (n - 1)
                row.update(
                    rounds=None,
                    bytes_moved=est_bits // 8,
                    seconds=None,
                    measured=False,
                )
            rows.append(row)
    print(
        "# protocol: in-process semi-honest XOR sharing with dealer triples;"
    )
    print(
        "# wall times and bytes are NOT comparable to figures published for"
        " other protocol stacks or hardware."
    )
    header = f"{'N':>3} {'u':>6} {'AND total':>12} {'rounds':>8} {'bytes':>14} {'seconds':>9} measured"
    print(header)
    for row in rows:
        rounds = row["rounds"] if row["rounds"] is not None else "-"
        secs = row["seconds"] if row["seconds"] is not None else "-"
        print(
            f"{row['parties']:>3} {row['u']:>6} {row['and_total']:>12} "
            f"{rounds:>8} {row['bytes_moved']:>14} {secs:>9} {row['measured']}"
        )
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2) + "\n")
        print(f"rows -> {args.out}")
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depletion",
        description="Multi-party vulnerability-stockpile depletion toolkit.",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="seed all randomness for reproducible runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("idgen", help="canonicalize and hash identifier files")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--sigma", type=int, default=256, choices=V.ALLOWED_SIGMAS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_idgen)

    p = sub.add_parser("compile", help="compile the intersection circuit")
    p.add_argument("--parties", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--sigma", type=int, default=256)
    p.add_argument("--variant", default="at-least-two", choices=CP.VARIANT_KINDS)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--fixed-parties", default="0",
                   help="comma-separated fixed party slots (fixed-plus-m only)")
    p.add_argument("--layers", type=int, default=0)
    p.add_argument("--out", default="circuit.txt")
    p.add_argument("--report", default="manifest.json")
    p.add_argument("--counts-only", action="store_true")
    p.add_argument("--max-gates", type=int, default=DEFAULT_GATE_CAP)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="run one full round across in-process parties")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default="round-out")
    p.add_argument("--execution", default="mpc",
                   choices=["mpc", "plaintext", "both"])
    p.add_argument("--inject-unsorted", type=int, default=None,
                   help="fault injection: party id whose list is left unsorted")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="brute-force reference answer for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("ledger", help="hash-ledger prototype operations")
    p.add_argument("action", choices=["init", "submit", "check", "verify", "attack"])
    p.add_argument("--file", required=True)
    p.add_argument("--writers", default="")
    p.add_argument("--readers", default="")
    p.add_argument("--writer", default=None)
    p.add_argument("--reader", default=None)
    p.add_argument("--hash", default=None)
    p.add_argument("--id-file", default=None)
    p.add_argument("--space-bits", type=int, default=16)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_ledger)

    p = sub.add_parser("bench", help="gate counts and protocol cost per (N, u)")
    p.add_argument("--parties-list", default="2,5")
    p.add_argument("--u-list", default="100,500")
    p.add_argument("--sigma", type=int, default=256)
    p.add_argument("--layers", type=int, default=0)
    p.add_argument("--exec-cap", type=int, default=10_000_000,
                   help="run the protocol live when the gate count fits")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


_ERRORS = (
    V.VulnIdError,
    CP.ConfigInvalid,
    S.SessionError,
    LG.LedgerError,
    mpc.MpcError,
    OSError,
    ValueError,
)


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("DEPLETION_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except mpc.AbortUnsorted as exc:
        print(f"error: AbortUnsorted: parties={exc.parties}", file=sys.stderr)
        return 3
    except _ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
