"""Command-line entry point.

Subcommands:

    gen-vectors   write a deterministic primitive test-vector file
    run           execute a scenario config and write its trace
    verify-trace  byte-compare a trace file against a golden file
    rand-stats    per-bit frequency check over generated challenges

Exit codes: 0 success; 1 trace mismatch; 2 assertion failure; 3 actor
error aborted the run; 64 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import auth_core, crypto_suite as cs, harness
from .errors import ConfigError, MalformedInputError, SimulationError

__all__ = ["main", "generate_vector_lines", "rand_bit_stats"]

EXIT_OK = 0
EXIT_TRACE_MISMATCH = 1
EXIT_ASSERT_FAILED = 2
EXIT_ACTOR_ERROR = 3
EXIT_USAGE = 64

RAND_STATS_MIN_N = 10_000
RAND_STATS_SIGMA_BOUND = 4.0
# challenges built per AES batch; bounds the transient buffers at any n
_RAND_STATS_CHUNK = 4096

_VECTOR_OPS = (
    "f1_mac",
    "f5_mask",
    "a3_sres",
    "a8_kc",
    "a5_keystream",
    "derive_subscriber_keys",
    "build_hijacked_rand",
)


def generate_vector_lines(seed: int, count: int) -> list[str]:
    """Deterministic vector records, `count` per operation."""
    rng = random.Random(f"vectors/{seed}")
    lines = [
        "# primitive test vectors",
        f"# seed={seed} count={count}",
    ]
    algs = (cs.CipherAlgId.A5_1, cs.CipherAlgId.A5_2, cs.CipherAlgId.A5_3)
    for i in range(count):
        ka = rng.randbytes(cs.KEY_LEN)
        msg = rng.randbytes(cs.TAG_LEN)
        lines.append(
            cs.render_vector_line("f1_mac", [ka.hex(), msg.hex()], cs.f1_mac(ka, msg).hex())
        )
        mac = rng.randbytes(cs.TAG_LEN)
        lines.append(
            cs.render_vector_line("f5_mask", [ka.hex(), mac.hex()], cs.f5_mask(ka, mac).hex())
        )
        ki = rng.randbytes(cs.KEY_LEN)
        rand = rng.randbytes(cs.RAND_LEN)
        lines.append(
            cs.render_vector_line("a3_sres", [ki.hex(), rand.hex()], cs.a3_sres(ki, rand).hex())
        )
        lines.append(
            cs.render_vector_line("a8_kc", [ki.hex(), rand.hex()], cs.a8_kc(ki, rand).hex())
        )
        alg = algs[i % len(algs)]
        kc = rng.randbytes(cs.TAG_LEN)
        frame = rng.randrange(1 << 16)
        length = 16
        ks = cs.a5_keystream(alg, kc, frame, length)
        lines.append(
            cs.render_vector_line(
                "a5_keystream",
                [
                    bytes([alg.tag_byte]).hex(),
                    kc.hex(),
                    frame.to_bytes(8, "big").hex(),
                    length.to_bytes(4, "big").hex(),
                ],
                ks.bytes.hex(),
            )
        )
        master = rng.randbytes(cs.KEY_LEN)
        imsi = "".join(str(rng.randrange(10)) for _ in range(15))
        dki, dka = cs.derive_subscriber_keys(master, imsi)
        lines.append(
            cs.render_vector_line(
                "derive_subscriber_keys",
                [master.hex(), imsi.encode("ascii").hex()],
                (dki + dka).hex(),
            )
        )
        amf = rng.randrange(1 << 16)
        sqn = rng.randrange(1 << 48)
        built = auth_core.build_hijacked_rand(ka, amf, sqn)
        lines.append(
            cs.render_vector_line(
                "build_hijacked_rand",
                [ka.hex(), amf.to_bytes(2, "big").hex(), sqn.to_bytes(6, "big").hex()],
                built.hex(),
            )
        )
    return lines


def rand_bit_stats(n: int, seed: int) -> dict:
    """Per-bit-position one-frequencies over n sequence-bearing challenges.

    Challenges are built under one seeded ka with sequential sequence
    numbers 1..n, the exact issuance pattern of a real batch.  The bound is
    a smoke test: each of the 128 positions must sit within 4 sigma of n/2.
    """
    if not harness._is_int(n) or not 1 <= n <= auth_core.SQN_MAX:
        raise MalformedInputError(f"n must be an integer in [1, 2^48), got {n!r}")
    if not harness._is_int(seed):
        raise MalformedInputError(f"seed must be an integer, got {seed!r}")
    rng = random.Random(f"rand-stats/{seed}")
    ka = cs.Key128(rng.randbytes(cs.KEY_LEN))
    amf = 0
    # masks[bit] has bit 0x80 >> bit set in every octet; the AND with a
    # shorter column keeps only that column's own octets
    masks = [
        int.from_bytes(bytes([0x80 >> bit]) * _RAND_STATS_CHUNK, "big") for bit in range(8)
    ]
    counts = [0] * (8 * cs.RAND_LEN)
    for first in range(1, n + 1, _RAND_STATS_CHUNK):
        count = min(_RAND_STATS_CHUNK, n + 1 - first)
        rands = auth_core.build_hijacked_rands(ka, amf, first, count)
        for pos in range(cs.RAND_LEN):
            # octet `pos` of every challenge in the chunk, as one int
            column = int.from_bytes(rands[pos :: cs.RAND_LEN], "big")
            for bit, mask in enumerate(masks):
                counts[8 * pos + bit] += (column & mask).bit_count()

    sigma = math.sqrt(n) / 2.0
    deviations = [abs(c - n / 2.0) / sigma for c in counts]
    max_dev = max(deviations)
    return {
        "n": n,
        "seed": seed,
        "bit_counts": counts,
        "bit_frequencies": [round(c / n, 6) for c in counts],
        "max_sigma_deviation": round(max_dev, 4),
        "sigma_bound": RAND_STATS_SIGMA_BOUND,
        "passed": max_dev <= RAND_STATS_SIGMA_BOUND,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akasim",
        description="GSM mutual-authentication protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_vec = sub.add_parser("gen-vectors", help="write a primitive test-vector file")
    p_vec.add_argument("--out", required=True, help="output path")
    p_vec.add_argument("--seed", type=int, default=0)
    p_vec.add_argument("--count", type=int, default=16)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("--config", required=True, help="scenario JSON path")
    p_run.add_argument("--trace-out", help="write the trace to this path")
    p_run.add_argument(
        "--summary-json", action="store_true", help="print a JSON run summary"
    )

    p_ver = sub.add_parser("verify-trace", help="compare a trace against a golden file")
    p_ver.add_argument("--trace", required=True)
    p_ver.add_argument("--golden", required=True)

    p_stats = sub.add_parser("rand-stats", help="challenge bit-frequency smoke test")
    p_stats.add_argument("--n", type=int, default=100_000)
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.add_argument("--summary-json", action="store_true")
    return parser


def _cmd_gen_vectors(args) -> int:
    if args.count < 0:
        print("error: --count must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    lines = generate_vector_lines(args.seed, args.count)
    try:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {len(lines)} lines to {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = harness.ScenarioConfig.loads(handle.read())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        result = harness.run_scenario(config)
    except SimulationError as exc:
        # setup-phase failure (e.g. provisioning); no partial trace to write
        print(f"error: scenario setup failed: {exc}", file=sys.stderr)
        return EXIT_ACTOR_ERROR

    if args.trace_out:
        try:
            with open(args.trace_out, "w", encoding="ascii") as handle:
                handle.write(result.trace_text())
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
            return EXIT_USAGE

    if args.summary_json:
        print(json.dumps(_summarize(result), separators=(",", ":")))
    else:
        for report in result.attack_reports:
            outcome = "succeeded" if report.succeeded else "failed"
            print(f"attack {report.attack.value}: {outcome}")
        for res in result.assert_results:
            status = "pass" if res.passed else "FAIL"
            print(f"assert step {res.step_index}: {status} ({res.detail})")
        print(f"{len(result.trace)} events")

    if result.aborted:
        print(f"error: {result.error}", file=sys.stderr)
        return EXIT_ACTOR_ERROR
    if not result.all_asserts_passed:
        return EXIT_ASSERT_FAILED
    return EXIT_OK


def _summarize(result: harness.ScenarioResult) -> dict:
    return {
        "events": len(result.trace),
        "aborted": result.aborted,
        "error": result.error,
        "attacks": [
            {
                "kind": r.attack.value,
                "succeeded": r.succeeded,
                "recovered_kc": r.recovered_kc.hex() if r.recovered_kc else None,
                "failure_cause": r.failure_cause,
            }
            for r in result.attack_reports
        ],
        "asserts": [
            {"step": r.step_index, "passed": r.passed, "detail": r.detail}
            for r in result.assert_results
        ],
        "all_asserts_passed": result.all_asserts_passed,
    }


def _cmd_verify_trace(args) -> int:
    try:
        with open(args.trace, "rb") as handle:
            got = handle.read()
        with open(args.golden, "rb") as handle:
            want = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if got == want:
        print("traces identical")
        return EXIT_OK
    got_lines = got.split(b"\n")
    want_lines = want.split(b"\n")
    for i, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            print(f"traces differ at line {i}", file=sys.stderr)
            return EXIT_TRACE_MISMATCH
    print(
        f"traces differ in length: {len(got_lines)} vs {len(want_lines)} lines",
        file=sys.stderr,
    )
    return EXIT_TRACE_MISMATCH


def _cmd_rand_stats(args) -> int:
    if not RAND_STATS_MIN_N <= args.n <= auth_core.SQN_MAX:
        print(f"error: --n must be in [{RAND_STATS_MIN_N}, 2^48 - 1]", file=sys.stderr)
        return EXIT_USAGE
    report = rand_bit_stats(args.n, args.seed)
    if args.summary_json:
        print(json.dumps(report, separators=(",", ":")))
    else:
        status = "pass" if report["passed"] else "FAIL"
        print(
            f"n={report['n']} max deviation {report['max_sigma_deviation']} sigma "
            f"(bound {report['sigma_bound']}): {status}"
        )
    return EXIT_OK if report["passed"] else EXIT_ASSERT_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap to the documented code
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {
        "gen-vectors": _cmd_gen_vectors,
        "run": _cmd_run,
        "verify-trace": _cmd_verify_trace,
        "rand-stats": _cmd_rand_stats,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
