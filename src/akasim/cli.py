"""Command-line entry point.

Subcommands:

    gen-vectors    write a deterministic primitive test-vector file
    check-vectors  recompute every record of a test-vector file
    run            execute a scenario config and write its trace
    verify-trace   byte-compare a trace file against a golden file
    rand-stats     per-bit frequency check over generated challenges

Exit codes: 0 success; 1 trace or vector mismatch; 2 assertion failure; 3 actor
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
# challenges per counted piece; each piece is read as one int and added into
# the bit planes, so a plane holds 16 octets per challenge of a piece at any n
_RAND_STATS_PIECE = 512

# the most records gen-vectors writes per operation; every record is built
# in memory before the file is written
MAX_VECTOR_COUNT = 100_000
# a5_keystream records name the cipher by its tag octet and cycle through these
_VECTOR_ALGS = {bytes([alg.tag_byte]): alg for alg in cs.CipherAlgId if alg.name != "NONE"}


def _int(octets: bytes) -> int:
    return int.from_bytes(octets, "big")


def _a5_vector(tag: bytes, kc: bytes, frame: bytes, length: bytes) -> bytes:
    if tag not in _VECTOR_ALGS:
        raise MalformedInputError(f"a5_keystream tag must be a1, a2 or a3, got {tag.hex()}")
    return cs.a5_keystream(_VECTOR_ALGS[tag], kc, _int(frame), _int(length)).bytes


# op -> (input sizes, output size, function of the input octets), sizes in
# octets; a5_keystream's output size is its last input, the keystream length
_VECTOR_OPS = {
    "f1_mac": ((cs.KEY_LEN, cs.TAG_LEN), cs.TAG_LEN, cs.f1_mac),
    "f5_mask": ((cs.KEY_LEN, cs.TAG_LEN), cs.TAG_LEN, cs.f5_mask),
    "a3_sres": ((cs.KEY_LEN, cs.RAND_LEN), cs.TAG_LEN, cs.a3_sres),
    "a8_kc": ((cs.KEY_LEN, cs.RAND_LEN), cs.TAG_LEN, cs.a8_kc),
    "a5_keystream": ((1, cs.TAG_LEN, 8, 4), None, _a5_vector),
    # latin-1 maps each octet to one character, so check_imsi refuses a non-digit
    "derive_subscriber_keys": (
        (cs.KEY_LEN, 15),
        2 * cs.KEY_LEN,
        lambda master, imsi: b"".join(cs.derive_subscriber_keys(master, imsi.decode("latin-1"))),
    ),
    "build_hijacked_rand": (
        (cs.KEY_LEN, 2, 6),
        cs.RAND_LEN,
        lambda ka, amf, sqn: auth_core.build_hijacked_rand(ka, _int(amf), _int(sqn)),
    ),
}


def generate_vector_lines(seed: int, count: int) -> list[str]:
    """Deterministic vector records, `count` per operation."""
    if not cs._is_int(count) or not 0 <= count <= MAX_VECTOR_COUNT:
        raise MalformedInputError(
            f"count must be an integer in [0, {MAX_VECTOR_COUNT}], got {count!r}"
        )
    rng = random.Random(f"vectors/{seed}")
    lines = ["# primitive test vectors", f"# seed={seed} count={count}"]
    # octets of ka, msg, mac, ki, rand and kc; each iteration draws its
    # inputs once, in the order they are named below
    sizes = (cs.KEY_LEN, cs.TAG_LEN, cs.TAG_LEN, cs.KEY_LEN, cs.RAND_LEN, cs.TAG_LEN)
    tags, length = list(_VECTOR_ALGS), (16).to_bytes(4, "big")
    for i in range(count):
        ka, msg, mac, ki, rand, kc = map(rng.randbytes, sizes)
        frame = rng.randrange(1 << 16).to_bytes(8, "big")
        master = rng.randbytes(cs.KEY_LEN)
        imsi = "".join(str(rng.randrange(10)) for _ in range(15)).encode("ascii")
        amf = rng.randrange(1 << 16).to_bytes(2, "big")
        sqn = rng.randrange(1 << 48).to_bytes(6, "big")
        for op, *inputs in (
            ("f1_mac", ka, msg),
            ("f5_mask", ka, mac),
            ("a3_sres", ki, rand),
            ("a8_kc", ki, rand),
            ("a5_keystream", tags[i % len(tags)], kc, frame, length),
            ("derive_subscriber_keys", master, imsi),
            ("build_hijacked_rand", ka, amf, sqn),
        ):
            output = _VECTOR_OPS[op][2](*inputs).hex()
            lines.append(cs.render_vector_line(op, [value.hex() for value in inputs], output))
    return lines


def _check_vector(op: str, inputs: list[str], output: str) -> bool:
    """Whether a parsed record's output is what its op computes."""
    if op not in _VECTOR_OPS:
        raise MalformedInputError(f"unknown op {op!r}")
    sizes, out_size, function = _VECTOR_OPS[op]
    if [len(value) for value in inputs] != [2 * size for size in sizes]:
        raise MalformedInputError(f"{op} takes inputs of {sizes} octets")
    values = [bytes.fromhex(value) for value in inputs]
    out_size = _int(values[-1]) if out_size is None else out_size
    # checked before computing, so a forged length cannot size the keystream
    if len(output) != 2 * out_size:
        raise MalformedInputError(f"{op} output must be {out_size} octets")
    return function(*values).hex() == output


def rand_bit_stats(n: int, seed: int) -> dict:
    """Per-bit-position one-frequencies over n sequence-bearing challenges.

    Challenges are built under one seeded ka with sequential sequence
    numbers 1..n, the exact issuance pattern of a real batch.  The bound is
    a smoke test: each of the 128 positions must sit within 4 sigma of n/2.
    """
    if not cs._is_int(n) or not 1 <= n <= auth_core.SQN_MAX:
        raise MalformedInputError(f"n must be an integer in [1, 2^48), got {n!r}")
    if not cs._is_int(seed):
        raise MalformedInputError(f"seed must be an integer, got {seed!r}")
    rng = random.Random(f"rand-stats/{seed}")
    ka = cs.Key128(rng.randbytes(cs.KEY_LEN))
    amf = 0
    build, width = auth_core._MAX_LANES, cs.RAND_LEN * _RAND_STATS_PIECE
    # a vertical counter: planes[j] holds bit j of the running count of every
    # bit-lane of a piece int.  Lane k counts bit 127 - k % 128 of the
    # challenges (bit 0 the most significant), so a shorter piece lines up at
    # the low end
    planes = []
    for first in range(1, n + 1, build):
        rands = auth_core.build_hijacked_rands(ka, amf, first, min(build, n + 1 - first))
        for start in range(0, len(rands), width):
            carry = int.from_bytes(rands[start : start + width], "big")
            for j, plane in enumerate(planes):
                planes[j] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                planes.append(carry)

    # masks[bit] has bit 0x80 >> bit set in every octet of a column
    masks = [
        int.from_bytes(bytes([0x80 >> bit]) * _RAND_STATS_PIECE, "big") for bit in range(8)
    ]
    counts = [0] * (8 * cs.RAND_LEN)
    for j, plane in enumerate(planes):
        octets = plane.to_bytes(width, "big")
        for pos in range(cs.RAND_LEN):
            # octet `pos` of every challenge lane, as one int
            column = int.from_bytes(octets[pos :: cs.RAND_LEN], "big")
            for bit, mask in enumerate(masks):
                counts[8 * pos + bit] += (column & mask).bit_count() << j

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

    p_check = sub.add_parser("check-vectors", help="recompute a primitive test-vector file")
    p_check.add_argument("--vectors", required=True, help="vector file path")

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
    try:
        lines = generate_vector_lines(args.seed, args.count)
    except MalformedInputError as exc:
        print(f"error: --{exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.writelines(line + "\n" for line in lines)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {len(lines)} lines to {args.out}")
    return EXIT_OK


def _cmd_check_vectors(args) -> int:
    checked = mismatched = 0
    try:
        with open(args.vectors, "r", encoding="ascii") as handle:
            for number, line in enumerate(handle, start=1):
                record = cs.parse_vector_line(line)
                if record is None:
                    continue
                checked += 1
                if not _check_vector(*record):
                    mismatched += 1
                    print(f"line {number}: {record[0]} output differs", file=sys.stderr)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.vectors}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MalformedInputError as exc:
        print(f"error: line {number}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{checked} records checked, {mismatched} mismatched")
    return EXIT_TRACE_MISMATCH if mismatched else EXIT_OK


def _cmd_run(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = harness.ScenarioConfig.loads(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
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
                handle.write(harness.render_trace(result.trace))
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
        "check-vectors": _cmd_check_vectors,
        "run": _cmd_run,
        "verify-trace": _cmd_verify_trace,
        "rand-stats": _cmd_rand_stats,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
