"""Command-line interface: subcommands, exit codes, output contracts."""

import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import shlex

import pytest

import oracle
from akasim import auth_core as ac, cli
from akasim import crypto_suite as cs
from akasim.errors import MalformedInputError

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"


class TestImport:
    def test_import_loads_no_dataclasses_or_inspect(self):
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import akasim, akasim.cli\n"
            "print(akasim.__file__)\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        path, loaded = proc.stdout.splitlines()
        assert pathlib.Path(path).resolve().parent == SRC / "akasim"
        loaded = set(loaded.split())
        assert "akasim.cli" in loaded
        assert not loaded & {"dataclasses", "inspect"}


class TestGenVectors:
    def test_deterministic_output(self, tmp_path):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for p in paths:
            assert cli.main(["gen-vectors", "--out", str(p), "--seed", "3", "--count", "4"]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_count_zero_header_only(self, tmp_path):
        out = tmp_path / "v.txt"
        assert cli.main(["gen-vectors", "--out", str(out), "--seed", "1", "--count", "0"]) == 0
        assert out.read_bytes() == b"# primitive test vectors\n# seed=1 count=0\n"

    def test_records_reverify_against_reference(self, tmp_path):
        out = tmp_path / "v.txt"
        assert cli.main(["gen-vectors", "--out", str(out), "--seed", "9", "--count", "6"]) == 0
        records = [cs.parse_vector_line(line) for line in out.read_text().splitlines()[2:]]
        for op, ins, expect in records:
            assert self.reference_eval(op, ins) == expect, op
        assert len(records) == 6 * 7  # six records for each of the seven ops
        assert cli.main(["check-vectors", "--vectors", str(out)]) == 0

    @staticmethod
    def reference_eval(op, ins):
        unhex = bytes.fromhex
        if op == "f1_mac":
            return oracle.ref_f1(unhex(ins[0]), unhex(ins[1])).hex()
        if op == "f5_mask":
            return oracle.ref_f5(unhex(ins[0]), unhex(ins[1])).hex()
        if op == "a3_sres":
            return oracle.ref_a3(unhex(ins[0]), unhex(ins[1])).hex()
        if op == "a8_kc":
            return oracle.ref_a8(unhex(ins[0]), unhex(ins[1])).hex()
        if op == "a5_keystream":
            tag = unhex(ins[0])[0]
            kc = unhex(ins[1])
            frame = int.from_bytes(unhex(ins[2]), "big")
            length = int.from_bytes(unhex(ins[3]), "big")
            if tag == 0xA2:
                return oracle.ref_a5_weak(kc, frame, length).hex()
            return oracle.ref_a5_strong(tag, kc, frame, length).hex()
        if op == "derive_subscriber_keys":
            ki, ka = oracle.ref_derive(unhex(ins[0]), unhex(ins[1]).decode("ascii"))
            return (ki + ka).hex()
        if op == "build_hijacked_rand":
            ka = unhex(ins[0])
            amf = int.from_bytes(unhex(ins[1]), "big")
            sqn = int.from_bytes(unhex(ins[2]), "big")
            return oracle.ref_build_rand(ka, amf, sqn).hex()
        raise AssertionError(f"unknown op {op}")

    def test_unwritable_path_is_usage_error(self, tmp_path):
        assert cli.main(["gen-vectors", "--out", str(tmp_path / "no" / "dir.txt")]) == 64

    def test_file_pinned(self, tmp_path):
        out = tmp_path / "v.txt"
        assert cli.main(["gen-vectors", "--out", str(out), "--seed", "7", "--count", "16"]) == 0
        assert (
            hashlib.sha256(out.read_bytes()).hexdigest()
            == "c28a72898f7136e2504353f1fb89e8e2ac1181c143b30aedf47a9ba274972079"
        )

    @pytest.mark.parametrize("count", ["-1", str(cli.MAX_VECTOR_COUNT + 1), str(10**23)])
    def test_count_out_of_range_refused_before_any_work(
        self, tmp_path, monkeypatch, capsys, count
    ):
        def no_work(*args):
            raise AssertionError("vectors built for a refused --count")

        monkeypatch.setattr(cli, "_VECTOR_OPS", {op: ((), 0, no_work) for op in cli._VECTOR_OPS})
        out = tmp_path / "v.txt"
        assert cli.main(["gen-vectors", "--out", str(out), "--count", count]) == 64
        assert f"[0, {cli.MAX_VECTOR_COUNT}]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", [-1, True, False, 1.0, "1", None, cli.MAX_VECTOR_COUNT + 1])
    def test_library_refuses_bad_count(self, count):
        with pytest.raises(MalformedInputError):
            cli.generate_vector_lines(0, count)


class TestCheckVectors:
    @pytest.fixture
    def vectors(self, tmp_path):
        out = tmp_path / "v.txt"
        assert cli.main(["gen-vectors", "--out", str(out), "--seed", "7", "--count", "3"]) == 0
        return out

    def test_generated_file_checks(self, vectors, capsys):
        assert cli.main(["check-vectors", "--vectors", str(vectors)]) == 0
        assert capsys.readouterr().out == "21 records checked, 0 mismatched\n"

    @pytest.mark.parametrize("line", range(2, 23))
    def test_flipped_output_digit_is_a_mismatch(self, vectors, capsys, line):
        lines = vectors.read_text().splitlines()
        digit = lines[line][-1]
        lines[line] = lines[line][:-1] + ("0" if digit != "0" else "1")
        vectors.write_text("\n".join(lines) + "\n")
        assert cli.main(["check-vectors", "--vectors", str(vectors)]) == 1
        op = lines[line].split()[0]
        assert f"line {line + 1}: {op} output differs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record",
        [
            "f9_mac 00 -> 00",
            "f1_mac " + "00" * 16 + " -> " + "00" * 8,
            "f1_mac " + "00" * 16 + " " + "00" * 7 + " -> " + "00" * 8,
            "f1_mac " + "00" * 16 + " " + "00" * 8 + " -> " + "00" * 9,
            "f1_mac " + "00" * 16 + " " + "0" * 15 + " -> " + "00" * 8,
            "a3_sres " + "00" * 16 + " " + "0" * 32 + " -> " + "0" * 15,
            "a5_keystream 00 " + "00" * 8 + " " + "00" * 8 + " 00000002 -> 0000",
            "a5_keystream a4 " + "00" * 8 + " " + "00" * 8 + " 00000002 -> 0000",
            "a5_keystream a1 " + "00" * 8 + " " + "00" * 8 + " ffffffff -> 0000",
            "derive_subscriber_keys " + "00" * 16 + " " + "3a" * 15 + " -> " + "00" * 32,
            "derive_subscriber_keys " + "00" * 16 + " " + "ff" * 15 + " -> " + "00" * 32,
            "f1_mac 00 11",
            "f1_mac ZZ -> 00",
        ],
        ids=[
            "unknown_op",
            "missing_input",
            "short_input",
            "long_output",
            "odd_hex_input",
            "odd_hex_output",
            "tag_none",
            "tag_a4",
            "huge_length",
            "imsi_not_digits",
            "imsi_not_ascii",
            "no_arrow",
            "non_hex",
        ],
    )
    def test_malformed_record_exits_64(self, vectors, capsys, record):
        with vectors.open("a") as handle:
            handle.write(record + "\n")
        assert cli.main(["check-vectors", "--vectors", str(vectors)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("body", [b"# \xff\n", None], ids=["non_ascii", "missing"])
    def test_unreadable_file_exits_64(self, tmp_path, capsys, body):
        path = tmp_path / "v.txt"
        if body is not None:
            path.write_bytes(body)
        assert cli.main(["check-vectors", "--vectors", str(path)]) == 64
        assert capsys.readouterr().err.startswith("error:")


class TestRun:
    def test_honest_scenario_exit_zero(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        code = cli.main(
            [
                "run",
                "--config",
                str(CONFIGS / "honest_enhanced.json"),
                "--trace-out",
                str(trace),
            ]
        )
        assert code == 0
        assert trace.exists()
        first = json.loads(trace.read_text().splitlines()[0])
        assert first["seq_no"] == 0

    def test_missing_config_usage_error(self):
        assert cli.main(["run", "--config", "/nonexistent.json"]) == 64

    def test_non_utf8_config_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert cli.main(["run", "--config", str(bad)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config:") and "Traceback" not in err

    def test_invalid_config_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"seed": "nope"}')
        assert cli.main(["run", "--config", str(bad)]) == 64

    def test_non_ascii_imsi_usage_error(self, tmp_path, capsys):
        text = (CONFIGS / "honest_enhanced.json").read_text()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text.replace("001010000000001", "٠" * 15), encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg)]) == 64
        assert "imsi" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "predicate",
        [
            {"kind": "present", "where": ["msg", "AUTH_RESULT"]},
            {"kind": "ordered", "sequence": [{"msg": "ATTACH"}, "AUTH_RESULT"]},
            {"kind": "field_equals", "where": {}, "field": 1, "value": 1},
        ],
    )
    def test_malformed_assert_usage_error(self, tmp_path, capsys, predicate):
        raw = json.loads((CONFIGS / "honest_enhanced.json").read_text())
        raw["script"].append({"op": "ASSERT", "predicate": predicate})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "step",
        [
            {"op": "REQUEST_TRIPLES", "imsi": "001010000000001", "n": 4097},
            {"op": "SEND_TRAFFIC", "imsi": "001010000000001", "plaintext": "00", "frame_index": 2**64},
        ],
        ids=["n_above_cap", "frame_index_2_64"],
    )
    def test_step_out_of_range_usage_error(self, tmp_path, capsys, step):
        raw = json.loads((CONFIGS / "honest_enhanced.json").read_text())
        raw["script"].append(step)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("attacker", [False, 0, "", [], {}], ids=repr)
    def test_falsy_attacker_usage_error(self, tmp_path, attacker):
        raw = json.loads((CONFIGS / "honest_enhanced.json").read_text())
        raw["attacker"] = attacker
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 64
        raw["attacker"] = None  # null means no attacker
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize(
        "where, key",
        [("subscribers", "mastr"), ("REQUEST_TRIPLES", "N"), ("ATTACH", "bogus")],
    )
    def test_unknown_key_usage_error(self, tmp_path, capsys, where, key):
        raw = json.loads((CONFIGS / "honest_enhanced.json").read_text())
        entries = raw["subscribers"] if where == "subscribers" else raw["script"]
        next(entry for entry in entries if entry.get("op", where) == where)[key] = 4
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key}'" in err

    def test_failing_assert_exit_two(self, tmp_path):
        raw = json.loads((CONFIGS / "honest_enhanced.json").read_text())
        raw["script"].append(
            {"op": "ASSERT", "predicate": {"kind": "present", "where": {"msg": "NO_SUCH"}}}
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 2

    def test_actor_error_exit_three(self, tmp_path):
        raw = json.loads((CONFIGS / "honest_enhanced.json").read_text())
        raw["script"] = [{"op": "CHALLENGE", "imsi": "001010000000001"}]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 3

    def test_summary_json_is_single_object(self, capsys):
        code = cli.main(
            ["run", "--config", str(CONFIGS / "mitm_legacy.json"), "--summary-json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["all_asserts_passed"] is True
        assert summary["attacks"][0]["succeeded"] is True


class TestVerifyTrace:
    def test_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_text("same\n")
        b.write_text("same\n")
        assert cli.main(["verify-trace", "--trace", str(a), "--golden", str(b)]) == 0

    def test_mismatch(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_text("one\ntwo\n")
        b.write_text("one\nTWO\n")
        assert cli.main(["verify-trace", "--trace", str(a), "--golden", str(b)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_usage_error(self, tmp_path):
        a = tmp_path / "a"
        a.write_text("x")
        assert cli.main(["verify-trace", "--trace", str(a), "--golden", "/none"]) == 64


class TestRandStats:
    def test_small_n_rejected(self):
        assert cli.main(["rand-stats", "--n", "100"]) == 64

    def test_minimum_n_passes(self, capsys):
        code = cli.main(["rand-stats", "--n", "10000", "--seed", "0", "--summary-json"])
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert code == 0
        assert len(report["bit_counts"]) == 128
        assert len(report["bit_frequencies"]) == 128
        assert all(0.45 < f < 0.55 for f in report["bit_frequencies"])

    def test_chunked_counts_equal_direct_counts(self):
        # 9000 challenges span three build chunks
        report = cli.rand_bit_stats(9000, seed=2)
        ka = random.Random("rand-stats/2").randbytes(cs.KEY_LEN)
        ones = [0] * 128
        for sqn in range(1, 9001):
            value = int.from_bytes(ac.build_hijacked_rand(ka, 0, sqn), "big")
            for bit in range(128):
                ones[bit] += value >> (127 - bit) & 1
        assert report["bit_counts"] == ones

    def test_report_deterministic(self):
        a = cli.rand_bit_stats(10_000, seed=5)
        b = cli.rand_bit_stats(10_000, seed=5)
        assert a == b

    def test_report_pinned(self):
        report = json.dumps(cli.rand_bit_stats(100_000, seed=0), sort_keys=True)
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "3266f0022719a4088c703239ced2bcf8495163c1548dbdc4613ad320effd5a0d"
        )

    def test_counts_match_oracle_across_chunk_edge(self):
        seed = 3
        ka = random.Random(f"rand-stats/{seed}").randbytes(cs.KEY_LEN)
        ones = [0] * 128
        prefixes = {}
        for sqn in range(1, 4098):
            value = int.from_bytes(oracle.ref_build_rand(ka, 0, sqn), "big")
            for bit in range(128):
                ones[bit] += value >> (127 - bit) & 1
            if sqn in (1, 16, 4095, 4096, 4097):
                prefixes[sqn] = list(ones)
        for n, want in prefixes.items():
            assert cli.rand_bit_stats(n, seed)["bit_counts"] == want, n

    @pytest.mark.parametrize("piece", [3, cli._RAND_STATS_PIECE])
    def test_counts_match_direct_counts_at_plane_edges(self, monkeypatch, piece):
        # 2^k and 2^k + 1 pieces for k = 0..2, where a carry ripples into a
        # new plane; each n of 2^k * piece + 1, and the n that crosses a build
        # call, ends on a single-challenge piece
        monkeypatch.setattr(cli, "_RAND_STATS_PIECE", piece)
        ns = {pieces * piece + extra for pieces in (1, 2, 4) for extra in (0, 1)}
        ns.add(ac._MAX_LANES + 1)
        seed = 6
        ka = random.Random(f"rand-stats/{seed}").randbytes(cs.KEY_LEN)
        ones = [0] * 128
        for sqn in range(1, max(ns) + 1):
            value = int.from_bytes(ac.build_hijacked_rand(ka, 0, sqn), "big")
            for bit in range(128):
                ones[bit] += value >> (127 - bit) & 1
            if sqn in ns:
                assert cli.rand_bit_stats(sqn, seed)["bit_counts"] == ones, sqn

    def test_each_challenge_built_once_per_call(self, monkeypatch):
        calls = []
        build = ac.build_hijacked_rands

        def recording(ka, amf, first, n):
            calls.append((first, n))
            return build(ka, amf, first, n)

        monkeypatch.setattr(ac, "build_hijacked_rands", recording)
        # the second call builds every challenge again: nothing is cached
        for _ in range(2):
            calls.clear()
            cli.rand_bit_stats(9000, seed=4)
            ends = [first + n for first, n in calls]
            assert [first for first, _ in calls] == [1] + ends[:-1]
            assert ends[-1] == 9001

    @pytest.mark.parametrize(
        "n, seed",
        [
            (0, 0),
            (-5, 0),
            (True, 0),
            (1.0, 0),
            ("10", 0),
            (ac.SQN_MAX + 1, 0),
            (1, True),
            (1, 0.0),
            (1, None),
        ],
    )
    def test_bad_arguments_rejected(self, n, seed):
        with pytest.raises(MalformedInputError):
            cli.rand_bit_stats(n, seed)

    @pytest.mark.parametrize("n", [str(ac.SQN_MAX + 1), str(1 << 64)])
    def test_n_above_sqn_max_refused_before_any_work(self, monkeypatch, capsys, n):
        def no_work(*args):
            raise AssertionError("challenges built for a refused --n")

        monkeypatch.setattr(ac, "build_hijacked_rands", no_work)
        assert cli.main(["rand-stats", "--n", n]) == 64
        assert "2^48 - 1" in capsys.readouterr().err


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    """Every command in README's `## CLI` block exits 0, in order."""
    readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert len(commands) == 5 and all(argv[0] == "akasim" for argv in commands)
    (tmp_path / "configs").symlink_to(CONFIGS)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "golden").symlink_to(CONFIGS.parent / "tests" / "golden")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 64
