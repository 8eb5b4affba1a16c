"""Command-line interface: subcommands, exit codes, output contracts."""

import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

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
        lines = out.read_text().splitlines()
        assert lines and all(l.startswith("#") for l in lines)

    def test_records_reverify_against_reference(self, tmp_path):
        out = tmp_path / "v.txt"
        assert cli.main(["gen-vectors", "--out", str(out), "--seed", "9", "--count", "6"]) == 0
        checked = 0
        for op, ins, expect in cs.iter_vector_records(out.read_text()):
            got = self.reference_eval(op, ins)
            assert got == expect, op
            checked += 1
        assert checked == 6 * 7  # six records for each of the seven ops

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


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 64
