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
from akasim import auth_core as ac, cli, harness
from akasim import crypto_suite as cs
from akasim.errors import MalformedInputError, ProvisioningError

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

    def test_unwritable_trace_out_usage_error(self, tmp_path, capsys):
        trace = tmp_path / "no" / "t.trace"
        argv = ["run", "--config", str(CONFIGS / "honest_enhanced.json"), "--trace-out", str(trace)]
        assert cli.main(argv) == 64
        assert capsys.readouterr().err.startswith("error: cannot write trace:")
        assert not trace.parent.exists()

    def test_setup_failure_exit_three_without_a_trace(self, tmp_path, capsys, monkeypatch):
        def failing_setup(config):
            raise ProvisioningError("subscriber store unavailable")

        monkeypatch.setattr(harness, "ScenarioEngine", failing_setup)
        trace = tmp_path / "t.trace"
        argv = ["run", "--config", str(CONFIGS / "honest_enhanced.json"), "--trace-out", str(trace)]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: scenario setup failed: subscriber store unavailable\n")
        assert not trace.exists()

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

    @pytest.mark.parametrize(
        "field, message",
        [
            ("master", "master key for 001010000000001 must be a hex string"),
            ("victim_traffic", "victim_traffic must be a hex string"),
            ("plaintext", "step 7: plaintext must be a hex string"),
        ],
    )
    @pytest.mark.parametrize("text", ["00 ff", "00\tff", "00ff\n"], ids=repr)
    def test_hex_with_whitespace_usage_error(self, tmp_path, capsys, field, message, text):
        raw = json.loads((CONFIGS / "honest_enhanced.json").read_text())
        if field == "master":
            raw["subscribers"][0]["master"] = text
        elif field == "victim_traffic":
            raw["attacker"] = {"kind": "MITM_EAVESDROP", "victim_traffic": text}
        else:
            raw["script"].insert(7, {"op": "SEND_TRAFFIC", "imsi": "001010000000001", "plaintext": text})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err

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

    def test_unknown_predicate_key_usage_error(self, tmp_path, capsys):
        # the ASSERT would pass without its stray key: the key alone exits 64
        raw = json.loads((CONFIGS / "honest_enhanced.json").read_text())
        predicate = {"kind": "absent", "where": {"msg": "AUTH_RESULT", "verdict": "REJECTED"}}
        raw["script"].append({"op": "ASSERT", "predicate": {**predicate, "negate": True}})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'negate'" in err and "Traceback" not in err
        raw["script"][-1]["predicate"] = predicate
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize(
        "key, value", [("imsi", "001010000000001"), ("rand_source", "SKIP_AKA"), ("victim_traffic", "00")]
    )
    def test_replay_attacker_key_usage_error(self, tmp_path, capsys, key, value):
        # the eavesdropper's keys: the replay attack would run as if they were not there
        raw = json.loads((CONFIGS / "bbk_legacy.json").read_text())
        raw["attacker"][key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"'{key}'" in err and "Traceback" not in err
        del raw["attacker"][key]
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 0

    def test_attack_on_the_attackers_own_subscription_usage_error(self, tmp_path, capsys):
        # its genuine relay leg would go out over the network it faked
        raw = json.loads((CONFIGS / "mitm_enhanced.json").read_text())
        step = next(step for step in raw["script"] if step["op"] == "RUN_ATTACK")
        step["victim"] = raw["attacker"]["imsi"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 64
        err = capsys.readouterr().err
        assert err.startswith("error: step 3 (RUN_ATTACK)") and "Traceback" not in err

    def test_config_that_is_not_an_object_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[]")
        assert cli.main(["run", "--config", str(cfg)]) == 64
        assert capsys.readouterr().err == "error: config must be a JSON object\n"

    def test_unprovisioned_attacker_imsi_usage_error(self, tmp_path, capsys):
        raw = json.loads((CONFIGS / "mitm_enhanced.json").read_text())
        raw["attacker"]["imsi"] = "001019999999999"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 64
        assert capsys.readouterr().err == "error: attacker imsi 001019999999999 not provisioned\n"

    def test_step_without_imsi_usage_error(self, tmp_path, capsys):
        raw = json.loads((CONFIGS / "honest_enhanced.json").read_text())
        raw["script"].append({"op": "ATTACH"})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg)]) == 64
        idx = len(raw["script"]) - 1
        assert capsys.readouterr().err == f"error: step {idx} (ATTACH) needs an imsi/victim\n"

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

    # sha256 of the stdout of `run --config configs/<name>.json`, plain and
    # with --summary-json, recorded while the report still came from per-run
    # report lists rather than the trace; every shipped config exits 0
    RUN_STDOUT_SHA256 = {
        ("bbk_enhanced", False): "c05cd11ae4636337e9d50b2fa5d0239b02d629977c0e6a533e7b6af61b15ecb8",
        ("bbk_enhanced", True): "326d90e1f5b6c647f71b22273ed6e582cc0bc567fc0b3bbf02e6f9d7f795a1d5",
        ("bbk_legacy", False): "ab7aa0fe6b538b258ed8487ed3474efab3a28033e3dd03f7ede52b3744be7107",
        ("bbk_legacy", True): "cd24dd0bad4185091a72ed2bbfb683f5ac2ed2cbb1a0c6ffa248a2bee26b7222",
        ("honest_enhanced", False): "9511db73b4a0b40809e7c965b7412f072b916814c48f2470d70a1118a4f68f88",
        ("honest_enhanced", True): "4e1e4300f9100502d5ef72a75f564dfdb3c77d549a75ec4018b734e506c8fea7",
        ("mitm_enhanced", False): "415a11d3d4facf306fbab5801518d5f4ee77035815c8554d6ca4e7ce2a5f5e79",
        ("mitm_enhanced", True): "b3cd0058bae5a3474f974ba800fb000af4f4da6d9fb7a0629aaf649e4ce846e5",
        ("mitm_legacy", False): "c3a1b6edf05a8f5f8bc900f50a66b5d486029a4d4a6b11f75b2e7eac233ac37b",
        ("mitm_legacy", True): "3c2565e2f7026436bf2e5181125f64f2668ebefdf9d2840623786e8a7cdff3b5",
    }

    @pytest.mark.parametrize("name, summary", sorted(RUN_STDOUT_SHA256))
    def test_shipped_config_stdout_is_pinned(self, capsys, name, summary):
        argv = ["run", "--config", str(CONFIGS / f"{name}.json")]
        assert cli.main(argv + ["--summary-json"] * summary) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == self.RUN_STDOUT_SHA256[name, summary]

    # stdout, stderr and exit code of two runs of honest_enhanced.json that
    # end badly, each plain and with --summary-json
    FAILING_ASSERT_OUT = (
        "assert step 5: pass (no event matched)\n"
        "assert step 6: pass (matched at seq_no 10)\n"
        "assert step 7: FAIL (no event matched)\n"
        "25 events\n",
        '{"events":25,"aborted":false,"error":null,"attacks":[],"asserts":['
        '{"step":5,"passed":true,"detail":"no event matched"},'
        '{"step":6,"passed":true,"detail":"matched at seq_no 10"},'
        '{"step":7,"passed":false,"detail":"no event matched"}],'
        '"all_asserts_passed":false}\n',
    )
    ABORT_ERR = "error: step 0 (CHALLENGE): no triples left for 001010000000001\n"
    ABORT_OUT = (
        "4 events\n",
        '{"events":4,"aborted":true,'
        '"error":"step 0 (CHALLENGE): no triples left for 001010000000001",'
        '"attacks":[],"asserts":[],"all_asserts_passed":true}\n',
    )

    @pytest.mark.parametrize("summary", [False, True], ids=["plain", "summary-json"])
    @pytest.mark.parametrize("ending", ["failing_assert", "abort"])
    def test_bad_ending_output_is_pinned(self, tmp_path, capsys, ending, summary):
        raw = json.loads((CONFIGS / "honest_enhanced.json").read_text())
        if ending == "abort":
            raw["script"] = [{"op": "CHALLENGE", "imsi": "001010000000001"}]
            want = (self.ABORT_OUT[summary], self.ABORT_ERR, 3)
        else:
            raw["script"].append(
                {"op": "ASSERT", "predicate": {"kind": "present", "where": {"msg": "NO_SUCH"}}}
            )
            want = (self.FAILING_ASSERT_OUT[summary], "", 2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code = cli.main(["run", "--config", str(cfg)] + ["--summary-json"] * summary)
        assert (*capsys.readouterr(), code) == want

    def test_summary_json_reports_each_of_two_attacks_on_its_own(self, tmp_path, capsys):
        # the legacy victim's traffic falls to the eavesdropper; the enhanced
        # one drops it, and must not inherit the first attack's plaintext
        raw = json.loads((CONFIGS / "mitm_legacy.json").read_text())
        enhanced = "001010000000002"
        raw["subscribers"].append({"imsi": enhanced, "mode": "ENHANCED"})
        raw["script"] = [
            {"op": "ATTACH", "imsi": "001010000000001"},
            {"op": "OPEN_CHANNEL", "imsi": "001010000000001"},
            {"op": "ATTACH", "imsi": enhanced},
            {"op": "OPEN_CHANNEL", "imsi": enhanced},
            {"op": "REQUEST_TRIPLES", "imsi": "001010000000099", "n": 1},
            {"op": "RUN_ATTACK", "victim": "001010000000001"},
            {"op": "RUN_ATTACK", "victim": enhanced},
        ]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(cfg), "--summary-json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["attacks"] == [
            {
                "kind": "MITM_EAVESDROP",
                "succeeded": True,
                "recovered_kc": None,
                "recovered_plaintext": "68656c6c6f20776f726c64",
                "failure_cause": None,
            },
            {
                "kind": "MITM_EAVESDROP",
                "succeeded": False,
                "recovered_kc": None,
                "recovered_plaintext": None,
                "failure_cause": "connection dropped by SIM",
            },
        ]

    @pytest.mark.parametrize(
        "name, msg",
        [
            ("bbk_legacy", "LOG_DECRYPTED"),
            ("mitm_legacy", "PLAINTEXT_OBSERVED"),
            ("bbk_enhanced", None),
            ("mitm_enhanced", None),
        ],
    )
    def test_summary_json_recovered_plaintext_is_the_traced_one(self, tmp_path, capsys, name, msg):
        trace = tmp_path / "t.trace"
        argv = ["run", "--config", str(CONFIGS / f"{name}.json"), "--trace-out", str(trace)]
        assert cli.main(argv + ["--summary-json"]) == 0
        (attack,) = json.loads(capsys.readouterr().out)["attacks"]
        if msg is None:
            assert attack["recovered_plaintext"] is None
        else:
            events = [json.loads(line)["event"] for line in trace.read_text().splitlines()]
            traced = [event["plaintext"] for event in events if event["msg"] == msg]
            assert [attack["recovered_plaintext"]] == traced


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

    def test_length_mismatch(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_text("one\ntwo")  # without the golden's last newline
        b.write_text("one\ntwo\n")
        assert cli.main(["verify-trace", "--trace", str(a), "--golden", str(b)]) == 1
        assert capsys.readouterr().err == "traces differ in length: 2 vs 3 lines\n"

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

    def test_plain_report_is_one_line(self, capsys):
        assert cli.main(["rand-stats", "--n", "10000", "--seed", "0"]) == 0
        report = cli.rand_bit_stats(10_000, 0)
        assert capsys.readouterr().out == (
            f"n=10000 max deviation {report['max_sigma_deviation']} sigma "
            f"(bound {report['sigma_bound']}): pass\n"
        )

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

    @pytest.mark.parametrize("lanes", [4, 4096])
    def test_counts_match_direct_counts_at_plane_edges(self, monkeypatch, lanes):
        # every count of full builds from 1 to 9, and one challenge more: the
        # carry-save counter holds 1 or 2 ints per weight, a full add sends a
        # carry past its top weight (3 and 7 builds), and the fold adds a full
        # build to a one-challenge build; n = 1 folds a single challenge
        monkeypatch.setattr(ac, "_MAX_LANES", lanes)
        ns = {builds * lanes + extra for builds in range(1, 10) for extra in (0, 1)} | {1}
        seed = 6
        ka = random.Random(f"rand-stats/{seed}").randbytes(cs.KEY_LEN)
        ones = [0] * 128
        for sqn in range(1, max(ns) + 1):
            value = int.from_bytes(ac.build_hijacked_rand(ka, 0, sqn), "big")
            for bit in range(128):
                ones[bit] += value >> (127 - bit) & 1
            if sqn in ns:
                assert cli.rand_bit_stats(sqn, seed)["bit_counts"] == ones, sqn

    def test_one_more_challenge_adds_its_oracle_bits(self):
        # the counts of n challenges less those of n - 1 are the bits of
        # challenge n alone, from the oracle: around 2^16, where the builder's
        # f1 blocks change segment, and at 2^16 + 4096 (a build edge)
        seed = 7
        ka = random.Random(f"rand-stats/{seed}").randbytes(cs.KEY_LEN)
        for n in (65535, 65536, 65537, 69632, 69633):
            value = int.from_bytes(oracle.ref_build_rand(ka, 0, n), "big")
            bits = [value >> (127 - bit) & 1 for bit in range(128)]
            more, less = (cli.rand_bit_stats(m, seed)["bit_counts"] for m in (n, n - 1))
            assert [a - b for a, b in zip(more, less)] == bits, n

    def test_each_challenge_built_once_per_call(self, monkeypatch):
        calls = []
        build = ac._build_halves

        def recording(ka, amf, first, n):
            calls.append((first, n))
            return build(ka, amf, first, n)

        monkeypatch.setattr(ac, "_build_halves", recording)
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

        monkeypatch.setattr(ac, "_build_halves", no_work)
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
