"""Scenario engine: config validation, determinism, trace predicates."""

import gc
import hashlib
import json
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import oracle
from test_traffic import multi_frame_config
from akasim import harness
from akasim.errors import ConfigError
from akasim.network_side import MAX_BATCH
from akasim.sim_card import noop_trace
from akasim.harness import (
    AssertOutcome,
    ScenarioConfig,
    TraceEvent,
    Tracer,
    assert_trace,
    run_scenario,
)

VICTIM = "001010000000001"
OTHER = "001010000000002"
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# hex octets with ASCII whitespace, which `bytes.fromhex` would skip
SPACED_HEX = ("00 ff", "00\tff", "00ff\n")


def base_config(**overrides):
    raw = {
        "seed": 1,
        "subscribers": [{"imsi": VICTIM, "mode": "ENHANCED"}],
        "network_policy": {
            "consumption_policy": "IN_ORDER",
            "cipher": "A5_3",
            "batch_size": 2,
        },
        "script": [
            {"op": "ATTACH", "imsi": VICTIM},
            {"op": "REQUEST_TRIPLES", "imsi": VICTIM, "n": 2},
            {"op": "CHALLENGE", "imsi": VICTIM},
        ],
    }
    raw.update(overrides)
    return raw


class TestConfigValidation:
    def test_minimal_valid(self):
        config = ScenarioConfig.from_dict(base_config())
        assert config.seed == 1
        assert len(config.script) == 3

    def test_loads_json(self):
        config = ScenarioConfig.loads(json.dumps(base_config()))
        assert config.subscribers[0].imsi == VICTIM

    def test_bad_json(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.loads("{not json")

    @pytest.mark.parametrize(
        "mutation",
        [
            {"seed": "ten"},
            {"subscribers": []},
            {"subscribers": [{"imsi": "123", "mode": "LEGACY"}]},
            {"subscribers": [{"imsi": VICTIM, "mode": "LEGACY", "master": "00"}]},
            {"unknown_key": 1},
            {"network_policy": {"consumption_policy": "SHUFFLE"}},
            {"network_policy": {"batch_size": 0}},
            {"network_policy": {"ciph": "A5_3"}},
            {"me_profiles": {OTHER: {"class_e": True}}},
            {"me_profiles": {VICTIM: {"classe": True}}},
            {"script": [{"op": "SEND_TRAFFIC", "imsi": VICTIM}]},
            {"script": [{"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "zz"}]},
            {"script": [{"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "00", "frame_index": -1}]},
            {"script": [{"op": "REQUEST_TRIPLES", "imsi": VICTIM, "n": "two"}]},
            {"script": [{"op": "ASSERT", "predicate": {"kind": "nope"}}]},
            # value types: bools are not numbers, numbers and strings not bools
            {"seed": True},
            {"network_policy": {"batch_size": True}},
            {"script": [{"op": "REQUEST_TRIPLES", "imsi": VICTIM, "n": True}]},
            {"script": [{"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "00", "frame_index": False}]},
            {"me_profiles": [VICTIM]},
            {"me_profiles": {VICTIM: [True]}},
            {"me_profiles": {VICTIM: {"class_e": "no"}}},
            {"me_profiles": {VICTIM: {"accepts_unauthenticated": 1}}},
            {"me_profiles": {VICTIM: {"leaky": None}}},
            {"network_policy": ["cipher"]},
            {"attacker": ["kind"]},
            # an attacker is an object or null; falsy values are not "none"
            {"attacker": False},
            {"attacker": 0},
            {"attacker": ""},
            {"attacker": []},
            {"attacker": {}},
            # subscriber entries and script steps take no unknown keys
            {"subscribers": [{"imsi": VICTIM, "mode": "LEGACY", "mastr": "00" * 16}]},
            {"script": [{"op": "REQUEST_TRIPLES", "imsi": VICTIM, "N": 4}]},
            {"script": [{"op": "ATTACH", "imsi": VICTIM, "bogus": 1}]},
            {"attacker": {"kind": "BBK_REPLAY"}, "script": [{"op": "RUN_ATTACK", "victim": VICTIM, "imsi": VICTIM}]},
            {"script": [{"op": "ASSERT", "predicate": {"kind": "present", "where": {}}, "imsi": VICTIM}]},
            # ASSERT predicates are checked structurally at load time
            {"script": [{"op": "ASSERT", "predicate": {"kind": "present", "where": ["msg"]}}]},
            {"script": [{"op": "ASSERT", "predicate": {"kind": "absent", "where": "AUTH_RESULT"}}]},
            {"script": [{"op": "ASSERT", "predicate": {"kind": "absent_after", "anchor": 1, "where": {}}}]},
            {"script": [{"op": "ASSERT", "predicate": {"kind": "ordered", "sequence": [{}, "x"]}}]},
            {"script": [{"op": "ASSERT", "predicate": {"kind": "field_equals", "where": {}, "field": 3, "value": 1}}]},
            # caps: the first value above each
            {"script": [{"op": "REQUEST_TRIPLES", "imsi": VICTIM, "n": MAX_BATCH + 1}]},
            {"network_policy": {"batch_size": MAX_BATCH + 1}},
            {"script": [{"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "00", "frame_index": 2**64}]},
            # script steps that are not objects, have no op or an unknown one
            {"script": ["ATTACH"]},
            {"script": [[VICTIM]]},
            {"script": [{"imsi": VICTIM}]},
            {"script": [{"op": "JUMP", "imsi": VICTIM}]},
            {"script": [{"op": ["ATTACH"], "imsi": VICTIM}]},
            # an attack whose victim is the attacker's own subscription
            {"attacker": {"kind": "MITM_EAVESDROP", "imsi": VICTIM, "victim_traffic": "00"},
             "script": [{"op": "RUN_ATTACK", "victim": VICTIM}]},
            # the replay attacker takes only its kind; the other keys are the eavesdropper's
            {"attacker": {"kind": "BBK_REPLAY", "imsi": VICTIM}},
            {"attacker": {"kind": "BBK_REPLAY", "rand_source": "SKIP_AKA"}},
            {"attacker": {"kind": "BBK_REPLAY", "victim_traffic": "00"}},
            {"attacker": {"kind": "MITM_EAVESDROP", "victim_traffic": "00", "victim": VICTIM}},
        ],
    )
    def test_rejections(self, mutation):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(base_config(**mutation))

    @pytest.mark.parametrize(
        "step, message",
        [
            ("ATTACH", "script step 0 must be a JSON object"),
            ({"imsi": VICTIM}, "script step 0 has no 'op'"),
            ({"op": "JUMP"}, "'JUMP' is not a valid StepKind"),
            (
                {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "00", "frame": 1},
                r"unknown keys in script step 0 \(SEND_TRAFFIC\): \['frame'\]",
            ),
        ],
    )
    def test_bad_step_is_named(self, step, message):
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig.from_dict(base_config(script=[step]))

    # each message recorded before the step checks were reordered; a step with
    # several faults is named by the first one in this order: unknown keys,
    # imsi, then the op's values in `_STEP_KEYS` order
    @pytest.mark.parametrize(
        "step, message",
        [
            ({"op": "SEND_TRAFFIC", "plaintext": "00"}, "step 0 (SEND_TRAFFIC) needs an imsi/victim"),
            ({"op": "SEND_TRAFFIC", "imsi": None, "plaintext": "00"},
             "step 0 (SEND_TRAFFIC) needs an imsi/victim"),
            ({"op": "SEND_TRAFFIC", "imsi": OTHER, "plaintext": "00"},
             f"step 0 references unknown imsi {OTHER}"),
            ({"op": "SEND_TRAFFIC", "imsi": 7, "plaintext": "00"}, "step 0 references unknown imsi 7"),
            ({"op": "SEND_TRAFFIC", "imsi": [VICTIM], "plaintext": "00"},
             "bad scenario config: unhashable type: 'list'"),
            ({"op": "SEND_TRAFFIC", "imsi": VICTIM}, "step 0: plaintext must be a hex string"),
            ({"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "zz"},
             "step 0: plaintext must be a hex string"),
            ({"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": 5},
             "step 0: plaintext must be a hex string"),
            ({"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": None},
             "step 0: plaintext must be a hex string"),
            ({"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "0"},
             "step 0: plaintext must be a hex string"),
            *[
                ({"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": text},
                 "step 0: plaintext must be a hex string")
                for text in SPACED_HEX
            ],
            *[
                ({"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "00", "frame_index": frame},
                 "step 0: frame_index must be an integer in [0, 2^64)")
                for frame in (True, 1.0, -1, 2**64, "1", None)
            ],
            ({"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "00", "frame": 1},
             "unknown keys in script step 0 (SEND_TRAFFIC): ['frame']"),
            ({"op": "SEND_TRAFFIC", "plaintext": "zz", "frame": 1},
             "unknown keys in script step 0 (SEND_TRAFFIC): ['frame']"),
            *[
                ({"op": "REQUEST_TRIPLES", "imsi": VICTIM, "n": n}, "step 0: n must be an integer in [1, 4096]")
                for n in ("two", 0, 4097, True)
            ],
            # several faults: the first in the order above is named
            ({"op": "SEND_TRAFFIC", "imsi": OTHER, "plaintext": "zz"},
             f"step 0 references unknown imsi {OTHER}"),
            ({"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "zz", "frame_index": -1},
             "step 0: plaintext must be a hex string"),
            ({"op": "REQUEST_TRIPLES", "imsi": OTHER, "n": True},
             f"step 0 references unknown imsi {OTHER}"),
            ({"op": "ATTACH"}, "step 0 (ATTACH) needs an imsi/victim"),
            ({"op": "RUN_ATTACK"}, "step 0 (RUN_ATTACK) needs an imsi/victim"),
            ({"op": "RUN_ATTACK", "victim": VICTIM}, "step 0 runs an attack but none is configured"),
            ({"op": "ASSERT"}, "ASSERT step 0 missing predicate"),
        ],
    )
    def test_step_refusal_is_exact(self, step, message):
        with pytest.raises(ConfigError) as caught:
            ScenarioConfig.from_dict(base_config(script=[step]))
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "attacker, victim, message",
        [
            ({"kind": "MITM_EAVESDROP", "imsi": VICTIM, "victim_traffic": "00"}, VICTIM,
             f"step 0 (RUN_ATTACK): victim {VICTIM} is the attacker"),
            ({"kind": "BBK_REPLAY"}, OTHER, f"step 0 references unknown imsi {OTHER}"),
        ],
    )
    def test_attack_step_refusal_is_exact(self, attacker, victim, message):
        raw = base_config(attacker=attacker, script=[{"op": "RUN_ATTACK", "victim": victim}])
        with pytest.raises(ConfigError) as caught:
            ScenarioConfig.from_dict(raw)
        assert str(caught.value) == message

    # `bytes.fromhex` skips ASCII whitespace; every hex field refuses it
    @pytest.mark.parametrize(
        "mutation, message",
        [
            *[
                ({"subscribers": [{"imsi": VICTIM, "mode": "ENHANCED", "master": text}]},
                 f"master key for {VICTIM} must be a hex string")
                for text in (*SPACED_HEX, " 00" * 16 + "\n", "zz" * 16, 16)
            ],
            *[
                ({"attacker": {"kind": "MITM_EAVESDROP", "victim_traffic": text}},
                 "victim_traffic must be a hex string")
                for text in (*SPACED_HEX, "0", None)
            ],
        ],
    )
    def test_hex_field_refusal_is_exact(self, mutation, message):
        with pytest.raises(ConfigError) as caught:
            ScenarioConfig.from_dict(base_config(**mutation))
        assert str(caught.value) == message

    def test_int_subclass_values_load_as_given(self):
        class Count(int):
            pass

        script = [
            {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "00", "frame_index": Count(3)},
            {"op": "REQUEST_TRIPLES", "imsi": VICTIM, "n": Count(2)},
        ]
        config = ScenarioConfig.from_dict(base_config(script=script))
        assert [step.args for step in config.script] == [(VICTIM, b"\x00", 3), (VICTIM, 2)]
        assert [type(step.args[-1]) for step in config.script] == [Count, Count]

    def test_caps_are_inclusive(self):
        script = [
            {"op": "REQUEST_TRIPLES", "imsi": VICTIM, "n": MAX_BATCH},
            {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "00", "frame_index": 2**64 - 1},
        ]
        raw = base_config(network_policy={"batch_size": MAX_BATCH}, script=script)
        config = ScenarioConfig.from_dict(raw)  # loaded, never run
        assert config.batch_size == MAX_BATCH == 4096
        assert [step.args for step in config.script] == [
            (VICTIM, MAX_BATCH),
            (VICTIM, b"\x00", 2**64 - 1),
        ]

    def test_send_traffic_step_carries_its_decoded_plaintext(self):
        script = [
            {"op": "ATTACH", "imsi": VICTIM},
            {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "00ff10"},
            {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": ""},
        ]
        config = ScenarioConfig.from_dict(base_config(script=script))
        assert [step.args for step in config.script] == [
            (VICTIM,),
            (VICTIM, b"\x00\xff\x10", 0),
            (VICTIM, b"", 0),
        ]

    def test_duplicate_subscriber(self):
        raw = base_config(
            subscribers=[
                {"imsi": VICTIM, "mode": "ENHANCED"},
                {"imsi": VICTIM, "mode": "LEGACY"},
            ]
        )
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)

    def test_attack_step_needs_attacker(self):
        raw = base_config(script=[{"op": "RUN_ATTACK", "victim": VICTIM}])
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)

    def test_step_referencing_unknown_imsi(self):
        raw = base_config(script=[{"op": "ATTACH", "imsi": OTHER}])
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)

    def test_mitm_requires_victim_traffic(self):
        raw = base_config(attacker={"kind": "MITM_EAVESDROP"})
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)

    def test_assert_needs_predicate(self):
        raw = base_config(script=[{"op": "ASSERT"}])
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict(raw)


class TestDeterminism:
    def test_three_runs_byte_identical(self):
        config = ScenarioConfig.from_dict(base_config())
        texts = {harness.render_trace(run_scenario(config).trace) for _ in range(3)}
        assert len(texts) == 1

    def test_seed_changes_rands_not_verdicts(self):
        def run_with(seed):
            raw = base_config(
                seed=seed, subscribers=[{"imsi": VICTIM, "mode": "LEGACY"}]
            )
            return run_scenario(ScenarioConfig.from_dict(raw))

        a, b = run_with(1), run_with(2)
        rand_of = lambda res: next(
            e.event["rand"] for e in res.trace if e.event["msg"] == "AUTH_CHALLENGE"
        )
        verdict_of = lambda res: next(
            e.event["verdict"] for e in res.trace if e.event["msg"] == "AUTH_RESULT"
        )
        assert rand_of(a) != rand_of(b)
        assert verdict_of(a) == verdict_of(b) == "AUTHENTICATED"

    def test_explicit_master_is_honoured(self):
        raw = base_config(
            subscribers=[
                {"imsi": VICTIM, "mode": "ENHANCED", "master": "00" * 16}
            ]
        )
        result = run_scenario(ScenarioConfig.from_dict(raw))
        rand = next(
            e.event["rand"] for e in result.trace if e.event["msg"] == "AUTH_CHALLENGE"
        )
        _, ka = oracle.ref_derive(bytes(16), VICTIM)
        assert oracle.ref_sqn(ka, bytes.fromhex(rand)) == 1


def eavesdropper_with_victim_traffic():
    """configs/mitm_legacy.json with victim traffic logged before the attack."""
    raw = json.loads((CONFIGS / "mitm_legacy.json").read_text())
    raw["script"][2:2] = [
        {"op": "REQUEST_TRIPLES", "imsi": VICTIM},
        {"op": "CHALLENGE", "imsi": VICTIM},
        {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "5a" * 40},
    ]
    return raw


# sha256 of the rendered eavesdropper_with_victim_traffic() trace
EAVESDROPPER_TRACE_SHA256 = "e2e76b1ea976f6b52053f7e1fd99db78c6770a95e635532aa03a280f44c1379b"


def replaying_eavesdropper(config_name):
    """A shipped MITM config whose attacker replays the victim's genuine
    challenge, overheard one step before the attack."""
    raw = json.loads((CONFIGS / config_name).read_text())
    raw["attacker"]["rand_source"] = "REPLAYED"
    raw["script"] = [
        {"op": "ATTACH", "imsi": VICTIM},
        {"op": "OPEN_CHANNEL", "imsi": VICTIM},
        {"op": "REQUEST_TRIPLES", "imsi": VICTIM, "n": 1},
        {"op": "CHALLENGE", "imsi": VICTIM},
        {"op": "REQUEST_TRIPLES", "imsi": raw["attacker"]["imsi"], "n": 1},
        {"op": "RUN_ATTACK", "victim": VICTIM},
    ]
    return ScenarioConfig.from_dict(raw)


def _rands(result, msg):
    return [e.event["rand"] for e in result.trace if e.event["msg"] == msg]


class TestEngineFlow:
    def test_honest_run_authenticates(self):
        result = run_scenario(ScenarioConfig.from_dict(base_config()))
        assert not result.aborted
        msgs = [e.event["msg"] for e in result.trace]
        assert "AUTH_RESULT" in msgs
        assert "CIPHER_APPLIED" in msgs

    def test_abort_on_protocol_error_keeps_partial_trace(self):
        raw = base_config(script=[{"op": "CHALLENGE", "imsi": VICTIM}])
        result = run_scenario(ScenarioConfig.from_dict(raw))
        assert result.error == f"step 0 (CHALLENGE): no triples left for {VICTIM}"
        (abort,) = [e.event for e in result.trace if e.event["msg"] == "ABORT"]
        assert abort["step"] == 0
        assert abort["error"].startswith("TripleExhaustionError: ")
        assert any(e.event["msg"] == "PROVISION" for e in result.trace)

    def test_power_cycle_preserves_card_counter(self):
        raw = base_config(
            script=[
                {"op": "ATTACH", "imsi": VICTIM},
                {"op": "REQUEST_TRIPLES", "imsi": VICTIM, "n": 2},
                {"op": "CHALLENGE", "imsi": VICTIM},
                {"op": "POWER_CYCLE_UE", "imsi": VICTIM},
                {"op": "ATTACH", "imsi": VICTIM},
                {"op": "CHALLENGE", "imsi": VICTIM},
                {
                    "op": "ASSERT",
                    "predicate": {
                        "kind": "absent",
                        "where": {"msg": "AUTH_RESULT", "verdict": "REJECTED"},
                    },
                },
            ]
        )
        result = run_scenario(ScenarioConfig.from_dict(raw))
        assert not result.aborted
        assert result.all_asserts_passed  # second triple is still fresh

    def test_eavesdropper_files_no_ground_truth(self):
        # only the challenge replay reads the plaintexts behind a logged exchange
        engine = harness.ScenarioEngine(ScenarioConfig.from_dict(eavesdropper_with_victim_traffic()))
        result = engine.run()
        assert engine._truth == {}
        assert result.error is None and result.all_asserts_passed
        assert hashlib.sha256(harness.render_trace(result.trace).encode()).hexdigest() == (
            EAVESDROPPER_TRACE_SHA256
        )

    def test_eavesdropper_logs_no_frames(self):
        # only the challenge replay reads the frames of a logged exchange
        engine = harness.ScenarioEngine(ScenarioConfig.from_dict(eavesdropper_with_victim_traffic()))
        result = engine.run()
        log = engine.adversary.log
        assert log and all(exchange.frames == [] for exchange in log)
        assert hashlib.sha256(harness.render_trace(result.trace).encode()).hexdigest() == (
            EAVESDROPPER_TRACE_SHA256
        )

    def test_replay_keeps_only_air_state(self, monkeypatch):
        # the plaintexts behind the log are passed to the attack, never kept
        engines = []
        run = harness.ScenarioEngine.run

        def spy(engine):
            engines.append(engine)
            return run(engine)

        monkeypatch.setattr(harness.ScenarioEngine, "run", spy)
        result = run_scenario(ScenarioConfig.loads((CONFIGS / "bbk_legacy.json").read_text()))
        assert result.error is None and result.all_asserts_passed
        (engine,) = engines
        adversary = engine.adversary
        assert set(vars(adversary)) == {"rng", "trace", "name", "own_ue", "log"}
        (exchange,) = adversary.log
        assert type(exchange.rand) is bytes and len(exchange.frames) == 2
        assert all(type(frame.ciphertext) is bytes for frame in exchange.frames)

    def test_replayed_challenge_reads_a_legacy_victims_traffic(self):
        config = replaying_eavesdropper("mitm_legacy.json")
        result = run_scenario(config)
        assert result.error is None
        (report,) = harness.summarize(result)["attacks"]
        assert report["succeeded"]
        assert report["recovered_plaintext"] == config.attacker.victim_traffic.hex()
        (genuine, _attackers_own) = _rands(result, "AUTH_CHALLENGE")
        assert _rands(result, "FAKE_AUTH_CHALLENGE") == [genuine]

    def test_replayed_challenge_is_dropped_by_an_enhanced_class_e_victim(self):
        result = run_scenario(replaying_eavesdropper("mitm_enhanced.json"))
        assert result.error is None
        (report,) = harness.summarize(result)["attacks"]
        assert not report["succeeded"]
        assert report["failure_cause"] == "connection dropped by SIM"
        (genuine, _attackers_own) = _rands(result, "AUTH_CHALLENGE")
        assert _rands(result, "FAKE_AUTH_CHALLENGE") == [genuine]
        dropped = [e.event for e in result.trace if e.event["msg"] == "CONNECTION_DROPPED"]
        assert dropped == [{"msg": "CONNECTION_DROPPED", "closed_channels": [1]}]

    # the engine runs a loaded SEND_TRAFFIC step on the phone's core, past
    # the entry checks of `send_traffic`; the phone's state refusals remain
    def test_traffic_before_attach_aborts(self):
        raw = base_config(script=[{"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "00"}])
        result = run_scenario(ScenarioConfig.from_dict(raw))
        assert result.error == "step 0 (SEND_TRAFFIC): traffic while detached"
        (abort,) = [e.event for e in result.trace if e.event["msg"] == "ABORT"]
        assert abort == {"msg": "ABORT", "step": 0, "error": "ProtocolOrderError: traffic while detached"}
        assert not any(e.event["msg"] == "TRAFFIC" for e in result.trace)

    def test_traffic_before_authentication_aborts(self):
        script = [
            {"op": "ATTACH", "imsi": VICTIM},
            {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "00"},
        ]
        result = run_scenario(ScenarioConfig.from_dict(base_config(script=script)))
        assert result.error == "step 1 (SEND_TRAFFIC): traffic before authentication"
        (abort,) = [e.event for e in result.trace if e.event["msg"] == "ABORT"]
        assert abort == {
            "msg": "ABORT",
            "step": 1,
            "error": "ProtocolOrderError: traffic before authentication",
        }

    def test_unauthenticated_traffic_goes_out_in_clear(self):
        script = [
            {"op": "ATTACH", "imsi": VICTIM},
            {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "00ff10", "frame_index": 5},
        ]
        raw = base_config(me_profiles={VICTIM: {"accepts_unauthenticated": True}}, script=script)
        result = run_scenario(ScenarioConfig.from_dict(raw))
        assert result.error is None
        (traffic,) = [e for e in result.trace if e.event["msg"] == "TRAFFIC"]
        assert traffic.actor == f"ue:{VICTIM}"
        assert traffic.event == {
            "msg": "TRAFFIC",
            "network": "vlr",
            "frame_index": 5,
            "alg": "NONE",
            "ciphertext": "00ff10",
        }

    def test_failed_assert_recorded(self):
        raw = base_config(
            script=[
                {
                    "op": "ASSERT",
                    "predicate": {"kind": "present", "where": {"msg": "NO_SUCH"}},
                }
            ]
        )
        result = run_scenario(ScenarioConfig.from_dict(raw))
        assert not result.aborted
        assert not result.all_asserts_passed


PRE_CHALLENGE = "70726520636861"
POST_CHALLENGE = "706f7374206368616c6c656e6765"


def replay_run(script, me_profiles=None, subscribers=None):
    """configs/bbk_legacy.json (seed 2002, A5/3) with another script."""
    raw = json.loads((CONFIGS / "bbk_legacy.json").read_text())
    raw["script"] = script
    if me_profiles is not None:
        raw["me_profiles"] = me_profiles
    if subscribers is not None:
        raw["subscribers"] = subscribers
    result = run_scenario(ScenarioConfig.from_dict(raw))
    return result, harness.summarize(result)["attacks"]


class TestReplayFiling:
    """Which exchange each frame is filed under, and which one the replay picks."""

    PERMISSIVE = {VICTIM: {"accepts_unauthenticated": True}}

    def test_pre_challenge_frame_goes_to_the_null_exchange(self):
        result, (report,) = replay_run(
            [
                {"op": "ATTACH", "imsi": VICTIM},
                {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": PRE_CHALLENGE},
                {"op": "REQUEST_TRIPLES", "imsi": VICTIM, "n": 1},
                {"op": "CHALLENGE", "imsi": VICTIM},
                {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": POST_CHALLENGE},
                {"op": "POWER_CYCLE_UE", "imsi": VICTIM},
                {"op": "RUN_ATTACK", "victim": VICTIM},
            ],
            me_profiles=self.PERMISSIVE,
        )
        assert result.error is None
        assert report["succeeded"]
        assert report["recovered_plaintext"] == POST_CHALLENGE

    def test_only_a_null_exchange_aborts_the_replay(self):
        result, attacks = replay_run(
            [
                {"op": "ATTACH", "imsi": VICTIM},
                {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": PRE_CHALLENGE},
                {"op": "RUN_ATTACK", "victim": VICTIM},
            ],
            me_profiles=self.PERMISSIVE,
        )
        assert result.error == (
            "step 2 (RUN_ATTACK): intercept log holds no exchange with strong-cipher traffic"
        )
        assert attacks == []

    def test_frame_is_filed_under_the_latest_challenge_on_the_air(self):
        # V's frame follows W's challenge, so the replay sends V W's RAND
        result, (report,) = replay_run(
            [
                {"op": "ATTACH", "imsi": VICTIM},
                {"op": "REQUEST_TRIPLES", "imsi": VICTIM, "n": 1},
                {"op": "CHALLENGE", "imsi": VICTIM},
                {"op": "ATTACH", "imsi": OTHER},
                {"op": "REQUEST_TRIPLES", "imsi": OTHER, "n": 1},
                {"op": "CHALLENGE", "imsi": OTHER},
                {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": POST_CHALLENGE},
                {"op": "RUN_ATTACK", "victim": VICTIM},
            ],
            subscribers=[
                {"imsi": VICTIM, "mode": "LEGACY"},
                {"imsi": OTHER, "mode": "LEGACY"},
            ],
        )
        assert result.error is None
        (_, challenged_w) = _rands(result, "AUTH_CHALLENGE")
        assert _rands(result, "FAKE_AUTH_CHALLENGE") == [challenged_w]
        assert not report["succeeded"]
        assert report["failure_cause"] == "decryption mismatch"
        assert report["recovered_kc"] == "7edf393476197bbb"
        assert report["recovered_plaintext"] == "ab4c0a8f387eeee33be7f3902cb8"


def make_trace(*events):
    tracer = Tracer()
    for actor, msg, fields in events:
        tracer(actor, msg=msg, **fields)
    return tracer.events


class TestAssertTrace:
    TRACE = None

    def setup_method(self):
        self.trace = make_trace(
            ("vlr", "AUTH_CHALLENGE", {"imsi": VICTIM, "rand": "aa"}),
            ("ue", "SIM_RESPONSE", {"status": "NORMAL"}),
            ("ue", "SRES_TO_NETWORK", {"sres": "bb"}),
            ("vlr", "AUTH_RESULT", {"verdict": "AUTHENTICATED"}),
        )

    def test_present(self):
        outcome = assert_trace(
            self.trace, {"kind": "present", "where": {"msg": "AUTH_RESULT"}}
        )
        assert outcome.passed
        assert "seq_no 3" in outcome.detail

    def test_present_fails_with_location(self):
        outcome = assert_trace(
            self.trace, {"kind": "present", "where": {"msg": "CONNECTION_DROPPED"}}
        )
        assert not outcome.passed

    def test_absent(self):
        assert assert_trace(
            self.trace, {"kind": "absent", "where": {"msg": "FETCH"}}
        ).passed
        failing = assert_trace(
            self.trace, {"kind": "absent", "where": {"actor": "ue"}}
        )
        assert not failing.passed
        assert "seq_no 1" in failing.detail

    def test_ordered(self):
        ok = assert_trace(
            self.trace,
            {
                "kind": "ordered",
                "sequence": [
                    {"msg": "AUTH_CHALLENGE"},
                    {"msg": "SRES_TO_NETWORK"},
                    {"msg": "AUTH_RESULT"},
                ],
            },
        )
        assert ok.passed
        bad = assert_trace(
            self.trace,
            {
                "kind": "ordered",
                "sequence": [{"msg": "AUTH_RESULT"}, {"msg": "AUTH_CHALLENGE"}],
            },
        )
        assert not bad.passed
        assert "element 1" in bad.detail

    def test_absent_after(self):
        ok = assert_trace(
            self.trace,
            {
                "kind": "absent_after",
                "anchor": {"msg": "AUTH_RESULT"},
                "where": {"msg": "SRES_TO_NETWORK"},
            },
        )
        assert ok.passed
        bad = assert_trace(
            self.trace,
            {
                "kind": "absent_after",
                "anchor": {"msg": "AUTH_CHALLENGE"},
                "where": {"msg": "SRES_TO_NETWORK"},
            },
        )
        assert not bad.passed
        vacuous = assert_trace(
            self.trace,
            {
                "kind": "absent_after",
                "anchor": {"msg": "CONNECTION_DROPPED"},
                "where": {"msg": "SRES_TO_NETWORK"},
            },
        )
        assert vacuous.passed

    def test_field_equals(self):
        ok = assert_trace(
            self.trace,
            {
                "kind": "field_equals",
                "where": {"msg": "AUTH_RESULT"},
                "field": "verdict",
                "value": "AUTHENTICATED",
            },
        )
        assert ok.passed
        bad = assert_trace(
            self.trace,
            {
                "kind": "field_equals",
                "where": {"msg": "AUTH_RESULT"},
                "field": "verdict",
                "value": "REJECTED",
            },
        )
        assert not bad.passed

    @pytest.mark.parametrize(
        "predicate",
        [
            {},
            {"kind": "unknown", "where": {}},
            {"kind": "present"},
            {"kind": "ordered", "sequence": []},
            {"kind": "field_equals", "where": {}, "field": "x"},
            {"kind": "present", "where": []},
            {"kind": ["present"], "where": {}},
            {"kind": "absent_after", "anchor": None, "where": {}},
            {"kind": "ordered", "sequence": [{"msg": "AUTH_RESULT"}, 7]},
            {"kind": "field_equals", "where": {}, "field": ["verdict"], "value": 1},
        ],
    )
    def test_malformed_predicates(self, predicate):
        with pytest.raises(ConfigError):
            assert_trace(self.trace, predicate)


# One fixed trace and what each predicate makes of it, recorded before
# predicates were compiled at load; the compiled matcher must agree.  Event 2
# carries an `actor` of its own in the payload.
SEMANTICS_TRACE = make_trace(
    ("vlr", "AUTH_CHALLENGE", {"imsi": VICTIM, "rand": "aa"}),
    ("ue", "SIM_RESPONSE", {"status": "NORMAL"}),
    ("attacker", "ATTACK_START", {"kind": "BBK_REPLAY", "actor": "vlr"}),
    ("ue", "SRES_TO_NETWORK", {"sres": "bb"}),
    ("attacker", "ATTACK_RESULT", {"kind": "BBK_REPLAY", "succeeded": True}),
    ("ue", "SRES_TO_NETWORK", {"sres": "cc"}),
    ("vlr", "AUTH_RESULT", {"imsi": VICTIM, "verdict": "AUTHENTICATED"}),
)
SEMANTICS = [
    # a payload key that is missing matches null
    ('{"kind": "present", "where": {"msg": "SIM_RESPONSE", "pending_length": null}}',
     True, "matched at seq_no 1"),
    ('{"kind": "absent", "where": {"msg": "SIM_RESPONSE", "pending_length": null}}',
     False, "unexpected match at seq_no 1"),
    # `actor` is the envelope's, whatever the payload holds under that key
    ('{"kind": "present", "where": {"actor": "vlr", "msg": "ATTACK_START"}}',
     False, "no event matched"),
    ('{"kind": "present", "where": {"actor": "attacker", "msg": "ATTACK_START"}}',
     True, "matched at seq_no 2"),
    ('{"kind": "present", "where": {"actor": "vlr"}}', True, "matched at seq_no 0"),
    # ... but `field` reads the payload
    ('{"kind": "field_equals", "where": {"msg": "ATTACK_START"}, "field": "actor", "value": "vlr"}',
     True, "field actor matches at seq_no 2"),
    ('{"kind": "field_equals", "where": {"msg": "AUTH_RESULT"}, "field": "actor", "value": "vlr"}',
     False, "field actor is None at seq_no 6, wanted 'vlr'"),
    # an empty where matches the first event
    ('{"kind": "present", "where": {}}', True, "matched at seq_no 0"),
    ('{"kind": "absent", "where": {}}', False, "unexpected match at seq_no 0"),
    # Python equality: 1 and 1.0 match true, "true" does not
    ('{"kind": "present", "where": {"msg": "ATTACK_RESULT", "succeeded": 1}}',
     True, "matched at seq_no 4"),
    ('{"kind": "field_equals", "where": {"msg": "ATTACK_RESULT"}, "field": "succeeded", "value": 1}',
     True, "field succeeded matches at seq_no 4"),
    ('{"kind": "field_equals", "where": {"msg": "ATTACK_RESULT"}, "field": "succeeded", "value": 1.0}',
     True, "field succeeded matches at seq_no 4"),
    ('{"kind": "field_equals", "where": {"msg": "ATTACK_RESULT"}, "field": "succeeded", "value": "true"}',
     False, "field succeeded is True at seq_no 4, wanted 'true'"),
    # ordered with repeated clauses: each element starts after the last hit
    ('{"kind": "ordered", "sequence": [{"msg": "SRES_TO_NETWORK"}, {"msg": "SRES_TO_NETWORK"}]}',
     True, "sequence complete by seq_no 5"),
    ('{"kind": "ordered", "sequence": [{"msg": "SRES_TO_NETWORK"}, {"msg": "SRES_TO_NETWORK"},'
     ' {"msg": "SRES_TO_NETWORK"}]}',
     False, "element 2 not found after seq_no 5"),
    ('{"kind": "ordered", "sequence": [{"msg": "AUTH_RESULT"}, {"msg": "AUTH_RESULT"}]}',
     False, "element 1 not found after seq_no 6"),
    ('{"kind": "ordered", "sequence": [{}, {}, {}, {}, {}, {}, {}]}',
     True, "sequence complete by seq_no 6"),
    ('{"kind": "ordered", "sequence": [{}, {}, {}, {}, {}, {}, {}, {}]}',
     False, "element 7 not found after seq_no 6"),
    # absent_after anchored on the last event has nothing left to scan
    ('{"kind": "absent_after", "anchor": {"msg": "AUTH_RESULT"}, "where": {}}',
     True, "nothing after anchor at seq_no 6"),
    ('{"kind": "absent_after", "anchor": {"actor": "vlr", "msg": "AUTH_RESULT"}, "where": {"actor": "vlr"}}',
     True, "nothing after anchor at seq_no 6"),
    ('{"kind": "absent_after", "anchor": {"msg": "AUTH_CHALLENGE"}, "where": {"actor": "vlr"}}',
     False, "match at seq_no 6 after anchor at 0"),
    ('{"kind": "absent_after", "anchor": {"msg": "NO_SUCH"}, "where": {}}',
     True, "anchor never occurred (vacuous)"),
    # field_equals on a missing field reads None
    ('{"kind": "field_equals", "where": {"msg": "AUTH_RESULT"}, "field": "reason", "value": "MAC_MISMATCH"}',
     False, "field reason is None at seq_no 6, wanted 'MAC_MISMATCH'"),
    ('{"kind": "field_equals", "where": {"msg": "AUTH_RESULT"}, "field": "reason", "value": null}',
     True, "field reason matches at seq_no 6"),
    ('{"kind": "field_equals", "where": {"msg": "NO_SUCH"}, "field": "x", "value": null}',
     False, "no event matched the where clause"),
    # field_equals reads only the first event its where matches: seq_no 5's
    # "cc" is never read
    ('{"kind": "field_equals", "where": {"msg": "SRES_TO_NETWORK"}, "field": "sres", "value": "bb"}',
     True, "field sres matches at seq_no 3"),
]


class TestPredicateSemantics:
    @pytest.mark.parametrize("text, passed, detail", SEMANTICS)
    def test_dict_predicate(self, text, passed, detail):
        assert assert_trace(SEMANTICS_TRACE, json.loads(text)) == (passed, detail)

    @pytest.mark.parametrize("text, passed, detail", SEMANTICS)
    def test_predicate_loaded_in_a_config(self, text, passed, detail):
        raw = base_config(script=[{"op": "ASSERT", "predicate": json.loads(text)}])
        (step,) = ScenarioConfig.from_dict(raw).script
        (predicate,) = step.args
        assert predicate == harness._compile_predicate(json.loads(text))
        assert assert_trace(SEMANTICS_TRACE, predicate) == (passed, detail)


class TestPredicateCompile:
    def test_only_assert_steps_carry_a_predicate(self):
        script = [
            {"op": "ATTACH", "imsi": VICTIM},
            {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "00"},
            {"op": "ASSERT", "predicate": {"kind": "present", "where": {"actor": "vlr", "msg": "X"}}},
        ]
        steps = ScenarioConfig.from_dict(base_config(script=script)).script
        assert [step.args for step in steps] == [
            (VICTIM,),
            (VICTIM, b"\x00", 0),
            (("present", (("vlr", (("msg", "X"),)),), None, None),),
        ]

    def test_a_clause_naming_no_actor_compiles_to_any_actor(self):
        compiled = harness._compile_predicate(
            {"kind": "absent_after", "anchor": {"msg": "A"}, "where": {"msg": "B", "n": 1}}
        )
        assert compiled == (
            "absent_after",
            ((harness._ANY_ACTOR, (("msg", "A"),)), (harness._ANY_ACTOR, (("msg", "B"), ("n", 1)))),
            None,
            None,
        )

    def test_loading_and_running_compiles_each_predicate_once(self, monkeypatch):
        compiled = []
        compile_predicate = harness._compile_predicate

        def spy(predicate):
            compiled.append(predicate)
            return compile_predicate(predicate)

        monkeypatch.setattr(harness, "_compile_predicate", spy)
        for path in sorted(CONFIGS.glob("*.json")):
            compiled.clear()
            text = path.read_text()
            steps = json.loads(text)["script"]
            result = run_scenario(ScenarioConfig.loads(text))
            predicates = [step["predicate"] for step in steps if step["op"] == "ASSERT"]
            asserts = harness.summarize(result)["asserts"]
            assert len(predicates) == len(asserts) >= 2
            assert compiled == predicates, path.name
            # each result names the step, and so the predicate, it answers
            assert [steps[r["step"]]["predicate"] for r in asserts] == predicates

    @pytest.mark.parametrize(
        "predicate, key",
        [
            ({"kind": "present", "where": {}, "field": "x"}, "field"),
            ({"kind": "absent", "where": {}, "anchor": {}}, "anchor"),
            ({"kind": "ordered", "sequence": [{}], "where": {}}, "where"),
            ({"kind": "absent_after", "anchor": {}, "where": {}, "sequence": [{}]}, "sequence"),
            ({"kind": "field_equals", "where": {}, "field": "x", "value": 1, "vaule": 1}, "vaule"),
        ],
    )
    def test_predicate_keys_are_closed(self, predicate, key):
        message = rf"unknown keys in predicate '{predicate['kind']}': \['{key}'\]"
        with pytest.raises(ConfigError, match=message):
            assert_trace(SEMANTICS_TRACE, predicate)
        raw = base_config(script=[{"op": "ASSERT", "predicate": predicate}])
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ({"subscribers": [{"imsi": VICTIM, "mode": "LEGAC"}]}, "'LEGAC' is not a valid SimMode"),
            ({"subscribers": [{"imsi": VICTIM, "mode": ["LEGACY"]}]}, r"\['LEGACY'\] is not a valid SimMode"),
            ({"network_policy": {"consumption_policy": "SHUFFLE"}}, "'SHUFFLE' is not a valid ConsumptionPolicy"),
            ({"network_policy": {"cipher": "A5_4"}}, "'A5_4' is not a valid CipherAlgId"),
            ({"attacker": {"kind": {}}}, r"\{\} is not a valid AttackKind"),
            ({"attacker": {"kind": "MITM_EAVESDROP", "rand_source": 1}}, "1 is not a valid RandSource"),
        ],
    )
    def test_unknown_enum_values_keep_the_enum_error(self, mutation, message):
        with pytest.raises(ConfigError, match=f"bad scenario config: {message}"):
            ScenarioConfig.from_dict(base_config(**mutation))


class TestTraceFormat:
    def test_line_shape_and_hex_lowercase(self):
        config = ScenarioConfig.from_dict(base_config())
        result = run_scenario(config)
        for line in harness.render_trace(result.trace).splitlines():
            payload = json.loads(line)
            assert set(payload) == {"seq_no", "actor", "event"}
            assert "msg" in payload["event"]
            rand = payload["event"].get("rand")
            if rand is not None:
                assert rand == rand.lower()
        seqs = [json.loads(l)["seq_no"] for l in harness.render_trace(result.trace).splitlines()]
        assert seqs == list(range(len(seqs)))


# JSON values as the tracer may carry them: text with non-ASCII and control
# characters, big ints, bools, None, floats, nested lists and dicts
_TEXT = st.text(max_size=12)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**80), 2**80) | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=8,
)


# payload keys may be anything but `msg`, which each call passes itself;
# `self` and `actor` are positional-only, so they are free payload keys too
_FIELDS = st.dictionaries(_TEXT.filter(lambda k: k != "msg"), _JSON, max_size=3)


class TestTraceEncoding:
    @given(st.lists(st.tuples(_TEXT, _TEXT, _FIELDS), max_size=3))
    def test_lines_equal_json_dumps(self, calls):
        tracer = Tracer()
        for actor, msg, fields in calls:
            tracer(actor, msg=msg, **fields)
        lines = harness.render_trace(tracer.events).splitlines(keepends=True)
        assert len(lines) == len(calls)
        for seq_no, (event, line) in enumerate(zip(tracer.events, lines)):
            record = {"seq_no": seq_no, "actor": event.actor, "event": event.event}
            assert line == json.dumps(record, separators=(",", ":")) + "\n"
            assert harness.render_trace(tracer.events[: seq_no + 1]).endswith(line)
            # a list is numbered from 0, wherever it was sliced from
            record["seq_no"] = 0
            assert harness.render_trace([event]) == json.dumps(record, separators=(",", ":")) + "\n"

    def test_bytes_value_is_rejected(self):
        tracer = Tracer()
        tracer("ue", msg="SIM_RESPONSE", sres=b"\x00" * 8)
        with pytest.raises(TypeError):
            harness.render_trace(tracer.events)


def many_subscriber_config(size=200):
    """RANDOM_ORDER over four triples per card: enhanced cards reject stale
    challenges and tear their open channel down through FETCH."""
    imsis = [f"00101{i:010d}" for i in range(1, size + 1)]
    script = []
    for imsi in imsis:
        script += [
            {"op": "ATTACH", "imsi": imsi},
            {"op": "OPEN_CHANNEL", "imsi": imsi},
            {"op": "REQUEST_TRIPLES", "imsi": imsi, "n": 4},
        ]
    for _ in range(4):
        for imsi in imsis:
            script += [{"op": "ATTACH", "imsi": imsi}, {"op": "CHALLENGE", "imsi": imsi}]
    return {
        "seed": 7,
        "subscribers": [
            {"imsi": imsi, "mode": "LEGACY" if i % 4 == 0 else "ENHANCED"}
            for i, imsi in enumerate(imsis)
        ],
        "network_policy": {"consumption_policy": "RANDOM_ORDER", "batch_size": 4},
        "script": script,
    }


# sha256 of the rendered many_subscriber_config() trace, 8,541 events
MANY_SUBSCRIBER_TRACE_SHA256 = "f8efd5b8fb858be5a5f2e1464e1e3eba14b6730f775e2cb68307c22b71dfeb9d"


class TestEmitProtocol:
    """Actors emit `trace(actor, msg="MSG", **fields)`; the goldens pin the
    wire bytes of five IN_ORDER runs, these pin the rest of the protocol."""

    @pytest.mark.parametrize("trace", [Tracer(), noop_trace], ids=["Tracer", "noop_trace"])
    def test_positional_msg_is_refused(self, trace):
        with pytest.raises(TypeError):
            trace("ue", "X")

    def test_many_subscriber_trace_is_pinned(self):
        result = run_scenario(ScenarioConfig.from_dict(many_subscriber_config()))
        text = harness.render_trace(result.trace)
        assert hashlib.sha256(text.encode()).hexdigest() == MANY_SUBSCRIBER_TRACE_SHA256

    @pytest.mark.parametrize(
        "raw",
        [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))]
        + [many_subscriber_config()],
        ids=[p.stem for p in sorted(CONFIGS.glob("*.json"))] + ["many_subscriber"],
    )
    def test_msg_is_the_first_payload_key(self, raw):
        trace = run_scenario(ScenarioConfig.from_dict(raw)).trace
        assert trace
        assert all(next(iter(event.event)) == "msg" for event in trace)


@pytest.fixture
def restore_collector():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.fixture
def collector_off(restore_collector):
    """The collector off and no cyclic garbage left from before the test."""
    gc.disable()
    gc.collect()


class TestCollectorPause:
    """run_scenario and ScenarioConfig.loads pause the cyclic collector; that
    is safe only while a run leaves no reference cycles behind."""

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_config_leaves_no_cyclic_garbage(self, collector_off, path):
        harness.render_trace(run_scenario(ScenarioConfig.loads(path.read_text())).trace)
        assert gc.collect() == 0

    def test_aborted_run_leaves_no_cyclic_garbage(self, collector_off):
        raw = base_config(script=[{"op": "CHALLENGE", "imsi": VICTIM}])
        aborted = run_scenario(ScenarioConfig.from_dict(raw)).aborted
        assert gc.collect() == 0
        assert aborted

    def test_many_subscriber_run_leaves_no_cyclic_garbage(self, collector_off):
        config = ScenarioConfig.from_dict(many_subscriber_config())
        msgs = {event.event["msg"] for event in run_scenario(config).trace}
        assert gc.collect() == 0
        assert {"FETCH", "CONNECTION_DROPPED", "AUTH_RESULT"} <= msgs

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored(self, restore_collector, enabled):
        (gc.enable if enabled else gc.disable)()
        run_scenario(ScenarioConfig.from_dict(base_config()))
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_is_restored_when_run_raises(
        self, restore_collector, monkeypatch, enabled
    ):
        def fail(engine):
            raise RuntimeError("run failed")

        monkeypatch.setattr(harness.ScenarioEngine, "run", fail)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="run failed"):
            run_scenario(ScenarioConfig.from_dict(base_config()))
        assert gc.isenabled() is enabled

    def test_collector_is_off_while_the_engine_is_built_and_run(
        self, restore_collector, monkeypatch
    ):
        seen = []
        engine_cls = harness.ScenarioEngine
        build, run = engine_cls.__init__, engine_cls.run

        def spy(method):
            def wrapper(*args):
                seen.append((method.__name__, gc.isenabled()))
                return method(*args)

            return wrapper

        monkeypatch.setattr(engine_cls, "__init__", spy(build))
        monkeypatch.setattr(engine_cls, "run", spy(run))
        gc.enable()
        run_scenario(ScenarioConfig.from_dict(base_config()))
        assert seen == [("__init__", False), ("run", False)]
        assert gc.isenabled()

    def test_cycle_made_before_the_run_is_freed_by_a_later_collection(
        self, restore_collector
    ):
        class Node:
            pass

        config = ScenarioConfig.from_dict(base_config())
        gc.disable()
        gc.collect()
        node = Node()
        node.self = node
        alive = weakref.ref(node)
        del node
        gc.enable()
        run_scenario(config)
        assert alive() is not None  # moved to the oldest generation
        gc.collect()
        assert alive() is None

    def test_what_the_run_leaves_starts_in_the_oldest_generation(self, restore_collector):
        config = ScenarioConfig.from_dict(base_config())
        gc.enable()
        trace = run_scenario(config).trace
        assert any(obj is trace for obj in gc.get_objects(generation=2))

    def test_objects_the_caller_froze_stay_frozen(self, restore_collector):
        config = ScenarioConfig.from_dict(base_config())
        gc.enable()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            run_scenario(config)
            assert gc.get_freeze_count() == frozen > 0
            assert gc.isenabled()
        finally:
            gc.unfreeze()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_nothing_is_left_frozen(self, restore_collector, enabled):
        assert gc.get_freeze_count() == 0
        (gc.enable if enabled else gc.disable)()
        run_scenario(ScenarioConfig.from_dict(base_config()))
        assert gc.get_freeze_count() == 0

    # ScenarioConfig.loads pauses the collector too, and only turns it back on
    LOADS_TEXTS = {
        "loaded": json.dumps(base_config()),
        "invalid_json": "{",
        "config_error": json.dumps(base_config(seed="one")),
    }

    @pytest.mark.parametrize("frozen", [False, True], ids=["none_frozen", "some_frozen"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("case", sorted(LOADS_TEXTS))
    def test_loads_leaves_the_collector_as_found(self, restore_collector, case, enabled, frozen):
        (gc.enable if enabled else gc.disable)()
        if frozen:
            gc.freeze()
        try:
            count = gc.get_freeze_count()
            if case == "loaded":
                assert ScenarioConfig.loads(self.LOADS_TEXTS[case]).seed == 1
            else:
                with pytest.raises(ConfigError):
                    ScenarioConfig.loads(self.LOADS_TEXTS[case])
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == count
        finally:
            gc.unfreeze()

    def test_collector_is_off_while_loads_parses_and_checks(self, restore_collector, monkeypatch):
        seen = []
        parse, from_dict = harness.json.loads, ScenarioConfig.from_dict.__func__

        def spy_parse(text):
            seen.append(("json.loads", gc.isenabled()))
            return parse(text)

        def spy_from_dict(cls, raw):
            seen.append(("from_dict", gc.isenabled()))
            return from_dict(cls, raw)

        monkeypatch.setattr(harness.json, "loads", spy_parse)
        monkeypatch.setattr(ScenarioConfig, "from_dict", classmethod(spy_from_dict))
        gc.enable()
        ScenarioConfig.loads(json.dumps(base_config()))
        assert seen == [("json.loads", False), ("from_dict", False)]
        assert gc.isenabled()


@pytest.fixture
def seeded(monkeypatch):
    """The seed of every `random.Random` built while the test runs."""
    seeds = []

    class Recording(random.Random):
        def __init__(self, seed=None):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", Recording)
    return seeds


class TestRoleGenerators:
    """Each role's generator is seeded from "<seed>/<role>" on its first
    draw, so a role that never draws costs no seeding."""

    def test_honest_run_seeds_only_the_provisioning_generator(self, seeded):
        # the config gives no master key, so provisioning draws one; the
        # AuC, the VLR and the card never draw
        run_scenario(ScenarioConfig.loads((CONFIGS / "honest_enhanced.json").read_text()))
        assert seeded == ["42/provision"]

    def test_honest_run_with_master_keys_seeds_none(self, seeded):
        subscribers = [{"imsi": VICTIM, "mode": "ENHANCED", "master": "11" * 16}]
        run_scenario(ScenarioConfig.from_dict(base_config(subscribers=subscribers)))
        assert seeded == []

    def test_a_rejecting_card_seeds_only_its_own_generator(self, seeded):
        raw = json.loads((CONFIGS / "bbk_enhanced.json").read_text())
        raw["subscribers"] = [
            {"imsi": imsi, "mode": "ENHANCED", "master": master * 16}
            for imsi, master in ((VICTIM, "11"), (OTHER, "22"))
        ]
        raw["script"][:0] = [
            {"op": "ATTACH", "imsi": OTHER},
            {"op": "REQUEST_TRIPLES", "imsi": OTHER, "n": 2},
            {"op": "CHALLENGE", "imsi": OTHER},
        ]
        result = run_scenario(ScenarioConfig.from_dict(raw))
        assert result.all_asserts_passed and not result.aborted
        assert seeded == [f"2002/sim/{VICTIM}"]

    def test_draws_equal_an_eagerly_seeded_generator(self):
        lazy, eager = harness._RoleRandom("7/vlr"), random.Random("7/vlr")
        assert [lazy.randrange(5), lazy.randbytes(8), lazy.randrange(3, 9)] == [
            eager.randrange(5),
            eager.randbytes(8),
            eager.randrange(3, 9),
        ]
        lazy = harness._RoleRandom("7/sim")
        assert lazy.randbytes(16) == random.Random("7/sim").randbytes(16)


def _nested(value):
    """`value` and every value inside it, nested tuples opened."""
    yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _nested(item)


# configs whose loaded scripts are checked field by field
LOADED_CONFIGS = {
    **{path.stem: lambda path=path: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))},
    "many_subscriber": many_subscriber_config,
    "multi_frame": lambda: multi_frame_config("A5_3"),
    "eavesdropper": eavesdropper_with_victim_traffic,
}


class TestLoadedScript:
    """A loaded step is its kind and its op's checked values, in
    `_STEP_KEYS` order, with every default filled in at load."""

    @pytest.mark.parametrize("name", LOADED_CONFIGS)
    def test_a_step_holds_its_ops_values_and_no_dict_or_list(self, name):
        raw = LOADED_CONFIGS[name]()
        config = ScenarioConfig.from_dict(raw)
        defaults = {"n": config.batch_size, "frame_index": 0}
        assert len(config.script) == len(raw["script"])
        for step, loaded in zip(raw["script"], config.script):
            keys = harness._STEP_KEYS[step["op"]]
            assert loaded.kind.value == step["op"]
            assert len(loaded.args) == len(keys)
            assert not any(isinstance(value, (dict, list)) for value in _nested(loaded))
            for key, value in zip(keys, loaded.args):
                if key in defaults:
                    assert value == step.get(key, defaults[key])

    def test_absent_n_and_frame_index_are_filled_in(self):
        # the victim's REQUEST_TRIPLES and SEND_TRAFFIC name neither
        config = ScenarioConfig.from_dict(eavesdropper_with_victim_traffic())
        kinds = (harness.StepKind.REQUEST_TRIPLES, harness.StepKind.SEND_TRAFFIC)
        assert [step.args for step in config.script if step.kind in kinds] == [
            (VICTIM, 2),
            (VICTIM, b"\x5a" * 40, 0),
            ("001010000000099", 1),
        ]
