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

    def test_caps_are_inclusive(self):
        script = [
            {"op": "REQUEST_TRIPLES", "imsi": VICTIM, "n": MAX_BATCH},
            {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "00", "frame_index": 2**64 - 1},
        ]
        raw = base_config(network_policy={"batch_size": MAX_BATCH}, script=script)
        config = ScenarioConfig.from_dict(raw)  # loaded, never run
        assert config.batch_size == MAX_BATCH == 4096
        assert [step.params for step in config.script] == [
            {k: v for k, v in step.items() if k != "op"} for step in script
        ]

    def test_send_traffic_step_carries_its_decoded_plaintext(self):
        script = [
            {"op": "ATTACH", "imsi": VICTIM},
            {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": "00ff10"},
            {"op": "SEND_TRAFFIC", "imsi": VICTIM, "plaintext": ""},
        ]
        config = ScenarioConfig.from_dict(base_config(script=script))
        assert [step.plaintext for step in config.script] == [None, b"\x00\xff\x10", b""]

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
        assert result.aborted
        assert "TripleExhaustionError" in harness.render_trace(result.trace) or result.error
        assert any(e.event["msg"] == "ABORT" for e in result.trace)
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
        for event, line in zip(tracer.events, lines):
            record = {"seq_no": event.seq_no, "actor": event.actor, "event": event.event}
            assert line == json.dumps(record, separators=(",", ":")) + "\n"
            assert harness.render_trace([event]) == line

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
    """run_scenario pauses the cyclic collector; that is safe only while a
    run leaves no reference cycles behind."""

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
