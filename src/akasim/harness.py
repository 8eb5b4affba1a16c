"""Deterministic scenario engine.

A scenario wires one home network, one serving network, a set of UEs
(phone + card) and optionally an attacker, then executes a scripted event
sequence on a single logical timeline.  All randomness flows from
per-role generators derived from the run seed, so a config replays to a
byte-identical trace.

Configs are JSON documents (see README for the schema); traces are
line-delimited JSON records with stable field order, one event per line:

    {"seq_no": 7, "actor": "ue:...", "event": {"msg": "SIM_RESPONSE", ...}}
"""

from __future__ import annotations

import enum
import gc
import itertools
import json
import random
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import NamedTuple

from . import crypto_suite as cs
from .adversary import (
    Adversary,
    AttackKind,
    AttackReport,
    InterceptLog,
    LoggedExchange,
    RandSource,
)
from .crypto_suite import _is_int, check_imsi
from .errors import ConfigError, SimulationError
from .mobile_equipment import MeProfile, MobileEquipment, Responded
from .network_side import (
    MAX_BATCH,
    ConsumptionPolicy,
    HomeNetwork,
    ServingNetwork,
    Verdict,
)
from .sim_card import SimCard, SimMode

__all__ = [
    "TraceEvent",
    "Tracer",
    "StepKind",
    "ScenarioStep",
    "ScenarioConfig",
    "AssertOutcome",
    "AssertResult",
    "ScenarioResult",
    "assert_trace",
    "run_scenario",
    "render_trace",
]


# One C encoder for every trace line, built once: json.dumps and
# JSONEncoder.encode build a new one per call.  Output equals
# json.dumps(payload, separators=(",", ":")); the circular-reference check
# is off because tracer payloads are trees of fresh dicts and lists.
_encode_payload = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",", False, False, True
)
_LINE = '{"seq_no":%d,"actor":%s,"event":%s}\n'
# builds a NamedTuple from its field tuple without the generated Python __new__
_tuple_new = tuple.__new__


class TraceEvent(NamedTuple):
    seq_no: int
    actor: str
    event: dict


class Tracer:
    """Collects the run's ordered event stream; injected into every actor.

    Every actor emits `trace(actor, msg="MSG", **fields)`: the actor is
    positional, the payload arrives as keywords with `msg` first, and the
    call's own keyword dict is stored as the payload, uncopied.
    """

    def __init__(self):
        self.events: list[TraceEvent] = []

    def __call__(self, actor: str, /, **event):
        events = self.events
        events.append(_tuple_new(TraceEvent, (len(events), actor, event)))


def render_trace(events: list[TraceEvent]) -> str:
    """One line per event, `json.dumps(record, separators=(",", ":"))` plus a
    newline, where record is `{"seq_no": ..., "actor": ..., "event": ...}`."""
    return "".join(
        [
            _LINE % (seq_no, encode_basestring_ascii(actor), "".join(_encode_payload(event, 0)))
            for seq_no, actor, event in events
        ]
    )


# --- configuration -----------------------------------------------------------


class StepKind(enum.Enum):
    ATTACH = "ATTACH"
    REQUEST_TRIPLES = "REQUEST_TRIPLES"
    CHALLENGE = "CHALLENGE"
    SEND_TRAFFIC = "SEND_TRAFFIC"
    POWER_CYCLE_UE = "POWER_CYCLE_UE"
    OPEN_CHANNEL = "OPEN_CHANNEL"
    RUN_ATTACK = "RUN_ATTACK"
    ASSERT = "ASSERT"


_STEP_KINDS = {kind.value: kind for kind in StepKind}
# the keys of the top-level config object
_CONFIG_KEYS = {"seed", "subscribers", "me_profiles", "network_policy", "attacker", "script"}
# the keys each op takes besides "op"; a closed set, like every other object
_STEP_KEYS = {
    "ATTACH": {"imsi"},
    "REQUEST_TRIPLES": {"imsi", "n"},
    "CHALLENGE": {"imsi"},
    "SEND_TRAFFIC": {"imsi", "plaintext", "frame_index"},
    "POWER_CYCLE_UE": {"imsi"},
    "OPEN_CHANNEL": {"imsi"},
    "RUN_ATTACK": {"victim"},
    "ASSERT": {"predicate"},
}

# Function bodies use these names, not `StepKind.ASSERT`: on CPython 3.11
# `EnumType` defines `__getattr__`, which slows every class attribute read.
(_ATTACH, _REQUEST_TRIPLES, _CHALLENGE, _SEND_TRAFFIC,
 _POWER_CYCLE_UE, _OPEN_CHANNEL, _RUN_ATTACK, _ASSERT) = StepKind
_AUTHENTICATED = Verdict.AUTHENTICATED
_MITM_EAVESDROP = AttackKind.MITM_EAVESDROP
_RELAY_FRESH = RandSource.RELAY_FRESH


class ScenarioStep(NamedTuple):
    kind: StepKind
    params: dict
    # a SEND_TRAFFIC step's plaintext, decoded once at load; None otherwise
    plaintext: bytes | None = None


class SubscriberSpec(NamedTuple):
    imsi: str
    mode: SimMode
    master: bytes | None = None


class AttackerSpec(NamedTuple):
    kind: AttackKind
    imsi: str | None = None
    rand_source: RandSource = RandSource.FABRICATED
    victim_traffic: bytes = b""


class ScenarioConfig(NamedTuple):
    seed: int
    subscribers: tuple[SubscriberSpec, ...]
    me_profiles: dict
    policy: ConsumptionPolicy
    cipher: cs.CipherAlgId
    batch_size: int
    attacker: AttackerSpec | None
    script: tuple[ScenarioStep, ...]

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        try:
            return cls._parse(raw)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad scenario config: {exc}") from exc

    @classmethod
    def loads(cls, text: str) -> "ScenarioConfig":
        try:
            raw = json.loads(text)
        except (RecursionError, ValueError) as exc:
            # ValueError covers JSONDecodeError and an integer literal past
            # the int/str digit limit; RecursionError, nesting too deep
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def _parse(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        _closed(raw, _CONFIG_KEYS, "config keys")
        seed = raw["seed"]
        if not _is_int(seed):
            raise ConfigError("seed must be an integer")

        subscribers = []
        seen = set()
        for sub in raw["subscribers"]:
            imsi = check_imsi(sub["imsi"])
            if imsi in seen:
                raise ConfigError(f"duplicate subscriber {imsi}")
            seen.add(imsi)
            _closed(sub, {"imsi", "mode", "master"}, "subscriber keys for %s", imsi)
            master = bytes.fromhex(sub["master"]) if "master" in sub else None
            if master is not None and len(master) != cs.KEY_LEN:
                raise ConfigError(f"master key for {imsi} must be 16 octets")
            subscribers.append(
                SubscriberSpec(imsi=imsi, mode=SimMode(sub["mode"]), master=master)
            )
        if not subscribers:
            raise ConfigError("at least one subscriber is required")

        me_profiles = {}
        for imsi, prof in _object(raw.get("me_profiles", {}), "me_profiles").items():
            if imsi not in seen:
                raise ConfigError(f"me_profile for unknown subscriber {imsi}")
            prof = _object(prof, f"me_profile for {imsi}")
            flags = {"class_e": True, "accepts_unauthenticated": False, "leaky": False}
            _closed(prof, flags.keys(), "me_profile keys for %s", imsi)
            flags.update(prof)
            if not all(isinstance(flag, bool) for flag in flags.values()):
                raise ConfigError(f"me_profile flags for {imsi} must be true or false")
            me_profiles[imsi] = MeProfile(
                class_e_supported=flags["class_e"],
                accepts_unauthenticated=flags["accepts_unauthenticated"],
                leaky=flags["leaky"],
            )

        net = _object(raw.get("network_policy", {}), "network_policy")
        _closed(net, {"consumption_policy", "cipher", "batch_size"}, "network_policy keys")
        policy = ConsumptionPolicy(net.get("consumption_policy", "IN_ORDER"))
        cipher = cs.CipherAlgId(net.get("cipher", "A5_3"))
        batch_size = net.get("batch_size", 2)
        if not _is_int(batch_size) or not 1 <= batch_size <= MAX_BATCH:
            raise ConfigError(f"batch_size must be an integer in [1, {MAX_BATCH}]")

        attacker = None
        if raw.get("attacker") is not None:
            atk = _object(raw["attacker"], "attacker")
            _closed(atk, {"kind", "imsi", "rand_source", "victim_traffic"}, "attacker keys")
            attacker_imsi = atk.get("imsi")
            if attacker_imsi is not None and attacker_imsi not in seen:
                raise ConfigError(f"attacker imsi {attacker_imsi} not provisioned")
            attacker = AttackerSpec(
                kind=AttackKind(atk["kind"]),
                imsi=attacker_imsi,
                rand_source=RandSource(atk.get("rand_source", "FABRICATED")),
                victim_traffic=bytes.fromhex(atk.get("victim_traffic", "")),
            )
            if attacker.kind is _MITM_EAVESDROP and not attacker.victim_traffic:
                raise ConfigError("MITM_EAVESDROP needs non-empty victim_traffic")

        script = []
        for idx, step in enumerate(raw.get("script", [])):
            if not isinstance(step, dict):
                raise ConfigError(f"script step {idx} must be a JSON object")
            if "op" not in step:
                raise ConfigError(f"script step {idx} has no 'op'")
            params = step.copy()
            op = params.pop("op")
            try:
                kind = _STEP_KINDS[op]
            except (KeyError, TypeError):
                kind = StepKind(op)  # raises the ValueError that names the op
            _closed(params, _STEP_KEYS[op], "keys in script step %d (%s)", idx, op)
            plaintext = cls._check_step(idx, kind, params, seen, attacker)
            script.append(_tuple_new(ScenarioStep, (kind, params, plaintext)))

        return cls(
            seed=seed,
            subscribers=tuple(subscribers),
            me_profiles=me_profiles,
            policy=policy,
            cipher=cipher,
            batch_size=batch_size,
            attacker=attacker,
            script=tuple(script),
        )

    @staticmethod
    def _check_step(idx, kind, params, known_imsis, attacker):
        """Raise ConfigError on a bad step; return a SEND_TRAFFIC plaintext."""
        if kind is _ASSERT:
            if "predicate" not in params:
                raise ConfigError(f"ASSERT step {idx} missing predicate")
            _check_predicate(params["predicate"])
            return
        step_imsi = params.get("victim") if kind is _RUN_ATTACK else params.get("imsi")
        if step_imsi is None:
            raise ConfigError(f"step {idx} ({kind.value}) needs an imsi/victim")
        if step_imsi not in known_imsis:
            raise ConfigError(f"step {idx} references unknown imsi {step_imsi}")
        if kind is _RUN_ATTACK and attacker is None:
            raise ConfigError(f"step {idx} runs an attack but none is configured")
        if kind is _REQUEST_TRIPLES:
            n = params.get("n", 1)
            if not _is_int(n) or not 1 <= n <= MAX_BATCH:
                raise ConfigError(f"step {idx}: n must be an integer in [1, {MAX_BATCH}]")
        if kind is _SEND_TRAFFIC:
            try:
                plaintext = bytes.fromhex(params["plaintext"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"step {idx}: plaintext must be a hex string") from exc
            frame = params.get("frame_index", 0)
            if not _is_int(frame) or not 0 <= frame < 1 << 64:
                raise ConfigError(f"step {idx}: frame_index must be an integer in [0, 2^64)")
            return plaintext
        return None


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return value


def _closed(value: dict, allowed, what: str, *args) -> None:
    """Raise ConfigError naming the keys of `value` outside `allowed`; the
    object is named `what % args`, formatted only on failure."""
    if not value.keys() <= allowed:
        raise ConfigError(f"unknown {what % args}: {sorted(value.keys() - allowed)}")


# --- trace predicates --------------------------------------------------------


class AssertOutcome(NamedTuple):
    passed: bool
    detail: str


def _find(trace, where, start=0):
    """The first event from index `start` on that meets every clause."""
    clauses = where.items()
    for event in itertools.islice(trace, start, None):
        payload = event.event
        for key, expected in clauses:
            if (event.actor if key == "actor" else payload.get(key)) != expected:
                break
        else:
            return event
    return None


# the keys each predicate kind needs; `where` and `anchor` are match clauses
_PREDICATE_KEYS = {
    "present": ("where",),
    "absent": ("where",),
    "ordered": ("sequence",),
    "absent_after": ("anchor", "where"),
    "field_equals": ("where", "field", "value"),
}


def _check_predicate(predicate) -> None:
    """Raise ConfigError unless `predicate` is a well-formed matcher."""
    if not isinstance(predicate, dict) or "kind" not in predicate:
        raise ConfigError(f"malformed predicate: {predicate!r}")
    kind = predicate["kind"]
    if not isinstance(kind, str) or kind not in _PREDICATE_KEYS:
        raise ConfigError(f"unknown predicate kind {kind!r}")
    required = _PREDICATE_KEYS[kind]
    for key in required:
        if key not in predicate:
            raise ConfigError(f"predicate {kind!r} missing {key!r}")
    if kind == "ordered":
        clauses = predicate["sequence"]
        if not isinstance(clauses, list) or not clauses:
            raise ConfigError("ordered predicate needs a non-empty sequence")
    else:
        clauses = [predicate[key] for key in required if key in ("where", "anchor")]
    if not all(isinstance(clause, dict) for clause in clauses):
        raise ConfigError(f"predicate {kind!r}: every match clause must be a JSON object")
    if kind == "field_equals" and not isinstance(predicate["field"], str):
        raise ConfigError("field_equals predicate: field must be a string")


def assert_trace(trace: list[TraceEvent], predicate: dict) -> AssertOutcome:
    """Evaluate a declarative matcher over the event sequence.

    Kinds: present, absent, ordered, absent_after, field_equals.  A `where`
    clause is a dict of field=value requirements; `actor` and `msg` address
    the envelope, anything else the event payload.  A malformed predicate
    raises ConfigError.
    """
    _check_predicate(predicate)
    kind = predicate["kind"]

    if kind == "present":
        hit = _find(trace, predicate["where"])
        if hit:
            return AssertOutcome(True, f"matched at seq_no {hit.seq_no}")
        return AssertOutcome(False, "no event matched")

    if kind == "absent":
        hit = _find(trace, predicate["where"])
        if hit:
            return AssertOutcome(False, f"unexpected match at seq_no {hit.seq_no}")
        return AssertOutcome(True, "no event matched")

    if kind == "ordered":
        start = 0
        for i, where in enumerate(predicate["sequence"]):
            hit = _find(trace, where, start)
            if hit is None:
                return AssertOutcome(
                    False, f"element {i} not found after seq_no {start - 1}"
                )
            start = hit.seq_no + 1
        return AssertOutcome(True, f"sequence complete by seq_no {start - 1}")

    if kind == "absent_after":
        anchor = _find(trace, predicate["anchor"])
        if anchor is None:
            return AssertOutcome(True, "anchor never occurred (vacuous)")
        hit = _find(trace, predicate["where"], anchor.seq_no + 1)
        if hit:
            return AssertOutcome(
                False,
                f"match at seq_no {hit.seq_no} after anchor at {anchor.seq_no}",
            )
        return AssertOutcome(True, f"nothing after anchor at seq_no {anchor.seq_no}")

    # field_equals
    fname, value = predicate["field"], predicate["value"]
    hit = _find(trace, predicate["where"])
    if hit is None:
        return AssertOutcome(False, "no event matched the where clause")
    actual = hit.event.get(fname)
    if actual == value:
        return AssertOutcome(True, f"field {fname} matches at seq_no {hit.seq_no}")
    return AssertOutcome(
        False, f"field {fname} is {actual!r} at seq_no {hit.seq_no}, wanted {value!r}"
    )


# --- engine --------------------------------------------------------------


class AssertResult(NamedTuple):
    step_index: int
    passed: bool
    detail: str
    predicate: dict


class ScenarioResult:
    __slots__ = ("trace", "attack_reports", "assert_results", "aborted", "error")

    def __init__(self, trace: list[TraceEvent]):
        self.trace = trace
        self.attack_reports: list[AttackReport] = []
        self.assert_results: list[AssertResult] = []
        self.aborted = False
        self.error: str | None = None

    @property
    def all_asserts_passed(self) -> bool:
        return all(r.passed for r in self.assert_results)


class _RoleRandom:
    """`random.Random(seed)`, seeded on its first draw: seeding hashes the
    string and fills the whole generator state, and most roles never draw.
    The first draw binds the seeded generator's own methods on the
    instance, so later draws go straight to them.  The actors draw only
    through `randbytes` and `randrange`."""

    def __init__(self, seed: str):
        self._seed = seed

    def _seeded(self) -> random.Random:
        rng = random.Random(self._seed)
        self.randbytes, self.randrange = rng.randbytes, rng.randrange
        return rng

    def randbytes(self, n: int) -> bytes:
        return self._seeded().randbytes(n)

    def randrange(self, *args) -> int:
        return self._seeded().randrange(*args)


class ScenarioEngine:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.tracer = Tracer()
        # every actor calls the bound method, not the instance: that skips
        # the type's call slot and its per-call attribute lookup
        self.trace = trace = self.tracer.__call__
        seed = config.seed
        self.home = HomeNetwork(rng=_RoleRandom(f"{seed}/auc"), tracer=trace)
        self.serving = ServingNetwork(
            policy=config.policy,
            cipher_choice=config.cipher,
            rng=_RoleRandom(f"{seed}/vlr"),
            tracer=trace,
        )
        provision_rng = _RoleRandom(f"{seed}/provision")
        self.ues: dict[str, MobileEquipment] = {}
        for spec in config.subscribers:
            master = spec.master or provision_rng.randbytes(cs.KEY_LEN)
            _, sim_state = self.home.provision(spec.imsi, spec.mode, master)
            sim = SimCard(sim_state, rng=_RoleRandom(f"{seed}/sim/{spec.imsi}"))
            profile = config.me_profiles.get(spec.imsi, MeProfile())
            me = MobileEquipment(profile, sim, tracer=trace)
            me.power_on()
            self.ues[spec.imsi] = me

        self.adversary: Adversary | None = None
        if config.attacker is not None:
            own_ue = (
                self.ues[config.attacker.imsi]
                if config.attacker.imsi is not None
                else None
            )
            self.adversary = Adversary(
                rng=_RoleRandom(f"{seed}/attacker"),
                tracer=trace,
                own_ue=own_ue,
            )
        # plaintexts sent under each logged exchange, keyed by the exchange
        self._truth: dict[LoggedExchange, list[bytes]] = {}

    # --- step handlers -----------------------------------------------------

    def run(self) -> ScenarioResult:
        result = ScenarioResult(trace=self.tracer.events)
        for index, step in enumerate(self.config.script):
            try:
                self._execute(index, step, result)
            except SimulationError as exc:
                self.trace(
                    "engine", msg="ABORT", step=index, error=f"{type(exc).__name__}: {exc}"
                )
                result.aborted = True
                result.error = f"step {index} ({step.kind.value}): {exc}"
                break
        return result

    def _execute(self, index: int, step: ScenarioStep, result: ScenarioResult):
        kind, params, plaintext = step
        if kind is _ATTACH:
            self.ues[params["imsi"]].attach(self.serving.name)
        elif kind is _REQUEST_TRIPLES:
            imsi = params["imsi"]
            n = params.get("n", self.config.batch_size)
            self.trace(self.serving.name, msg="TRIPLES_REQUEST", imsi=imsi, n=n)
            triples = self.home.request_triples(imsi, n)
            self.serving.add_triples(imsi, triples)
        elif kind is _CHALLENGE:
            self._challenge(params["imsi"], self.adversary and self.adversary.log)
        elif kind is _SEND_TRAFFIC:
            self._send_traffic(params, plaintext)
        elif kind is _POWER_CYCLE_UE:
            self.ues[params["imsi"]].power_cycle()
        elif kind is _OPEN_CHANNEL:
            self.ues[params["imsi"]].open_channel()
        elif kind is _RUN_ATTACK:
            report = self._run_attack(params["victim"])
            result.attack_reports.append(report)
        elif kind is _ASSERT:
            outcome = assert_trace(self.tracer.events, params["predicate"])
            self.trace(
                "engine",
                msg="ASSERT_RESULT",
                step=index,
                passed=outcome.passed,
                detail=outcome.detail,
            )
            result.assert_results.append(
                AssertResult(
                    step_index=index,
                    passed=outcome.passed,
                    detail=outcome.detail,
                    predicate=params["predicate"],
                )
            )
        else:  # pragma: no cover - StepKind is closed
            raise ConfigError(f"unhandled step kind {kind}")

    def _challenge(self, imsi: str, log: InterceptLog | None = None):
        """One AKA leg: challenge, answer, verify, cipher; `log` records the exchange."""
        me = self.ues[imsi]
        rand = self.serving.challenge(imsi)
        if log is not None:
            log.start_exchange(rand)
        outcome = me.handle_challenge(rand)
        if isinstance(outcome, Responded):
            if log is not None:
                log.note_sres(outcome.sres)
            if self.serving.verify(imsi, outcome.sres) is _AUTHENTICATED:
                me.apply_cipher(self.serving.select_cipher())

    def _send_traffic(self, params: dict, plaintext: bytes):
        me = self.ues[params["imsi"]]
        frame_index = params.get("frame_index", 0)
        ciphertext = me.send_traffic(plaintext, frame_index)
        if self.adversary is not None:
            log = self.adversary.log
            log.note_frame(frame_index, me.session.cipher, ciphertext)
            self._truth.setdefault(log.records[-1], []).append(plaintext)

    def _run_attack(self, victim_imsi: str) -> AttackReport:
        spec = self.config.attacker
        adversary = self.adversary
        victim = self.ues[victim_imsi]
        if spec.kind is _MITM_EAVESDROP:
            own = adversary.own_ue
            if own is not None and own.session.attached_network is None:
                # the MITM's genuine leg, left out of its own intercept log
                own.attach(self.serving.name)
                self._challenge(spec.imsi)
            relay = (
                self.serving if spec.rand_source is _RELAY_FRESH else None
            )
            return adversary.fake_network_attach(
                victim,
                victim_traffic=spec.victim_traffic,
                rand_source=spec.rand_source,
                relay=relay,
            )
        # challenge replay: ground truth is the plaintext behind the logged
        # exchange the attacker will pick
        record = adversary.log.latest_with_strong_frames()
        truth = b"".join(self._truth[record]) if record is not None else b""
        return adversary.bbk_attack(victim, ground_truth=truth)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Execute a validated config; identical configs yield identical traces.

    The cyclic garbage collector is paused, process-wide, while the engine
    is built and run, and put back as it was found.  The run's object graph
    is acyclic, so reference counting frees all of it; the collector would
    only re-walk the growing trace over and over.  On resume, everything
    tracked moves to the oldest generation (a freeze, then an unfreeze), so
    the next young collection does not walk the whole run once more; a
    later full collection still sees it.  If the caller has frozen objects,
    the collector is only re-enabled, so theirs stay frozen.
    """
    gc_was_enabled = gc.isenabled()
    nothing_frozen = gc.get_freeze_count() == 0
    gc.disable()
    try:
        engine = ScenarioEngine(config)
        result = engine.run()
        engine.trace(
            "engine",
            msg="RUN_COMPLETE",
            aborted=result.aborted,
            asserts_passed=result.all_asserts_passed,
        )
        return result
    finally:
        if gc_was_enabled:
            if nothing_frozen:
                gc.freeze()  # empties the young generation and its count
                gc.unfreeze()  # into the oldest generation
            gc.enable()
