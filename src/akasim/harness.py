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
from .adversary import Adversary, AttackKind, LoggedExchange, RandSource
from .crypto_suite import _is_int, _tuple_new, check_imsi
from .errors import ConfigError, SimulationError
from .mobile_equipment import MeProfile, MobileEquipment
from .network_side import (
    MAX_BATCH,
    ConsumptionPolicy,
    HomeNetwork,
    ServingNetwork,
    Verdict,
)
from .sim_card import SimMode

__all__ = [
    "TraceEvent",
    "Tracer",
    "StepKind",
    "ScenarioStep",
    "ScenarioConfig",
    "AssertOutcome",
    "ScenarioResult",
    "assert_trace",
    "run_scenario",
    "render_trace",
    "summarize",
]


# One C encoder for every trace line, built once: json.dumps and
# JSONEncoder.encode build a new one per call.  Output equals
# json.dumps(payload, separators=(",", ":")); the circular-reference check
# is off because tracer payloads are trees of fresh dicts and lists.
_encode_payload = c_make_encoder(
    None, json.JSONEncoder().default, encode_basestring_ascii, None, ":", ",", False, False, True
)
_LINE = '{"seq_no":%d,"actor":%s,"event":%s}\n'


class TraceEvent(NamedTuple):
    # an event's seq_no is its index in the trace
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
        self.events.append(_tuple_new(TraceEvent, (actor, event)))


def render_trace(events: list[TraceEvent]) -> str:
    """One line per event, `json.dumps(record, separators=(",", ":"))` plus a
    newline, where record is `{"seq_no": ..., "actor": ..., "event": ...}`
    and `seq_no` is the event's index in `events`, counted from 0."""
    return "".join(
        [
            _LINE % (seq_no, encode_basestring_ascii(actor), "".join(_encode_payload(event, 0)))
            for seq_no, (actor, event) in enumerate(events)
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


# the step kinds keyed by value: a lookup here skips the Enum call, which is
# left to raise on a miss; every other enum a config names is read once per run
# or per subscriber, through the Enum call
_STEP_KINDS = {kind._value_: kind for kind in StepKind}
# the keys of the top-level config object
_CONFIG_KEYS = {"seed", "subscribers", "me_profiles", "network_policy", "attacker", "script"}
# the keys each op takes besides "op", in the order a loaded step's `args`
# holds their checked values; a closed set, like every other object
_STEP_KEYS = {
    "ATTACH": ("imsi",),
    "REQUEST_TRIPLES": ("imsi", "n"),
    "CHALLENGE": ("imsi",),
    "SEND_TRAFFIC": ("imsi", "plaintext", "frame_index"),
    "POWER_CYCLE_UE": ("imsi",),
    "OPEN_CHANNEL": ("imsi",),
    "RUN_ATTACK": ("victim",),
    "ASSERT": ("predicate",),
}
# the keys a step of each op may hold, "op" included, for the closed-key check
_STEP_ALLOWED = {op: frozenset(("op", *keys)) for op, keys in _STEP_KEYS.items()}
# the keys each attacker kind takes; the replay attack reads none but its kind
_ATTACKER_KEYS = {
    "MITM_EAVESDROP": {"kind", "imsi", "rand_source", "victim_traffic"},
    "BBK_REPLAY": {"kind"},
}

# Function bodies use these names, not `StepKind.ASSERT`: on CPython 3.11
# `EnumType` defines `__getattr__`, which slows every class attribute read.
(_ATTACH, _REQUEST_TRIPLES, _CHALLENGE, _SEND_TRAFFIC,
 _POWER_CYCLE_UE, _OPEN_CHANNEL, _RUN_ATTACK, _ASSERT) = StepKind
_AUTHENTICATED = Verdict.AUTHENTICATED
_MITM_EAVESDROP, _BBK_REPLAY = AttackKind
# the phone of a subscriber that `me_profiles` does not name
_DEFAULT_PROFILE = MeProfile()


class ScenarioStep(NamedTuple):
    kind: StepKind
    # the op's values in `_STEP_KEYS` order, checked and with defaults filled
    # in at load: a SEND_TRAFFIC plaintext decoded, an ASSERT predicate compiled
    args: tuple


class SubscriberSpec(NamedTuple):
    imsi: str
    mode: SimMode
    master: bytes | None


class AttackerSpec(NamedTuple):
    kind: AttackKind
    imsi: str | None
    rand_source: RandSource
    victim_traffic: bytes


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
        """Parse and check a JSON config, as `from_dict` does a parsed one.

        The cyclic collector is paused, process-wide, while the text is
        parsed and checked, and put back as it was found.  The parsed tree
        and the loaded config are acyclic, so the collector would only walk
        the growing tree again and again.
        """
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            try:
                raw = json.loads(text)
            except (RecursionError, ValueError) as exc:
                # ValueError covers JSONDecodeError and an integer literal past
                # the int/str digit limit; RecursionError, nesting too deep
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
            return cls.from_dict(raw)
        finally:
            if gc_was_enabled:
                gc.enable()

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
            master = _hex(sub["master"], "master key for %s", imsi) if "master" in sub else None
            if master is not None and len(master) != cs.KEY_LEN:
                raise ConfigError(f"master key for {imsi} must be 16 octets")
            subscribers.append(SubscriberSpec(imsi, SimMode(sub["mode"]), master))
        if not subscribers:
            raise ConfigError("at least one subscriber is required")

        me_profiles = {}
        for imsi, prof in _object(raw.get("me_profiles", {}), "me_profiles").items():
            if imsi not in seen:
                raise ConfigError(f"me_profile for unknown subscriber {imsi}")
            prof = _object(prof, f"me_profile for {imsi}")
            _closed(prof, MeProfile._field_defaults.keys(), "me_profile keys for %s", imsi)
            if not all(isinstance(flag, bool) for flag in prof.values()):
                raise ConfigError(f"me_profile flags for {imsi} must be true or false")
            me_profiles[imsi] = _DEFAULT_PROFILE._replace(**prof)

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
            kind = AttackKind(atk["kind"])
            _closed(atk, _ATTACKER_KEYS[kind._value_], "attacker keys for %s", kind._value_)
            attacker_imsi = atk.get("imsi")
            if attacker_imsi is not None and attacker_imsi not in seen:
                raise ConfigError(f"attacker imsi {attacker_imsi} not provisioned")
            attacker = AttackerSpec(
                kind=kind,
                imsi=attacker_imsi,
                rand_source=RandSource(atk.get("rand_source", "FABRICATED")),
                victim_traffic=_hex(atk.get("victim_traffic", ""), "victim_traffic"),
            )
            if attacker.kind is _MITM_EAVESDROP and not attacker.victim_traffic:
                raise ConfigError("MITM_EAVESDROP needs non-empty victim_traffic")

        script = []
        check_step = cls._check_step
        for idx, step in enumerate(raw.get("script", [])):
            if not isinstance(step, dict):
                raise ConfigError(f"script step {idx} must be a JSON object")
            if "op" not in step:
                raise ConfigError(f"script step {idx} has no 'op'")
            op = step["op"]
            try:
                kind = _STEP_KINDS[op]
            except (KeyError, TypeError):
                kind = StepKind(op)  # raises the ValueError that names the op
            _closed(step, _STEP_ALLOWED[op], "keys in script step %d (%s)", idx, op)
            script.append(check_step(idx, kind, step, seen, attacker, batch_size))

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
    def _check_step(idx, kind, step, known_imsis, attacker, batch_size) -> ScenarioStep:
        """Raise ConfigError on a bad step; return the loaded step.  The
        imsi is checked first, then the op's values in `_STEP_KEYS` order, so
        a step with several faults is refused for the first of them."""
        if kind is _ASSERT:
            if "predicate" not in step:
                raise ConfigError(f"ASSERT step {idx} missing predicate")
            return _tuple_new(ScenarioStep, (kind, (_compile_predicate(step["predicate"]),)))
        step_imsi = step.get("victim" if kind is _RUN_ATTACK else "imsi")
        if step_imsi not in known_imsis:  # strings only, so never None
            if step_imsi is None:
                raise ConfigError(f"step {idx} ({kind.value}) needs an imsi/victim")
            raise ConfigError(f"step {idx} references unknown imsi {step_imsi}")
        if kind is _SEND_TRAFFIC:  # most of a long script
            plaintext = _hex(step.get("plaintext"), "step %d: plaintext", idx)
            frame = step.get("frame_index", 0)
            if not _is_int(frame) or not 0 <= frame < 1 << 64:
                raise ConfigError(f"step {idx}: frame_index must be an integer in [0, 2^64)")
            args = (step_imsi, plaintext, frame)
        elif kind is _REQUEST_TRIPLES:
            n = step.get("n", batch_size)
            if not _is_int(n) or not 1 <= n <= MAX_BATCH:
                raise ConfigError(f"step {idx}: n must be an integer in [1, {MAX_BATCH}]")
            args = (step_imsi, n)
        else:
            if kind is _RUN_ATTACK:
                if attacker is None:
                    raise ConfigError(f"step {idx} runs an attack but none is configured")
                if step_imsi == attacker.imsi:
                    # its genuine relay leg would ride the fake network it captured
                    raise ConfigError(f"step {idx} ({kind.value}): victim {step_imsi} is the attacker")
            args = (step_imsi,)
        return _tuple_new(ScenarioStep, (kind, args))


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return value


def _hex(text, what: str, *args) -> bytes:
    """The octets of a hex string; ConfigError naming `what % args` on any
    other value.  `bytes.fromhex` skips ASCII whitespace, and each skipped
    character leaves the text longer than two digits per octet."""
    try:
        octets = bytes.fromhex(text)
    except (TypeError, ValueError):
        octets = None
    if octets is None or 2 * len(octets) != len(text):
        raise ConfigError(f"{what % args} must be a hex string")
    return octets


def _closed(value: dict, allowed, what: str, *args) -> None:
    """Raise ConfigError naming the keys of `value` outside `allowed`; the
    object is named `what % args`, formatted only on failure."""
    if not value.keys() <= allowed:
        raise ConfigError(f"unknown {what % args}: {sorted(value.keys() - allowed)}")


# --- trace predicates --------------------------------------------------------


class AssertOutcome(NamedTuple):
    passed: bool
    detail: str


# the actor of a match clause that names none: every envelope matches it
_ANY_ACTOR = object()


class _Predicate(NamedTuple):
    kind: str
    # `where`, `anchor` then `where`, or `sequence`, each as `(actor, items)`:
    # the envelope actor it needs, or _ANY_ACTOR, and its payload pairs
    clauses: tuple
    field: str | None
    value: object


def _find(trace, clause, start=0):
    """The index of the first event from index `start` on that meets a
    compiled clause, or None."""
    actor, items = clause
    for seq_no, event in enumerate(itertools.islice(trace, start, None), start):
        if actor is not _ANY_ACTOR and event.actor != actor:
            continue
        payload = event.event
        for key, expected in items:
            if payload.get(key) != expected:
                break
        else:
            return seq_no
    return None


# the keys each predicate kind needs; `where` and `anchor` are match clauses
_PREDICATE_KEYS = {
    "present": ("where",),
    "absent": ("where",),
    "ordered": ("sequence",),
    "absent_after": ("anchor", "where"),
    "field_equals": ("where", "field", "value"),
}


def _compile_predicate(predicate) -> _Predicate:
    """Check `predicate` and compile it; raise ConfigError unless it is a
    well-formed matcher whose keys are `kind` and what its kind needs."""
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
    elif kind == "absent_after":
        clauses = (predicate["anchor"], predicate["where"])
    else:
        clauses = (predicate["where"],)
    compiled = []
    for where in clauses:
        if not isinstance(where, dict):
            raise ConfigError(f"predicate {kind!r}: every match clause must be a JSON object")
        if "actor" in where:
            items = where.copy()
            compiled.append((items.pop("actor"), tuple(items.items())))
        else:
            compiled.append((_ANY_ACTOR, tuple(where.items())))
    if kind == "field_equals" and not isinstance(predicate["field"], str):
        raise ConfigError("field_equals predicate: field must be a string")
    # every needed key is there, so any more key is one the kind does not take
    if len(predicate) > 1 + len(required):
        _closed(predicate, {"kind", *required}, "keys in predicate %r", kind)
    return _Predicate(kind, tuple(compiled), predicate.get("field"), predicate.get("value"))


def assert_trace(trace: list[TraceEvent], predicate: dict | _Predicate) -> AssertOutcome:
    """Evaluate a declarative matcher over the event sequence.

    Kinds: present, absent, ordered, absent_after, field_equals.  A `where`
    clause is a dict of field=value requirements; `actor` and `msg` address
    the envelope, anything else the event payload.  A dict predicate is
    checked and compiled here, and a malformed one raises ConfigError; the
    compiled form a loaded ASSERT step carries is trusted.
    """
    if type(predicate) is not _Predicate:
        predicate = _compile_predicate(predicate)
    kind, clauses, field, value = predicate

    if kind == "present" or kind == "absent":
        hit = _find(trace, clauses[0])
        if hit is None:
            passed, detail = kind == "absent", "no event matched"
        elif kind == "present":
            passed, detail = True, f"matched at seq_no {hit}"
        else:
            passed, detail = False, f"unexpected match at seq_no {hit}"
    elif kind == "ordered":
        start = 0
        for i, clause in enumerate(clauses):
            hit = _find(trace, clause, start)
            if hit is None:
                passed, detail = False, f"element {i} not found after seq_no {start - 1}"
                break
            start = hit + 1
        else:
            passed, detail = True, f"sequence complete by seq_no {start - 1}"
    elif kind == "absent_after":
        anchor = _find(trace, clauses[0])
        if anchor is None:
            passed, detail = True, "anchor never occurred (vacuous)"
        else:
            hit = _find(trace, clauses[1], anchor + 1)
            if hit is None:
                passed, detail = True, f"nothing after anchor at seq_no {anchor}"
            else:
                passed = False
                detail = f"match at seq_no {hit} after anchor at {anchor}"
    else:  # field_equals
        hit = _find(trace, clauses[0])
        if hit is None:
            passed, detail = False, "no event matched the where clause"
        else:
            actual = trace[hit].event.get(field)
            if actual == value:
                passed, detail = True, f"field {field} matches at seq_no {hit}"
            else:
                passed = False
                detail = f"field {field} is {actual!r} at seq_no {hit}, wanted {value!r}"
    return AssertOutcome(passed, detail)


# --- engine --------------------------------------------------------------


class ScenarioResult(NamedTuple):
    """A run's trace and how it ended: `error` is the aborting step and its
    error, `step N (KIND): message`, or None.  Every other result is read
    from the trace (see `summarize`)."""

    trace: list[TraceEvent]
    error: str | None
    all_asserts_passed: bool

    @property
    def aborted(self) -> bool:
        return self.error is not None


def summarize(result: ScenarioResult) -> dict:
    """The run summary `akasim run` reports, read from the trace and the abort.

    Each attack is its `ATTACK_RESULT` event plus the plaintext it recovered:
    the last `PLAINTEXT_OBSERVED` or `LOG_DECRYPTED` since its own
    `ATTACK_START`, so an attack that recovered none reports null.  Each
    assert is an `ASSERT_RESULT` event.
    """
    attacks, asserts = [], []
    plaintext = None
    for _, event in result.trace:
        msg = event["msg"]
        if msg == "ATTACK_START":
            plaintext = None
        elif msg == "PLAINTEXT_OBSERVED" or msg == "LOG_DECRYPTED":
            plaintext = event["plaintext"]
        elif msg == "ATTACK_RESULT":
            attacks.append(
                {
                    "kind": event["kind"],
                    "succeeded": event["succeeded"],
                    "recovered_kc": event.get("recovered_kc"),
                    "recovered_plaintext": plaintext,
                    "failure_cause": event.get("failure_cause"),
                }
            )
        elif msg == "ASSERT_RESULT":
            asserts.append({key: event[key] for key in ("step", "passed", "detail")})
    return {
        "events": len(result.trace),
        "aborted": result.aborted,
        "error": result.error,
        "attacks": attacks,
        "asserts": asserts,
        "all_asserts_passed": all(a["passed"] for a in asserts),
    }


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
            card_rng = _RoleRandom(f"{seed}/sim/{spec.imsi}")
            sim = self.home.provision(spec.imsi, spec.mode, master, card_rng)
            profile = config.me_profiles.get(spec.imsi, _DEFAULT_PROFILE)
            me = MobileEquipment(profile, sim, tracer=trace)
            me.power_on()
            self.ues[spec.imsi] = me

        self.adversary: Adversary | None = None
        if config.attacker is not None:
            self.adversary = Adversary(
                rng=_RoleRandom(f"{seed}/attacker"),
                tracer=trace,
                own_ue=self.ues.get(config.attacker.imsi),
            )
        # the plaintexts sent under each exchange the challenge replay logged
        self._truth: dict[LoggedExchange, list[bytes]] = {}
        # cleared at the first failing ASSERT
        self.all_asserts_passed = True

    # --- step handlers -----------------------------------------------------

    def run(self) -> ScenarioResult:
        error = None
        for index, step in enumerate(self.config.script):
            try:
                self._execute(index, step)
            except SimulationError as exc:
                self.trace(
                    "engine", msg="ABORT", step=index, error=f"{type(exc).__name__}: {exc}"
                )
                error = f"step {index} ({step.kind.value}): {exc}"
                break
        return ScenarioResult(self.tracer.events, error, self.all_asserts_passed)

    def _execute(self, index: int, step: ScenarioStep):
        kind, args = step
        if kind is _SEND_TRAFFIC:  # most of a long script, so tested for first
            # the loader proved the frame, so it goes straight to the phone's core
            imsi, plaintext, frame_index = args
            me = self.ues[imsi]
            ciphertext = me._send_frame(plaintext, frame_index)
            # only the challenge replay reads the frames and plaintexts it logs
            if self.adversary is not None and self.config.attacker.kind is _BBK_REPLAY:
                exchange = self.adversary.overhear_frame(frame_index, me.cipher, ciphertext)
                self._truth.setdefault(exchange, []).append(plaintext)
        elif kind is _ATTACH:
            self.ues[args[0]].attach(self.serving.name)
        elif kind is _REQUEST_TRIPLES:
            imsi, n = args
            self.trace(self.serving.name, msg="TRIPLES_REQUEST", imsi=imsi, n=n)
            triples = self.home.request_triples(imsi, n)
            self.serving.add_triples(imsi, triples)
        elif kind is _CHALLENGE:
            self._challenge(args[0], self.adversary)
        elif kind is _POWER_CYCLE_UE:
            self.ues[args[0]].power_cycle()
        elif kind is _OPEN_CHANNEL:
            self.ues[args[0]].open_channel()
        elif kind is _RUN_ATTACK:
            self._run_attack(args[0])
        elif kind is _ASSERT:
            passed, detail = assert_trace(self.tracer.events, args[0])
            self.trace("engine", msg="ASSERT_RESULT", step=index, passed=passed, detail=detail)
            if not passed:
                self.all_asserts_passed = False

    def _challenge(self, imsi: str, listener: Adversary | None = None):
        """One AKA leg: challenge, answer, verify, cipher; `listener` overhears the challenge."""
        me = self.ues[imsi]
        rand = self.serving.challenge(imsi)
        if listener is not None:
            listener.overhear_challenge(rand)
        sres = me.handle_challenge(rand)
        if sres is not None:
            if self.serving.verify(imsi, sres) is _AUTHENTICATED:
                me.apply_cipher(self.serving.select_cipher())

    def _run_attack(self, victim_imsi: str):
        spec = self.config.attacker
        adversary = self.adversary
        victim = self.ues[victim_imsi]
        if spec.kind is _MITM_EAVESDROP:
            own = adversary.own_ue
            if own is not None and own.attached_network is None:
                # the MITM's genuine leg, left out of its own intercept log
                own.attach(self.serving.name)
                self._challenge(spec.imsi)
            adversary.fake_network_attach(
                victim, spec.victim_traffic, spec.rand_source, self.serving
            )
        else:
            adversary.bbk_attack(victim, self._truth)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Execute a validated config; identical configs yield identical traces.

    The config must be one `ScenarioConfig.loads` or `from_dict` built: the
    engine trusts the values the loader checked, and a SEND_TRAFFIC step's
    frame goes to the phone's core past `send_traffic`'s entry checks.

    The cyclic garbage collector is paused, process-wide, while the engine
    is built and run, and put back as it was found.  The run's object graph
    is acyclic, so reference counting frees all of it; the collector would
    only re-walk the growing trace over and over.  On resume, everything
    tracked moves to the oldest generation (a freeze, then an unfreeze), so
    the next young collection does not walk the whole run once more; a
    later full collection still sees it.  If the caller has frozen objects,
    the collector is only re-enabled, so theirs stay frozen.
    `ScenarioConfig.loads` pauses the collector the same way but only
    re-enables it: it leaves a config, not a run's trace.
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
