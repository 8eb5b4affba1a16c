"""Attacker actors: false base station / MITM and the replay key-recovery attack.

Both attackers impersonate a serving network toward a victim phone.  The
eavesdropping MITM never enables encryption on the victim leg and relays
the plaintext through a genuine subscription of its own.  The replay
attacker re-sends a previously intercepted challenge, commands the weak
cipher and reads the session key straight out of the first frame's known
redundancy, then decrypts everything it recorded earlier.

Attackers only ever see what crossed the air: the intercept log and their
own card.  Subscriber keys and network state stay out of reach.
"""

from __future__ import annotations

import enum
import random
from typing import NamedTuple

from . import crypto_suite as cs
from .errors import MalformedInputError, ProtocolOrderError
from .mobile_equipment import ConnectionDropped, MobileEquipment, Responded
from .network_side import ServingNetwork
from .sim_card import noop_trace

__all__ = [
    "KNOWN_REDUNDANCY",
    "AttackKind",
    "RandSource",
    "LoggedFrame",
    "LoggedExchange",
    "InterceptLog",
    "AttackReport",
    "Adversary",
]

# predictable plaintext every frame is assumed to start with (protocol
# framing stand-in); 8 octets of zeros
KNOWN_REDUNDANCY = bytes(8)

FAKE_NETWORK = "fake-net"


class AttackKind(enum.Enum):
    MITM_EAVESDROP = "MITM_EAVESDROP"
    BBK_REPLAY = "BBK_REPLAY"


class RandSource(enum.Enum):
    """Where the MITM's victim-leg challenge comes from."""

    FABRICATED = "FABRICATED"
    REPLAYED = "REPLAYED"
    RELAY_FRESH = "RELAY_FRESH"
    SKIP_AKA = "SKIP_AKA"


# Function bodies use these names, not `RandSource.REPLAYED`: on CPython 3.11
# `EnumType` defines `__getattr__`, which slows every class attribute read.
_MITM_EAVESDROP, _BBK_REPLAY = AttackKind
_FABRICATED, _REPLAYED, _RELAY_FRESH, _SKIP_AKA = RandSource
_A5_1, _A5_2, _A5_3, _NONE = cs.CipherAlgId


class LoggedFrame(NamedTuple):
    frame_index: int
    alg: cs.CipherAlgId
    ciphertext: bytes


class LoggedExchange:
    __slots__ = ("rand", "sres", "frames")

    def __init__(self, rand: bytes):
        self.rand = rand
        self.sres: bytes | None = None
        self.frames: list[LoggedFrame] = []


class InterceptLog:
    """Append-only record of everything overheard on the air interface."""

    __slots__ = ("records",)

    def __init__(self):
        self.records: list[LoggedExchange] = []

    def start_exchange(self, rand: bytes) -> LoggedExchange:
        record = LoggedExchange(rand=rand)
        self.records.append(record)
        return record

    def note_sres(self, sres: bytes):
        if self.records:
            self.records[-1].sres = sres

    def note_frame(self, frame_index: int, alg: cs.CipherAlgId, ciphertext: bytes):
        # checked once here: bbk_attack decrypts on the trusted keystream core
        if not isinstance(alg, cs.CipherAlgId):
            raise MalformedInputError(f"alg must be a CipherAlgId, got {alg!r}")
        cs._check_frame_index(frame_index)
        cs._check_bytes("ciphertext", ciphertext)
        if not self.records:
            # traffic before any logged AKA: keep it under a null exchange
            self.records.append(LoggedExchange(rand=b""))
        self.records[-1].frames.append(
            LoggedFrame(frame_index=frame_index, alg=alg, ciphertext=ciphertext)
        )

    def latest_with_strong_frames(self) -> LoggedExchange | None:
        strong = (_A5_1, _A5_3)
        for record in reversed(self.records):
            if record.rand and any(f.alg in strong for f in record.frames):
                return record
        return None


class AttackReport(NamedTuple):
    attack: AttackKind
    succeeded: bool
    recovered_kc: bytes | None = None
    recovered_plaintext: bytes | None = None
    failure_cause: str | None = None


class Adversary:
    """False base station with an optional genuine subscription for relaying."""

    def __init__(self, rng: random.Random, tracer=None, own_ue: MobileEquipment | None = None):
        self.rng = rng
        self.trace = tracer or noop_trace
        self.name = "attacker"
        self.own_ue = own_ue
        self.log = InterceptLog()

    # --- victim-leg helpers --------------------------------------------------

    def _capture_victim(self, victim: MobileEquipment):
        if victim.session.attached_network is not None:
            victim.detach()
        victim.attach(FAKE_NETWORK)

    def _run_victim_aka(self, victim: MobileEquipment, rand: bytes):
        imsi = victim.sim.state.imsi
        self.trace(self.name, msg="FAKE_AUTH_CHALLENGE", imsi=imsi, rand=rand.hex())
        return victim.handle_challenge(rand)

    # --- the eavesdropping man-in-the-middle ---------------------------------

    def fake_network_attach(
        self,
        victim: MobileEquipment,
        victim_traffic: bytes,
        rand_source: RandSource = RandSource.FABRICATED,
        relay: ServingNetwork | None = None,
    ) -> AttackReport:
        """Impersonate a network, disable encryption, read the victim's traffic.

        `victim_traffic` is the plaintext the victim will send during the
        captured call; it doubles as the ground truth for the verdict.  With
        RELAY_FRESH the attacker forwards a live challenge (and the response)
        between the victim and the genuine network instead of inventing one.
        """
        kind = _MITM_EAVESDROP
        self.trace(
            self.name, msg="ATTACK_START", kind=kind.value, rand_source=rand_source.value
        )
        self._capture_victim(victim)

        if rand_source is not _SKIP_AKA:
            rand = self._pick_rand(rand_source, victim, relay)
            outcome = self._run_victim_aka(victim, rand)
            if isinstance(outcome, ConnectionDropped):
                return self._report(
                    kind, succeeded=False, failure_cause="connection dropped by SIM"
                )
            if rand_source is _RELAY_FRESH and relay is not None:
                # honest forwarding of the response leg as well
                relay.verify(victim.sim.state.imsi, outcome.sres)
            else:
                self.trace(self.name, msg="SRES_IGNORED", sres=outcome.sres.hex())
            victim.apply_cipher(_NONE)

        try:
            observed = victim.send_traffic(victim_traffic, frame_index=0)
        except ProtocolOrderError as exc:
            return self._report(kind, succeeded=False, failure_cause=str(exc))
        self.trace(self.name, msg="PLAINTEXT_OBSERVED", plaintext=observed.hex())
        self._relay_upstream(observed)
        return self._report(
            kind,
            succeeded=observed == victim_traffic,
            recovered_plaintext=observed,
        )

    def _pick_rand(
        self,
        rand_source: RandSource,
        victim: MobileEquipment,
        relay: ServingNetwork | None,
    ) -> bytes:
        if rand_source is _FABRICATED:
            return self.rng.randbytes(cs.RAND_LEN)
        if rand_source is _REPLAYED:
            if not self.log.records or not self.log.records[-1].rand:
                raise MalformedInputError("replay requested but intercept log is empty")
            return self.log.records[-1].rand
        if rand_source is _RELAY_FRESH:
            if relay is None:
                raise MalformedInputError("RELAY_FRESH needs a genuine network leg")
            return relay.challenge(victim.sim.state.imsi)
        raise MalformedInputError(f"no rand for source {rand_source}")

    def _relay_upstream(self, plaintext: bytes):
        """Re-send captured traffic over the attacker's own genuine session."""
        if self.own_ue is None or self.own_ue.session.attached_network is None:
            return
        relayed = self.own_ue.send_traffic(plaintext, frame_index=0)
        self.trace(self.name, msg="RELAY_TRAFFIC", ciphertext=relayed.hex())

    # --- challenge replay / weak-cipher key recovery --------------------------

    def bbk_attack(
        self,
        victim: MobileEquipment,
        ground_truth: bytes,
    ) -> AttackReport:
        """Replay a logged challenge, force the weak cipher, recover the key.

        `ground_truth` is the plaintext behind the logged strong-cipher
        frames (scenario knowledge, used only for the verdict).
        """
        kind = _BBK_REPLAY
        record = self.log.latest_with_strong_frames()
        if record is None:
            raise MalformedInputError(
                "intercept log holds no exchange with strong-cipher traffic"
            )
        self.trace(self.name, msg="ATTACK_START", kind=kind.value, rand=record.rand.hex())
        self._capture_victim(victim)

        outcome = self._run_victim_aka(victim, record.rand)
        if isinstance(outcome, ConnectionDropped):
            return self._report(
                kind,
                succeeded=False,
                failure_cause="connection dropped by SIM; no weak-cipher frame emitted",
            )
        if not isinstance(outcome, Responded):
            raise ProtocolOrderError(f"victim challenge ended in {outcome!r}, not a response")
        self.trace(self.name, msg="SRES_IGNORED", sres=outcome.sres.hex())

        victim.apply_cipher(_A5_2)
        frame = victim.send_traffic(KNOWN_REDUNDANCY, frame_index=0)
        # weak model: frame-0 keystream begins with Kc, plaintext is zeros
        recovered_kc = cs.xor_bytes(frame[: cs.TAG_LEN], KNOWN_REDUNDANCY[: cs.TAG_LEN])
        self.trace(self.name, msg="KC_RECOVERED", kc=recovered_kc.hex())

        decrypted = bytearray()
        for logged in record.frames:
            if logged.alg is _NONE:
                decrypted += logged.ciphertext
                continue
            ciphertext = logged.ciphertext
            keystream = cs._keystream(logged.alg, recovered_kc, logged.frame_index, len(ciphertext))
            decrypted += cs._xor(ciphertext, keystream)
        recovered = bytes(decrypted)
        self.trace(self.name, msg="LOG_DECRYPTED", plaintext=recovered.hex())
        return self._report(
            kind,
            succeeded=recovered == ground_truth,
            recovered_kc=recovered_kc,
            recovered_plaintext=recovered,
            failure_cause=None if recovered == ground_truth else "decryption mismatch",
        )

    def _report(self, kind: AttackKind, succeeded: bool, **fields) -> AttackReport:
        report = AttackReport(attack=kind, succeeded=succeeded, **fields)
        event = {"msg": "ATTACK_RESULT", "kind": kind.value, "succeeded": succeeded}
        if report.recovered_kc:
            event["recovered_kc"] = report.recovered_kc.hex()
        if report.failure_cause:
            event["failure_cause"] = report.failure_cause
        self.trace(self.name, **event)
        return report
