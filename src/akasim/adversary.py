"""Attacker actors: false base station / MITM and the replay key-recovery attack.

Both attackers impersonate a serving network toward a victim phone.  The
eavesdropping MITM never enables encryption on the victim leg and relays
the plaintext through a genuine subscription of its own.  The replay
attacker re-sends a previously intercepted challenge, commands the weak
cipher and reads the session key straight out of the first frame's known
redundancy, then decrypts everything it recorded earlier.

Attackers only ever see what crossed the air: their intercept log, a list
of the exchanges `overhear_challenge` and `overhear_frame` filed, and their
own card.  Subscriber keys and network state stay out of reach.
"""

from __future__ import annotations

import enum
import random
from typing import NamedTuple

from . import crypto_suite as cs
from .errors import MalformedInputError, ProtocolOrderError
from .mobile_equipment import MobileEquipment
from .network_side import ServingNetwork
from .sim_card import noop_trace

__all__ = [
    "KNOWN_REDUNDANCY",
    "AttackKind",
    "RandSource",
    "LoggedFrame",
    "LoggedExchange",
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
    __slots__ = ("rand", "frames")

    def __init__(self, rand: bytes):
        self.rand = rand
        self.frames: list[LoggedFrame] = []


class Adversary:
    """False base station with an optional genuine subscription for relaying."""

    def __init__(self, rng: random.Random, tracer=None, own_ue: MobileEquipment | None = None):
        self.rng = rng
        self.trace = tracer or noop_trace
        self.name = "attacker"
        self.own_ue = own_ue
        # the challenges overheard on the air, oldest first, each with the
        # frames that followed it
        self.log: list[LoggedExchange] = []

    # --- the passive intercept -----------------------------------------------

    def overhear_challenge(self, rand: bytes):
        """Log a challenge seen on the air; later frames are filed under it."""
        self.log.append(LoggedExchange(cs._check_len("rand", rand, cs.RAND_LEN)))

    def overhear_frame(
        self, frame_index: int, alg: cs.CipherAlgId, ciphertext: bytes
    ) -> LoggedExchange:
        """Log a traffic frame under the latest challenge; return that exchange."""
        # checked once here: bbk_attack decrypts on the trusted keystream core
        if not isinstance(alg, cs.CipherAlgId):
            raise MalformedInputError(f"alg must be a CipherAlgId, got {alg!r}")
        cs._check_frame_index(frame_index)
        ciphertext = bytes(cs._check_bytes("ciphertext", ciphertext))
        if not self.log:
            # traffic before any logged AKA: keep it under a null exchange
            self.log.append(LoggedExchange(b""))
        exchange = self.log[-1]
        exchange.frames.append(LoggedFrame(frame_index, alg, ciphertext))
        return exchange

    # --- victim-leg helpers --------------------------------------------------

    def _capture_victim(self, victim: MobileEquipment):
        if victim.attached_network is not None:
            victim.detach()
        victim.attach(FAKE_NETWORK)

    def _run_victim_aka(self, victim: MobileEquipment, rand: bytes):
        imsi = victim.sim.imsi
        self.trace(self.name, msg="FAKE_AUTH_CHALLENGE", imsi=imsi, rand=rand.hex())
        return victim.handle_challenge(rand)

    # --- the eavesdropping man-in-the-middle ---------------------------------

    def fake_network_attach(
        self,
        victim: MobileEquipment,
        victim_traffic: bytes,
        rand_source: RandSource = RandSource.FABRICATED,
        relay: ServingNetwork | None = None,
    ):
        """Impersonate a network, disable encryption, read the victim's traffic.

        `victim_traffic` is the plaintext the victim will send during the
        captured call; it doubles as the ground truth for the verdict.  With
        RELAY_FRESH the attacker forwards a live challenge (and the response)
        between the victim and `relay`, the genuine network, instead of
        inventing one; no other source reads `relay`.
        """
        kind = _MITM_EAVESDROP
        # trace payloads read `_value_`, the attribute behind the Python-level
        # `.value` property
        self.trace(
            self.name, msg="ATTACK_START", kind=kind._value_, rand_source=rand_source._value_
        )
        self._capture_victim(victim)

        if rand_source is not _SKIP_AKA:
            rand = self._pick_rand(rand_source, victim, relay)
            sres = self._run_victim_aka(victim, rand)
            if sres is None:
                self._report(kind, succeeded=False, failure_cause="connection dropped by SIM")
                return
            if rand_source is _RELAY_FRESH:
                # honest forwarding of the response leg as well
                relay.verify(victim.sim.imsi, sres)
            else:
                self.trace(self.name, msg="SRES_IGNORED", sres=sres.hex())
            victim.apply_cipher(_NONE)

        try:
            observed = victim.send_traffic(victim_traffic, frame_index=0)
        except ProtocolOrderError as exc:
            self._report(kind, succeeded=False, failure_cause=str(exc))
            return
        self.trace(self.name, msg="PLAINTEXT_OBSERVED", plaintext=observed.hex())
        self._relay_upstream(observed)
        self._report(kind, succeeded=observed == victim_traffic)

    def _pick_rand(
        self,
        rand_source: RandSource,
        victim: MobileEquipment,
        relay: ServingNetwork | None,
    ) -> bytes:
        if rand_source is _FABRICATED:
            return self.rng.randbytes(cs.RAND_LEN)
        if rand_source is _REPLAYED:
            if not self.log or not self.log[-1].rand:
                raise MalformedInputError("replay requested but intercept log is empty")
            return self.log[-1].rand
        # RELAY_FRESH: the caller never passes SKIP_AKA here
        if relay is None:
            raise MalformedInputError("RELAY_FRESH needs a genuine network leg")
        return relay.challenge(victim.sim.imsi)

    def _relay_upstream(self, plaintext: bytes):
        """Re-send captured traffic over the attacker's own genuine session."""
        if self.own_ue is None or self.own_ue.attached_network is None:
            return
        relayed = self.own_ue.send_traffic(plaintext, frame_index=0)
        self.trace(self.name, msg="RELAY_TRAFFIC", ciphertext=relayed.hex())

    # --- challenge replay / weak-cipher key recovery --------------------------

    def bbk_attack(
        self,
        victim: MobileEquipment,
        sent: dict[LoggedExchange, list[bytes]],
    ):
        """Replay a logged challenge, force the weak cipher, recover the key.

        The replayed exchange is the latest one with a challenge and an
        A5/1 or A5/3 frame.  `sent` maps a logged exchange to the plaintexts
        behind its frames (scenario knowledge, read only for the verdict).
        """
        kind = _BBK_REPLAY
        for record in reversed(self.log):
            if record.rand and any(f.alg is _A5_1 or f.alg is _A5_3 for f in record.frames):
                break
        else:
            raise MalformedInputError(
                "intercept log holds no exchange with strong-cipher traffic"
            )
        if record not in sent:
            raise MalformedInputError("sent holds no plaintexts for the replayed exchange")
        self.trace(self.name, msg="ATTACK_START", kind=kind._value_, rand=record.rand.hex())
        self._capture_victim(victim)

        sres = self._run_victim_aka(victim, record.rand)
        if sres is None:
            self._report(
                kind,
                succeeded=False,
                failure_cause="connection dropped by SIM; no weak-cipher frame emitted",
            )
            return
        self.trace(self.name, msg="SRES_IGNORED", sres=sres.hex())

        victim.apply_cipher(_A5_2)
        frame = victim.send_traffic(KNOWN_REDUNDANCY, frame_index=0)
        # weak model: frame-0 keystream begins with Kc, plaintext is zeros
        recovered_kc = cs.xor_bytes(frame[: cs.TAG_LEN], KNOWN_REDUNDANCY[: cs.TAG_LEN])
        self.trace(self.name, msg="KC_RECOVERED", kc=recovered_kc.hex())

        recovered = b"".join(
            cs._cipher(logged.alg, recovered_kc, logged.frame_index, logged.ciphertext)
            for logged in record.frames
        )
        self.trace(self.name, msg="LOG_DECRYPTED", plaintext=recovered.hex())
        succeeded = recovered == b"".join(sent[record])
        self._report(
            kind,
            succeeded=succeeded,
            recovered_kc=recovered_kc,
            failure_cause=None if succeeded else "decryption mismatch",
        )

    def _report(self, kind: AttackKind, succeeded: bool, recovered_kc=None, failure_cause=None):
        """Trace the attack's verdict, the `ATTACK_RESULT` event."""
        event = {"msg": "ATTACK_RESULT", "kind": kind._value_, "succeeded": succeeded}
        if recovered_kc:
            event["recovered_kc"] = recovered_kc.hex()
        if failure_cause:
            event["failure_cause"] = failure_cause
        self.trace(self.name, **event)
