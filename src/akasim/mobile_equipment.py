"""Phone-side actor: master of the card interface, slave of the network.

The phone knows nothing about the sequence-number scheme.  It forwards
challenges to the card, keeps whatever Kc comes back, honours the '91'
proactive status by running the FETCH / TERMINAL RESPONSE loop, and
applies whichever cipher the network selected.  When the card's toolkit
commands close its data channels the phone detaches and the pending SRES
is discarded (a `leaky` profile models phones that transmit it first).
"""

from __future__ import annotations

from typing import NamedTuple

from . import crypto_suite as cs
from .errors import ProtocolOrderError
from .sim_card import (
    ChannelStatusResult,
    CloseChannelResult,
    SimCard,
    SimStatus,
    StkKind,
    TerminalProfile,
    noop_trace,
)

__all__ = [
    "MeProfile",
    "ChannelTable",
    "MeSession",
    "Responded",
    "ConnectionDropped",
    "ChallengeOutcome",
    "MobileEquipment",
]

# Function bodies use these names, not `SimStatus.NORMAL`: on CPython 3.11
# `EnumType` defines `__getattr__`, which slows every class attribute read.
_NORMAL, _PROACTIVE_PENDING = SimStatus
_GET_CHANNEL_STATUS = StkKind.GET_CHANNEL_STATUS
_NONE = cs.CipherAlgId.NONE


class MeProfile(NamedTuple):
    class_e_supported: bool = True
    accepts_unauthenticated: bool = False
    # weaker reading of the teardown: SRES goes upstream before the drop
    leaky: bool = False


class ChannelTable:
    __slots__ = ("open_channels", "next_id")

    def __init__(self, next_id: int = 1):
        self.open_channels: set[int] = set()
        self.next_id = next_id

    def open(self) -> int:
        cid = self.next_id
        self.next_id += 1  # closed ids are never reused within a run
        self.open_channels.add(cid)
        return cid

    def close(self, ids) -> tuple[int, ...]:
        closed = tuple(sorted(set(ids) & self.open_channels))
        self.open_channels -= set(ids)
        return closed


class MeSession:
    __slots__ = ("kc", "cipher", "channels", "attached_network")

    def __init__(self, channels: ChannelTable | None = None):
        self.kc: bytes | None = None
        self.cipher = _NONE
        self.channels = ChannelTable() if channels is None else channels
        self.attached_network: str | None = None


class Responded(NamedTuple):
    sres: bytes


class ConnectionDropped(NamedTuple):
    closed_channels: tuple[int, ...]


ChallengeOutcome = Responded | ConnectionDropped


class MobileEquipment:
    """One phone with its inserted card."""

    def __init__(self, profile: MeProfile, sim: SimCard, tracer=None):
        self.profile = profile
        self.sim = sim
        self.session = MeSession()
        self.trace = tracer or noop_trace
        self.name = f"ue:{sim.state.imsi}"

    # --- lifecycle ---------------------------------------------------------

    def power_on(self):
        # the phone is on exactly while its card has a power session
        if self.sim.state.initialized:
            raise ProtocolOrderError("ME already powered on")
        profile = TerminalProfile(class_e=self.profile.class_e_supported)
        self.sim.init(profile)
        self.trace(self.name, msg="TERMINAL_PROFILE", class_e=profile.class_e)

    def power_cycle(self):
        """Off and on again: session gone, card keeps its counter."""
        self.session = MeSession(channels=ChannelTable(next_id=self.session.channels.next_id))
        self.sim.power_cycle()
        self.trace(self.name, msg="POWER_CYCLE")
        self.power_on()

    def attach(self, network: str):
        self.session.attached_network = network
        self.trace(self.name, msg="ATTACH", network=network)

    def detach(self):
        network = self.session.attached_network
        self.session.attached_network = None
        self.session.kc = None
        self.session.cipher = _NONE
        if network is not None:
            self.trace(self.name, msg="DETACH", network=network)

    def open_channel(self) -> int:
        cid = self.session.channels.open()
        self.trace(self.name, msg="OPEN_CHANNEL", channel=cid)
        return cid

    # --- authentication ----------------------------------------------------

    def handle_challenge(self, rand: bytes) -> ChallengeOutcome:
        """Run one challenge through the card and act on its status.

        The same code path serves every card type; this actor never
        branches on anything but the response status byte.
        """
        if not self.sim.state.initialized:
            raise ProtocolOrderError("challenge while powered off")
        if self.session.attached_network is None:
            raise ProtocolOrderError("challenge while detached")
        rand = cs._check_len("rand", rand, cs.RAND_LEN)
        self.trace(self.name, msg="SIM_CHALLENGE", rand=rand.hex())
        response = self.sim.challenge(rand)
        # trace payloads read enum members' `_value_`, the attribute behind
        # `.value`, which is a Python-level property
        sres, kc, status = response.sres.hex(), response.kc.hex(), response.status._value_
        if response.pending_length is None:
            self.trace(self.name, msg="SIM_RESPONSE", sres=sres, kc=kc, status=status)
        else:
            self.trace(
                self.name,
                msg="SIM_RESPONSE",
                sres=sres,
                kc=kc,
                status=status,
                pending_length=response.pending_length,
            )
        if response.status is _NORMAL:
            self.session.kc = response.kc
            self._send_sres(response.sres)
            return Responded(sres=response.sres)

        # '91' status: the card wants something before this goes further
        if self.profile.leaky:
            self._send_sres(response.sres)
        closed = self._run_fetch_loop()
        self.detach()
        self.trace(self.name, msg="CONNECTION_DROPPED", closed_channels=list(closed))
        return ConnectionDropped(closed_channels=closed)

    def _send_sres(self, sres: bytes):
        self.trace(
            self.name,
            msg="SRES_TO_NETWORK",
            network=self.session.attached_network,
            sres=sres.hex(),
        )

    def _run_fetch_loop(self) -> tuple[int, ...]:
        """FETCH proactive commands until the card reports NORMAL."""
        closed_total: tuple[int, ...] = ()
        status = _PROACTIVE_PENDING
        while status is _PROACTIVE_PENDING:
            self.trace(self.name, msg="FETCH")
            command = self.sim.fetch()
            if command.kind is _GET_CHANNEL_STATUS:
                channels = tuple(sorted(self.session.channels.open_channels))
                self.trace(self.name, msg="PROACTIVE_COMMAND", kind=command.kind._value_)
                result = ChannelStatusResult(channels=channels)
                status = self.sim.terminal_response(result)
                self.trace(
                    self.name,
                    msg="TERMINAL_RESPONSE",
                    kind=command.kind._value_,
                    channels=list(channels),
                    next_status=status._value_,
                )
            else:
                self.trace(
                    self.name,
                    msg="PROACTIVE_COMMAND",
                    kind=command.kind._value_,
                    channels=list(command.channel_ids),
                )
                closed = self.session.channels.close(command.channel_ids)
                closed_total += closed
                result = CloseChannelResult(success=bool(closed))
                status = self.sim.terminal_response(result)
                self.trace(
                    self.name,
                    msg="TERMINAL_RESPONSE",
                    kind=command.kind._value_,
                    success=bool(closed),
                    next_status=status._value_,
                )
        return closed_total

    # --- traffic -----------------------------------------------------------

    def apply_cipher(self, alg: cs.CipherAlgId):
        """Start ciphering as commanded by the serving network."""
        if alg is not _NONE and self.session.kc is None:
            raise ProtocolOrderError("cipher start without a session key")
        self.session.cipher = alg
        self.trace(self.name, msg="CIPHER_APPLIED", alg=alg._value_)

    def send_traffic(self, plaintext: bytes, frame_index: int) -> bytes:
        """Check, encrypt and emit one traffic frame; returns the air ciphertext."""
        cs._check_bytes("plaintext", plaintext)
        cs._check_frame_index(frame_index)
        session = self.session
        if session.attached_network is None:
            raise ProtocolOrderError("traffic while detached")
        if session.kc is None and not self.profile.accepts_unauthenticated:
            raise ProtocolOrderError("traffic before authentication")
        cipher = session.cipher  # never other than NONE without a session key
        if cipher is _NONE:
            ciphertext = bytes(plaintext)
        else:
            keystream = cs._keystream(cipher, session.kc, frame_index, len(plaintext))
            ciphertext = cs._xor(plaintext, keystream)
        self.trace(
            self.name,
            msg="TRAFFIC",
            network=session.attached_network,
            frame_index=frame_index,
            alg=cipher._value_,
            ciphertext=ciphertext.hex(),
        )
        return ciphertext
