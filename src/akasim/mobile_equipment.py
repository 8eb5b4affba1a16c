"""Phone-side actor: master of the card interface, slave of the network.

The phone knows nothing about the sequence-number scheme.  It forwards
challenges to the card, keeps whatever Kc comes back, honours the '91'
proactive status by running the FETCH / TERMINAL RESPONSE loop, and
applies whichever cipher the network selected.  When the card's toolkit
commands close its data channels the phone detaches and the pending SRES
is discarded (a `leaky` profile models phones that transmit it first).
"""

from __future__ import annotations

import _thread
from typing import NamedTuple

from . import crypto_suite as cs
from .errors import ProtocolOrderError
from .sim_card import (
    ChannelStatusResult,
    CloseChannelResult,
    SimCard,
    SimStatus,
    StkKind,
    noop_trace,
)

__all__ = ["MeProfile", "MobileEquipment"]

# Function bodies use these names, not `SimStatus.NORMAL`: on CPython 3.11
# `EnumType` defines `__getattr__`, which slows every class attribute read.
_NORMAL, _PROACTIVE_PENDING = SimStatus
_GET_CHANNEL_STATUS = StkKind.GET_CHANNEL_STATUS
_NONE = cs.CipherAlgId.NONE
_get_ident = _thread.get_ident


class MeProfile(NamedTuple):
    class_e: bool = True
    accepts_unauthenticated: bool = False
    # weaker reading of the teardown: SRES goes upstream before the drop
    leaky: bool = False


# the result carries no value, so one serves every teardown
_CLOSE_CHANNEL_RESULT = CloseChannelResult()


class MobileEquipment:
    """One phone with its inserted card."""

    def __init__(self, profile: MeProfile, sim: SimCard, tracer=None):
        self.profile = profile
        self.sim = sim
        self.trace = tracer or noop_trace
        self.name = f"ue:{sim.imsi}"
        self._clear_session()
        self.next_channel_id = 1  # closed ids are never reused within a run
        # (kc, cipher, thread, cs._strong(cipher, kc)) of the last frame sent;
        # each frame checks the first three, so whatever writes them need not
        # clear it
        self._frame_cipher = (None, None, None, None)

    def _clear_session(self):
        self.kc: bytes | None = None
        self.cipher = _NONE
        self.attached_network: str | None = None
        self.open_channels: set[int] = set()

    # --- lifecycle ---------------------------------------------------------

    def power_on(self):
        # the phone is on exactly while its card has a power session
        if self.sim.initialized:
            raise ProtocolOrderError("ME already powered on")
        class_e = self.profile.class_e
        self.sim.init(class_e)
        self.trace(self.name, msg="TERMINAL_PROFILE", class_e=class_e)

    def power_cycle(self):
        """Off and on again: session gone, card keeps its counter."""
        self._clear_session()
        self.sim.power_cycle()
        self.trace(self.name, msg="POWER_CYCLE")
        self.power_on()

    def attach(self, network: str):
        self.attached_network = network
        self.trace(self.name, msg="ATTACH", network=network)

    def detach(self):
        network = self.attached_network
        self.attached_network = None
        self.kc = None
        self.cipher = _NONE
        if network is not None:
            self.trace(self.name, msg="DETACH", network=network)

    def open_channel(self):
        channel = self.next_channel_id
        self.next_channel_id += 1
        self.open_channels.add(channel)
        self.trace(self.name, msg="OPEN_CHANNEL", channel=channel)

    # --- authentication ----------------------------------------------------

    def handle_challenge(self, rand: bytes) -> bytes | None:
        """Run one challenge through the card and act on its status.

        Returns the SRES sent upstream, or None when the card tore the
        session down (the channels it closed are on the wire, in the
        CONNECTION_DROPPED event).  The same code path serves every card
        type; this actor never branches on anything but the response
        status byte.
        """
        if not self.sim.initialized:
            raise ProtocolOrderError("challenge while powered off")
        if self.attached_network is None:
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
            self.kc = response.kc
            self._send_sres(response.sres)
            return response.sres

        # '91' status: the card wants something before this goes further
        if self.profile.leaky:
            self._send_sres(response.sres)
        closed = self._run_fetch_loop()
        self.detach()
        self.trace(self.name, msg="CONNECTION_DROPPED", closed_channels=list(closed))
        return None

    def _send_sres(self, sres: bytes):
        self.trace(
            self.name,
            msg="SRES_TO_NETWORK",
            network=self.attached_network,
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
                channels = tuple(sorted(self.open_channels))
                self.trace(self.name, msg="PROACTIVE_COMMAND", kind=command.kind._value_)
                result = ChannelStatusResult(channels)
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
                ids = set(command.channel_ids)
                closed = tuple(sorted(ids & self.open_channels))
                self.open_channels -= ids
                closed_total += closed
                status = self.sim.terminal_response(_CLOSE_CHANNEL_RESULT)
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
        if alg is not _NONE and self.kc is None:
            raise ProtocolOrderError("cipher start without a session key")
        self.cipher = alg
        self.trace(self.name, msg="CIPHER_APPLIED", alg=alg._value_)

    def send_traffic(self, plaintext: bytes, frame_index: int) -> bytes:
        """Check, encrypt and emit one traffic frame; returns the air ciphertext."""
        cs._check_bytes("plaintext", plaintext)
        cs._check_frame_index(frame_index)
        return self._send_frame(plaintext, frame_index)

    def _send_frame(self, plaintext: bytes, frame_index: int) -> bytes:
        """`send_traffic` for a frame the caller has proven: `bytes` or
        `bytearray` and an int frame index in [0, 2^64).  The phone's state
        is still checked here."""
        network = self.attached_network
        if network is None:
            raise ProtocolOrderError("traffic while detached")
        kc = self.kc
        if kc is None and not self.profile.accepts_unauthenticated:
            raise ProtocolOrderError("traffic before authentication")
        cipher = self.cipher  # never other than NONE without a session key
        thread = _get_ident()
        held = self._frame_cipher
        if held[0] != kc or held[1] is not cipher or held[2] != thread:
            held = self._frame_cipher = (kc, cipher, thread, cs._strong(cipher, kc))
        ciphertext = cs._cipher(cipher, kc, frame_index, plaintext, held[3])
        self.trace(
            self.name,
            msg="TRAFFIC",
            network=network,
            frame_index=frame_index,
            alg=cipher._value_,
            ciphertext=ciphertext.hex(),
        )
        return ciphertext
