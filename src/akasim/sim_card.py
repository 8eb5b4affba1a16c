"""Stateful SIM actor: challenge handling and proactive teardown signaling.

The SIM is the slave side of the card interface; it can only act by
flagging a pending proactive command in a response status and waiting for
the phone to FETCH it.  On a failed network authentication an enhanced SIM
walks the five-phase teardown choreography:

    IDLE -> AWAIT_FETCH_1 -> AWAIT_CHANNEL_STATUS -> AWAIT_FETCH_2
         -> AWAIT_CLOSE_RESULT -> IDLE

issuing GET CHANNEL STATUS first and then CLOSE CHANNEL for whatever
channel ids the phone reported.  A phone that never announced class-e
toolkit support in its TERMINAL PROFILE gets plain responses only.
"""

from __future__ import annotations

import enum
import random
from typing import NamedTuple

from . import auth_core, crypto_suite as cs
from .crypto_suite import _tuple_new
from .errors import MalformedInputError, ProtocolOrderError

__all__ = [
    "SimMode",
    "TeardownPhase",
    "StkKind",
    "StkCommand",
    "SimStatus",
    "SimResponse",
    "ChannelStatusResult",
    "CloseChannelResult",
    "TerminalResponse",
    "SimCard",
]


class SimMode(enum.Enum):
    LEGACY = "LEGACY"
    ENHANCED = "ENHANCED"


class TeardownPhase(enum.Enum):
    IDLE = "IDLE"
    AWAIT_FETCH_1 = "AWAIT_FETCH_1"
    AWAIT_CHANNEL_STATUS = "AWAIT_CHANNEL_STATUS"
    AWAIT_FETCH_2 = "AWAIT_FETCH_2"
    AWAIT_CLOSE_RESULT = "AWAIT_CLOSE_RESULT"


_IDLE, _AWAIT_FETCH_1, _AWAIT_CHANNEL_STATUS, _AWAIT_FETCH_2, _AWAIT_CLOSE_RESULT = TeardownPhase


class StkKind(enum.Enum):
    GET_CHANNEL_STATUS = "GET_CHANNEL_STATUS"
    CLOSE_CHANNEL = "CLOSE_CHANNEL"


_GET_CHANNEL_STATUS, _CLOSE_CHANNEL = StkKind


class StkCommand(NamedTuple("StkCommand", [("kind", StkKind), ("channel_ids", tuple)])):
    """One proactive command; CLOSE_CHANNEL names at least one channel."""

    __slots__ = ()

    def __new__(cls, kind: StkKind, channel_ids: tuple[int, ...] = ()):
        if kind is _CLOSE_CHANNEL and not channel_ids:
            raise MalformedInputError("CLOSE_CHANNEL needs at least one channel id")
        return super().__new__(cls, kind, channel_ids)

    def encoded_length(self) -> int:
        # modeled command size: kind octet + length octet + one octet per id
        return 2 + len(self.channel_ids)


# GET CHANNEL STATUS names no channel, so one command serves every teardown
_CHANNEL_STATUS_COMMAND = StkCommand(_GET_CHANNEL_STATUS)


class SimStatus(enum.Enum):
    NORMAL = "NORMAL"
    PROACTIVE_PENDING = "PROACTIVE_PENDING"


_NORMAL, _PROACTIVE_PENDING = SimStatus


class SimResponse(NamedTuple):
    """Outcome of one challenge: response values plus the status signal.

    pending_length models the '91 xx' status word: it is the octet count of
    the armed proactive command, present only with PROACTIVE_PENDING.
    """

    sres: bytes
    kc: bytes
    status: SimStatus
    pending_length: int | None


class ChannelStatusResult(NamedTuple):
    channels: tuple[int, ...]


class CloseChannelResult(NamedTuple):
    """The phone ran CLOSE CHANNEL; what it closed is on the wire, in its
    TERMINAL_RESPONSE event, and the card moves on whatever it was."""


TerminalResponse = ChannelStatusResult | CloseChannelResult


def noop_trace(actor, /, **event):
    """The actors' tracer when none is injected: records nothing."""


class SimCard:
    """One physical card.  Provisioning writes the keys and counter, and
    the card is enhanced exactly when it holds a Ka; the volatile rest
    starts powered off and only the card's transitions move it.  The owner
    serializes all calls."""

    __slots__ = (
        "imsi",
        "ki",
        "ka",
        "counter",
        "rng",
        "initialized",
        "me_class_e",
        "teardown_phase",
        "teardown_channels",
    )

    def __init__(
        self,
        imsi: str,
        ki: bytes,
        ka: bytes | None,
        counter: int,
        rng: random.Random,
    ):
        self.imsi = cs.check_imsi(imsi)
        self.ki = cs.Key128(ki, "ki")
        self.ka = None if ka is None else cs.Key128(ka, "ka")
        self.counter = auth_core.check_sqn48(counter)
        # a rejected challenge draws its placeholders from the generator
        if not callable(getattr(rng, "randbytes", None)):
            raise MalformedInputError(f"rng must have a randbytes method, got {rng!r}")
        self.rng = rng
        self.power_cycle()

    def power_cycle(self):
        """Drop volatile state; keys and counter survive."""
        self.initialized = False
        self.me_class_e = False
        self.teardown_phase = _IDLE
        self.teardown_channels = ()

    def init(self, class_e: bool):
        """Record the phone's TERMINAL PROFILE, its class-e toolkit flag;
        must happen exactly once per power session."""
        if self.initialized:
            raise ProtocolOrderError("SIM already initialized this power session")
        if type(class_e) is not bool:
            raise MalformedInputError(f"class_e must be a bool, got {class_e!r}")
        self.initialized = True
        self.me_class_e = class_e

    def challenge(self, rand: bytes) -> SimResponse:
        """Answer an authentication challenge.

        A card without a Ka (legacy) always answers honestly.  A card with
        one (enhanced) verifies the embedded sequence number: acceptance
        commits the counter, rejection returns placeholders and (on a
        class-e phone) arms the teardown.
        """
        if not self.initialized:
            raise ProtocolOrderError("challenge before TERMINAL PROFILE")
        if self.teardown_phase is not _IDLE:
            raise ProtocolOrderError("challenge during pending teardown")

        if self.ka is None:
            sres, kc = auth_core.legacy_response(self.ki, rand)
            return _tuple_new(SimResponse, (sres, kc, _NORMAL, None))

        outcome = auth_core.verify_hijacked_rand(self.ka, self.counter, rand, self.ki, self.rng)
        if isinstance(outcome, auth_core.Accepted):
            self.counter = outcome.sqn
            return _tuple_new(SimResponse, (outcome.sres, outcome.kc, _NORMAL, None))

        sres, kc = outcome.placeholder_sres, outcome.placeholder_kc
        if self.me_class_e:
            self.teardown_phase = _AWAIT_FETCH_1
            pending = _CHANNEL_STATUS_COMMAND.encoded_length()
            return _tuple_new(SimResponse, (sres, kc, _PROACTIVE_PENDING, pending))
        return _tuple_new(SimResponse, (sres, kc, _NORMAL, None))

    def fetch(self) -> StkCommand:
        """Hand the armed proactive command to the phone."""
        if self.teardown_phase is _AWAIT_FETCH_1:
            self.teardown_phase = _AWAIT_CHANNEL_STATUS
            return _CHANNEL_STATUS_COMMAND
        if self.teardown_phase is _AWAIT_FETCH_2:
            self.teardown_phase = _AWAIT_CLOSE_RESULT
            return StkCommand(_CLOSE_CHANNEL, self.teardown_channels)
        raise ProtocolOrderError(f"FETCH with nothing pending (phase {self.teardown_phase.value})")

    def terminal_response(self, result: TerminalResponse) -> SimStatus:
        """Consume the phone's execution result and advance the teardown."""
        if self.teardown_phase is _AWAIT_CHANNEL_STATUS:
            if not isinstance(result, ChannelStatusResult):
                raise ProtocolOrderError("expected channel-status result")
            channels = tuple(result.channels)
            if not channels:
                # nothing to close: finish the exchange right here
                self.teardown_phase = _IDLE
                self.teardown_channels = ()
                return _NORMAL
            self.teardown_channels = channels
            self.teardown_phase = _AWAIT_FETCH_2
            return _PROACTIVE_PENDING
        if self.teardown_phase is _AWAIT_CLOSE_RESULT:
            if not isinstance(result, CloseChannelResult):
                raise ProtocolOrderError("expected close-channel result")
            # back to IDLE: the phone ignoring the close is visible in the
            # trace, not in card state
            self.teardown_phase = _IDLE
            self.teardown_channels = ()
            return _NORMAL
        raise ProtocolOrderError(f"TERMINAL RESPONSE in phase {self.teardown_phase.value}")
