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
from .errors import MalformedInputError, ProtocolOrderError

__all__ = [
    "SimMode",
    "TeardownPhase",
    "StkKind",
    "StkCommand",
    "SimStatus",
    "SimResponse",
    "TerminalProfile",
    "ChannelStatusResult",
    "CloseChannelResult",
    "TerminalResponse",
    "SimState",
    "SimCard",
]


class SimMode(enum.Enum):
    LEGACY = "LEGACY"
    ENHANCED = "ENHANCED"


# Function bodies use these names, not `SimMode.LEGACY`: on CPython 3.11
# `EnumType` defines `__getattr__`, which slows every class attribute read.
_LEGACY, _ENHANCED = SimMode


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
    pending_length: int | None = None


class TerminalProfile(NamedTuple):
    """Capabilities the phone announces at card initialisation."""

    class_e: bool = True


class ChannelStatusResult(NamedTuple):
    channels: tuple[int, ...]


class CloseChannelResult(NamedTuple):
    success: bool = True


TerminalResponse = ChannelStatusResult | CloseChannelResult


def noop_trace(actor, /, **event):
    """The actors' tracer when none is injected: records nothing."""


class SimState:
    """Full card state.  Provisioning writes the keys, mode and counter; the
    volatile rest starts powered off and only the card's transitions move it."""

    __slots__ = (
        "imsi",
        "ki",
        "ka",
        "counter",
        "mode",
        "initialized",
        "me_class_e",
        "teardown_phase",
        "teardown_channels",
    )

    def __init__(self, imsi: str, ki: bytes, ka: bytes | None, counter: int, mode: SimMode):
        self.imsi = cs.check_imsi(imsi)
        self.ki = cs._key(ki, "ki")
        self.ka = None if ka is None else cs._key(ka, "ka")
        if not isinstance(mode, SimMode):
            raise MalformedInputError(f"mode must be a SimMode, got {mode!r}")
        if mode is _LEGACY and ka is not None:
            raise MalformedInputError("legacy SIM must not hold a ka")
        if mode is _ENHANCED and ka is None:
            raise MalformedInputError("enhanced SIM needs a ka")
        self.counter = auth_core.check_sqn48(counter)
        self.mode = mode
        _power_off(self)


def _power_off(state: SimState) -> None:
    """The volatile state of a card with no power session."""
    state.initialized = False
    state.me_class_e = False
    state.teardown_phase = _IDLE
    state.teardown_channels = ()


def _pending_command(state: SimState) -> StkCommand | None:
    """The proactive command the teardown phase has armed, if any."""
    if state.teardown_phase is _AWAIT_FETCH_1:
        return StkCommand(_GET_CHANNEL_STATUS)
    if state.teardown_phase is _AWAIT_FETCH_2:
        return StkCommand(_CLOSE_CHANNEL, state.teardown_channels)
    return None


class SimCard:
    """One physical card.  The owner serializes all calls."""

    def __init__(self, state: SimState, rng: random.Random):
        self.state = state
        self.rng = rng

    def power_cycle(self):
        """Drop volatile state; keys and counter survive."""
        _power_off(self.state)

    def init(self, profile: TerminalProfile) -> TerminalProfile:
        """Record the phone's TERMINAL PROFILE; must happen exactly once."""
        if self.state.initialized:
            raise ProtocolOrderError("SIM already initialized this power session")
        if type(profile.class_e) is not bool:
            raise MalformedInputError(f"class_e must be a bool, got {profile.class_e!r}")
        self.state.initialized = True
        self.state.me_class_e = profile.class_e
        return profile

    def challenge(self, rand: bytes) -> SimResponse:
        """Answer an authentication challenge.

        Legacy cards always answer honestly.  Enhanced cards verify the
        embedded sequence number: acceptance commits the counter, rejection
        returns placeholders and (on a class-e phone) arms the teardown.
        """
        st = self.state
        if not st.initialized:
            raise ProtocolOrderError("challenge before TERMINAL PROFILE")
        if st.teardown_phase is not _IDLE:
            raise ProtocolOrderError("challenge during pending teardown")

        if st.mode is _LEGACY:
            sres, kc = auth_core.legacy_response(st.ki, rand)
            return SimResponse(sres, kc, _NORMAL)

        outcome = auth_core.verify_hijacked_rand(
            st.ka, st.counter, rand, st.ki, self.rng
        )
        if isinstance(outcome, auth_core.Accepted):
            st.counter = outcome.sqn
            return SimResponse(outcome.sres, outcome.kc, _NORMAL)

        if st.me_class_e:
            st.teardown_phase = _AWAIT_FETCH_1
            return SimResponse(
                outcome.placeholder_sres,
                outcome.placeholder_kc,
                _PROACTIVE_PENDING,
                _pending_command(st).encoded_length(),
            )
        return SimResponse(outcome.placeholder_sres, outcome.placeholder_kc, _NORMAL)

    def fetch(self) -> StkCommand:
        """Hand the armed proactive command to the phone."""
        st = self.state
        command = _pending_command(st)
        if command is None:
            raise ProtocolOrderError(
                f"FETCH with nothing pending (phase {st.teardown_phase.value})"
            )
        if st.teardown_phase is _AWAIT_FETCH_1:
            st.teardown_phase = _AWAIT_CHANNEL_STATUS
        else:
            st.teardown_phase = _AWAIT_CLOSE_RESULT
        return command

    def terminal_response(self, result: TerminalResponse) -> SimStatus:
        """Consume the phone's execution result and advance the teardown."""
        st = self.state
        if st.teardown_phase is _AWAIT_CHANNEL_STATUS:
            if not isinstance(result, ChannelStatusResult):
                raise ProtocolOrderError("expected channel-status result")
            channels = tuple(result.channels)
            if not channels:
                # nothing to close: finish the exchange right here
                st.teardown_phase = _IDLE
                st.teardown_channels = ()
                return _NORMAL
            st.teardown_channels = channels
            st.teardown_phase = _AWAIT_FETCH_2
            return _PROACTIVE_PENDING
        if st.teardown_phase is _AWAIT_CLOSE_RESULT:
            if not isinstance(result, CloseChannelResult):
                raise ProtocolOrderError("expected close-channel result")
            # back to IDLE whatever the result code; the phone ignoring the
            # close is visible in the trace, not in card state
            st.teardown_phase = _IDLE
            st.teardown_channels = ()
            return _NORMAL
        raise ProtocolOrderError(
            f"TERMINAL RESPONSE in phase {st.teardown_phase.value}"
        )
