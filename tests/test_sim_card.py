"""Card state machine: challenges, counter handling, proactive teardown."""

import operator
import random

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

import oracle
from akasim import auth_core as ac, crypto_suite as cs
from akasim.errors import MalformedInputError, ProtocolOrderError
from akasim.mobile_equipment import MeProfile, MobileEquipment
from akasim.sim_card import (
    ChannelStatusResult,
    CloseChannelResult,
    SimCard,
    SimMode,
    SimState,
    SimStatus,
    StkKind,
    TeardownPhase,
    TerminalProfile,
)

# every field of a card state, to compare states by value
_fields = operator.attrgetter(*SimState.__slots__)

KI = bytes.fromhex("202122232425262728292a2b2c2d2e2f")
KA = bytes.fromhex("101112131415161718191a1b1c1d1e1f")
IMSI = "001010000000001"


def enhanced_card(counter=0, rng_seed=1):
    state = SimState(imsi=IMSI, ki=KI, ka=KA, counter=counter, mode=SimMode.ENHANCED)
    return SimCard(state, random.Random(rng_seed))


def legacy_card(rng_seed=1):
    state = SimState(imsi=IMSI, ki=KI, ka=None, counter=0, mode=SimMode.LEGACY)
    return SimCard(state, random.Random(rng_seed))


class TestInit:
    def test_challenge_before_init_fails(self):
        card = enhanced_card()
        with pytest.raises(ProtocolOrderError):
            card.challenge(bytes(16))

    def test_double_init_fails(self):
        card = enhanced_card()
        card.init(TerminalProfile(class_e=True))
        with pytest.raises(ProtocolOrderError):
            card.init(TerminalProfile(class_e=True))

    def test_reinit_allowed_after_power_cycle(self):
        card = enhanced_card()
        card.init(TerminalProfile(class_e=True))
        card.power_cycle()
        card.init(TerminalProfile(class_e=False))
        assert card.state.me_class_e is False

    @pytest.mark.parametrize("class_e", ["yes", 1, 0, None])
    def test_non_bool_class_e_refused(self, class_e):
        card = enhanced_card()
        with pytest.raises(MalformedInputError):
            card.init(TerminalProfile(class_e=class_e))
        assert card.state.initialized is False and card.state.me_class_e is False
        card.init(TerminalProfile(class_e=True))  # the refused init left no trace

    def test_phone_with_non_bool_class_e_refused(self):
        card = enhanced_card()
        me = MobileEquipment(MeProfile(class_e_supported="yes"), card)
        with pytest.raises(MalformedInputError):
            me.power_on()
        assert _fields(card.state) == _fields(enhanced_card().state)
        me.profile = MeProfile()  # the refused power-on left the phone off
        me.power_on()
        assert card.state.initialized and card.state.me_class_e

    def test_state_mode_consistency(self):
        with pytest.raises(MalformedInputError):
            SimState(imsi=IMSI, ki=KI, ka=KA, counter=0, mode=SimMode.LEGACY)
        with pytest.raises(MalformedInputError):
            SimState(imsi=IMSI, ki=KI, ka=None, counter=0, mode=SimMode.ENHANCED)


class TestLegacyChallenge:
    def test_never_rejects_10k_random_rands(self):
        card = legacy_card()
        card.init(TerminalProfile(class_e=True))
        rng = random.Random(7)
        for _ in range(10_000):
            rand = rng.randbytes(16)
            response = card.challenge(rand)
            assert response.status is SimStatus.NORMAL
            assert response.sres == oracle.ref_a3(KI, rand)
            assert response.kc == oracle.ref_a8(KI, rand)
        assert card.state.teardown_phase is TeardownPhase.IDLE


class TestEnhancedChallenge:
    def test_accept_updates_counter(self):
        card = enhanced_card(counter=5)
        card.init(TerminalProfile(class_e=True))
        rand = ac.build_hijacked_rand(KA, 0, 6)
        response = card.challenge(rand)
        assert response.status is SimStatus.NORMAL
        assert card.state.counter == 6
        assert (response.sres, response.kc) == ac.legacy_response(KI, rand)

    def test_replay_returns_placeholders_and_arms_teardown(self):
        card = enhanced_card(counter=5)
        card.init(TerminalProfile(class_e=True))
        rand = ac.build_hijacked_rand(KA, 0, 6)
        card.challenge(rand)
        replay = card.challenge(rand)
        assert replay.status is SimStatus.PROACTIVE_PENDING
        assert replay.pending_length == 2
        assert card.state.counter == 6
        assert (replay.sres, replay.kc) != ac.legacy_response(KI, rand)

    def test_reject_without_class_e_stays_normal(self):
        card = enhanced_card(counter=10)
        card.init(TerminalProfile(class_e=False))
        rand = ac.build_hijacked_rand(KA, 0, 3)  # stale
        response = card.challenge(rand)
        assert response.status is SimStatus.NORMAL
        assert card.state.teardown_phase is TeardownPhase.IDLE
        assert card.state.counter == 10

    @given(sqns=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_counter_monotonicity(self, sqns):
        card = enhanced_card(counter=0, rng_seed=3)
        card.init(TerminalProfile(class_e=False))
        counter = 0
        for sqn in sqns:
            rand = ac.build_hijacked_rand(KA, 0, sqn)
            before = card.state.counter
            response = card.challenge(rand)
            after = card.state.counter
            assert after >= before
            if sqn > counter:
                counter = sqn
                assert after == sqn
                assert response.status is SimStatus.NORMAL
            else:
                assert after == before


class TestTeardownChoreography:
    def arm(self, channels=(1, 2)):
        card = enhanced_card(counter=9)
        card.init(TerminalProfile(class_e=True))
        response = card.challenge(ac.build_hijacked_rand(KA, 0, 1))  # stale
        assert response.status is SimStatus.PROACTIVE_PENDING
        return card

    def test_full_exchange(self):
        card = self.arm()
        first = card.fetch()
        assert first.kind is StkKind.GET_CHANNEL_STATUS
        assert card.state.teardown_phase is TeardownPhase.AWAIT_CHANNEL_STATUS

        status = card.terminal_response(ChannelStatusResult(channels=(1, 2)))
        assert status is SimStatus.PROACTIVE_PENDING
        assert card.state.teardown_phase is TeardownPhase.AWAIT_FETCH_2

        second = card.fetch()
        assert second.kind is StkKind.CLOSE_CHANNEL
        assert second.channel_ids == (1, 2)

        status = card.terminal_response(CloseChannelResult(success=True))
        assert status is SimStatus.NORMAL
        assert card.state.teardown_phase is TeardownPhase.IDLE

    def test_close_result_code_irrelevant_to_state(self):
        card = self.arm()
        card.fetch()
        card.terminal_response(ChannelStatusResult(channels=(7,)))
        command = card.fetch()
        assert command.channel_ids == (7,)
        status = card.terminal_response(CloseChannelResult(success=False))
        assert status is SimStatus.NORMAL
        assert card.state.teardown_phase is TeardownPhase.IDLE

    def test_empty_channel_list_short_circuits(self):
        card = self.arm()
        card.fetch()
        status = card.terminal_response(ChannelStatusResult(channels=()))
        assert status is SimStatus.NORMAL
        assert card.state.teardown_phase is TeardownPhase.IDLE

    def test_fetch_in_idle_fails(self):
        card = enhanced_card()
        card.init(TerminalProfile(class_e=True))
        with pytest.raises(ProtocolOrderError):
            card.fetch()

    def test_out_of_phase_terminal_response_fails(self):
        card = self.arm()
        with pytest.raises(ProtocolOrderError):
            card.terminal_response(ChannelStatusResult(channels=(1,)))
        card.fetch()
        with pytest.raises(ProtocolOrderError):
            card.terminal_response(CloseChannelResult())

    def test_challenge_during_teardown_fails(self):
        card = self.arm()
        with pytest.raises(ProtocolOrderError):
            card.challenge(ac.build_hijacked_rand(KA, 0, 50))

    def test_close_channel_requires_ids(self):
        from akasim.sim_card import StkCommand

        with pytest.raises(MalformedInputError):
            StkCommand(StkKind.CLOSE_CHANNEL, ())


class TestSimState:
    @pytest.mark.parametrize(
        "fields",
        [
            {"imsi": "1"},
            {"imsi": "٠" * 15},
            {"ki": bytes(1)},
            {"ki": KI + bytes(1)},
            {"ka": KA[:-1]},
            {"counter": -1},
            {"counter": 2**48},
        ],
    )
    def test_constructor_rejects_bad_key_imsi_or_counter(self, fields):
        card = {"imsi": IMSI, "ki": KI, "ka": KA, "counter": 0, "mode": SimMode.ENHANCED}
        with pytest.raises(MalformedInputError):
            SimState(**{**card, **fields})

    def test_volatile_state_is_not_a_constructor_input(self):
        with pytest.raises(TypeError):
            SimState(
                imsi=IMSI,
                ki=KI,
                ka=KA,
                counter=0,
                mode=SimMode.ENHANCED,
                teardown_phase=TeardownPhase.AWAIT_FETCH_1,
            )

    def test_constructor_rejects_mode_that_is_not_a_sim_mode(self):
        with pytest.raises(MalformedInputError):
            SimState(imsi=IMSI, ki=KI, ka=KA, counter=0, mode="ENHANCED")

    def test_keys_are_key128(self):
        state = enhanced_card().state
        assert isinstance(state.ki, cs.Key128) and isinstance(state.ka, cs.Key128)
        assert state.ki == KI and state.ka == KA

    def test_power_cycle_keeps_counter_resets_volatile(self):
        card = enhanced_card(counter=9)
        card.init(TerminalProfile(class_e=True))
        card.challenge(ac.build_hijacked_rand(KA, 0, 1))  # arms teardown
        card.power_cycle()
        assert card.state.counter == 9
        assert card.state.teardown_phase is TeardownPhase.IDLE
        with pytest.raises(ProtocolOrderError):
            card.fetch()
        assert card.state.initialized is False


def _in_phase(*phases):
    """Precondition: the card is initialised and in one of the phases."""
    return lambda machine: machine.state.initialized and machine.state.teardown_phase in phases


class SimCardMachine(RuleBasedStateMachine):
    """Random legal call sequences against one card, with illegal calls mixed in.

    After every step the teardown state must be one a card can reach: a
    phase other than IDLE only on an initialised ENHANCED card behind a
    class-e phone, and channel ids held exactly while a CLOSE CHANNEL is
    being fetched or answered.
    """

    # three draws in four give the enhanced card with a class-e phone, the
    # combination that reaches the teardown phases
    mostly = st.sampled_from([True, True, True, False])

    @initialize(enhanced=mostly, counter=st.integers(0, 5))
    def insert_card(self, enhanced, counter):
        ka = KA if enhanced else None
        mode = SimMode.ENHANCED if enhanced else SimMode.LEGACY
        self.card = SimCard(
            SimState(imsi=IMSI, ki=KI, ka=ka, counter=counter, mode=mode), random.Random(0)
        )

    @property
    def state(self):
        return self.card.state

    @precondition(lambda self: not self.state.initialized)
    @rule(class_e=mostly)
    def init(self, class_e):
        self.card.init(TerminalProfile(class_e=class_e))
        assert self.state.me_class_e is class_e

    @precondition(_in_phase(TeardownPhase.IDLE))
    @rule(kind=st.sampled_from(["fresh", "stale", "forged"]), step=st.integers(0, 3))
    def challenge(self, kind, step):
        counter = self.state.counter
        if kind == "stale":
            rand = ac.build_hijacked_rand(KA, 0, max(counter - step, 0))
        else:
            rand = ac.build_hijacked_rand(KA, 0, counter + 1 + step)
        if kind == "forged":
            rand = rand[:-1] + bytes([rand[-1] ^ 1 << step])
        response = self.card.challenge(rand)
        honest = ac.legacy_response(KI, rand)
        if self.state.mode is SimMode.LEGACY or kind == "fresh":
            assert response.status is SimStatus.NORMAL
            assert (response.sres, response.kc) == honest
            if self.state.mode is SimMode.ENHANCED:
                assert self.state.counter == counter + 1 + step
            return
        assert self.state.counter == counter
        assert response.sres != honest[0] and response.kc != honest[1]
        if self.state.me_class_e:
            assert response.status is SimStatus.PROACTIVE_PENDING
            assert response.pending_length == 2  # GET CHANNEL STATUS names no channel
            assert self.state.teardown_phase is TeardownPhase.AWAIT_FETCH_1
        else:
            assert response.status is SimStatus.NORMAL
            assert self.state.teardown_phase is TeardownPhase.IDLE

    @precondition(_in_phase(TeardownPhase.AWAIT_FETCH_1, TeardownPhase.AWAIT_FETCH_2))
    @rule()
    def fetch(self):
        channels = self.state.teardown_channels
        command = self.card.fetch()
        if self.state.teardown_phase is TeardownPhase.AWAIT_CHANNEL_STATUS:
            assert command.kind is StkKind.GET_CHANNEL_STATUS
        else:
            assert self.state.teardown_phase is TeardownPhase.AWAIT_CLOSE_RESULT
            assert command == (StkKind.CLOSE_CHANNEL, channels)

    @precondition(
        _in_phase(TeardownPhase.AWAIT_CHANNEL_STATUS, TeardownPhase.AWAIT_CLOSE_RESULT)
    )
    @rule(channels=st.lists(st.integers(1, 9), max_size=3).map(tuple))
    def terminal_response(self, channels):
        if self.state.teardown_phase is TeardownPhase.AWAIT_CLOSE_RESULT:
            status = self.card.terminal_response(CloseChannelResult(success=bool(channels)))
        else:
            status = self.card.terminal_response(ChannelStatusResult(channels))
        if self.state.teardown_phase is TeardownPhase.AWAIT_FETCH_2:
            assert status is SimStatus.PROACTIVE_PENDING
            assert self.state.teardown_channels == channels
        else:
            assert status is SimStatus.NORMAL
            assert self.state.teardown_phase is TeardownPhase.IDLE

    @precondition(lambda self: self.state.initialized)
    @rule()
    def power_cycle(self):
        counter = self.state.counter
        self.card.power_cycle()
        assert self.state.counter == counter
        assert self.state.teardown_phase is TeardownPhase.IDLE
        assert not self.state.initialized

    @rule(data=st.data())
    def out_of_order(self, data):
        """A call the current phase forbids raises and changes nothing."""
        phase = self.state.teardown_phase
        calls = {}
        if self.state.initialized:
            calls["init"] = lambda: self.card.init(TerminalProfile())
        if not self.state.initialized or phase is not TeardownPhase.IDLE:
            calls["challenge"] = lambda: self.card.challenge(bytes(16))
        if phase not in (TeardownPhase.AWAIT_FETCH_1, TeardownPhase.AWAIT_FETCH_2):
            calls["fetch"] = self.card.fetch
        if phase is not TeardownPhase.AWAIT_CHANNEL_STATUS:
            calls["channel_status"] = lambda: self.card.terminal_response(ChannelStatusResult((1,)))
        if phase is not TeardownPhase.AWAIT_CLOSE_RESULT:
            calls["close_result"] = lambda: self.card.terminal_response(CloseChannelResult())
        before = _fields(self.state)
        with pytest.raises(ProtocolOrderError):
            calls[data.draw(st.sampled_from(sorted(calls)))]()
        assert _fields(self.state) == before

    @invariant()
    def teardown_state_is_reachable(self):
        st = self.state
        if st.teardown_phase is not TeardownPhase.IDLE:
            assert st.mode is SimMode.ENHANCED and st.initialized and st.me_class_e
        assert isinstance(st.teardown_channels, tuple)
        assert all(type(c) is int and c >= 0 for c in st.teardown_channels)
        holds_channels = st.teardown_phase in (
            TeardownPhase.AWAIT_FETCH_2,
            TeardownPhase.AWAIT_CLOSE_RESULT,
        )
        assert bool(st.teardown_channels) is holds_channels


TestSimCardMachine = SimCardMachine.TestCase
TestSimCardMachine.settings = settings(max_examples=100, stateful_step_count=50, deadline=None)
