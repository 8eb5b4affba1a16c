"""Card state machine: challenges, counter handling, proactive teardown."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from akasim import auth_core as ac, crypto_suite as cs
from akasim.errors import MalformedInputError, ProtocolOrderError
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


class TestSnapshot:
    def test_roundtrip(self):
        card = enhanced_card(counter=123)
        card.init(TerminalProfile(class_e=True))
        record = card.state.to_record()
        restored = SimState.from_record(record)
        assert restored.imsi == IMSI
        assert restored.ki == KI
        assert restored.ka == KA
        assert restored.counter == 123
        assert restored.mode is SimMode.ENHANCED
        assert restored.initialized is True
        assert restored.me_class_e is True

    def test_roundtrip_preserves_teardown_phase(self):
        card = enhanced_card(counter=9)
        card.init(TerminalProfile(class_e=True))
        card.challenge(ac.build_hijacked_rand(KA, 0, 1))
        card.fetch()
        card.terminal_response(ChannelStatusResult(channels=(3, 4)))
        restored = SimState.from_record(card.state.to_record())
        assert restored.teardown_phase is TeardownPhase.AWAIT_FETCH_2
        assert restored.teardown_channels == (3, 4)
        resumed = SimCard(restored, random.Random(0))
        command = resumed.fetch()
        assert command.kind is StkKind.CLOSE_CHANNEL
        assert command.channel_ids == (3, 4)

    def test_legacy_record_omits_ka(self):
        card = legacy_card()
        record = card.state.to_record()
        assert "ka=" not in record
        restored = SimState.from_record(record)
        assert restored.ka is None
        assert restored.mode is SimMode.LEGACY

    def test_bad_record_rejected(self):
        with pytest.raises(MalformedInputError):
            SimState.from_record("imsi=001 garbage")
        with pytest.raises(MalformedInputError):
            SimState.from_record("no-equals-sign")

    @pytest.mark.parametrize(
        "record",
        [
            "imsi=1 ki=00 mode=LEGACY counter=0",
            f"imsi={IMSI} ki=00 mode=LEGACY counter=0",
            f"imsi={IMSI} ki={KI.hex()}00 mode=LEGACY counter=0",
            f"imsi={IMSI} ki={KI.hex()} ka={KA.hex()[:-2]} mode=ENHANCED counter=0",
            f"imsi={'٠' * 15} ki={KI.hex()} mode=LEGACY counter=0",
        ],
    )
    def test_bad_key_or_imsi_rejected(self, record):
        with pytest.raises(MalformedInputError):
            SimState.from_record(record)

    @pytest.mark.parametrize("field", ["initialized", "class_e"])
    @pytest.mark.parametrize("value", ["true", "yes", "2", ""])
    def test_flag_other_than_0_or_1_rejected(self, field, value):
        record = f"imsi={IMSI} ki={KI.hex()} mode=LEGACY counter=0 {field}={value}"
        with pytest.raises(MalformedInputError):
            SimState.from_record(record)

    def test_restored_keys_are_key128(self):
        restored = SimState.from_record(enhanced_card().state.to_record())
        assert isinstance(restored.ki, cs.Key128) and isinstance(restored.ka, cs.Key128)
        assert restored.ki == KI and restored.ka == KA

    def test_power_cycle_keeps_counter_resets_volatile(self):
        card = enhanced_card(counter=9)
        card.init(TerminalProfile(class_e=True))
        card.challenge(ac.build_hijacked_rand(KA, 0, 1))  # arms teardown
        card.power_cycle()
        assert card.state.counter == 9
        assert card.state.teardown_phase is TeardownPhase.IDLE
        assert not card.state.pending_proactive
        assert card.state.initialized is False
