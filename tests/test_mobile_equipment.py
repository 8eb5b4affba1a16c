"""Phone actor: challenge forwarding, FETCH loop, ciphering, traffic."""

import random

import pytest

from akasim import auth_core as ac, crypto_suite as cs
from akasim.errors import ProtocolOrderError
from akasim.mobile_equipment import (
    ChannelTable,
    ConnectionDropped,
    MeProfile,
    MobileEquipment,
    Responded,
)
from akasim.sim_card import SimCard, SimMode, SimState

KI = bytes.fromhex("202122232425262728292a2b2c2d2e2f")
KA = bytes.fromhex("101112131415161718191a1b1c1d1e1f")
IMSI = "001010000000001"


class EventLog:
    def __init__(self):
        self.events = []

    def __call__(self, actor, msg, **fields):
        self.events.append((actor, msg, fields))

    def messages(self):
        return [msg for _, msg, _ in self.events]


def build_ue(mode=SimMode.ENHANCED, counter=0, profile=None, tracer=None):
    ka = KA if mode is SimMode.ENHANCED else None
    state = SimState(imsi=IMSI, ki=KI, ka=ka, counter=counter, mode=mode)
    sim = SimCard(state, random.Random(5))
    me = MobileEquipment(profile or MeProfile(), sim, tracer=tracer)
    me.power_on()
    return me


class TestChallenge:
    def test_valid_rand_responded(self):
        log = EventLog()
        me = build_ue(counter=0, tracer=log)
        me.attach("vlr")
        rand = ac.build_hijacked_rand(KA, 0, 1)
        outcome = me.handle_challenge(rand)
        assert isinstance(outcome, Responded)
        assert (outcome.sres, me.session.kc) == ac.legacy_response(KI, rand)
        assert "SRES_TO_NETWORK" in log.messages()

    def test_replay_drops_connection_and_closes_channels(self):
        log = EventLog()
        me = build_ue(counter=0, tracer=log)
        me.attach("vlr")
        me.open_channel()
        rand = ac.build_hijacked_rand(KA, 0, 1)
        me.handle_challenge(rand)
        outcome = me.handle_challenge(rand)
        assert isinstance(outcome, ConnectionDropped)
        assert outcome.closed_channels == (1,)
        assert me.session.channels.open_channels == set()
        assert me.session.attached_network is None
        # the dropped exchange must not transmit its response
        msgs = log.messages()
        challenges = [i for i, m in enumerate(msgs) if m == "SIM_CHALLENGE"]
        second_challenge = challenges[1]
        sres_events = [i for i, m in enumerate(msgs) if m == "SRES_TO_NETWORK"]
        assert sres_events and all(i < second_challenge for i in sres_events)

    def test_fig2_message_order_on_drop(self):
        log = EventLog()
        me = build_ue(counter=10, tracer=log)
        me.attach("vlr")
        me.open_channel()
        me.handle_challenge(ac.build_hijacked_rand(KA, 0, 4))  # stale
        wanted = [
            "FETCH",
            "PROACTIVE_COMMAND",
            "TERMINAL_RESPONSE",
            "FETCH",
            "PROACTIVE_COMMAND",
            "TERMINAL_RESPONSE",
        ]
        msgs = log.messages()
        start = msgs.index("FETCH")
        assert msgs[start:start + 6] == wanted

    def test_replayed_rand_legacy_sim_still_responds(self):
        me = build_ue(mode=SimMode.LEGACY)
        me.attach("vlr")
        rand = random.Random(2).randbytes(16)
        assert isinstance(me.handle_challenge(rand), Responded)
        assert isinstance(me.handle_challenge(rand), Responded)

    def test_leaky_profile_transmits_before_drop(self):
        log = EventLog()
        me = build_ue(counter=10, profile=MeProfile(leaky=True), tracer=log)
        me.attach("vlr")
        outcome = me.handle_challenge(ac.build_hijacked_rand(KA, 0, 4))
        assert isinstance(outcome, ConnectionDropped)
        msgs = log.messages()
        assert msgs.index("SRES_TO_NETWORK") < msgs.index("CONNECTION_DROPPED")

    def test_non_class_e_me_placeholder_flows_upstream(self):
        log = EventLog()
        me = build_ue(counter=10, profile=MeProfile(class_e_supported=False), tracer=log)
        me.attach("vlr")
        outcome = me.handle_challenge(ac.build_hijacked_rand(KA, 0, 4))
        assert isinstance(outcome, Responded)
        assert me.session.attached_network == "vlr"
        assert "FETCH" not in log.messages()

    def test_challenge_detached_fails(self):
        me = build_ue()
        with pytest.raises(ProtocolOrderError):
            me.handle_challenge(bytes(16))

    def test_transparency_same_events_for_both_sim_types(self):
        # one honest exchange: the phone's behavior must be byte-identical
        rand = ac.build_hijacked_rand(KA, 0, 1)
        logs = []
        for mode in (SimMode.ENHANCED, SimMode.LEGACY):
            log = EventLog()
            me = build_ue(mode=mode, tracer=log)
            me.attach("vlr")
            me.handle_challenge(rand)
            me.apply_cipher(cs.CipherAlgId.A5_3)
            me.send_traffic(b"payload-bytes", 0)
            logs.append(log.events)
        assert logs[0] == logs[1]


class TestCipherAndTraffic:
    def authed_ue(self, profile=None, log=None):
        me = build_ue(profile=profile, tracer=log)
        me.attach("vlr")
        me.handle_challenge(ac.build_hijacked_rand(KA, 0, 1))
        return me

    def test_none_cipher_always_allowed(self):
        me = build_ue()
        me.attach("vlr")
        me.apply_cipher(cs.CipherAlgId.NONE)  # pre-authentication

    def test_cipher_without_key_fails(self):
        me = build_ue()
        me.attach("vlr")
        with pytest.raises(ProtocolOrderError):
            me.apply_cipher(cs.CipherAlgId.A5_3)

    def test_traffic_plaintext_under_none(self):
        me = self.authed_ue()
        me.apply_cipher(cs.CipherAlgId.NONE)
        assert me.send_traffic(b"hello", 0) == b"hello"

    def test_weak_cipher_leaks_key_on_zero_frame(self):
        me = self.authed_ue()
        me.apply_cipher(cs.CipherAlgId.A5_2)
        ciphertext = me.send_traffic(bytes(8), 0)
        assert ciphertext == me.session.kc

    def test_stream_cipher_identity(self):
        me = self.authed_ue()
        me.apply_cipher(cs.CipherAlgId.A5_3)
        plaintext = b"0123456789abcdefREDUNDANT"
        ciphertext = me.send_traffic(plaintext, 3)
        keystream = cs.a5_keystream(cs.CipherAlgId.A5_3, me.session.kc, 3, len(plaintext))
        assert cs.xor_bytes(ciphertext, plaintext) == keystream.bytes

    def test_traffic_detached_fails(self):
        me = build_ue()
        with pytest.raises(ProtocolOrderError):
            me.send_traffic(b"x", 0)

    def test_unauthenticated_traffic_blocked_by_default(self):
        me = build_ue()
        me.attach("vlr")
        with pytest.raises(ProtocolOrderError):
            me.send_traffic(b"x", 0)

    def test_unauthenticated_traffic_allowed_when_configured(self):
        me = build_ue(profile=MeProfile(accepts_unauthenticated=True))
        me.attach("vlr")
        assert me.send_traffic(b"x", 0) == b"x"


class TestLifecycle:
    def test_power_cycle_resets_session_not_channel_ids(self):
        me = build_ue()
        me.attach("vlr")
        me.handle_challenge(ac.build_hijacked_rand(KA, 0, 1))
        first = me.open_channel()
        me.power_cycle()
        assert me.session.kc is None
        assert me.session.attached_network is None
        assert me.session.channels.open_channels == set()
        assert me.open_channel() > first  # ids never reused within a run

    def test_double_power_on_fails(self):
        me = build_ue()
        with pytest.raises(ProtocolOrderError):
            me.power_on()

    def test_power_state_is_the_cards(self):
        log = EventLog()
        me = build_ue(tracer=log)
        me.attach("vlr")
        me.sim.power_cycle()  # the card loses power under the phone
        before = list(log.events)
        with pytest.raises(ProtocolOrderError):
            me.handle_challenge(ac.build_hijacked_rand(KA, 0, 1))
        assert log.events == before
        me.power_on()
        assert log.messages()[-1] == "TERMINAL_PROFILE"

    def test_channel_table_close_reports_only_open(self):
        table = ChannelTable()
        a, b = table.open(), table.open()
        assert table.close([a, 99]) == (a,)
        assert table.open_channels == {b}
