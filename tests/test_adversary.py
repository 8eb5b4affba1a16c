"""Attack operations exercised against hand-wired actors."""

import random

import pytest

import oracle
from akasim import auth_core as ac, crypto_suite as cs
from akasim.adversary import (
    KNOWN_REDUNDANCY,
    Adversary,
    AttackKind,
    InterceptLog,
    RandSource,
)
from akasim.errors import MalformedInputError, ProtocolOrderError
from akasim.mobile_equipment import MeProfile, MobileEquipment
from akasim.network_side import ConsumptionPolicy, ServingNetwork, Verdict
from akasim.sim_card import SimCard, SimMode, SimState

KI = bytes.fromhex("202122232425262728292a2b2c2d2e2f")
KA = bytes.fromhex("101112131415161718191a1b1c1d1e1f")
VICTIM = "001010000000001"
SECRET = b"attack at dawn!!"


def build_victim(mode=SimMode.ENHANCED, counter=0, profile=None):
    ka = KA if mode is SimMode.ENHANCED else None
    state = SimState(imsi=VICTIM, ki=KI, ka=ka, counter=counter, mode=mode)
    sim = SimCard(state, random.Random(11))
    me = MobileEquipment(profile or MeProfile(), sim)
    me.power_on()
    return me


def adversary(seed=21):
    return Adversary(rng=random.Random(seed))


def eavesdrop_honest_exchange(victim, attacker, alg=cs.CipherAlgId.A5_3):
    """One honest authenticated session, fully captured by the attacker."""
    if victim.sim.state.mode is SimMode.ENHANCED:
        rand = ac.build_hijacked_rand(KA, 0, victim.sim.state.counter + 1)
    else:
        rand = random.Random(33).randbytes(16)
    victim.attach("vlr")
    attacker.log.start_exchange(rand)
    outcome = victim.handle_challenge(rand)
    attacker.log.note_sres(outcome.sres)
    victim.apply_cipher(alg)
    ciphertext = victim.send_traffic(SECRET, 0)
    attacker.log.note_frame(0, alg, ciphertext)
    return rand


class TestFakeNetworkAttach:
    def test_legacy_victim_fabricated_rand_succeeds(self):
        victim = build_victim(mode=SimMode.LEGACY)
        report = adversary().fake_network_attach(victim, victim_traffic=SECRET)
        assert report.attack is AttackKind.MITM_EAVESDROP
        assert report.succeeded
        assert report.recovered_plaintext == SECRET

    def test_enhanced_victim_fabricated_rand_dropped(self):
        victim = build_victim(mode=SimMode.ENHANCED)
        report = adversary().fake_network_attach(victim, victim_traffic=SECRET)
        assert not report.succeeded
        assert report.failure_cause == "connection dropped by SIM"
        assert report.recovered_plaintext is None
        assert victim.session.attached_network is None

    def test_enhanced_victim_relayed_fresh_rand_residual_exposure(self):
        # honest forwarding at authentication time still lets the
        # middle-box read traffic once it refuses to enable encryption
        victim = build_victim(mode=SimMode.ENHANCED)
        triples, _ = ac.generate_triples(KI, KA, 0, 0, 1)
        serving = ServingNetwork(
            policy=ConsumptionPolicy.IN_ORDER,
            cipher_choice=cs.CipherAlgId.A5_3,
            rng=random.Random(3),
        )
        serving.add_triples(VICTIM, triples)
        report = adversary().fake_network_attach(
            victim,
            victim_traffic=SECRET,
            rand_source=RandSource.RELAY_FRESH,
            relay=serving,
        )
        assert report.succeeded
        assert victim.sim.state.counter == 1  # the SIM really authenticated it

    def test_replay_source_needs_log(self):
        victim = build_victim(mode=SimMode.LEGACY)
        with pytest.raises(MalformedInputError):
            adversary().fake_network_attach(
                victim, victim_traffic=SECRET, rand_source=RandSource.REPLAYED
            )

    def test_skip_aka_blocked_by_strict_me(self):
        victim = build_victim(mode=SimMode.LEGACY)
        report = adversary().fake_network_attach(
            victim, victim_traffic=SECRET, rand_source=RandSource.SKIP_AKA
        )
        assert not report.succeeded
        assert "authentication" in report.failure_cause

    def test_skip_aka_succeeds_on_permissive_me(self):
        victim = build_victim(
            mode=SimMode.LEGACY, profile=MeProfile(accepts_unauthenticated=True)
        )
        report = adversary().fake_network_attach(
            victim, victim_traffic=SECRET, rand_source=RandSource.SKIP_AKA
        )
        assert report.succeeded

    def test_enhanced_non_class_e_fabricated_rand_succeeds(self):
        # without class-e toolkit support the card cannot force the drop
        victim = build_victim(
            mode=SimMode.ENHANCED, profile=MeProfile(class_e_supported=False)
        )
        report = adversary().fake_network_attach(victim, victim_traffic=SECRET)
        assert report.succeeded


class TestBbkAttack:
    def test_legacy_victim_key_recovered_and_log_decrypted(self):
        victim = build_victim(mode=SimMode.LEGACY)
        attacker = adversary()
        rand = eavesdrop_honest_exchange(victim, attacker)
        true_kc = oracle.ref_a8(KI, rand)
        victim.power_cycle()

        report = attacker.bbk_attack(victim, ground_truth=SECRET)
        assert report.succeeded
        assert report.recovered_kc == true_kc
        assert report.recovered_plaintext == SECRET

    def test_deterministic_with_one_8_octet_frame(self):
        victim = build_victim(mode=SimMode.LEGACY)
        attacker = adversary()
        eavesdrop_honest_exchange(victim, attacker, alg=cs.CipherAlgId.A5_1)
        victim.power_cycle()
        report = attacker.bbk_attack(victim, ground_truth=SECRET)
        assert report.succeeded

    def test_enhanced_victim_replay_prevented(self):
        victim = build_victim(mode=SimMode.ENHANCED)
        attacker = adversary()
        eavesdrop_honest_exchange(victim, attacker)
        victim.power_cycle()
        report = attacker.bbk_attack(victim, ground_truth=SECRET)
        assert not report.succeeded
        assert "dropped" in report.failure_cause
        assert report.recovered_kc is None

    def test_enhanced_non_class_e_yields_useless_key(self):
        victim = build_victim(
            mode=SimMode.ENHANCED, profile=MeProfile(class_e_supported=False)
        )
        attacker = adversary()
        rand = eavesdrop_honest_exchange(victim, attacker)
        true_kc = oracle.ref_a8(KI, rand)
        victim.power_cycle()
        report = attacker.bbk_attack(victim, ground_truth=SECRET)
        assert not report.succeeded
        assert report.failure_cause == "decryption mismatch"
        assert report.recovered_kc is not None
        assert report.recovered_kc != true_kc

    def test_empty_log_is_precondition_error(self):
        victim = build_victim(mode=SimMode.LEGACY)
        with pytest.raises(MalformedInputError):
            adversary().bbk_attack(victim, ground_truth=SECRET)

    def test_victim_outcome_other_than_response_or_drop_raises(self, monkeypatch):
        # an explicit check, not an assert, so that -O keeps it
        victim = build_victim(mode=SimMode.LEGACY)
        attacker = adversary()
        eavesdrop_honest_exchange(victim, attacker)
        monkeypatch.setattr(victim, "handle_challenge", lambda rand: None)
        with pytest.raises(ProtocolOrderError):
            attacker.bbk_attack(victim, ground_truth=SECRET)

    def test_plaintext_only_log_is_precondition_error(self):
        victim = build_victim(mode=SimMode.LEGACY)
        attacker = adversary()
        attacker.log.start_exchange(bytes(16))
        attacker.log.note_frame(0, cs.CipherAlgId.NONE, b"plain")
        with pytest.raises(MalformedInputError):
            attacker.bbk_attack(victim, ground_truth=b"plain")


class TestInterceptLog:
    def test_append_only_ordering(self):
        log = InterceptLog()
        log.start_exchange(b"r" * 16)
        log.note_sres(b"s" * 8)
        log.note_frame(0, cs.CipherAlgId.A5_3, b"c1")
        log.start_exchange(b"q" * 16)
        log.note_frame(1, cs.CipherAlgId.A5_1, b"c2")
        assert len(log.records) == 2
        assert log.records[0].sres == b"s" * 8
        assert log.records[1].frames[0].frame_index == 1

    def test_latest_with_strong_frames_skips_weak_only(self):
        log = InterceptLog()
        log.start_exchange(b"a" * 16)
        log.note_frame(0, cs.CipherAlgId.A5_3, b"x")
        log.start_exchange(b"b" * 16)
        log.note_frame(0, cs.CipherAlgId.A5_2, b"y")
        chosen = log.latest_with_strong_frames()
        assert chosen.rand == b"a" * 16

    def test_orphan_frame_goes_to_null_exchange(self):
        log = InterceptLog()
        log.note_frame(0, cs.CipherAlgId.A5_3, b"x")
        assert log.records[0].rand == b""
        assert log.latest_with_strong_frames() is None

    def test_attacker_state_is_air_interface_only(self):
        attacker = adversary()
        assert not hasattr(attacker, "registry")
        assert {"rng", "trace", "name", "own_ue", "log"} == set(vars(attacker))
