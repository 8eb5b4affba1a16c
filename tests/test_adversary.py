"""Attack operations exercised against hand-wired actors."""

import random

import pytest

import oracle
from akasim import auth_core as ac, crypto_suite as cs
from akasim.harness import ScenarioResult, Tracer, summarize
from akasim.adversary import (
    KNOWN_REDUNDANCY,
    Adversary,
    AttackKind,
    RandSource,
)
from akasim.errors import MalformedInputError
from akasim.mobile_equipment import MeProfile, MobileEquipment
from akasim.network_side import ConsumptionPolicy, ServingNetwork, Verdict
from akasim.sim_card import SimCard, SimMode

KI = bytes.fromhex("202122232425262728292a2b2c2d2e2f")
KA = bytes.fromhex("101112131415161718191a1b1c1d1e1f")
VICTIM = "001010000000001"
SECRET = b"attack at dawn!!"


def build_victim(mode=SimMode.ENHANCED, counter=0, profile=None):
    ka = KA if mode is SimMode.ENHANCED else None
    sim = SimCard(imsi=VICTIM, ki=KI, ka=ka, counter=counter, rng=random.Random(11))
    me = MobileEquipment(profile or MeProfile(), sim)
    me.power_on()
    return me


def adversary(seed=21):
    return Adversary(rng=random.Random(seed), tracer=Tracer())


def attack_report(attacker):
    """The run summary's entry for the one attack `attacker` traced."""
    (report,) = summarize(ScenarioResult(attacker.trace.events, None, True))["attacks"]
    return report


def eavesdrop_honest_exchange(victim, attacker, alg=cs.CipherAlgId.A5_3):
    """One honest authenticated session, fully captured by the attacker: its
    challenge, and the map of the exchange it logged to the plaintext sent."""
    if victim.sim.ka is not None:
        rand = ac.build_hijacked_rand(KA, 0, victim.sim.counter + 1)
    else:
        rand = random.Random(33).randbytes(16)
    victim.attach("vlr")
    attacker.overhear_challenge(rand)
    victim.handle_challenge(rand)
    victim.apply_cipher(alg)
    ciphertext = victim.send_traffic(SECRET, 0)
    exchange = attacker.overhear_frame(0, alg, ciphertext)
    return rand, {exchange: [SECRET]}


class TestFakeNetworkAttach:
    def test_legacy_victim_fabricated_rand_succeeds(self):
        victim = build_victim(mode=SimMode.LEGACY)
        attacker = adversary()
        # the verdict is only traced
        assert attacker.fake_network_attach(victim, victim_traffic=SECRET) is None
        report = attack_report(attacker)
        assert report["kind"] == AttackKind.MITM_EAVESDROP.value
        assert report["succeeded"]
        assert report["recovered_plaintext"] == SECRET.hex()

    def test_enhanced_victim_fabricated_rand_dropped(self):
        victim = build_victim(mode=SimMode.ENHANCED)
        attacker = adversary()
        attacker.fake_network_attach(victim, victim_traffic=SECRET)
        report = attack_report(attacker)
        assert not report["succeeded"]
        assert report["failure_cause"] == "connection dropped by SIM"
        assert report["recovered_plaintext"] is None
        assert victim.attached_network is None

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
        attacker = adversary()
        attacker.fake_network_attach(
            victim,
            victim_traffic=SECRET,
            rand_source=RandSource.RELAY_FRESH,
            relay=serving,
        )
        report = attack_report(attacker)
        assert report["succeeded"]
        assert victim.sim.counter == 1  # the SIM really authenticated it

    def test_replay_source_needs_log(self):
        victim = build_victim(mode=SimMode.LEGACY)
        with pytest.raises(MalformedInputError):
            adversary().fake_network_attach(
                victim, victim_traffic=SECRET, rand_source=RandSource.REPLAYED
            )

    def test_relay_fresh_source_needs_a_relay_leg(self):
        victim = build_victim(mode=SimMode.LEGACY)
        with pytest.raises(MalformedInputError, match="^RELAY_FRESH needs a genuine network leg$"):
            adversary().fake_network_attach(
                victim, victim_traffic=SECRET, rand_source=RandSource.RELAY_FRESH
            )

    def test_skip_aka_blocked_by_strict_me(self):
        victim = build_victim(mode=SimMode.LEGACY)
        attacker = adversary()
        attacker.fake_network_attach(
            victim, victim_traffic=SECRET, rand_source=RandSource.SKIP_AKA
        )
        report = attack_report(attacker)
        assert not report["succeeded"]
        assert "authentication" in report["failure_cause"]

    def test_skip_aka_succeeds_on_permissive_me(self):
        victim = build_victim(
            mode=SimMode.LEGACY, profile=MeProfile(accepts_unauthenticated=True)
        )
        attacker = adversary()
        attacker.fake_network_attach(
            victim, victim_traffic=SECRET, rand_source=RandSource.SKIP_AKA
        )
        report = attack_report(attacker)
        assert report["succeeded"]

    def test_enhanced_non_class_e_fabricated_rand_succeeds(self):
        # without class-e toolkit support the card cannot force the drop
        victim = build_victim(
            mode=SimMode.ENHANCED, profile=MeProfile(class_e=False)
        )
        attacker = adversary()
        attacker.fake_network_attach(victim, victim_traffic=SECRET)
        report = attack_report(attacker)
        assert report["succeeded"]


class TestBbkAttack:
    def test_legacy_victim_key_recovered_and_log_decrypted(self):
        victim = build_victim(mode=SimMode.LEGACY)
        attacker = adversary()
        rand, sent = eavesdrop_honest_exchange(victim, attacker)
        true_kc = oracle.ref_a8(KI, rand)
        victim.power_cycle()

        assert attacker.bbk_attack(victim, sent) is None
        report = attack_report(attacker)
        assert report["kind"] == AttackKind.BBK_REPLAY.value
        assert report["succeeded"]
        assert report["recovered_kc"] == true_kc.hex()
        assert report["recovered_plaintext"] == SECRET.hex()

    def test_deterministic_with_one_8_octet_frame(self):
        victim = build_victim(mode=SimMode.LEGACY)
        attacker = adversary()
        _, sent = eavesdrop_honest_exchange(victim, attacker, alg=cs.CipherAlgId.A5_1)
        victim.power_cycle()
        attacker.bbk_attack(victim, sent)
        report = attack_report(attacker)
        assert report["succeeded"]

    def test_enhanced_victim_replay_prevented(self):
        victim = build_victim(mode=SimMode.ENHANCED)
        attacker = adversary()
        _, sent = eavesdrop_honest_exchange(victim, attacker)
        victim.power_cycle()
        attacker.bbk_attack(victim, sent)
        report = attack_report(attacker)
        assert not report["succeeded"]
        assert "dropped" in report["failure_cause"]
        assert report["recovered_kc"] is None

    def test_enhanced_non_class_e_yields_useless_key(self):
        victim = build_victim(
            mode=SimMode.ENHANCED, profile=MeProfile(class_e=False)
        )
        attacker = adversary()
        rand, sent = eavesdrop_honest_exchange(victim, attacker)
        true_kc = oracle.ref_a8(KI, rand)
        victim.power_cycle()
        attacker.bbk_attack(victim, sent)
        report = attack_report(attacker)
        assert not report["succeeded"]
        assert report["failure_cause"] == "decryption mismatch"
        assert report["recovered_kc"] is not None
        assert report["recovered_kc"] != true_kc.hex()

    def test_empty_log_is_precondition_error(self):
        victim = build_victim(mode=SimMode.LEGACY)
        with pytest.raises(MalformedInputError):
            adversary().bbk_attack(victim, {})

    def test_replayed_exchange_missing_from_sent_is_precondition_error(self):
        victim = build_victim(mode=SimMode.LEGACY)
        attacker = adversary()
        eavesdrop_honest_exchange(victim, attacker)
        with pytest.raises(
            MalformedInputError, match="^sent holds no plaintexts for the replayed exchange$"
        ):
            attacker.bbk_attack(victim, {})
        assert attacker.trace.events == []
        assert victim.attached_network == "vlr"

    def test_plaintext_only_log_is_precondition_error(self):
        victim = build_victim(mode=SimMode.LEGACY)
        attacker = adversary()
        attacker.overhear_challenge(bytes(16))
        exchange = attacker.overhear_frame(0, cs.CipherAlgId.NONE, b"plain")
        with pytest.raises(MalformedInputError):
            attacker.bbk_attack(victim, {exchange: [b"plain"]})


class TestInterceptLog:
    def test_append_only_ordering(self):
        attacker = adversary()
        attacker.overhear_challenge(b"r" * 16)
        first = attacker.overhear_frame(0, cs.CipherAlgId.A5_3, b"c1")
        attacker.overhear_challenge(b"q" * 16)
        second = attacker.overhear_frame(1, cs.CipherAlgId.A5_1, b"c2")
        log = attacker.log
        assert len(log) == 2
        assert log == [first, second]
        assert [f.ciphertext for f in log[0].frames] == [b"c1"]
        assert log[1].frames[0].frame_index == 1

    def test_replay_skips_weak_only_exchanges(self):
        victim = build_victim(mode=SimMode.LEGACY)
        attacker = adversary()
        attacker.overhear_challenge(b"a" * 16)
        strong = attacker.overhear_frame(0, cs.CipherAlgId.A5_3, b"x")
        attacker.overhear_challenge(b"b" * 16)
        weak = attacker.overhear_frame(0, cs.CipherAlgId.A5_2, b"y")
        attacker.bbk_attack(victim, {strong: [b"x"], weak: [b"y"]})
        replayed = [
            event["rand"]
            for _, event in attacker.trace.events
            if event["msg"] in ("ATTACK_START", "FAKE_AUTH_CHALLENGE")
        ]
        assert replayed == [(b"a" * 16).hex()] * 2

    def test_orphan_frame_goes_to_null_exchange(self):
        attacker = adversary()
        exchange = attacker.overhear_frame(0, cs.CipherAlgId.A5_3, b"x")
        assert attacker.log == [exchange]
        assert attacker.log[0].rand == b""
        # a null exchange is never replayed
        with pytest.raises(
            MalformedInputError, match="no exchange with strong-cipher traffic"
        ):
            attacker.bbk_attack(build_victim(mode=SimMode.LEGACY), {exchange: [b"x"]})
        assert attacker.trace.events == []

    def test_attacker_state_is_air_interface_only(self):
        attacker = adversary()
        assert not hasattr(attacker, "registry")
        assert {"rng", "trace", "name", "own_ue", "log"} == set(vars(attacker))
