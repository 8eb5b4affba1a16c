"""Home and serving network actors."""

import random

import pytest

import oracle
from akasim import auth_core as ac, crypto_suite as cs
from akasim.auth_core import AuthTriple
from akasim.errors import (
    MalformedInputError,
    ProtocolOrderError,
    ProvisioningError,
    TripleExhaustionError,
    UnknownSubscriberError,
)
from akasim.network_side import (
    ConsumptionPolicy,
    HomeNetwork,
    ServingNetwork,
    Verdict,
    check_imsi,
)
from akasim.sim_card import SimMode

IMSI = "001010000000001"
MASTER = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


def home():
    return HomeNetwork(rng=random.Random(1))


def vlr(policy=ConsumptionPolicy.IN_ORDER, cipher=cs.CipherAlgId.A5_3, seed=2):
    return ServingNetwork(policy=policy, cipher_choice=cipher, rng=random.Random(seed))


class TestImsi:
    def test_valid(self):
        assert check_imsi(IMSI) == IMSI

    @pytest.mark.parametrize(
        "bad", ["", "123", "0" * 16, "abcdefghijklmno", 123, "٠" * 15, "０" * 15]
    )
    def test_invalid(self, bad):
        with pytest.raises(MalformedInputError):
            check_imsi(bad)


class TestProvision:
    def test_record_mirrors_sim(self):
        auc = home()
        record, sim_state = auc.provision(IMSI, SimMode.ENHANCED, MASTER)
        assert record.ki == sim_state.ki
        assert record.ka == sim_state.ka
        assert record.counter == sim_state.counter == 0
        ki, ka = oracle.ref_derive(MASTER, IMSI)
        assert (record.ki, record.ka) == (ki, ka)

    def test_record_and_card_share_key_objects(self):
        record, sim_state = home().provision(IMSI, SimMode.ENHANCED, MASTER)
        assert record.ki is sim_state.ki and record.ka is sim_state.ka
        assert isinstance(record.ki, cs.Key128) and isinstance(record.ka, cs.Key128)

    def test_non_ascii_imsi_rejected(self):
        with pytest.raises(MalformedInputError):
            home().provision("٠" * 15, SimMode.ENHANCED, MASTER)

    def test_legacy_has_no_ka(self):
        record, sim_state = home().provision(IMSI, SimMode.LEGACY, MASTER)
        assert record.ka is None
        assert sim_state.ka is None

    def test_duplicate_rejected(self):
        auc = home()
        auc.provision(IMSI, SimMode.ENHANCED, MASTER)
        with pytest.raises(ProvisioningError):
            auc.provision(IMSI, SimMode.LEGACY, MASTER)

    @pytest.mark.parametrize("mode", ["LEGACY", "ENHANCED", None, 1])
    def test_refused_mode_leaves_no_record(self, mode):
        events = []
        auc = HomeNetwork(rng=random.Random(1), tracer=lambda actor, **event: events.append(event))
        with pytest.raises(MalformedInputError):
            auc.provision(IMSI, mode, bytes(16))
        assert auc.registry == {} and events == []
        record, _ = auc.provision(IMSI, SimMode.LEGACY, bytes(16))
        assert auc.registry == {IMSI: record}

    def test_provision_then_triples(self):
        auc = home()
        auc.provision(IMSI, SimMode.ENHANCED, MASTER)
        assert len(auc.request_triples(IMSI, 3)) == 3


class TestRequestTriples:
    def test_enhanced_sqn_hints_advance(self):
        auc = home()
        auc.provision(IMSI, SimMode.ENHANCED, MASTER)
        first = auc.request_triples(IMSI, 2)
        assert [t.sqn_hint for t in first] == [1, 2]
        second = auc.request_triples(IMSI, 2)
        assert [t.sqn_hint for t in second] == [3, 4]
        assert auc.registry[IMSI].counter == 4

    def test_enhanced_rand_carries_valid_tag(self):
        auc = home()
        record, _ = auc.provision(IMSI, SimMode.ENHANCED, MASTER)
        for triple in auc.request_triples(IMSI, 5):
            msg = (0).to_bytes(2, "big") + triple.sqn_hint.to_bytes(6, "big")
            assert triple.rand[8:] == oracle.ref_f1(record.ka, msg)

    def test_legacy_rands_random_and_distinct(self):
        auc = home()
        auc.provision(IMSI, SimMode.LEGACY, MASTER)
        triples = auc.request_triples(IMSI, 10)
        assert len({t.rand for t in triples}) == 10
        assert all(t.sqn_hint == 0 for t in triples)

    def test_unknown_imsi(self):
        with pytest.raises(UnknownSubscriberError):
            home().request_triples(IMSI, 1)

    def test_bad_batch(self):
        auc = home()
        auc.provision(IMSI, SimMode.ENHANCED, MASTER)
        with pytest.raises(MalformedInputError):
            auc.request_triples(IMSI, 0)


def hand_built_triples(n, seed=9):
    # the VLR must work on bare triples, with no registry in sight
    rng = random.Random(seed)
    ki = rng.randbytes(16)
    out = []
    for i in range(n):
        rand = rng.randbytes(16)
        out.append(AuthTriple(rand, oracle.ref_a3(ki, rand), oracle.ref_a8(ki, rand)))
    return ki, out


class TestVlrChallenge:
    def test_in_order_ascending(self):
        auc = home()
        record, _ = auc.provision(IMSI, SimMode.ENHANCED, MASTER)
        serving = vlr()
        serving.add_triples(IMSI, auc.request_triples(IMSI, 3))
        hints = []
        for _ in range(3):
            rand = serving.challenge(IMSI)
            hints.append(oracle.ref_sqn(record.ka, rand))
        assert hints == sorted(hints) == [1, 2, 3]

    def test_reuse_reissues_identical_rand(self):
        ki, triples = hand_built_triples(2)
        serving = vlr(policy=ConsumptionPolicy.REUSE)
        serving.add_triples(IMSI, triples)
        first = serving.challenge(IMSI)
        second = serving.challenge(IMSI)
        assert first == second
        assert len(serving.store[IMSI]) == 1  # only the first pop consumed

    def test_random_order_is_seed_deterministic(self):
        ki, triples = hand_built_triples(6)
        orders = []
        for _ in range(2):
            serving = vlr(policy=ConsumptionPolicy.RANDOM_ORDER, seed=5)
            serving.add_triples(IMSI, triples)
            orders.append(tuple(serving.challenge(IMSI) for _ in range(6)))
        assert orders[0] == orders[1]
        assert set(orders[0]) == {t.rand for t in triples}

    def test_exhaustion(self):
        serving = vlr()
        with pytest.raises(TripleExhaustionError):
            serving.challenge(IMSI)

    def test_works_without_any_registry(self):
        ki, triples = hand_built_triples(1)
        serving = vlr()
        serving.add_triples(IMSI, triples)
        rand = serving.challenge(IMSI)
        sres, _ = ac.legacy_response(ki, rand)
        assert serving.verify(IMSI, sres) is Verdict.AUTHENTICATED


class TestVlrVerify:
    def test_honest_authenticated(self):
        ki, triples = hand_built_triples(1)
        serving = vlr()
        serving.add_triples(IMSI, triples)
        rand = serving.challenge(IMSI)
        sres, _ = ac.legacy_response(ki, rand)
        assert serving.verify(IMSI, sres) is Verdict.AUTHENTICATED

    def test_placeholder_rejected(self):
        ki, triples = hand_built_triples(1)
        serving = vlr()
        serving.add_triples(IMSI, triples)
        serving.challenge(IMSI)
        assert serving.verify(IMSI, random.Random(3).randbytes(8)) is Verdict.REJECTED

    def test_replayed_sres_accepted_for_matching_rand(self):
        # the classic weakness: an echoed response authenticates
        ki, triples = hand_built_triples(1)
        serving = vlr(policy=ConsumptionPolicy.REUSE)
        serving.add_triples(IMSI, triples)
        rand = serving.challenge(IMSI)
        captured = ac.legacy_response(ki, rand)[0]
        assert serving.verify(IMSI, captured) is Verdict.AUTHENTICATED
        assert serving.challenge(IMSI) == rand
        assert serving.verify(IMSI, captured) is Verdict.AUTHENTICATED

    def test_no_outstanding_challenge(self):
        serving = vlr()
        with pytest.raises(ProtocolOrderError):
            serving.verify(IMSI, bytes(8))


class TestCipherSelect:
    @pytest.mark.parametrize("alg", list(cs.CipherAlgId))
    def test_returns_configured_choice(self, alg):
        assert vlr(cipher=alg).select_cipher() is alg
