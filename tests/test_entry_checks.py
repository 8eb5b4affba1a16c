"""Entry checks of the functions that run on private cores, and the cores
themselves against the pure-Python oracle.

Each public function below checks its arguments once, on entry, and then
hands them to cores in crypto_suite and auth_core that trust them.  These
tests pin both halves: a bad argument still raises MalformedInputError at
every entry, and the cores compute what tests/oracle.py computes.
"""

import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from akasim import auth_core as ac, crypto_suite as cs
from akasim.adversary import InterceptLog
from akasim.errors import MalformedInputError
from akasim.mobile_equipment import MeProfile, MobileEquipment
from akasim.network_side import HomeNetwork
from akasim.sim_card import SimCard, SimMode, SimState, TerminalProfile

IMSI = "001010000000042"
KA = bytes.fromhex("101112131415161718191a1b1c1d1e1f")
KI = bytes.fromhex("202122232425262728292a2b2c2d2e2f")
RAND = ac.build_hijacked_rand(KA, 0, 1)
MSG = (1).to_bytes(8, "big")  # amf 0 || sqn 1
# every field of a card state, to compare states by value
_fields = operator.attrgetter(*SimState.__slots__)


def _challenge(mode: SimMode, rand):
    """SimCard.challenge on a fresh card; a refused challenge changes no state."""
    ka = KA if mode is SimMode.ENHANCED else None
    card = SimCard(SimState(imsi=IMSI, ki=KI, ka=ka, counter=0, mode=mode), random.Random(0))
    card.init(TerminalProfile(class_e=True))
    before = _fields(card.state)
    try:
        return card.challenge(rand)
    except MalformedInputError:
        assert _fields(card.state) == before
        raise


def _handle_challenge(mode: SimMode, rand):
    """MobileEquipment.handle_challenge on an attached phone; a refused
    challenge traces nothing."""
    ka = KA if mode is SimMode.ENHANCED else None
    card = SimCard(SimState(imsi=IMSI, ki=KI, ka=ka, counter=0, mode=mode), random.Random(0))
    events = []
    ue = MobileEquipment(MeProfile(), card, tracer=lambda actor, **event: events.append(event))
    ue.power_on()
    ue.attach("vlr")
    before = list(events)
    try:
        return ue.handle_challenge(rand)
    except MalformedInputError:
        assert events == before
        raise


# entry point/argument -> (call with that argument replaced, a good value)
ENTRIES = {
    "verify_hijacked_rand/ka": (lambda v: ac.verify_hijacked_rand(v, 0, RAND, KI, random.Random(0)), KA),
    "verify_hijacked_rand/rand": (lambda v: ac.verify_hijacked_rand(KA, 0, v, KI, random.Random(0)), RAND),
    "verify_hijacked_rand/ki": (lambda v: ac.verify_hijacked_rand(KA, 0, RAND, v, random.Random(0)), KI),
    "build_hijacked_rand/ka": (lambda v: ac.build_hijacked_rand(v, 0, 1), KA),
    "build_hijacked_rands/ka": (lambda v: ac.build_hijacked_rands(v, 0, 1, 2), KA),
    "legacy_response/ki": (lambda v: ac.legacy_response(v, RAND), KI),
    "legacy_response/rand": (lambda v: ac.legacy_response(KI, v), RAND),
    "SimCard.challenge/enhanced": (lambda v: _challenge(SimMode.ENHANCED, v), RAND),
    "SimCard.challenge/legacy": (lambda v: _challenge(SimMode.LEGACY, v), RAND),
    "MobileEquipment.handle_challenge/enhanced": (
        lambda v: _handle_challenge(SimMode.ENHANCED, v),
        RAND,
    ),
    "MobileEquipment.handle_challenge/legacy": (
        lambda v: _handle_challenge(SimMode.LEGACY, v),
        RAND,
    ),
    "f1_mac/ka": (lambda v: cs.f1_mac(v, MSG), KA),
    "f1_mac/amf_sqn": (lambda v: cs.f1_mac(KA, v), MSG),
    "f5_mask/ka": (lambda v: cs.f5_mask(v, MSG), KA),
    "f5_mask/mac": (lambda v: cs.f5_mask(KA, v), MSG),
    "a3_sres/ki": (lambda v: cs.a3_sres(v, RAND), KI),
    "a3_sres/rand": (lambda v: cs.a3_sres(KI, v), RAND),
    "a8_kc/ki": (lambda v: cs.a8_kc(v, RAND), KI),
    "a8_kc/rand": (lambda v: cs.a8_kc(KI, v), RAND),
    "generate_triples/ki": (lambda v: ac.generate_triples(v, KA, 0, 0, 2), KI),
    "generate_triples/ka": (lambda v: ac.generate_triples(KI, v, 0, 0, 2), KA),
}
BAD = {
    "str": "00" * 16,
    "list": list(range(16)),
    "None": None,
    "15 octets": bytes(15),
    "17 octets": bytes(17),
}


@pytest.mark.parametrize("bad", list(BAD.values()), ids=list(BAD))
@pytest.mark.parametrize("entry", list(ENTRIES.values()), ids=list(ENTRIES))
def test_entry_rejects_bad_argument(entry, bad):
    call, _ = entry
    with pytest.raises(MalformedInputError):
        call(bad)


@pytest.mark.parametrize("entry", list(ENTRIES.values()), ids=list(ENTRIES))
def test_entry_accepts_good_argument_as_bytes_or_bytearray(entry):
    call, good = entry
    assert call(good) == call(bytearray(good))


# ENTRIES takes byte arguments only: its good value must also pass as a
# bytearray, which no CipherAlgId does
@pytest.mark.parametrize("alg", ["A5_1", None, 3], ids=repr)
def test_a5_keystream_rejects_alg_that_is_not_a_cipher_alg_id(alg):
    with pytest.raises(MalformedInputError):
        cs.a5_keystream(alg, MSG, 0, 16)


def _request_triples(n):
    home = HomeNetwork(random.Random(0))
    home.provision(IMSI, SimMode.ENHANCED, KA)
    return home.request_triples(IMSI, n)


# entry point/integer argument -> call with that argument replaced; 1 is a
# good value for each
INT_ENTRIES = {
    "check_sqn48": ac.check_sqn48,
    "check_amf16": ac.check_amf16,
    "build_hijacked_rand/amf": lambda v: ac.build_hijacked_rand(KA, v, 1),
    "build_hijacked_rand/sqn": lambda v: ac.build_hijacked_rand(KA, 0, v),
    "build_hijacked_rands/n": lambda v: ac.build_hijacked_rands(KA, 0, 1, v),
    "generate_triples/counter": lambda v: ac.generate_triples(KI, KA, v, 0, 2),
    "generate_triples/n": lambda v: ac.generate_triples(KI, KA, 0, 0, v),
    "a5_keystream/frame_index": lambda v: cs.a5_keystream(cs.CipherAlgId.A5_3, MSG, v, 16),
    "a5_keystream/length": lambda v: cs.a5_keystream(cs.CipherAlgId.A5_3, MSG, 0, v),
    "HomeNetwork.request_triples/n": _request_triples,
}


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("entry", list(INT_ENTRIES.values()), ids=list(INT_ENTRIES))
def test_integer_entry_rejects_bool(entry, flag):
    entry(1)
    with pytest.raises(MalformedInputError):
        entry(flag)


@pytest.mark.parametrize("amf", [True, False, "x", 1.0, None, -1, 1 << 16])
@pytest.mark.parametrize("mode", [SimMode.LEGACY, SimMode.ENHANCED], ids=lambda m: m.value)
def test_request_triples_checks_amf_in_every_mode(mode, amf):
    events = []
    home = HomeNetwork(random.Random(0), tracer=lambda actor, **event: events.append(event))
    home.provision(IMSI, mode, KA)
    assert len(home.request_triples(IMSI, 1, 0xFFFF)) == 1
    issued = list(events)
    with pytest.raises(MalformedInputError):
        home.request_triples(IMSI, 1, amf)
    assert events == issued and home.registry[IMSI].counter == (mode is SimMode.ENHANCED)


def _ciphering_ue(alg: cs.CipherAlgId, events: list):
    state = SimState(imsi=IMSI, ki=KI, ka=None, counter=0, mode=SimMode.LEGACY)
    ue = MobileEquipment(
        MeProfile(),
        SimCard(state, random.Random(0)),
        tracer=lambda actor, **event: events.append(event["msg"]),
    )
    ue.power_on()
    ue.attach("vlr")
    ue.handle_challenge(RAND)
    ue.apply_cipher(alg)
    return ue


# (plaintext, frame_index) that send_traffic refuses whatever the cipher
BAD_TRAFFIC = {
    "frame_index=-1": (b"ab", -1),
    "frame_index=True": (b"ab", True),
    "frame_index=2**64": (b"ab", 1 << 64),
    "frame_index=2**70": (b"ab", 1 << 70),
    "frame_index=1.0": (b"ab", 1.0),
    "frame_index=None": (b"ab", None),
    "plaintext=str": ("ab", 0),
    "plaintext=list": ([1, 2], 0),
    "plaintext=None": (None, 0),
}
TRAFFIC_CIPHERS = [cs.CipherAlgId.NONE, cs.CipherAlgId.A5_3]


@pytest.mark.parametrize("args", list(BAD_TRAFFIC.values()), ids=list(BAD_TRAFFIC))
@pytest.mark.parametrize("alg", TRAFFIC_CIPHERS, ids=lambda alg: alg.value)
def test_send_traffic_rejects_bad_argument(alg, args):
    events = []
    ue = _ciphering_ue(alg, events)
    before = len(events)
    with pytest.raises(MalformedInputError):
        ue.send_traffic(*args)
    assert len(events) == before  # nothing reached the air


@pytest.mark.parametrize("frame_index", [-1, True, 1 << 64, 1.0, None], ids=repr)
def test_bad_frame_index_reads_the_same_at_both_entries(frame_index):
    with pytest.raises(MalformedInputError) as from_keystream:
        cs.a5_keystream(cs.CipherAlgId.A5_3, MSG, frame_index, 2)
    with pytest.raises(MalformedInputError) as from_traffic:
        _ciphering_ue(cs.CipherAlgId.A5_3, []).send_traffic(b"ab", frame_index)
    assert str(from_keystream.value) == str(from_traffic.value)


@pytest.mark.parametrize("alg", TRAFFIC_CIPHERS, ids=lambda alg: alg.value)
def test_send_traffic_accepts_bytes_or_bytearray(alg):
    ue = _ciphering_ue(alg, [])
    for frame_index in (0, (1 << 64) - 1):
        sent = [ue.send_traffic(text, frame_index) for text in (b"ab", bytearray(b"ab"))]
        assert [type(ciphertext) for ciphertext in sent] == [bytes, bytes]
        assert sent[0] == sent[1]


@pytest.mark.parametrize(
    "args",
    [(-1, cs.CipherAlgId.A5_3, b"ab"), (0, "A5_3", b"ab"), (0, cs.CipherAlgId.A5_3, "ab")],
    ids=["frame_index=-1", "alg=str", "ciphertext=str"],
)
def test_intercept_log_rejects_bad_frame(args):
    log = InterceptLog()
    with pytest.raises(MalformedInputError):
        log.note_frame(*args)
    assert not log.records


keys = st.binary(min_size=16, max_size=16)
words = st.binary(min_size=8, max_size=8)


@given(key=keys, word=words, rand=keys)
@settings(max_examples=100, deadline=None)
def test_one_block_cores_match_oracle(key, word, rand):
    k = cs.Key128(key)
    assert cs._f1(k, word) == oracle.ref_f1(key, word)
    assert cs._f5(k, word) == oracle.ref_f5(key, word)
    assert cs._a3a8(k, rand) == (oracle.ref_a3(key, rand), oracle.ref_a8(key, rand))


@given(
    ka=keys,
    ki=keys,
    amf=st.integers(0, ac.AMF_MAX),
    sqn=st.integers(1, ac.SQN_MAX),
    lag=st.integers(0, 3),
    flip=st.integers(0, 127),
)
@settings(max_examples=100, deadline=None)
def test_verify_matches_oracle(ka, ki, amf, sqn, lag, flip):
    rand = oracle.ref_build_rand(ka, amf, sqn)
    honest = (oracle.ref_a3(ki, rand), oracle.ref_a8(ki, rand))

    accepted = ac.verify_hijacked_rand(ka, sqn - 1, rand, ki, random.Random(0))
    assert accepted == ac.Accepted(amf, sqn, *honest)

    stale = ac.verify_hijacked_rand(ka, min(sqn + lag, ac.SQN_MAX), rand, ki, random.Random(0))
    assert stale.reason is ac.RejectReason.SQN_NOT_FRESH
    assert (stale.placeholder_sres, stale.placeholder_kc) != honest

    forged_rand = (int.from_bytes(rand, "big") ^ 1 << flip).to_bytes(16, "big")
    forged = ac.verify_hijacked_rand(ka, 0, forged_rand, ki, random.Random(0))
    assert forged.reason is ac.RejectReason.MAC_MISMATCH
    honest_forged = (oracle.ref_a3(ki, forged_rand), oracle.ref_a8(ki, forged_rand))
    assert forged.placeholder_sres != honest_forged[0]
    assert forged.placeholder_kc != honest_forged[1]
