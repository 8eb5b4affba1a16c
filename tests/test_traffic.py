"""The traffic path: MobileEquipment.send_traffic and the replay attacker's
log decryption, against the pure-Python oracle and a pinned multi-frame trace.

The five goldens carry only a few short frames each; these tests cover
frames whose lengths step across the 8- and 16-octet block edges, the
largest frame index, every cipher choice, and more distinct lengths than
any keystream memo would keep.
"""

import functools
import hashlib
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import oracle
from akasim import crypto_suite as cs
from akasim.adversary import KNOWN_REDUNDANCY, Adversary
from akasim.harness import (
    ScenarioConfig,
    ScenarioResult,
    Tracer,
    render_trace,
    run_scenario,
    summarize,
)
from akasim.mobile_equipment import MeProfile, MobileEquipment
from akasim.sim_card import SimCard

ENHANCED = "001010000000001"
LEGACY = "001010000000002"
KI = bytes.fromhex("202122232425262728292a2b2c2d2e2f")
RAND = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
LAST_FRAME = (1 << 64) - 1

# frame lengths that step across the 8-octet A5/2 period and the 16-octet
# AES block, and a data frame
TRACE_LENGTHS = (0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 1500)
ORACLE_LENGTHS = (0, 1, 15, 16, 17, 33, 1500, 4113)
FRAME_INDICES = (0, LAST_FRAME)
# the strong ciphers and their keystream domain tags
STRONG_TAGS = {cs.CipherAlgId.A5_1: 0xA1, cs.CipherAlgId.A5_3: 0xA3}
STRONG = tuple(STRONG_TAGS)
CIPHERS = STRONG + (cs.CipherAlgId.A5_2,)


def plaintext(length: int, salt: str = "") -> bytes:
    return random.Random(f"traffic/{salt}/{length}").randbytes(length)


@functools.cache
def reference_keystream(alg: cs.CipherAlgId, kc: bytes, frame_index: int, length: int) -> bytes:
    if alg is cs.CipherAlgId.A5_2:
        return oracle.ref_a5_weak(kc, frame_index, length)
    return oracle.ref_a5_strong(STRONG_TAGS[alg], kc, frame_index, length)


# --- a pinned multi-frame trace ------------------------------------------------


def multi_frame_config(cipher: str) -> dict:
    """Two subscribers each send one frame per length under `cipher`; the last
    frame of each takes the largest frame index.  Under a strong cipher the
    replay attacker then recovers the legacy card's Kc and decrypts its log."""
    script = []
    for imsi in (ENHANCED, LEGACY):
        script += [
            {"op": "ATTACH", "imsi": imsi},
            {"op": "REQUEST_TRIPLES", "imsi": imsi, "n": 1},
            {"op": "CHALLENGE", "imsi": imsi},
        ]
        for index, length in enumerate(TRACE_LENGTHS):
            frame_index = LAST_FRAME if length == TRACE_LENGTHS[-1] else index
            script.append(
                {
                    "op": "SEND_TRAFFIC",
                    "imsi": imsi,
                    "plaintext": plaintext(length, imsi).hex(),
                    "frame_index": frame_index,
                }
            )
    raw = {
        "seed": 10,
        "subscribers": [
            {"imsi": ENHANCED, "mode": "ENHANCED"},
            {"imsi": LEGACY, "mode": "LEGACY"},
        ],
        "network_policy": {"consumption_policy": "IN_ORDER", "cipher": cipher, "batch_size": 1},
        "script": script,
    }
    if cipher != "A5_2":
        raw["attacker"] = {"kind": "BBK_REPLAY"}
        script += [
            {"op": "RUN_ATTACK", "victim": LEGACY},
            {
                "op": "ASSERT",
                "predicate": {
                    "kind": "field_equals",
                    "where": {"msg": "ATTACK_RESULT"},
                    "field": "succeeded",
                    "value": True,
                },
            },
        ]
    return raw


# sha256 of the rendered multi_frame_config(cipher) trace, recorded before the
# keystream got its trusted core and counter memo
MULTI_FRAME_TRACE_SHA256 = {
    "A5_1": "9d39b3ab6828120a4c6fe5964b7fbb8ead24c4f87647692ff2a9775ce8c60143",
    "A5_2": "53216fd43221d7495c0bef8ff690f79fce08780b78d4c37d1cd4816f29173024",
    "A5_3": "62cb29e0ed231563e41cef646b04ab5a75e140449e465401a65fbecc5b2623e5",
}


@pytest.mark.parametrize("cipher", sorted(MULTI_FRAME_TRACE_SHA256))
def test_multi_frame_trace_is_pinned(cipher):
    result = run_scenario(ScenarioConfig.from_dict(multi_frame_config(cipher)))
    assert not result.aborted and result.all_asserts_passed
    # the attacker's forced A5/2 frame is the only other TRAFFIC event
    traffic = [e.event["alg"] for e in result.trace if e.event["msg"] == "TRAFFIC"]
    assert traffic.count(cipher) == 2 * len(TRACE_LENGTHS)
    digest = hashlib.sha256(render_trace(result.trace).encode()).hexdigest()
    assert digest == MULTI_FRAME_TRACE_SHA256[cipher]


# --- the phone and the attacker against the oracle -----------------------------


def ciphering_ue(alg: cs.CipherAlgId, rand: bytes = RAND):
    """A legacy phone authenticated on `rand` and ciphering under `alg`, and its Kc."""
    card = SimCard(imsi=LEGACY, ki=KI, ka=None, counter=0, rng=random.Random(0))
    ue = MobileEquipment(MeProfile(), card)
    ue.power_on()
    ue.attach("vlr")
    ue.handle_challenge(rand)
    ue.apply_cipher(alg)
    return ue, oracle.ref_a8(KI, rand)


def reference_ciphertext(alg, kc, frame_index, text):
    return oracle.xor(text, reference_keystream(alg, kc, frame_index, len(text)))


@pytest.mark.parametrize("frame_index", FRAME_INDICES, ids=["first", "last"])
@pytest.mark.parametrize("length", ORACLE_LENGTHS)
@pytest.mark.parametrize("alg", CIPHERS, ids=lambda alg: alg.value)
def test_send_traffic_matches_oracle(alg, length, frame_index):
    ue, kc = ciphering_ue(alg)
    text = plaintext(length)
    assert ue.send_traffic(text, frame_index) == reference_ciphertext(alg, kc, frame_index, text)


def test_bbk_decrypt_matches_oracle():
    """The replay attacker decrypts a log of oracle-enciphered frames under
    all three ciphers, every oracle length and both extreme frame indices."""
    victim, kc = ciphering_ue(cs.CipherAlgId.A5_3)
    attacker = Adversary(rng=random.Random(0), tracer=Tracer())
    attacker.overhear_challenge(RAND)
    truth = b""
    for alg in CIPHERS:
        for length in ORACLE_LENGTHS:
            for frame_index in FRAME_INDICES:
                text = plaintext(length, f"{alg.value}/{frame_index}")
                ciphertext = reference_ciphertext(alg, kc, frame_index, text)
                exchange = attacker.overhear_frame(frame_index, alg, ciphertext)
                truth += text
    victim.power_cycle()
    attacker.bbk_attack(victim, {exchange: [truth]})
    (report,) = summarize(ScenarioResult(attacker.trace.events, None, True))["attacks"]
    assert report["recovered_kc"] == kc.hex()
    assert report["recovered_plaintext"] == truth.hex()
    assert report["succeeded"]


def test_bbk_decrypt_passes_unciphered_frames_through():
    """A logged A5/3 frame followed by a cipher-NONE frame decrypts to the
    strong frame's plaintext and then the NONE frame's octets verbatim."""
    victim, kc = ciphering_ue(cs.CipherAlgId.A5_3)
    attacker = Adversary(rng=random.Random(0), tracer=Tracer())
    attacker.overhear_challenge(RAND)
    strong, clear = plaintext(33, "strong"), plaintext(17, "clear")
    attacker.overhear_frame(5, cs.CipherAlgId.A5_3, victim.send_traffic(strong, 5))
    exchange = attacker.overhear_frame(6, cs.CipherAlgId.NONE, clear)
    victim.power_cycle()
    attacker.bbk_attack(victim, {exchange: [strong, clear]})
    (report,) = summarize(ScenarioResult(attacker.trace.events, None, True))["attacks"]
    assert report["recovered_kc"] == kc.hex()
    assert report["recovered_plaintext"] == (strong + clear).hex()
    assert report["succeeded"]


def test_ragged_frames_interleaved_across_kcs_and_ciphers():
    """Frames of many distinct lengths alternate between two sessions with
    different Kcs and between A5/1 and A5/3.  Every session reuses one
    cached context per Kc, so keystream left over from a frame's partial
    last block must never reach the next frame on that context."""
    phones = [ciphering_ue(STRONG[0], rand) for rand in (RAND, RAND[::-1])]
    assert phones[0][1] != phones[1][1]
    draw = random.Random("ragged")
    for frame_index, length in enumerate(draw.sample(range(1, 640), 96)):
        (ue, kc), alg = draw.choice(phones), draw.choice(STRONG)
        ue.apply_cipher(alg)
        text = plaintext(length)
        assert ue.send_traffic(text, frame_index) == reference_ciphertext(alg, kc, frame_index, text)


def test_session_builds_one_context():
    """Every frame of a session, under both strong ciphers, runs on the one
    context its Kc took on the first frame."""
    ue = ciphering_ue(cs.CipherAlgId.A5_3)[0]
    cs._ctr.cache_clear()
    for frame_index in range(40):
        ue.apply_cipher(STRONG[frame_index % 2])
        ue.send_traffic(plaintext(frame_index % 20), frame_index)
    assert cs._ctr.cache_info()[:2] == (39, 1)  # (hits, misses)


def test_import_builds_no_context():
    code = (
        "import akasim, akasim.cli, akasim.crypto_suite as cs; "
        "print(cs._ctr.cache_info().currsize, cs._ecb.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cs.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "0 0\n"


class _NonceBarrier:
    """A CTR context that, once re-nonced, waits until every thread has
    re-nonced its own: a context shared between the threads would then
    cipher every frame but the last under another thread's nonce."""

    def __init__(self, ctx, barrier, waits):
        self._ctx, self._barrier, self._waits = ctx, barrier, waits

    def reset_nonce(self, nonce):
        self._ctx.reset_nonce(nonce)
        self._barrier.wait()
        self._waits.append(nonce)

    def update(self, data):
        return self._ctx.update(data)


def test_threads_cipher_interleaved_frames_under_one_kc(monkeypatch):
    """Three phones with the same Kc send frames from three threads, each
    frame re-nonced before any thread ciphers."""
    sides = range(3)
    barrier = threading.Barrier(len(sides), timeout=10)
    waits = []
    phones = [ciphering_ue(cs.CipherAlgId.A5_3)[0] for _ in sides]
    new_ctx = cs._new_ctx
    # wrap the constructor _ctr calls; the phones' ECB contexts are built above
    monkeypatch.setattr(cs, "_new_ctx", lambda *args: _NonceBarrier(new_ctx(*args), barrier, waits))
    cs._ctr.cache_clear()
    kc = oracle.ref_a8(KI, RAND)
    frames = [[(3 * i + side, 1 + 9 * i + side) for i in range(12)] for side in sides]
    sent = [[] for _ in sides]

    def send(side):
        try:
            for frame_index, length in frames[side]:
                sent[side].append(phones[side].send_traffic(plaintext(length), frame_index))
        except BaseException:
            barrier.abort()
            raise

    threads = [threading.Thread(target=send, args=(side,)) for side in sides]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        cs._ctr.cache_clear()  # no barrier context outlives the test
    assert not any(thread.is_alive() for thread in threads)
    assert len(waits) == sum(map(len, frames))  # the barrier held every frame
    for side in sides:
        want = [
            reference_ciphertext(cs.CipherAlgId.A5_3, kc, frame_index, plaintext(length))
            for frame_index, length in frames[side]
        ]
        assert sent[side] == want


# --- the phone's session cipher ------------------------------------------------
#
# A phone keeps the strong-frame context it last used and checks it on every
# frame against its Kc, its cipher and the calling thread.  Each scenario
# below changes one of them between frames; every frame must still match the
# oracle under the Kc of the last challenge the card accepted.

MASTER = bytes.fromhex("404142434445464748494a4b4c4d4e4f")
SESSION_KI = oracle.ref_derive(MASTER, LEGACY)[0]
MITM_TRAFFIC = plaintext(21, "mitm")


def session_config(script: list, attacker: dict | None = None) -> dict:
    raw = {
        "seed": 34,
        "subscribers": [{"imsi": LEGACY, "mode": "LEGACY", "master": MASTER.hex()}],
        "network_policy": {"consumption_policy": "IN_ORDER", "cipher": "A5_3", "batch_size": 1},
        "script": script,
    }
    if attacker is not None:
        raw["attacker"] = attacker
    return raw


def traffic_steps(*indices: int) -> list:
    return [
        {
            "op": "SEND_TRAFFIC",
            "imsi": LEGACY,
            "plaintext": plaintext(3 + 11 * i, "session").hex(),
            "frame_index": i,
        }
        for i in indices
    ]


def step(op: str, **args) -> dict:
    return {"op": op, "imsi": LEGACY, **args}


ATTACK_SUCCEEDED = {
    "op": "ASSERT",
    "predicate": {
        "kind": "field_equals",
        "where": {"msg": "ATTACK_RESULT"},
        "field": "succeeded",
        "value": True,
    },
}


def oracle_checked_frames(raw: dict, attacker_plaintext: bytes = b"") -> list:
    """Run the config and check every TRAFFIC frame of the phone against the
    oracle under the Kc of its card's last accepted challenge; frame 0 is the
    attacker's, every other frame index is a SEND_TRAFFIC step's.  Returns
    (alg, kc, frame_index) for each frame, in trace order."""
    result = run_scenario(ScenarioConfig.from_dict(raw))
    assert not result.aborted and result.all_asserts_passed
    texts = {s["frame_index"]: bytes.fromhex(s["plaintext"]) for s in raw["script"] if "plaintext" in s}
    texts[0] = attacker_plaintext
    kc, seen = None, []
    for actor, event in result.trace:
        if actor != f"ue:{LEGACY}":
            continue
        if event["msg"] == "SIM_CHALLENGE":
            rand = bytes.fromhex(event["rand"])
        elif event["msg"] == "SIM_RESPONSE" and event["status"] == "NORMAL":
            kc = oracle.ref_a8(SESSION_KI, rand)
        elif event["msg"] == "TRAFFIC":
            alg, index = cs.CipherAlgId(event["alg"]), event["frame_index"]
            text = texts[index]
            want = text if alg is cs.CipherAlgId.NONE else reference_ciphertext(alg, kc, index, text)
            assert event["ciphertext"] == want.hex(), (alg, index)
            seen.append((alg.value, kc, index))
    return seen


def test_reauthentication_between_frames_ciphers_under_the_new_kc():
    raw = session_config(
        [step("ATTACH"), step("REQUEST_TRIPLES", n=2), step("CHALLENGE"), *traffic_steps(1, 2, 3)]
        + [step("CHALLENGE"), *traffic_steps(4, 5, 6)]
    )
    seen = oracle_checked_frames(raw)
    assert [(alg, index) for alg, _, index in seen] == [("A5_3", i) for i in range(1, 7)]
    assert seen[2][1] != seen[3][1]  # a new Kc from the second challenge


def test_power_cycled_phone_ciphers_under_its_new_kc():
    raw = session_config(
        [step("ATTACH"), step("REQUEST_TRIPLES", n=2), step("CHALLENGE"), *traffic_steps(1, 2)]
        + [step("POWER_CYCLE_UE"), step("ATTACH"), step("CHALLENGE"), *traffic_steps(3, 4)]
    )
    seen = oracle_checked_frames(raw)
    assert [(alg, index) for alg, _, index in seen] == [("A5_3", i) for i in range(1, 5)]
    assert seen[1][1] != seen[2][1]


def test_replay_attacker_switches_the_phone_to_a5_2_under_the_same_kc():
    """The replayed challenge gives the card's old Kc back, so only the
    cipher tells the phone's A5/2 frames from its A5/3 ones."""
    raw = session_config(
        [step("ATTACH"), step("REQUEST_TRIPLES", n=2), step("CHALLENGE"), *traffic_steps(1, 2, 3)]
        + [{"op": "RUN_ATTACK", "victim": LEGACY}, ATTACK_SUCCEEDED, *traffic_steps(4, 5)]
        + [step("CHALLENGE"), *traffic_steps(6, 7)],
        attacker={"kind": "BBK_REPLAY"},
    )
    seen = oracle_checked_frames(raw, KNOWN_REDUNDANCY)
    assert [(alg, index) for alg, _, index in seen] == [
        *(("A5_3", i) for i in (1, 2, 3)),
        *(("A5_2", i) for i in (0, 4, 5)),
        *(("A5_3", i) for i in (6, 7)),
    ]
    kcs = [kc for _, kc, _ in seen]
    assert kcs[0] == kcs[5] != kcs[6]


def test_mitm_switches_the_phone_to_none_under_the_same_kc():
    """The MITM replays the logged challenge, so the phone's Kc is unchanged
    while its cipher goes to NONE."""
    attacker = {"kind": "MITM_EAVESDROP", "rand_source": "REPLAYED", "victim_traffic": MITM_TRAFFIC.hex()}
    raw = session_config(
        [step("ATTACH"), step("REQUEST_TRIPLES", n=2), step("CHALLENGE"), *traffic_steps(1, 2)]
        + [{"op": "RUN_ATTACK", "victim": LEGACY}, ATTACK_SUCCEEDED, *traffic_steps(3, 4)]
        + [step("CHALLENGE"), *traffic_steps(5, 6)],
        attacker=attacker,
    )
    seen = oracle_checked_frames(raw, MITM_TRAFFIC)
    assert [(alg, index) for alg, _, index in seen] == [
        *(("A5_3", i) for i in (1, 2)),
        *(("NONE", i) for i in (0, 3, 4)),
        *(("A5_3", i) for i in (5, 6)),
    ]
    kcs = [kc for _, kc, _ in seen]
    assert kcs[0] == kcs[4] != kcs[5]


class _ThreadBound:
    """A CTR context that notes each re-nonce from a thread other than the
    one that built it."""

    def __init__(self, ctx, strays):
        self._ctx, self._strays, self._thread = ctx, strays, threading.get_ident()

    def reset_nonce(self, nonce):
        if threading.get_ident() != self._thread:
            self._strays.append(nonce)
        self._ctx.reset_nonce(nonce)

    def update(self, data):
        return self._ctx.update(data)


def test_phone_moved_to_another_thread_ciphers_on_that_threads_context(monkeypatch):
    """One phone sends from the main thread, then from one other thread, then
    from the main thread again: each frame matches the oracle and runs on a
    context built on its own thread."""
    ue, kc = ciphering_ue(cs.CipherAlgId.A5_3)
    strays = []
    new_ctx = cs._new_ctx
    monkeypatch.setattr(cs, "_new_ctx", lambda *args: _ThreadBound(new_ctx(*args), strays))
    cs._ctr.cache_clear()
    sent = []

    def send(indices):
        for frame_index in indices:
            sent.append((frame_index, ue.send_traffic(plaintext(frame_index), frame_index)))

    try:
        send((1, 2))
        thread = threading.Thread(target=send, args=((3, 4),))
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        send((5,))
    finally:
        cs._ctr.cache_clear()  # no wrapped context outlives the test
    assert strays == []
    want = cs.CipherAlgId.A5_3
    assert sent == [(i, reference_ciphertext(want, kc, i, plaintext(i))) for i in range(1, 6)]
