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
from array import array
from pathlib import Path

import pytest

import oracle
from akasim import crypto_suite as cs
from akasim.adversary import Adversary
from akasim.harness import ScenarioConfig, render_trace, run_scenario
from akasim.mobile_equipment import MeProfile, MobileEquipment
from akasim.sim_card import SimCard, SimMode, SimState

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


def ciphering_ue(alg: cs.CipherAlgId):
    """A legacy phone authenticated on RAND and ciphering under `alg`, and its Kc."""
    state = SimState(imsi=LEGACY, ki=KI, ka=None, counter=0, mode=SimMode.LEGACY)
    ue = MobileEquipment(MeProfile(), SimCard(state, random.Random(0)))
    ue.power_on()
    ue.attach("vlr")
    ue.handle_challenge(RAND)
    ue.apply_cipher(alg)
    return ue, oracle.ref_a8(KI, RAND)


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
    attacker = Adversary(rng=random.Random(0))
    attacker.log.start_exchange(RAND)
    truth = b""
    for alg in CIPHERS:
        for length in ORACLE_LENGTHS:
            for frame_index in FRAME_INDICES:
                text = plaintext(length, f"{alg.value}/{frame_index}")
                ciphertext = reference_ciphertext(alg, kc, frame_index, text)
                attacker.log.note_frame(frame_index, alg, ciphertext)
                truth += text
    victim.power_cycle()
    report = attacker.bbk_attack(victim, ground_truth=truth)
    assert report.recovered_kc == kc
    assert report.recovered_plaintext == truth
    assert report.succeeded


@pytest.mark.parametrize("alg", STRONG, ids=lambda alg: alg.value)
def test_sweep_across_counter_table_growth(monkeypatch, alg):
    """Many distinct lengths in shuffled order, from an empty counter table:
    the table grows at each new longest frame and every shorter frame slices
    it, and afterwards it holds the longest frame's block count, no more."""
    monkeypatch.setattr(cs, "_block_counters", array("I"))
    lengths = random.Random(alg.value).sample(range(1, 640), 64)
    ue, kc = ciphering_ue(alg)
    for frame_index, length in enumerate(lengths):
        text = plaintext(length)
        assert ue.send_traffic(text, frame_index) == reference_ciphertext(alg, kc, frame_index, text)
    assert len(cs._block_counters) == -(-max(lengths) // 16)


def test_counter_table_is_not_built_at_import():
    code = "import akasim, akasim.crypto_suite as cs; print(len(cs._block_counters))"
    env = {**os.environ, "PYTHONPATH": str(Path(cs.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "0\n"
