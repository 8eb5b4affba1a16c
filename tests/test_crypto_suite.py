"""Primitive-level checks against the independent AES reference."""

import random

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings, strategies as st

import oracle
from akasim import auth_core, crypto_suite as cs
from akasim.errors import InvalidAlgorithmError, MalformedInputError

Z16 = bytes(16)
Z8 = bytes(8)

# expected values computed with tests/aes_reference.py before the build
F1_ZERO = "58e2fccefa7e3061"
F1_MSG1 = "daacdaf76b0cffc0"
F5_ZERO = "c94da219118e297d"
A3_FIXED = "143b9454c8c5135d"
A8_FIXED = "3490ed696dd76c9c"
DERIVE_KI = "d3f13cbc0f7e56074411d8c9a4aec691"
DERIVE_KA = "6ae7d4cc8dd220ed588602be724296b8"
A51_KS16 = "2810a8e41854dcb106dfb3a6fd4c54fc"
A53_KS16 = "8d545f2b4f1b30e8238a8af77203cff3"

FIXED_KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIXED_RAND = bytes.fromhex("00112233445566778899aabbccddeeff")

keys = st.binary(min_size=16, max_size=16)
tags = st.binary(min_size=8, max_size=8)
rands = st.binary(min_size=16, max_size=16)


class TestF1F5:
    def test_f1_zero_vector(self):
        assert cs.f1_mac(Z16, Z8).hex() == F1_ZERO

    def test_f1_distinct_message(self):
        out = cs.f1_mac(Z16, (1).to_bytes(8, "big"))
        assert out.hex() == F1_MSG1
        assert out.hex() != F1_ZERO

    def test_f5_zero_vector(self):
        assert cs.f5_mask(Z16, Z8).hex() == F5_ZERO

    def test_deterministic(self):
        assert cs.f1_mac(Z16, Z8) == cs.f1_mac(Z16, Z8)
        assert cs.f5_mask(Z16, Z8) == cs.f5_mask(Z16, Z8)

    def test_matches_reference_on_random_inputs(self, rng):
        for _ in range(200):
            ka, msg = rng.randbytes(16), rng.randbytes(8)
            assert cs.f1_mac(ka, msg) == oracle.ref_f1(ka, msg)
            assert cs.f5_mask(ka, msg) == oracle.ref_f5(ka, msg)

    def test_domain_separation_10k_samples(self, rng):
        # same key, same input: the two functions must never collide
        for _ in range(10_000):
            k, m = rng.randbytes(16), rng.randbytes(8)
            assert cs.f5_mask(k, m) != cs.f1_mac(k, m)

    @pytest.mark.parametrize("bad", [b"", bytes(7), bytes(9), bytes(16)])
    def test_f1_rejects_bad_message_length(self, bad):
        with pytest.raises(MalformedInputError):
            cs.f1_mac(Z16, bad)

    @pytest.mark.parametrize("bad", [b"", bytes(15), bytes(17)])
    def test_f1_rejects_bad_key_length(self, bad):
        with pytest.raises(MalformedInputError):
            cs.f1_mac(bad, Z8)


class TestA3A8:
    def test_a3_fixed_vector(self):
        assert cs.a3_sres(FIXED_KEY, FIXED_RAND).hex() == A3_FIXED

    def test_a8_fixed_vector(self):
        assert cs.a8_kc(FIXED_KEY, FIXED_RAND).hex() == A8_FIXED

    def test_deterministic(self):
        assert cs.a3_sres(FIXED_KEY, FIXED_RAND) == cs.a3_sres(FIXED_KEY, FIXED_RAND)

    def test_a3_never_equals_a8_on_1000_samples(self, rng):
        for _ in range(1000):
            k, r = rng.randbytes(16), rng.randbytes(16)
            assert cs.a3_sres(k, r) != cs.a8_kc(k, r)

    def test_a8_distinct_rands_distinct_keys(self, rng):
        seen = set()
        for _ in range(1000):
            kc = cs.a8_kc(FIXED_KEY, rng.randbytes(16))
            assert kc not in seen
            seen.add(kc)

    def test_matches_reference(self, rng):
        for _ in range(200):
            k, r = rng.randbytes(16), rng.randbytes(16)
            assert cs.a3_sres(k, r) == oracle.ref_a3(k, r)
            assert cs.a8_kc(k, r) == oracle.ref_a8(k, r)

    def test_rejects_bad_rand_length(self):
        with pytest.raises(MalformedInputError):
            cs.a3_sres(FIXED_KEY, bytes(15))
        with pytest.raises(MalformedInputError):
            cs.a8_kc(FIXED_KEY, bytes(17))


class TestA5:
    KC = bytes.fromhex("0102030405060708")

    def test_weak_frame0_leaks_key(self):
        assert cs.a5_keystream(cs.CipherAlgId.A5_2, self.KC, 0, 8) == self.KC

    def test_weak_periodicity(self):
        ks = cs.a5_keystream(cs.CipherAlgId.A5_2, self.KC, 0, 64)
        assert ks[:8] == self.KC
        shifted = ks[8:] + ks[:8]
        assert all(a == b for a, b in zip(ks, shifted))

    def test_weak_matches_reference_other_frames(self, rng):
        for _ in range(50):
            kc, frame = rng.randbytes(8), rng.randrange(1 << 20)
            got = cs.a5_keystream(cs.CipherAlgId.A5_2, kc, frame, 24)
            assert got == oracle.ref_a5_weak(kc, frame, 24)

    def test_strong_fixed_vectors(self):
        a51 = cs.a5_keystream(cs.CipherAlgId.A5_1, self.KC, 0, 16)
        a53 = cs.a5_keystream(cs.CipherAlgId.A5_3, self.KC, 0, 16)
        assert a51.hex() == A51_KS16
        assert a53.hex() == A53_KS16

    def test_strong_algs_differ(self):
        a51 = cs.a5_keystream(cs.CipherAlgId.A5_1, self.KC, 0, 16)
        a53 = cs.a5_keystream(cs.CipherAlgId.A5_3, self.KC, 0, 16)
        assert a51 != a53

    def test_zero_length(self):
        assert cs.a5_keystream(cs.CipherAlgId.A5_1, self.KC, 0, 0) == b""

    @pytest.mark.parametrize("alg", [cs.CipherAlgId.A5_1, cs.CipherAlgId.A5_2, cs.CipherAlgId.A5_3])
    def test_returns_bytes(self, alg):
        assert type(cs.a5_keystream(alg, self.KC, 0, 8)) is bytes

    def test_matches_reference(self, rng):
        for alg, tag in ((cs.CipherAlgId.A5_1, 0xA1), (cs.CipherAlgId.A5_3, 0xA3)):
            for _ in range(20):
                kc, frame = rng.randbytes(8), rng.randrange(1 << 30)
                got = cs.a5_keystream(alg, kc, frame, 33)
                assert got == oracle.ref_a5_strong(tag, kc, frame, 33)

    def test_none_alg_rejected(self):
        with pytest.raises(InvalidAlgorithmError):
            cs.a5_keystream(cs.CipherAlgId.NONE, self.KC, 0, 8)

    def test_bad_frame_and_length(self):
        with pytest.raises(MalformedInputError):
            cs.a5_keystream(cs.CipherAlgId.A5_1, self.KC, -1, 8)
        with pytest.raises(MalformedInputError):
            cs.a5_keystream(cs.CipherAlgId.A5_1, self.KC, 0, -8)
        with pytest.raises(MalformedInputError):
            cs.a5_keystream(cs.CipherAlgId.A5_1, self.KC, 1 << 64, 8)

    @given(length=st.integers(min_value=0, max_value=200), frame=st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=50, deadline=None)
    def test_length_contract(self, length, frame):
        assert len(cs.a5_keystream(cs.CipherAlgId.A5_3, self.KC, frame, length)) == length

    @pytest.mark.parametrize("alg", [cs.CipherAlgId.A5_1, cs.CipherAlgId.A5_3])
    def test_strong_keystream_monobit_frequency(self, alg):
        # 10^6 bits must stay within 4 sigma of n/2
        n_bytes = 125_000
        ones = 0
        kc = bytes.fromhex("8877665544332211")
        per_frame = 1000
        for frame in range(n_bytes // per_frame):
            ks = cs.a5_keystream(alg, kc, frame, per_frame)
            ones += int.from_bytes(ks, "big").bit_count()
        n_bits = n_bytes * 8
        bound = 4 * (n_bits ** 0.5) / 2
        assert abs(ones - n_bits / 2) <= bound


class TestDerive:
    def test_fixed_vector(self):
        ki, ka = cs.derive_subscriber_keys(FIXED_KEY, "001010000000001")
        assert ki.hex() == DERIVE_KI
        assert ka.hex() == DERIVE_KA

    def test_matches_reference(self, rng):
        for _ in range(50):
            master = rng.randbytes(16)
            imsi = "".join(str(rng.randrange(10)) for _ in range(15))
            assert cs.derive_subscriber_keys(master, imsi) == oracle.ref_derive(master, imsi)

    def test_two_imsis_four_distinct_keys(self, rng):
        for _ in range(100):
            master = rng.randbytes(16)
            a = "".join(str(rng.randrange(10)) for _ in range(15))
            b = "".join(str(rng.randrange(10)) for _ in range(15))
            if a == b:
                continue
            keys = set(cs.derive_subscriber_keys(master, a))
            keys |= set(cs.derive_subscriber_keys(master, b))
            assert len(keys) == 4

    @pytest.mark.parametrize("bad", ["", "12345", "0" * 14, "0" * 16, "abcdefabcdefabc"])
    def test_rejects_bad_imsi(self, bad):
        with pytest.raises(MalformedInputError):
            cs.derive_subscriber_keys(FIXED_KEY, bad)


class TestVectorFormat:
    def test_roundtrip(self):
        line = cs.render_vector_line("f1_mac", ["00" * 16, "00" * 8], F1_ZERO)
        assert cs.parse_vector_line(line) == ("f1_mac", ["00" * 16, "00" * 8], F1_ZERO)

    def test_comments_and_blanks_skipped(self):
        assert cs.parse_vector_line("# header") is None
        assert cs.parse_vector_line("   ") is None

    def test_bad_lines_rejected(self):
        with pytest.raises(MalformedInputError):
            cs.parse_vector_line("f1_mac 00 11")
        with pytest.raises(MalformedInputError):
            cs.parse_vector_line("f1_mac ZZ -> 00")


@given(data=st.binary(min_size=0, max_size=64))
@settings(max_examples=50, deadline=None)
def test_xor_involution(data):
    mask = bytes((i * 37 + 11) % 256 for i in range(len(data)))
    assert cs.xor_bytes(cs.xor_bytes(data, mask), mask) == data


def test_xor_length_mismatch():
    with pytest.raises(MalformedInputError):
        cs.xor_bytes(b"ab", b"abc")


@pytest.mark.parametrize(
    "a, b",
    [([1, 2], [3, 4]), (memoryview(b"ab"), b"cd"), (b"ab", memoryview(b"cd")), ("ab", "cd")],
    ids=["list", "memoryview-a", "memoryview-b", "str"],
)
def test_xor_refuses_what_is_not_bytes(a, b):
    with pytest.raises(MalformedInputError):
        cs.xor_bytes(a, b)


def test_xor_accepts_bytearray():
    assert cs.xor_bytes(bytearray(b"ab"), b"cd") == b"\x02\x06"
    assert cs.xor_bytes(b"ab", bytearray(b"cd")) == b"\x02\x06"


def test_xor_keeps_leading_zero_octets():
    a = bytes.fromhex("0000ff00a5")
    b = bytes.fromhex("00000f005a")
    assert cs.xor_bytes(a, b) == oracle.xor(a, b) == bytes.fromhex("0000f000ff")
    assert cs.xor_bytes(a, a) == bytes(5)
    assert cs.xor_bytes(b"", b"") == b""


@pytest.mark.parametrize("length", [0, 1, 7, 8, 33, 1500, 32 * 1024])
def test_private_xor_matches_oracle(length):
    rng = random.Random(f"xor/{length}")
    a, b = rng.randbytes(length), rng.randbytes(length)
    cases = [(a, b), (bytes(length), b), (a, bytes(length))]
    if length >= 2:
        # zero octets at both ends of either input, and of the result
        cases.append((b"\0" + a[1:-1] + b"\0", b"\0" + b[1:-1] + b"\0"))
        cases.append((a, a[:1] + b[1:-1] + a[-1:]))
    for x, y in cases:
        assert cs._xor(x, y) == oracle.xor(x, y)


class TestBatchedPrimitives:
    """The one-call-per-buffer paths, checked directly against the oracle."""

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_f1_f5_batches_match_reference(self, rng, n):
        # the batched f1 and f5 calls are the challenge builder's: challenge i
        # is message i masked with f5 of its tag, then the f1 tag itself
        ka = rng.randbytes(16)
        amf, first = rng.randrange(1 << 16), rng.randrange(1 << 47)
        rands = auth_core._build_rands(cs.Key128(ka), amf, first, n)
        for i in range(n):
            msg = amf.to_bytes(2, "big") + (first + i).to_bytes(6, "big")
            mac = oracle.ref_f1(ka, msg)
            assert rands[16 * i : 16 * i + 16] == oracle.xor(msg, oracle.ref_f5(ka, mac)) + mac

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_a3a8_batch_matches_reference(self, rng, n):
        ki = rng.randbytes(16)
        rands = [rng.randbytes(16) for _ in range(n)]
        sres, kc = cs._a3a8_batch(cs.Key128(ki), b"".join(rands))
        assert sres == b"".join(oracle.ref_a3(ki, r) for r in rands)
        assert kc == b"".join(oracle.ref_a8(ki, r) for r in rands)

    @pytest.mark.parametrize("alg,tag", [(cs.CipherAlgId.A5_1, 0xA1), (cs.CipherAlgId.A5_3, 0xA3)])
    @pytest.mark.parametrize("frame", [0, 1 << 32, (1 << 64) - 1])
    def test_keystream_lengths_and_frames(self, rng, alg, tag, frame):
        kc = rng.randbytes(8)
        # the lengths share one cached context: a stray partial block would
        # corrupt every later frame
        for length in (0, 1, 15, 16, 17, 33, 1500, 3000):
            got = cs.a5_keystream(alg, kc, frame, length)
            assert got == oracle.ref_a5_strong(tag, kc, frame, length), length

    def test_keystream_of_257_blocks(self, rng):
        kc = rng.randbytes(8)
        got = cs.a5_keystream(cs.CipherAlgId.A5_3, kc, 9, 4113)
        assert got == oracle.ref_a5_strong(0xA3, kc, 9, 4113)


class TestKey128:
    def test_is_the_key_bytes(self):
        key = cs.Key128(FIXED_KEY)
        assert key == FIXED_KEY and hash(key) == hash(FIXED_KEY)
        assert cs.Key128(key) is key
        assert cs.Key128(bytearray(FIXED_KEY)) == FIXED_KEY

    @pytest.mark.parametrize(
        "bad",
        [b"", bytes(15), bytes(17), "00" * 16, None],
        ids=["empty", "short", "long", "str", "none"],
    )
    def test_rejects_non_keys(self, bad):
        with pytest.raises(MalformedInputError):
            cs.Key128(bad)

    def test_derived_keys_are_key128(self):
        ki, ka = cs.derive_subscriber_keys(FIXED_KEY, "001010000000001")
        assert type(ki) is type(ka) is cs.Key128

    def test_copies_drop_the_context(self):
        import copy
        import pickle

        key = cs.Key128(FIXED_KEY)
        assert cs.a3_sres(key, FIXED_RAND).hex() == A3_FIXED
        for clone in (copy.deepcopy(key), pickle.loads(pickle.dumps(key))):
            assert type(clone) is cs.Key128 and clone == key
            assert cs.a3_sres(clone, FIXED_RAND).hex() == A3_FIXED

    def test_live_keys_outlast_the_context_cache(self, rng):
        # more live keys than the cache holds: each builds its context once
        keys = [cs.Key128(rng.randbytes(16)) for _ in range(640)]
        msg = rng.randbytes(8)
        for key in keys:
            cs.f1_mac(key, msg)
        misses = cs._ecb.cache_info().misses
        for key in keys:
            assert cs.f1_mac(key, msg) == oracle.ref_f1(key, msg)
        assert cs._ecb.cache_info().misses == misses
        assert cs._ecb.cache_info().currsize <= 512


class TestContextConstruction:
    """_ecb and _ctr build contexts through the binding behind
    Cipher.encryptor(); the contexts must cipher exactly as the public
    route's do."""

    def test_ecb_contexts_match_public_cipher(self, rng):
        for _ in range(64):
            key, blocks = rng.randbytes(16), rng.randbytes(16 * rng.randrange(1, 9))
            want = Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(blocks)
            assert cs._ecb(key).update(blocks) == want

    def test_renonced_ctr_context_matches_public_cipher(self, rng):
        key = rng.randbytes(16)
        ctx = cs._ctr(key, -1)
        # ragged lengths on one context: each reset_nonce drops what is left
        # of the previous keystream block
        for length in (0, 1, 15, 16, 17, 33, 100, 1500, 7):
            nonce, data = rng.randbytes(16), rng.randbytes(length)
            ctx.reset_nonce(nonce)
            want = Cipher(algorithms.AES(key), modes.CTR(nonce)).encryptor().update(data)
            assert ctx.update(data) == want, length

    def test_one_block_matches_oracle(self, rng):
        key, block = rng.randbytes(16), rng.randbytes(16)
        want = oracle.aes128_encrypt_block(key, block)
        assert cs._ecb(key).update(block) == want
        ctx = cs._ctr(key, -1)
        ctx.reset_nonce(block)
        assert ctx.update(bytes(16)) == want

    @pytest.mark.parametrize(
        "build", [cs._ecb.__wrapped__, lambda key: cs._ctr.__wrapped__(key, 0)], ids=["ecb", "ctr"]
    )
    def test_key_size_is_checked_on_every_build(self, build):
        for size in (0, 15, 17):
            with pytest.raises(ValueError):
                build(bytes(size))

    def test_builds_make_no_cipher_object(self, monkeypatch, rng):
        def refuse(*args):
            raise AssertionError("Cipher built on the per-key path")

        monkeypatch.setattr(cs, "Cipher", refuse)
        key = rng.randbytes(16)
        assert cs._ecb.__wrapped__(key).update(Z16) == oracle.aes128_encrypt_block(key, Z16)
        assert cs._ctr.__wrapped__(key, 0).update(b"") == b""


def test_derive_rejects_non_ascii_digits():
    with pytest.raises(MalformedInputError):
        cs.derive_subscriber_keys(FIXED_KEY, "٠" * 15)
