"""Challenge construction / verification logic."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from akasim import auth_core as ac, crypto_suite as cs
from akasim.errors import CounterOverflowError, MalformedInputError

# composed by hand from the reference cipher: ka=0, amf=0, sqn=1
BUILD_ZERO_0_1 = "7098f73fd93a6282daacdaf76b0cffc0"

KA = bytes.fromhex("101112131415161718191a1b1c1d1e1f")
KI = bytes.fromhex("202122232425262728292a2b2c2d2e2f")

keys = st.binary(min_size=16, max_size=16)
amfs = st.integers(min_value=0, max_value=ac.AMF_MAX)
sqns = st.integers(min_value=1, max_value=ac.SQN_MAX)


def fresh_rng():
    return random.Random(0xD1CE)


class TestBuild:
    def test_fixed_vector(self):
        assert ac.build_hijacked_rand(bytes(16), 0, 1).hex() == BUILD_ZERO_0_1

    def test_matches_reference_composition(self, rng):
        for _ in range(100):
            ka = rng.randbytes(16)
            amf = rng.randrange(1 << 16)
            sqn = rng.randrange(1 << 48)
            assert ac.build_hijacked_rand(ka, amf, sqn) == oracle.ref_build_rand(ka, amf, sqn)

    @given(ka=keys, amf=amfs, sqn=sqns)
    @settings(max_examples=100, deadline=None)
    def test_structure(self, ka, amf, sqn):
        rand = ac.build_hijacked_rand(ka, amf, sqn)
        # tag half is exactly the f1 output, masked half unmasks with f5
        msg = amf.to_bytes(2, "big") + sqn.to_bytes(6, "big")
        mac = cs.f1_mac(ka, msg)
        assert rand[8:] == mac
        assert cs.xor_bytes(rand[:8], cs.f5_mask(ka, mac)) == msg

    def test_range_checks(self):
        with pytest.raises(MalformedInputError):
            ac.build_hijacked_rand(KA, -1, 1)
        with pytest.raises(MalformedInputError):
            ac.build_hijacked_rand(KA, 1 << 16, 1)
        with pytest.raises(MalformedInputError):
            ac.build_hijacked_rand(KA, 0, 1 << 48)


class TestLayout:
    def test_decompose_recovers_construction(self, rng):
        # each batched challenge is masked AMF || SQN followed by its own tag
        for _ in range(10):
            ka = rng.randbytes(16)
            amf, first = rng.randrange(1 << 16), rng.randrange(1 << 47)
            rands = ac.build_hijacked_rands(ka, amf, first, 5)
            for i in range(5):
                rand = rands[16 * i : 16 * i + 16]
                msg = oracle.xor(rand[:8], oracle.ref_f5(ka, rand[8:]))
                assert msg == amf.to_bytes(2, "big") + (first + i).to_bytes(6, "big")
                assert rand[8:] == oracle.ref_f1(ka, msg)
                assert oracle.ref_sqn(ka, rand) == first + i


class TestVerify:
    @given(ka=keys, ki=keys, amf=amfs, sqn=sqns, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_accepts_and_recovers(self, ka, ki, amf, sqn, data):
        counter = data.draw(st.integers(min_value=0, max_value=sqn - 1))
        rand = ac.build_hijacked_rand(ka, amf, sqn)
        outcome = ac.verify_hijacked_rand(ka, counter, rand, ki, fresh_rng())
        assert isinstance(outcome, ac.Accepted)
        assert (outcome.amf, outcome.sqn) == (amf, sqn)
        assert (outcome.sres, outcome.kc) == ac.legacy_response(ki, rand)

    @given(ka=keys, amf=amfs, sqn=sqns, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_stale_sqn_rejected(self, ka, amf, sqn, data):
        counter = data.draw(st.integers(min_value=sqn, max_value=ac.SQN_MAX))
        rand = ac.build_hijacked_rand(ka, amf, sqn)
        outcome = ac.verify_hijacked_rand(ka, counter, rand, KI, fresh_rng())
        assert isinstance(outcome, ac.Rejected)
        assert outcome.reason is ac.RejectReason.SQN_NOT_FRESH

    def test_every_bit_flip_rejected(self, rng):
        # full 100x128 sweep lives in the acceptance suite
        for _ in range(5):
            ka = rng.randbytes(16)
            sqn = rng.randrange(1, 1 << 48)
            rand = ac.build_hijacked_rand(ka, rng.randrange(1 << 16), sqn)
            for bit in range(128):
                flipped = bytearray(rand)
                flipped[bit // 8] ^= 0x80 >> (bit % 8)
                outcome = ac.verify_hijacked_rand(ka, 0, bytes(flipped), KI, fresh_rng())
                assert isinstance(outcome, ac.Rejected)
                assert outcome.reason is ac.RejectReason.MAC_MISMATCH

    def test_replay_after_accept(self):
        rand = ac.build_hijacked_rand(KA, 0, 7)
        first = ac.verify_hijacked_rand(KA, 3, rand, KI, fresh_rng())
        assert isinstance(first, ac.Accepted)
        replay = ac.verify_hijacked_rand(KA, first.sqn, rand, KI, fresh_rng())
        assert isinstance(replay, ac.Rejected)
        assert replay.reason is ac.RejectReason.SQN_NOT_FRESH

    def test_wrong_key_is_mac_mismatch(self):
        rand = ac.build_hijacked_rand(KA, 0, 9)
        other = bytes(16)
        outcome = ac.verify_hijacked_rand(other, 0, rand, KI, fresh_rng())
        assert isinstance(outcome, ac.Rejected)
        assert outcome.reason is ac.RejectReason.MAC_MISMATCH

    def test_placeholders_never_match_honest_values(self):
        # rejection placeholders must not leak the real response pair
        rng = fresh_rng()
        checked = 0
        for i in range(10_000):
            ka = rng.randbytes(16)
            ki = rng.randbytes(16)
            rand = rng.randbytes(16)  # overwhelmingly MAC-invalid
            outcome = ac.verify_hijacked_rand(ka, 0, rand, ki, rng)
            if isinstance(outcome, ac.Accepted):  # pragma: no cover
                continue
            sres, kc = ac.legacy_response(ki, rand)
            assert outcome.placeholder_sres != sres
            assert outcome.placeholder_kc != kc
            checked += 1
        assert checked == 10_000

    def test_placeholder_stream_is_deterministic_per_rng(self):
        rand = ac.build_hijacked_rand(KA, 0, 1)
        a = ac.verify_hijacked_rand(KA, 5, rand, KI, random.Random(99))
        b = ac.verify_hijacked_rand(KA, 5, rand, KI, random.Random(99))
        assert (a.placeholder_sres, a.placeholder_kc) == (b.placeholder_sres, b.placeholder_kc)


class TestLegacyResponse:
    def test_matches_reference(self, rng):
        for _ in range(100):
            ki, rand = rng.randbytes(16), rng.randbytes(16)
            assert ac.legacy_response(ki, rand) == (
                oracle.ref_a3(ki, rand),
                oracle.ref_a8(ki, rand),
            )

    def test_equals_accepted_values(self):
        rand = ac.build_hijacked_rand(KA, 4, 11)
        outcome = ac.verify_hijacked_rand(KA, 2, rand, KI, fresh_rng())
        assert isinstance(outcome, ac.Accepted)
        assert (outcome.sres, outcome.kc) == ac.legacy_response(KI, rand)


class TestGenerateTriples:
    def test_sqn_hints_and_counter(self):
        triples, new_counter = ac.generate_triples(KI, KA, 10, 0, 3)
        assert [t.sqn_hint for t in triples] == [11, 12, 13]
        assert new_counter == 13

    def test_xres_kc_per_legacy_rule(self, rng):
        triples, _ = ac.generate_triples(KI, KA, 0, 0, 4)
        for t in triples:
            assert (t.xres, t.kc) == (oracle.ref_a3(KI, t.rand), oracle.ref_a8(KI, t.rand))

    def test_batch_verifies_in_order(self):
        triples, _ = ac.generate_triples(KI, KA, 100, 0, 5)
        counter = 100
        for t in triples:
            outcome = ac.verify_hijacked_rand(KA, counter, t.rand, KI, fresh_rng())
            assert isinstance(outcome, ac.Accepted)
            counter = outcome.sqn

    def test_out_of_order_consumption_rejected(self):
        triples, _ = ac.generate_triples(KI, KA, 0, 0, 2)
        second_first = ac.verify_hijacked_rand(KA, 0, triples[1].rand, KI, fresh_rng())
        assert isinstance(second_first, ac.Accepted)
        then_first = ac.verify_hijacked_rand(
            KA, second_first.sqn, triples[0].rand, KI, fresh_rng()
        )
        assert isinstance(then_first, ac.Rejected)
        assert then_first.reason is ac.RejectReason.SQN_NOT_FRESH

    def test_counter_overflow_refused(self):
        with pytest.raises(CounterOverflowError):
            ac.generate_triples(KI, KA, ac.SQN_MAX - 1, 0, 2)
        triples, new_counter = ac.generate_triples(KI, KA, ac.SQN_MAX - 1, 0, 1)
        assert new_counter == ac.SQN_MAX

    def test_bad_batch_size(self):
        with pytest.raises(MalformedInputError):
            ac.generate_triples(KI, KA, 0, 0, 0)


class TestLegacyTriple:
    def test_fixed_rand(self, rng):
        rand = rng.randbytes(16)
        # request_triples answers a legacy batch through this core
        (triple,) = ac._triples(cs.Key128(KI), rand, [0])
        assert triple.sqn_hint == 0
        assert (triple.xres, triple.kc) == (oracle.ref_a3(KI, rand), oracle.ref_a8(KI, rand))

    def test_enhanced_and_legacy_agree_on_accepted_rand(self):
        rand = ac.build_hijacked_rand(KA, 0, 21)
        outcome = ac.verify_hijacked_rand(KA, 20, rand, KI, fresh_rng())
        assert isinstance(outcome, ac.Accepted)
        assert ac.legacy_response(KI, rand) == (outcome.sres, outcome.kc)


class TestBatchedBuild:
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_generate_triples_matches_reference(self, rng, n):
        ki, ka = rng.randbytes(16), rng.randbytes(16)
        amf, counter = rng.randrange(1 << 16), rng.randrange(1 << 40)
        triples, new_counter = ac.generate_triples(ki, ka, counter, amf, n)
        assert new_counter == counter + n
        for i, t in enumerate(triples, start=1):
            assert t.sqn_hint == counter + i
            assert t.rand == oracle.ref_build_rand(ka, amf, counter + i)
            assert (t.xres, t.kc) == (oracle.ref_a3(ki, t.rand), oracle.ref_a8(ki, t.rand))

    def test_rands_are_concatenated_single_builds(self, rng):
        ka = rng.randbytes(16)
        rands = ac.build_hijacked_rands(ka, 7, ac.SQN_MAX - 4, 5)
        assert rands == b"".join(
            oracle.ref_build_rand(ka, 7, sqn) for sqn in range(ac.SQN_MAX - 4, ac.SQN_MAX + 1)
        )

    @pytest.mark.parametrize("first,n", [(1, 0), (ac.SQN_MAX, 2), (-1, 1)])
    def test_rands_range_checks(self, first, n):
        with pytest.raises(MalformedInputError):
            ac.build_hijacked_rands(KA, 0, first, n)

    @pytest.mark.parametrize("bad", [bytes(15), bytes(32), "00" * 16])
    def test_legacy_response_rejects_bad_rand(self, bad):
        with pytest.raises(MalformedInputError):
            ac.legacy_response(KI, bad)


def _one_block_rand(ka, amf, sqn):
    # the challenge from the one-block public primitives, which the oracle pins
    msg = amf.to_bytes(2, "big") + sqn.to_bytes(6, "big")
    mac = cs.f1_mac(ka, msg)
    return cs.xor_bytes(msg, cs.f5_mask(ka, mac)) + mac


class TestBuilderEdges:
    """Batches at the edges of the builder's 4,096-lane table and pieces."""

    # grows the table to its cap, past it, then builds smaller batches from it
    SIZES = [1, 4095, 4096, 4097, 10_000, 4097, 4096, 4095, 1]
    LARGEST = max(SIZES)

    @staticmethod
    def _edges(n):
        # first and last challenge of every 4,096-challenge piece
        return sorted({0, n - 1} | {i for k in range(4096, n, 4096) for i in (k - 1, k)})

    @pytest.mark.parametrize("amf, at_top", [(0x0102, False), (ac.AMF_MAX, True)])
    def test_sizes_match_reference(self, monkeypatch, amf, at_top):
        monkeypatch.setattr(ac, "_lane_table", (0, 0, 0))
        # at_top: every batch ends at SQN_MAX, else every batch starts at 1
        base = ac.SQN_MAX - self.LARGEST + 1 if at_top else 1
        expected = b"".join(_one_block_rand(KA, amf, base + i) for i in range(self.LARGEST))
        for step, n in enumerate(self.SIZES):
            first = ac.SQN_MAX - n + 1 if at_top else 1
            want = expected[16 * (first - base) : 16 * (first - base + n)]
            rands = ac.build_hijacked_rands(KA, amf, first, n)
            triples, counter = ac.generate_triples(KI, KA, first - 1, amf, n)
            assert rands == want, n
            assert b"".join(t.rand for t in triples) == want, n
            assert counter == first + n - 1
            assert ac._lane_table[0] == min(4096, max(self.SIZES[: step + 1]))
            for i in self._edges(n):
                rand = rands[16 * i : 16 * i + 16]
                assert rand == oracle.ref_build_rand(KA, amf, first + i), (n, i)
                t = triples[i]
                assert (t.sqn_hint, t.xres, t.kc) == (
                    first + i, oracle.ref_a3(KI, rand), oracle.ref_a8(KI, rand)
                ), (n, i)

    def test_lane_table_never_exceeds_4096_lanes(self, monkeypatch):
        monkeypatch.setattr(ac, "_lane_table", (0, 0, 0))
        cold = ac.build_hijacked_rands(KA, 0, 1, 10_000)
        for n in (10_000, 4097, 3 * 4096 + 5, 4096, 2):
            ac.build_hijacked_rands(KA, 0, 1, n)
            lanes, ones, ramp = ac._lane_table
            assert lanes == 4096
            # 64 KB: two ints of 4,096 64-bit lanes each
            assert -(-ones.bit_length() // 8) + -(-ramp.bit_length() // 8) <= 64 * 1024
        assert ac.build_hijacked_rands(KA, 0, 1, 10_000) == cold
