"""Construction and verification of sequence-number-bearing challenges.

The home network replaces the random 128-bit challenge with

    RAND = ((AMF || SQN) xor AK) || MAC
    MAC  = f1_ka(AMF || SQN)          AK = f5_ka(MAC)

where AMF is a 16-bit management field and SQN a 48-bit monotone sequence
number.  A SIM holding Ka can strip the mask, recompute the tag and check
freshness against its stored counter, authenticating the network without
the serving infrastructure noticing anything: the challenge still looks
random and SRES/Kc are still computed over the full 16 octets.

All operations here are pure; counter state lives with the callers.
"""

from __future__ import annotations

import enum
import random
from array import array
from typing import NamedTuple

from . import crypto_suite as cs
from .crypto_suite import _tuple_new
from .errors import CounterOverflowError, MalformedInputError

__all__ = [
    "SQN_MAX",
    "AMF_MAX",
    "check_sqn48",
    "check_amf16",
    "AuthTriple",
    "RejectReason",
    "Accepted",
    "Rejected",
    "VerifyOutcome",
    "build_hijacked_rand",
    "build_hijacked_rands",
    "verify_hijacked_rand",
    "legacy_response",
    "generate_triples",
]

SQN_MAX = (1 << 48) - 1
AMF_MAX = (1 << 16) - 1


def check_sqn48(value: int) -> int:
    if not cs._is_int(value) or not 0 <= value <= SQN_MAX:
        raise MalformedInputError(f"sqn must be an integer in [0, 2^48), got {value!r}")
    return value


def check_amf16(value: int) -> None:
    if not cs._is_int(value) or not 0 <= value <= AMF_MAX:
        raise MalformedInputError(f"amf must be an integer in [0, 2^16), got {value!r}")


class AuthTriple(NamedTuple):
    """(RAND, XRES, Kc) as delivered from home to serving network; an
    enhanced triple's sequence number travels only inside its RAND."""

    rand: bytes
    xres: bytes
    kc: bytes


class RejectReason(enum.Enum):
    MAC_MISMATCH = "MAC_MISMATCH"
    SQN_NOT_FRESH = "SQN_NOT_FRESH"


# Function bodies use these names, not `RejectReason.MAC_MISMATCH`: on CPython 3.11
# `EnumType` defines `__getattr__`, which slows every class attribute read.
_MAC_MISMATCH, _SQN_NOT_FRESH = RejectReason


class Accepted(NamedTuple):
    amf: int
    sqn: int
    sres: bytes
    kc: bytes


class Rejected(NamedTuple):
    reason: RejectReason
    placeholder_sres: bytes
    placeholder_kc: bytes


VerifyOutcome = Accepted | Rejected


def build_hijacked_rands(ka: bytes, amf: int, first_sqn: int, n: int) -> bytes:
    """The n challenges for sqn = first_sqn, ..., first_sqn + n - 1, concatenated.

    One f1 call tags the AMF || SQN messages and one f5 call masks them, for
    up to 4,096 challenges at a time.
    """
    check_amf16(amf)
    check_sqn48(first_sqn)
    if not cs._is_int(n) or n < 1:
        raise MalformedInputError(f"challenge count must be >= 1, got {n!r}")
    check_sqn48(first_sqn + n - 1)
    return _build_rands(cs.Key128(ka, "ka"), amf, first_sqn, n)


# the f5 pad word
_F5_PAD = array("Q", cs._PAD_F5)
# the most challenges one build puts in each of its buffers
_MAX_LANES = 4096
# (high octets, low octets) of the 16-bit values 0 .. 2^16 - 1, 64 KB each:
# the source of f1 block octets 6-7; built on first use
_low16_table = None
# (lanes, ONES, RAMP): big-endian ints whose 64-bit lane i holds 1 and i, for
# the largest build so far; replaced, never grown in place, so a reader always
# sees a complete table and a lost race between threads costs only a rebuild
_lane_table = (0, 0, 0)


def _lanes(n: int) -> tuple[int, int]:
    """ONES and RAMP of exactly n <= _MAX_LANES lanes."""
    global _lane_table
    lanes, ones, ramp = _lane_table
    if n > lanes:
        ones = int.from_bytes(b"\0\0\0\0\0\0\0\1" * n, "big")
        ramp = int.from_bytes(b"".join(i.to_bytes(8, "big") for i in range(n)), "big")
        _lane_table = n, ones, ramp
    elif n < lanes:
        # dropping the low lanes leaves lanes 0 .. n-1 in place
        shift = 64 * (lanes - n)
        return ones >> shift, ramp >> shift
    return ones, ramp


def _build_rands(ka: cs.Key128, amf: int, first_sqn: int, n: int) -> bytes:
    """The n challenges from first_sqn on, for arguments already proven.

    Challenge i is masked message i || tag i, one 8-octet word each, written
    from the halves of builds of at most _MAX_LANES challenges.
    """
    if n > _MAX_LANES:
        last = first_sqn + n
        return b"".join(
            _build_rands(ka, amf, sqn, min(_MAX_LANES, last - sqn))
            for sqn in range(first_sqn, last, _MAX_LANES)
        )
    masked, macs = _build_halves(ka, amf, first_sqn, n)
    rands = macs * 2  # 2n words, each overwritten below
    rands[0::2] = array("Q", masked.to_bytes(8 * n, "big"))
    rands[1::2] = macs
    return rands.tobytes()


def _build_halves(ka: cs.Key128, amf: int, first_sqn: int, n: int) -> tuple[int, array]:
    """(masked AMF || SQN messages, tags) of n <= _MAX_LANES proven challenges.

    Lane i of the big-endian message int is challenge i's; the mask xor reads
    it.  One AES call tags every message, written as f1 input blocks by
    _f1_blocks; a second, on the tag array with its pad words overwritten,
    computes every mask (f5).
    """
    ones, ramp = _lanes(n)
    # lanes never carry: the entries prove first_sqn + n - 1 <= SQN_MAX
    msgs = ((amf << 48) | first_sqn) * ones + ramp
    # one buffer name, so each call's input array is freed as its output lands
    words = array("Q", ka._encrypt(_f1_blocks(amf, first_sqn, n)))
    macs = words[0::2]
    words[1::2] = _F5_PAD * n
    words = array("Q", ka._encrypt(memoryview(words).cast("B")))
    return msgs ^ int.from_bytes(words[0::2], "big"), macs


def _f1_blocks(amf: int, first_sqn: int, n: int) -> bytearray:
    """The f1 input blocks AMF || SQN || pad of n proven challenges.

    Octets 0-5 of a block change only where SQN crosses a multiple of 2^16,
    so each segment up to such a crossing is one block repeated, with its
    octets 6-7, the low 16 SQN bits, written from the low-16 table.
    """
    global _low16_table
    if _low16_table is None:
        _low16_table = b"".join(bytes([i]) * 256 for i in range(256)), bytes(range(256)) * 256
    high, low = _low16_table
    blocks, sqn, last = b"", first_sqn, first_sqn + n
    while sqn < last:
        end = min(last, (sqn | 0xFFFF) + 1)
        start = sqn & 0xFFFF
        stop = start + end - sqn
        segment = bytearray((amf << 48 | sqn).to_bytes(8, "big") + cs._PAD_F1) * (end - sqn)
        segment[6::16] = high[start:stop]
        segment[7::16] = low[start:stop]
        # the first segment is the buffer; a batch of at most _MAX_LANES < 2^16
        # challenges has at most one more, appended
        blocks = blocks + segment if blocks else segment
        sqn = end
    return blocks


def build_hijacked_rand(ka: bytes, amf: int, sqn: int) -> bytes:
    """Encode (amf, sqn) into a challenge indistinguishable from random."""
    return build_hijacked_rands(ka, amf, sqn, 1)


def _placeholder(rng: random.Random, forbidden: bytes) -> bytes:
    # failure-path stand-in value; must never equal the honest output
    value = rng.randbytes(cs.TAG_LEN)
    while value == forbidden:
        value = rng.randbytes(cs.TAG_LEN)
    return value


def verify_hijacked_rand(
    ka: bytes,
    counter: int,
    rand: bytes,
    ki: bytes,
    rng: random.Random,
) -> VerifyOutcome:
    """Authenticate a challenge against the SIM's current counter.

    Pure with respect to the counter: the caller commits the update on
    Accepted.  The tag is checked before freshness, so a forged challenge
    reports MAC_MISMATCH even if its recovered sequence number happens to
    be stale.  Rejection is a value, not an error; placeholder response
    values are drawn from the injected generator and are guaranteed to
    differ from the honest (sres, kc) for this challenge.
    """
    check_sqn48(counter)
    ka = cs.Key128(ka, "ka")
    ki = cs.Key128(ki, "ki")
    rand = cs._check_len("rand", rand, cs.RAND_LEN)
    # one AES call each: unmask, re-tag, answer
    mac = rand[8:]
    amf_sqn = int.from_bytes(rand[:8], "big") ^ int.from_bytes(cs._f5(ka, mac), "big")
    sres, kc = cs._a3a8(ki, rand)
    if cs._f1(ka, amf_sqn.to_bytes(8, "big")) != mac:
        reason = _MAC_MISMATCH
    elif amf_sqn & SQN_MAX <= counter:
        reason = _SQN_NOT_FRESH
    else:
        return _tuple_new(Accepted, (amf_sqn >> 48, amf_sqn & SQN_MAX, sres, kc))
    return _tuple_new(Rejected, (reason, _placeholder(rng, sres), _placeholder(rng, kc)))


def legacy_response(ki: bytes, rand: bytes) -> tuple[bytes, bytes]:
    """The unmodified challenge response: (SRES, Kc) over the full RAND."""
    return cs._a3a8(cs.Key128(ki, "ki"), cs._check_len("rand", rand, cs.RAND_LEN))


def generate_triples(
    ki: bytes,
    ka: bytes,
    counter: int,
    amf: int,
    n: int,
) -> tuple[list[AuthTriple], int]:
    """Issue a batch of n sequence-bearing triples, advancing the counter.

    Triple i carries sqn = counter + i + 1; the returned new counter equals
    the last issued sequence number.  Refuses to wrap the 48-bit space.
    """
    check_sqn48(counter)
    check_amf16(amf)
    if not cs._is_int(n) or n < 1:
        raise MalformedInputError(f"batch size must be >= 1, got {n!r}")
    if counter + n > SQN_MAX:
        raise CounterOverflowError(
            f"issuing {n} triples from counter {counter} would exceed 2^48 - 1"
        )
    ki, ka = cs.Key128(ki, "ki"), cs.Key128(ka, "ka")
    rands = _build_rands(ka, amf, counter + 1, n)
    return _triples(ki, rands), counter + n


def _triples(ki: cs.Key128, rands: bytes) -> list[AuthTriple]:
    """One triple per 16-octet RAND, all answered by one A3/A8 call."""
    xres, kc = cs._a3a8_batch(ki, rands)
    return [
        _tuple_new(
            AuthTriple,
            (rands[16 * i : 16 * i + 16], xres[8 * i : 8 * i + 8], kc[8 * i : 8 * i + 8]),
        )
        for i in range(len(rands) // cs.RAND_LEN)
    ]

