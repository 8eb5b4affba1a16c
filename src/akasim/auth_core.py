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


def check_amf16(value: int) -> int:
    if not cs._is_int(value) or not 0 <= value <= AMF_MAX:
        raise MalformedInputError(f"amf must be an integer in [0, 2^16), got {value!r}")
    return value


# builds a NamedTuple from its field tuple without the generated Python __new__
_tuple_new = tuple.__new__


class AuthTriple(NamedTuple):
    """(RAND, XRES, Kc) as delivered from home to serving network.

    sqn_hint is the home-network ordering key; it never crosses the wire
    (legacy triples carry 0).
    """

    rand: bytes
    xres: bytes
    kc: bytes
    sqn_hint: int = 0


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
    return _build_rands(cs._key(ka, "ka"), amf, first_sqn, n)


# an f1 input block (message word, then pad word) and the f5 pad word
_F1_BLOCK = array("Q", bytes(cs.TAG_LEN) + cs._PAD_F1)
_F5_PAD = array("Q", cs._PAD_F5)
# the most challenges one build puts in each of its buffers
_MAX_LANES = 4096
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

    The AMF || SQN messages are the 64-bit lanes of one big-endian int.  One
    AES call computes every tag (f1), the tag array with its pad words
    overwritten is the input of a second call that computes every mask (f5),
    and the f5 output array is overwritten with the challenges.  A batch of
    more than _MAX_LANES challenges is built in pieces of that size.
    """
    if n > _MAX_LANES:
        last = first_sqn + n
        return b"".join(
            _build_rands(ka, amf, sqn, min(_MAX_LANES, last - sqn))
            for sqn in range(first_sqn, last, _MAX_LANES)
        )
    ones, ramp = _lanes(n)
    # lanes never carry: the entries prove first_sqn + n - 1 <= SQN_MAX
    msgs = ((amf << 48) | first_sqn) * ones + ramp
    blocks = _F1_BLOCK * n
    blocks[0::2] = array("Q", msgs.to_bytes(8 * n, "big"))
    tagged = array("Q", ka._encrypt(blocks.tobytes()))
    macs = tagged[0::2]
    tagged[1::2] = _F5_PAD * n
    rands = array("Q", ka._encrypt(tagged.tobytes()))
    masked = msgs ^ int.from_bytes(rands[0::2], "big")
    # challenge i is masked message i || tag i, one 8-octet word each
    rands[0::2] = array("Q", masked.to_bytes(8 * n, "big"))
    rands[1::2] = macs
    return rands.tobytes()


def build_hijacked_rand(ka: bytes, amf: int, sqn: int) -> bytes:
    """Encode (amf, sqn) into a challenge indistinguishable from random."""
    return build_hijacked_rands(ka, amf, sqn, 1)


def _unmask(ka: cs.Key128, rand: bytes) -> tuple[int, bytes, bytes]:
    """(AMF || SQN as an int, received tag, mask) of a proven 16-octet challenge."""
    mac = rand[8:]
    ak = cs._f5(ka, mac)
    return int.from_bytes(rand[:8], "big") ^ int.from_bytes(ak, "big"), mac, ak


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
    ka = cs._key(ka, "ka")
    ki = cs._key(ki, "ki")
    rand = cs._check_len("rand", rand, cs.RAND_LEN)
    # one AES call each: unmask, re-tag, answer
    amf_sqn, mac, _ = _unmask(ka, rand)
    sres, kc = cs._a3a8(ki, rand)
    if cs._f1(ka, amf_sqn.to_bytes(8, "big")) != mac:
        reason = _MAC_MISMATCH
    elif amf_sqn & SQN_MAX <= counter:
        reason = _SQN_NOT_FRESH
    else:
        return Accepted(amf_sqn >> 48, amf_sqn & SQN_MAX, sres, kc)
    return Rejected(reason, _placeholder(rng, sres), _placeholder(rng, kc))


def legacy_response(ki: bytes, rand: bytes) -> tuple[bytes, bytes]:
    """The unmodified challenge response: (SRES, Kc) over the full RAND."""
    return cs._a3a8(cs._key(ki, "ki"), cs._check_len("rand", rand, cs.RAND_LEN))


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
    ki, ka = cs._key(ki, "ki"), cs._key(ka, "ka")
    rands = _build_rands(ka, amf, counter + 1, n)
    return _triples(ki, rands, range(counter + 1, counter + n + 1)), counter + n


def _triples(ki: cs.Key128, rands: bytes, sqn_hints) -> list[AuthTriple]:
    """One triple per 16-octet RAND and sqn hint, all answered by one A3/A8 call."""
    xres, kc = cs._a3a8_batch(ki, rands)
    return [
        _tuple_new(
            AuthTriple,
            (rands[16 * i : 16 * i + 16], xres[8 * i : 8 * i + 8], kc[8 * i : 8 * i + 8], sqn),
        )
        for i, sqn in enumerate(sqn_hints)
    ]

