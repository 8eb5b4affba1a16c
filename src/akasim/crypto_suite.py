"""Bit-exact cryptographic primitives for the simulated GSM ecosystem.

Every keyed primitive here is a truncation of AES-128 applied to a
domain-separated input block:

    f1_mac(ka, m)   = AES_ka(m  || 0x00*7 || 0x01)[:8]     m is 8 octets
    f5_mask(ka, t)  = AES_ka(t  || 0x00*7 || 0x05)[:8]     t is 8 octets
    a3_sres(ki, r)  = AES_ki(r xor 0x33*16)[:8]            r is 16 octets
    a8_kc(ki, r)    = AES_ki(r xor 0x88*16)[:8]

The A5 cipher family is modeled, not real: A5/1 and A5/3 are AES-CTR-style
PRFs keyed by Kc with per-algorithm tag bytes, while A5/2 is deliberately
broken -- its frame-0 keystream starts with Kc itself and repeats with an
8-octet period, so a single known-plaintext frame reveals the session key.

Byte strings are used directly for keys, tags and challenges:

    Key128 -- 16 octets (Ki, Ka, master keys); a bytes subclass that keeps
              its AES context after first use
    Tag64  -- 8 octets (MAC, AK, SRES, Kc)
    Rand128 -- 16 octets (the challenge)

Every AES use is one ECB update() over a whole buffer of blocks: a frame's
keystream, the f1 or f5 tags of a batch, the A3/A8 pairs of a batch.

Every public function checks its arguments once, on entry, and raises
MalformedInputError on a violation; behind that check it runs on private
cores that trust their inputs.  Everything is a pure function of its
arguments.
"""

from __future__ import annotations

import enum
import sys
from array import array
from functools import lru_cache
from typing import NamedTuple

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .errors import InvalidAlgorithmError, MalformedInputError

__all__ = [
    "KEY_LEN",
    "TAG_LEN",
    "RAND_LEN",
    "CipherAlgId",
    "KeystreamBlock",
    "Key128",
    "check_imsi",
    "xor_bytes",
    "join_halves",
    "f1_mac",
    "f5_mask",
    "f1_macs",
    "f5_masks",
    "a3_sres",
    "a8_kc",
    "a3a8_batch",
    "a5_keystream",
    "derive_subscriber_keys",
    "parse_vector_line",
    "render_vector_line",
    "iter_vector_records",
]

KEY_LEN = 16
TAG_LEN = 8
RAND_LEN = 16

# single-octet domain separation tags for the AES truncations; an 8-octet
# f1/f5 input v is encrypted as the block v || pad
_PAD_F1 = bytes(7) + bytes([0x01])
_PAD_F5 = bytes(7) + bytes([0x05])
_C3 = bytes([0x33]) * 16
_C8 = bytes([0x88]) * 16
_C3C8 = _C3 + _C8
_TAG_DERIVE_KI = bytes([0x4B])
_TAG_DERIVE_KA = bytes([0x4A])
# keystream domain tag per CipherAlgId value
_ALG_TAG_BYTES = {"A5_1": 0xA1, "A5_2": 0xA2, "A5_3": 0xA3, "NONE": 0x00}


class CipherAlgId(enum.Enum):
    """Air-interface encryption algorithm selector."""

    A5_1 = "A5_1"
    A5_2 = "A5_2"
    A5_3 = "A5_3"
    NONE = "NONE"

    @property
    def tag_byte(self) -> int:
        return _ALG_TAG_BYTES[self._value_]


class KeystreamBlock(NamedTuple):
    """Keystream produced for one traffic frame."""

    bytes: bytes
    frame_index: int


def _check_bytes(name: str, value: bytes) -> bytes:
    if not isinstance(value, (bytes, bytearray)):
        raise MalformedInputError(f"{name} must be bytes, got {type(value).__name__}")
    return value


def _check_len(name: str, value: bytes, expected: int) -> bytes:
    """The value as plain immutable bytes, once it is proven `expected` octets."""
    if type(value) is not bytes:
        value = bytes(_check_bytes(name, value))
    if len(value) != expected:
        raise MalformedInputError(f"{name} must be {expected} octets, got {len(value)}")
    return value


def _count_items(name: str, value: bytes, width: int) -> int:
    """Number of `width`-octet items in a non-empty buffer of whole items."""
    if not _check_bytes(name, value) or len(value) % width:
        raise MalformedInputError(
            f"{name} must be a non-empty multiple of {width} octets, got {len(value)}"
        )
    return len(value) // width


def check_imsi(imsi: str) -> str:
    """An IMSI is exactly 15 ASCII decimal digits."""
    if not (isinstance(imsi, str) and len(imsi) == 15 and imsi.isascii() and imsi.isdigit()):
        raise MalformedInputError(f"imsi must be 15 decimal digits, got {imsi!r}")
    return imsi


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise MalformedInputError(f"xor of unequal lengths {len(a)} != {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def join_halves(left: bytes, right: bytes) -> bytes:
    """16-octet blocks whose i-th is the i-th 8-octet word of left || of right."""
    if len(right) != TAG_LEN * _count_items("left", left, TAG_LEN):
        raise MalformedInputError(f"right must be {len(left)} octets, got {len(right)}")
    words = array("Q", bytes(2 * len(left)))
    words[0::2] = array("Q", left)
    words[1::2] = array("Q", right)
    return words.tobytes()


def _left_words(blocks: bytes) -> bytes:
    """The first 8 octets of every 16-octet block, concatenated."""
    return array("Q", blocks)[0::2].tobytes()


# bound once: `algorithms` resolves every attribute through a Python-level
# deprecation shim, and an ECB mode object holds no state
_AES = algorithms.AES
_ECB_MODE = modes.ECB()


@lru_cache(maxsize=512)
def _ecb(key: bytes):
    # ECB encrypts each block independently, so one cached context per key
    # can serve every call; update() is where the fast path lives.
    return Cipher(_AES(key), _ECB_MODE).encryptor()


class Key128(bytes):
    """A 16-octet AES key that keeps its ECB context once it has used it.

    The first _encrypt() fetches the context from the shared cache, so a key
    costs at most one context build while it is alive however many other
    keys pass through the cache.  ECB update() on whole blocks keeps no
    state between calls, so holders of the same key may share it.
    Key128(k) of a Key128 is k itself, so the context travels with it.
    """

    _ctx = None

    def __new__(cls, value: bytes, name: str = "key"):
        if type(value) is cls:
            return value
        return super().__new__(cls, _check_len(name, value, KEY_LEN))

    def __reduce__(self):
        # copies and pickles carry the key octets, never the context
        return Key128, (bytes(self),)

    def _encrypt(self, blocks: bytes) -> bytes:
        """AES-128 of every 16-octet block of the buffer, in one call."""
        ctx = self._ctx
        if ctx is None:
            ctx = self._ctx = _ecb(bytes(self))
        return ctx.update(blocks)


def _key(value: bytes, name: str) -> Key128:
    """The value as a Key128: a Key128 passes through untouched, anything else is checked."""
    return value if type(value) is Key128 else Key128(value, name)


# --- cores: one AES call on values the caller has already proven --------------
#
# The one-block cores take a Key128 and exactly one 8- or 16-octet item; the
# card's verify path runs on them directly.  The public functions below are
# "check, then core"; the batched ones keep the array path for many items.


def _f1(ka: Key128, amf_sqn: bytes) -> bytes:
    return ka._encrypt(amf_sqn + _PAD_F1)[:TAG_LEN]


def _f5(ka: Key128, mac: bytes) -> bytes:
    return ka._encrypt(mac + _PAD_F5)[:TAG_LEN]


def _a3a8(ki: Key128, rand: bytes) -> tuple[bytes, bytes]:
    """(SRES, Kc) of one RAND: its two masked blocks in one call."""
    out = ki._encrypt(xor_bytes(rand + rand, _C3C8))
    return out[:TAG_LEN], out[RAND_LEN : RAND_LEN + TAG_LEN]


def _padded_prf(key: Key128, words: bytes, pad: bytes) -> bytes:
    """AES_key(v || pad)[:8] of every 8-octet word v in the buffer, from one call."""
    blocks = array("Q", bytes(TAG_LEN) + pad) * (len(words) // TAG_LEN)
    blocks[0::2] = array("Q", words)
    return _left_words(key._encrypt(blocks.tobytes()))


def f1_mac(ka: bytes, amf_sqn: bytes) -> bytes:
    """64-bit authentication tag over a 16-bit AMF || 48-bit SQN message."""
    return _f1(_key(ka, "ka"), _check_len("amf_sqn", amf_sqn, TAG_LEN))


def f5_mask(ka: bytes, mac: bytes) -> bytes:
    """64-bit encrypting mask derived from an authentication tag."""
    return _f5(_key(ka, "ka"), _check_len("mac", mac, TAG_LEN))


def a3_sres(ki: bytes, rand: bytes) -> bytes:
    """Challenge-response MAC: the SIM's 64-bit signed response."""
    return _a3a8(_key(ki, "ki"), _check_len("rand", rand, RAND_LEN))[0]


def a8_kc(ki: bytes, rand: bytes) -> bytes:
    """Session-key derivation: the 64-bit ciphering key Kc."""
    return _a3a8(_key(ki, "ki"), _check_len("rand", rand, RAND_LEN))[1]


def f1_macs(ka: bytes, amf_sqns: bytes) -> bytes:
    """f1_mac of every 8-octet message in the buffer, from one AES call."""
    _count_items("amf_sqns", amf_sqns, TAG_LEN)
    return _padded_prf(_key(ka, "ka"), amf_sqns, _PAD_F1)


def f5_masks(ka: bytes, macs: bytes) -> bytes:
    """f5_mask of every 8-octet tag in the buffer, from one AES call."""
    _count_items("macs", macs, TAG_LEN)
    return _padded_prf(_key(ka, "ka"), macs, _PAD_F5)


def a3a8_batch(ki: bytes, rands: bytes) -> tuple[bytes, bytes]:
    """A3 and A8 of every 16-octet RAND in the buffer, from one AES call.

    Returns the concatenated SRES values and the concatenated Kc values,
    8 octets per RAND each.
    """
    n = _count_items("rands", rands, RAND_LEN)
    out = _left_words(_key(ki, "ki")._encrypt(xor_bytes(rands + rands, _C3 * n + _C8 * n)))
    return out[: TAG_LEN * n], out[TAG_LEN * n :]


def a5_keystream(alg: CipherAlgId, kc: bytes, frame_index: int, length: int) -> KeystreamBlock:
    """Keystream for one frame under the modeled A5 family.

    A5/1 and A5/3 expand (kc, alg tag, frame_index) through AES in counter
    mode.  A5/2 is the intentionally weak model: the frame keystream is the
    8-octet block (kc xor frame_index) repeated, which at frame 0 is Kc
    verbatim.
    """
    kc = _check_len("kc", kc, TAG_LEN)
    if not isinstance(frame_index, int) or frame_index < 0:
        raise MalformedInputError("frame_index must be a non-negative integer")
    if frame_index >= 1 << 64:
        raise MalformedInputError("frame_index must fit in 64 bits")
    if not isinstance(length, int) or length < 0:
        raise MalformedInputError("length must be a non-negative integer")
    if alg is CipherAlgId.NONE:
        raise InvalidAlgorithmError("cannot generate keystream for alg NONE")

    if alg is CipherAlgId.A5_2:
        unit = xor_bytes(kc, frame_index.to_bytes(8, "big"))
        reps = -(-length // TAG_LEN) if length else 0
        return KeystreamBlock(bytes=(unit * reps)[:length], frame_index=frame_index)

    if not length:
        # never hand the shared context a partial block: it would carry over
        return KeystreamBlock(bytes=b"", frame_index=frame_index)
    # counter block i is tag || 0^3 || frame64 || i32, all encrypted at once
    prefix = bytes([alg.tag_byte]) + bytes(3) + frame_index.to_bytes(8, "big")
    n = -(-length // 16)
    blocks = array("I", prefix + bytes(4)) * n
    counters = array("I", range(n))
    if sys.byteorder == "little":
        counters.byteswap()  # big-endian block counters
    blocks[3::4] = counters
    out = _ecb(kc + kc).update(blocks.tobytes())[:length]
    return KeystreamBlock(bytes=out, frame_index=frame_index)


def derive_subscriber_keys(master: bytes, imsi: str) -> tuple[Key128, Key128]:
    """Derive the per-subscriber (ki, ka) pair from one master key.

    The input block is the 15 IMSI digits as ASCII plus a one-octet purpose
    tag, so the two keys are outputs of the same PRP on distinct blocks.
    """
    return _derive_keys(_key(master, "master"), check_imsi(imsi))


def _derive_keys(master: Key128, imsi: str) -> tuple[Key128, Key128]:
    digits = imsi.encode("ascii")
    out = master._encrypt(digits + _TAG_DERIVE_KI + digits + _TAG_DERIVE_KA)
    return Key128(out[:KEY_LEN]), Key128(out[KEY_LEN:])


# --- test-vector record format ---------------------------------------------
#
# One record per line:  op-name <hex-in ...> -> <hex-out>
# All fields lowercase hex; '#' lines are comments.


def render_vector_line(op: str, inputs: list[str], output: str) -> str:
    return f"{op} {' '.join(inputs)} -> {output}"


def parse_vector_line(line: str) -> tuple[str, list[str], str] | None:
    """Parse one record; returns None for blank/comment lines."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    head, sep, out = line.partition("->")
    if not sep:
        raise MalformedInputError(f"vector record missing '->': {line!r}")
    parts = head.split()
    if not parts:
        raise MalformedInputError(f"vector record missing op name: {line!r}")
    out = out.strip()
    for field in parts[1:] + [out]:
        if field != field.lower() or set(field) - set("0123456789abcdef"):
            raise MalformedInputError(f"non-hex field {field!r} in record: {line!r}")
    return parts[0], parts[1:], out


def iter_vector_records(text: str):
    """Yield (op, inputs, output) for every record in a vector file body."""
    for line in text.splitlines():
        rec = parse_vector_line(line)
        if rec is not None:
            yield rec
