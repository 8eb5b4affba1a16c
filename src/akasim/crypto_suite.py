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
    "f1_mac",
    "f5_mask",
    "a3_sres",
    "a8_kc",
    "a5_keystream",
    "derive_subscriber_keys",
    "parse_vector_line",
    "render_vector_line",
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


# Function bodies use these names, not `CipherAlgId.NONE`: on CPython 3.11
# `EnumType` defines `__getattr__`, which slows every class attribute read.
_A5_1, _A5_2, _A5_3, _NONE = CipherAlgId


class KeystreamBlock(NamedTuple):
    """Keystream produced for one traffic frame."""

    bytes: bytes
    frame_index: int


def _is_int(value) -> bool:
    # bool is an int subclass, but True is not the number 1 here
    return isinstance(value, int) and not isinstance(value, bool)


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


def _check_frame_index(frame_index: int):
    if not _is_int(frame_index) or not 0 <= frame_index < 1 << 64:
        raise MalformedInputError("frame_index must be an integer in [0, 2^64)")


def check_imsi(imsi: str) -> str:
    """An IMSI is exactly 15 ASCII decimal digits."""
    if not (isinstance(imsi, str) and len(imsi) == 15 and imsi.isascii() and imsi.isdigit()):
        raise MalformedInputError(f"imsi must be 15 decimal digits, got {imsi!r}")
    return imsi


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise MalformedInputError(f"xor of unequal lengths {len(a)} != {len(b)}")
    return _xor(a, b)


def _xor(a: bytes, b: bytes) -> bytes:
    # for equal lengths either byte order gives the same octets; CPython
    # converts little-endian without reversing
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


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
# card's verify path runs on them directly.  The buffer core _a3a8_batch takes
# a Key128 and a non-empty buffer of whole RANDs; auth_core's triple builder
# calls it once its own entries have checked the batch, and builds the
# batched f1 and f5 blocks itself.  The public functions below are "check,
# then core".


def _f1(ka: Key128, amf_sqn: bytes) -> bytes:
    return ka._encrypt(amf_sqn + _PAD_F1)[:TAG_LEN]


def _f5(ka: Key128, mac: bytes) -> bytes:
    return ka._encrypt(mac + _PAD_F5)[:TAG_LEN]


def _a3a8(ki: Key128, rand: bytes) -> tuple[bytes, bytes]:
    """(SRES, Kc) of one RAND: its two masked blocks in one call."""
    out = ki._encrypt(xor_bytes(rand + rand, _C3C8))
    return out[:TAG_LEN], out[RAND_LEN : RAND_LEN + TAG_LEN]


def _a3a8_batch(ki: Key128, rands: bytes) -> tuple[bytes, bytes]:
    """(SRES, Kc) of every 16-octet RAND in the buffer, from one call.

    Each half is the concatenation of one 8-octet value per RAND.
    """
    n = len(rands) // RAND_LEN
    blocks = array("Q", ki._encrypt(_xor(rands + rands, _C3 * n + _C8 * n)))
    out = blocks[0::2].tobytes()  # the first 8 octets of every block
    return out[: TAG_LEN * n], out[TAG_LEN * n :]


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


def a5_keystream(alg: CipherAlgId, kc: bytes, frame_index: int, length: int) -> KeystreamBlock:
    """Keystream for one frame under the modeled A5 family.

    A5/1 and A5/3 expand (kc, alg tag, frame_index) through AES in counter
    mode.  A5/2 is the intentionally weak model: the frame keystream is the
    8-octet block (kc xor frame_index) repeated, which at frame 0 is Kc
    verbatim.
    """
    kc = _check_len("kc", kc, TAG_LEN)
    _check_frame_index(frame_index)
    if not _is_int(length) or length < 0:
        raise MalformedInputError("length must be a non-negative integer")
    if not isinstance(alg, CipherAlgId):
        raise MalformedInputError(f"alg must be a CipherAlgId, got {alg!r}")
    if alg is _NONE:
        raise InvalidAlgorithmError("cannot generate keystream for alg NONE")
    return KeystreamBlock(bytes=_keystream(alg, kc, frame_index, length), frame_index=frame_index)


# big-endian block counters 0, 1, ... for the longest frame seen; replaced,
# never grown in place, so a reader always slices a complete table and a
# lost race between threads costs only a rebuild
_block_counters = array("I")


def _keystream(alg: CipherAlgId, kc: bytes, frame_index: int, length: int) -> bytes:
    """a5_keystream's bytes, for arguments the caller has already proven."""
    global _block_counters
    if alg is _A5_2:
        unit = (int.from_bytes(kc, "big") ^ frame_index).to_bytes(TAG_LEN, "big")
        return (unit * -(-length // TAG_LEN))[:length]

    # counter block i is tag || 0^3 || frame64 || i32, all encrypted at once
    n = -(-length // 16)
    counters = _block_counters
    if n > len(counters):
        counters = _block_counters = array("I", b"".join(i.to_bytes(4, "big") for i in range(n)))
    head = _ALG_TAG_BYTES[alg._value_] << 120 | frame_index << 32
    blocks = array("I", head.to_bytes(16, "big")) * n
    blocks[3::4] = counters[:n]
    # whole blocks only: a partial block would carry over in the shared context
    return _ecb(kc + kc).update(blocks.tobytes())[:length]


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

