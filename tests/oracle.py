"""Independent reference computations for the package's primitives.

Everything here is built on the pure-Python AES in aes_reference, sharing
no code with the implementation under test.  Tests compare the two routes
on fixed vectors and random samples.
"""

from aes_reference import aes128_encrypt_block


def xor(a, b):
    assert len(a) == len(b)
    return bytes(x ^ y for x, y in zip(a, b))


def ref_f1(ka, msg8):
    return aes128_encrypt_block(ka, msg8 + bytes(7) + b"\x01")[:8]


def ref_f5(ka, mac8):
    return aes128_encrypt_block(ka, mac8 + bytes(7) + b"\x05")[:8]


def ref_a3(ki, rand16):
    return aes128_encrypt_block(ki, xor(rand16, bytes([0x33]) * 16))[:8]


def ref_a8(ki, rand16):
    return aes128_encrypt_block(ki, xor(rand16, bytes([0x88]) * 16))[:8]


def ref_derive(master, imsi):
    digits = imsi.encode("ascii")
    ki = aes128_encrypt_block(master, digits + b"\x4b")
    ka = aes128_encrypt_block(master, digits + b"\x4a")
    return ki, ka


def ref_a5_strong(tag_byte, kc8, frame_index, length):
    key = kc8 + kc8
    out = b""
    counter = 0
    while len(out) < length:
        block = (
            bytes([tag_byte])
            + bytes(3)
            + frame_index.to_bytes(8, "big")
            + counter.to_bytes(4, "big")
        )
        out += aes128_encrypt_block(key, block)
        counter += 1
    return out[:length]


def ref_a5_weak(kc8, frame_index, length):
    unit = xor(kc8, frame_index.to_bytes(8, "big"))
    reps = -(-length // 8) if length else 0
    return (unit * reps)[:length]


def ref_build_rand(ka, amf, sqn):
    msg = amf.to_bytes(2, "big") + sqn.to_bytes(6, "big")
    mac = ref_f1(ka, msg)
    ak = ref_f5(ka, mac)
    return xor(msg, ak) + mac


def ref_sqn(ka, rand16):
    """The 48-bit SQN a challenge carries, unmasked with f5 and not authenticated."""
    return int.from_bytes(xor(rand16[:8], ref_f5(ka, rand16[8:]))[2:], "big")
