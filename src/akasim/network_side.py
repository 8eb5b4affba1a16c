"""Home-network (AuC + registry) and serving-network (VLR) actors.

The home network provisions subscribers and issues triple batches; for
enhanced subscriptions the challenges carry sequence numbers, for legacy
ones they are random.  The serving network is deliberately dumb: it queues
triples per subscriber, pops them under a configurable consumption policy,
compares an 8-octet response and picks a cipher.  Nothing here reads the
subscription mode after issuance -- the enhancement stays invisible to the
visited side.
"""

from __future__ import annotations

import enum
import random
from collections import deque

from . import auth_core, crypto_suite as cs
from .auth_core import AuthTriple
from .crypto_suite import Key128, check_imsi
from .errors import (
    MalformedInputError,
    ProtocolOrderError,
    ProvisioningError,
    TripleExhaustionError,
    UnknownSubscriberError,
)
from .sim_card import SimMode, SimState, noop_trace

__all__ = [
    "MAX_BATCH",
    "SubscriberRecord",
    "ConsumptionPolicy",
    "Verdict",
    "HomeNetwork",
    "ServingNetwork",
]

# the most triples one request may ask for, so one batch's memory is bounded
MAX_BATCH = 4096


class SubscriberRecord:
    """AuC-side mirror of one card at provisioning time.

    The record and the provisioned card hold the same key objects.
    """

    __slots__ = ("imsi", "ki", "ka", "counter", "mode")

    def __init__(self, imsi: str, ki: Key128, ka: Key128 | None, counter: int, mode: SimMode):
        self.imsi = imsi
        self.ki = ki
        self.ka = ka
        self.counter = counter
        self.mode = mode


class ConsumptionPolicy(enum.Enum):
    IN_ORDER = "IN_ORDER"
    RANDOM_ORDER = "RANDOM_ORDER"
    REUSE = "REUSE"


class Verdict(enum.Enum):
    AUTHENTICATED = "AUTHENTICATED"
    REJECTED = "REJECTED"


# Function bodies use these names, not `Verdict.REJECTED`: on CPython 3.11
# `EnumType` defines `__getattr__`, which slows every class attribute read.
_LEGACY, _ENHANCED = SimMode
_IN_ORDER, _RANDOM_ORDER, _REUSE = ConsumptionPolicy
_AUTHENTICATED, _REJECTED = Verdict


class HomeNetwork:
    """Authentication centre plus subscriber registry."""

    def __init__(self, rng: random.Random, tracer=None):
        self.registry: dict[str, SubscriberRecord] = {}
        self.rng = rng
        self.trace = tracer or noop_trace
        self.name = "auc"

    def provision(
        self, imsi: str, mode: SimMode, master: bytes
    ) -> tuple[SubscriberRecord, SimState]:
        """Create matching AuC and card records for a new subscriber."""
        check_imsi(imsi)
        if imsi in self.registry:
            raise ProvisioningError(f"imsi {imsi} already provisioned")
        ki, ka = cs._derive_keys(cs._key(master, "master"), imsi)
        if mode is _LEGACY:
            ka = None
        # the card state checks the mode, so a refused call leaves no record
        sim_state = SimState(imsi=imsi, ki=ki, ka=ka, counter=0, mode=mode)
        record = SubscriberRecord(imsi=imsi, ki=ki, ka=ka, counter=0, mode=mode)
        self.registry[imsi] = record
        # `_value_` is the attribute behind the Python-level `.value` property
        self.trace(self.name, msg="PROVISION", imsi=imsi, mode=mode._value_)
        return record, sim_state

    def request_triples(self, imsi: str, n: int, amf: int = 0) -> list[AuthTriple]:
        """Issue a batch of n triples for the subscriber."""
        if imsi not in self.registry:
            raise UnknownSubscriberError(imsi)
        if not cs._is_int(n) or not 1 <= n <= MAX_BATCH:
            raise MalformedInputError(
                f"batch size must be an integer in [1, {MAX_BATCH}], got {n!r}"
            )
        auth_core.check_amf16(amf)
        record = self.registry[imsi]
        if record.mode is _ENHANCED:
            triples, record.counter = auth_core.generate_triples(
                record.ki, record.ka, record.counter, amf, n
            )
            self.trace(
                self.name,
                msg="TRIPLES_ISSUED",
                imsi=imsi,
                n=n,
                sqn_first=triples[0].sqn_hint,
                sqn_last=triples[-1].sqn_hint,
            )
        else:
            rands = b"".join([self.rng.randbytes(cs.RAND_LEN) for _ in range(n)])
            triples = auth_core._triples(record.ki, rands, [0] * n)
            self.trace(self.name, msg="TRIPLES_ISSUED", imsi=imsi, n=n)
        return triples


class ServingNetwork:
    """Visitor location register: triple store, challenges, SRES check."""

    def __init__(
        self,
        policy: ConsumptionPolicy,
        cipher_choice: cs.CipherAlgId,
        rng: random.Random,
        tracer=None,
    ):
        self.policy = policy
        self.cipher_choice = cipher_choice
        self.rng = rng
        self.trace = tracer or noop_trace
        self.name = "vlr"
        self.store: dict[str, deque[AuthTriple]] = {}
        self.last_issued: dict[str, AuthTriple] = {}
        self.pending: dict[str, AuthTriple] = {}

    def add_triples(self, imsi: str, triples: list[AuthTriple]):
        self.store.setdefault(imsi, deque()).extend(triples)
        self.trace(self.name, msg="TRIPLES_STORED", imsi=imsi, n=len(triples))

    def challenge(self, imsi: str) -> bytes:
        """Pick a triple per policy and send its RAND as the challenge."""
        queue = self.store.get(imsi)
        if self.policy is _REUSE and imsi in self.last_issued:
            triple = self.last_issued[imsi]
        elif not queue:
            raise TripleExhaustionError(f"no triples left for {imsi}")
        elif self.policy is _RANDOM_ORDER:
            index = self.rng.randrange(len(queue))
            triple = queue[index]
            del queue[index]
        else:
            triple = queue.popleft()
        self.last_issued[imsi] = triple
        self.pending[imsi] = triple
        self.trace(self.name, msg="AUTH_CHALLENGE", imsi=imsi, rand=triple.rand.hex())
        return triple.rand

    def verify(self, imsi: str, sres: bytes) -> Verdict:
        """Compare the response against the stored expectation, nothing else."""
        if imsi not in self.pending:
            raise ProtocolOrderError(f"no outstanding challenge for {imsi}")
        triple = self.pending.pop(imsi)
        verdict = _AUTHENTICATED if sres == triple.xres else _REJECTED
        self.trace(self.name, msg="AUTH_RESULT", imsi=imsi, verdict=verdict._value_)
        return verdict

    def select_cipher(self) -> cs.CipherAlgId:
        self.trace(self.name, msg="CIPHER_SELECT", alg=self.cipher_choice._value_)
        return self.cipher_choice
