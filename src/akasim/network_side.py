"""Home-network (AuC + registry) and serving-network (VLR) actors.

The home network provisions subscribers and issues triple batches; for
enhanced subscriptions the challenges carry sequence numbers, for legacy
ones they are random.  The serving network is deliberately dumb: it queues
triples per subscriber, pops them under a configurable consumption policy,
compares an 8-octet response and picks a cipher.  Only provisioning reads
the subscription mode: from then on a subscriber is enhanced exactly when
its card and AuC record hold a Ka, and the enhancement stays invisible to
the visited side.
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
from .sim_card import SimCard, SimMode, noop_trace

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
    """AuC-side mirror of one card at provisioning time, keyed by its IMSI
    in the registry.  The record and the provisioned card hold the same key
    objects; an enhanced subscriber is one whose record holds a Ka.
    """

    __slots__ = ("ki", "ka", "counter")

    def __init__(self, ki: Key128, ka: Key128 | None, counter: int):
        self.ki = ki
        self.ka = ka
        self.counter = counter


class ConsumptionPolicy(enum.Enum):
    IN_ORDER = "IN_ORDER"
    RANDOM_ORDER = "RANDOM_ORDER"
    REUSE = "REUSE"


class Verdict(enum.Enum):
    AUTHENTICATED = "AUTHENTICATED"
    REJECTED = "REJECTED"


# Function bodies use these names, not `Verdict.REJECTED`: on CPython 3.11
# `EnumType` defines `__getattr__`, which slows every class attribute read.
_LEGACY = SimMode.LEGACY
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
        self, imsi: str, mode: SimMode, master: bytes, card_rng: random.Random
    ) -> SimCard:
        """Register a new subscriber and issue its card, which draws on `card_rng`."""
        check_imsi(imsi)
        if imsi in self.registry:
            raise ProvisioningError(f"imsi {imsi} already provisioned")
        if not isinstance(mode, SimMode):
            raise MalformedInputError(f"mode must be a SimMode, got {mode!r}")
        ki, ka = cs._derive_keys(cs.Key128(master, "master"), imsi)
        if mode is _LEGACY:
            ka = None
        # the card checks its generator, so a refused call leaves no record
        card = SimCard(imsi, ki, ka, 0, card_rng)
        self.registry[imsi] = SubscriberRecord(ki=ki, ka=ka, counter=0)
        # `_value_` is the attribute behind the Python-level `.value` property
        self.trace(self.name, msg="PROVISION", imsi=imsi, mode=mode._value_)
        return card

    def request_triples(self, imsi: str, n: int) -> list[AuthTriple]:
        """Issue a batch of n triples for the subscriber, with AMF 0."""
        if imsi not in self.registry:
            raise UnknownSubscriberError(imsi)
        if not cs._is_int(n) or not 1 <= n <= MAX_BATCH:
            raise MalformedInputError(
                f"batch size must be an integer in [1, {MAX_BATCH}], got {n!r}"
            )
        record = self.registry[imsi]
        if record.ka is not None:
            sqn_first = record.counter + 1
            triples, record.counter = auth_core.generate_triples(
                record.ki, record.ka, record.counter, 0, n
            )
            self.trace(
                self.name,
                msg="TRIPLES_ISSUED",
                imsi=imsi,
                n=n,
                sqn_first=sqn_first,
                sqn_last=record.counter,
            )
        else:
            # one draw: the same octets and generator state as n 16-octet draws
            rands = self.rng.randbytes(cs.RAND_LEN * n)
            triples = auth_core._triples(record.ki, rands)
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
            if self.policy is _REUSE:
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
