"""GSM mutual-authentication protocol library and attack simulator.

The home network seals an authenticated, encrypted sequence number inside
the 128-bit challenge it already sends, letting an upgraded card verify
origin and freshness while the phones and visited networks keep running
the unmodified protocol.  The package pairs the protocol logic with a
deterministic actor harness that demonstrates which classic attacks
(false base station eavesdropping, challenge replay against the weak
cipher) survive the upgrade and which do not.
"""

from .auth_core import (
    Accepted,
    AuthTriple,
    Rejected,
    RejectReason,
    VerifyOutcome,
    build_hijacked_rand,
    generate_triples,
    legacy_response,
    verify_hijacked_rand,
)
from .crypto_suite import CipherAlgId
from .harness import ScenarioConfig, ScenarioResult, assert_trace, run_scenario
from .sim_card import SimCard, SimMode

__version__ = "0.1.0"

__all__ = [
    "Accepted",
    "AuthTriple",
    "CipherAlgId",
    "Rejected",
    "RejectReason",
    "ScenarioConfig",
    "ScenarioResult",
    "SimCard",
    "SimMode",
    "VerifyOutcome",
    "assert_trace",
    "build_hijacked_rand",
    "generate_triples",
    "legacy_response",
    "run_scenario",
    "verify_hijacked_rand",
]
