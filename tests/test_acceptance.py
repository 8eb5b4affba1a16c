"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import pathlib
import random

import pytest

import oracle
from akasim import auth_core as ac, cli, crypto_suite as cs, harness
from akasim.network_side import ConsumptionPolicy, ServingNetwork, Verdict
from akasim.sim_card import SimCard

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

VICTIM = "001010000000001"


def _report(number, name, ok):
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def _load_config(name):
    return harness.ScenarioConfig.loads((CONFIGS / name).read_text())


def _run_config(name):
    return harness.run_scenario(_load_config(name))


def test_criterion_1_roundtrip():
    """10^4 random tuples: verify(build(...)) accepts and recovers exactly."""
    rng = random.Random(0xACCE551)
    verify_rng = random.Random(1)
    failures = 0
    for _ in range(10_000):
        ka = rng.randbytes(16)
        ki = rng.randbytes(16)
        amf = rng.randrange(1 << 16)
        sqn = rng.randrange(1, 1 << 48)
        counter = rng.randrange(sqn)
        rand = ac.build_hijacked_rand(ka, amf, sqn)
        outcome = ac.verify_hijacked_rand(ka, counter, rand, ki, verify_rng)
        if not (
            isinstance(outcome, ac.Accepted)
            and outcome.amf == amf
            and outcome.sqn == sqn
        ):
            failures += 1
    _report(1, "roundtrip recovery 10^4, zero tolerance", failures == 0)


def test_criterion_2_tamper_rejection():
    """100 accepted instances x all 128 single-bit flips, all rejected."""
    rng = random.Random(0xACCE552)
    verify_rng = random.Random(2)
    rejected = 0
    total = 0
    for _ in range(100):
        ka = rng.randbytes(16)
        ki = rng.randbytes(16)
        sqn = rng.randrange(1, 1 << 48)
        counter = rng.randrange(sqn)
        rand = ac.build_hijacked_rand(ka, rng.randrange(1 << 16), sqn)
        base = ac.verify_hijacked_rand(ka, counter, rand, ki, verify_rng)
        assert isinstance(base, ac.Accepted)
        for bit in range(128):
            flipped = bytearray(rand)
            flipped[bit // 8] ^= 0x80 >> (bit % 8)
            outcome = ac.verify_hijacked_rand(ka, counter, bytes(flipped), ki, verify_rng)
            total += 1
            if isinstance(outcome, ac.Rejected):
                rejected += 1
    _report(2, f"tamper rejection {rejected}/12800", rejected == total == 12_800)


def test_criterion_3_replay_rejection():
    """Re-verifying an accepted RAND against the updated counter fails fresh."""
    rng = random.Random(0xACCE553)
    verify_rng = random.Random(3)
    ok = True
    for _ in range(1_000):
        ka = rng.randbytes(16)
        ki = rng.randbytes(16)
        sqn = rng.randrange(1, 1 << 48)
        rand = ac.build_hijacked_rand(ka, rng.randrange(1 << 16), sqn)
        accepted = ac.verify_hijacked_rand(ka, sqn - 1, rand, ki, verify_rng)
        if not isinstance(accepted, ac.Accepted):
            ok = False
            break
        replay = ac.verify_hijacked_rand(ka, accepted.sqn, rand, ki, verify_rng)
        if not (
            isinstance(replay, ac.Rejected)
            and replay.reason is ac.RejectReason.SQN_NOT_FRESH
        ):
            ok = False
            break
    _report(3, "replay rejection 10^3 trials", ok)


def test_criterion_4_legacy_transparency():
    """Enhanced card output is bit-identical to the legacy computation and
    authenticates at an unmodified serving network, 10^4 challenges."""
    master = bytes.fromhex("5a" * 16)
    ki, ka = cs.derive_subscriber_keys(master, VICTIM)
    triples, _ = ac.generate_triples(ki, ka, 0, 0, 10_000)

    card = SimCard(imsi=VICTIM, ki=ki, ka=ka, counter=0, rng=random.Random(4))
    card.init(True)
    serving = ServingNetwork(
        policy=ConsumptionPolicy.IN_ORDER,
        cipher_choice=cs.CipherAlgId.A5_3,
        rng=random.Random(5),
    )
    serving.add_triples(VICTIM, triples)

    ok = True
    for _ in range(10_000):
        rand = serving.challenge(VICTIM)
        response = card.challenge(rand)
        if (response.sres, response.kc) != ac.legacy_response(ki, rand):
            ok = False
            break
        if serving.verify(VICTIM, response.sres) is not Verdict.AUTHENTICATED:
            ok = False
            break
    _report(4, "legacy transparency 10^4 challenges", ok)


class TestCriterion5ScenarioMatrix:
    def _golden_check(self, name):
        result = _run_config(f"{name}.json")
        assert not result.aborted
        golden = (GOLDEN / f"{name}.trace").read_text()
        return result, harness.render_trace(result.trace) == golden

    @staticmethod
    def _attack(result):
        """The summary of the run's one attack, read from its trace."""
        (attack,) = harness.summarize(result)["attacks"]
        return attack

    def test_5a_mitm_vs_legacy_succeeds(self):
        result, golden_ok = self._golden_check("mitm_legacy")
        report = self._attack(result)
        ok = golden_ok and report["succeeded"] and result.all_asserts_passed
        _report("5a", "fake-network eavesdrop vs legacy succeeds (golden)", ok)

    def test_5b_mitm_vs_enhanced_fails_with_teardown(self):
        result, golden_ok = self._golden_check("mitm_enhanced")
        report = self._attack(result)
        # the config's ASSERT steps pin the six-message teardown and the
        # absence of any victim SRES transmission
        ok = golden_ok and not report["succeeded"] and result.all_asserts_passed
        _report("5b", "fake-network vs enhanced fails, six-message teardown", ok)

    def test_5c_bbk_vs_legacy_recovers_key(self):
        import oracle

        result, golden_ok = self._golden_check("bbk_legacy")
        report = self._attack(result)
        config = _load_config("bbk_legacy.json")
        master_rng = random.Random(f"{config.seed}/provision")
        ki, _ = oracle.ref_derive(master_rng.randbytes(16), VICTIM)
        logged_rand = bytes.fromhex(
            next(
                e.event["rand"]
                for e in result.trace
                if e.event["msg"] == "AUTH_CHALLENGE"
            )
        )
        true_kc = oracle.ref_a8(ki, logged_rand)
        ground_truth = bytes.fromhex(
            "61747461636b206174206461776e21216d656574206174206272696467652039"
        )
        ok = (
            golden_ok
            and report["succeeded"]
            and report["recovered_kc"] == true_kc.hex()
            and report["recovered_plaintext"] == ground_truth.hex()
            and result.all_asserts_passed
        )
        _report("5c", "replay attack vs legacy recovers Kc and decrypts log", ok)

    def test_5d_bbk_vs_enhanced_fails_100_trials(self):
        result, golden_ok = self._golden_check("bbk_enhanced")
        ok = golden_ok and not self._attack(result)["succeeded"]

        base = json.loads((CONFIGS / "bbk_enhanced.json").read_text())
        failures = 0
        for seed in range(100):
            raw = json.loads(json.dumps(base))
            raw["seed"] = seed
            # vary the card's counter and the logged RAND by consuming a
            # different number of honest challenges before the intercept
            extra = seed % 3
            raw["script"][1]["n"] = 2 + extra
            for _ in range(extra):
                raw["script"].insert(2, {"op": "CHALLENGE", "imsi": VICTIM})
            trial = harness.run_scenario(harness.ScenarioConfig.from_dict(raw))
            assert not trial.aborted
            if not self._attack(trial)["succeeded"]:
                failures += 1
        ok = ok and failures == 100
        _report("5d", f"replay attack vs enhanced prevented {failures}/100", ok)


def test_criterion_6_ordering_hazard():
    """Out-of-order consumption is caught; in-order never rejects."""
    master = bytes.fromhex("6b" * 16)
    ki, ka = cs.derive_subscriber_keys(master, VICTIM)

    # RANDOM_ORDER: every sequence-number descent must reject
    triples, _ = ac.generate_triples(ki, ka, 0, 0, 10)
    serving = ServingNetwork(
        policy=ConsumptionPolicy.RANDOM_ORDER,
        cipher_choice=cs.CipherAlgId.A5_3,
        rng=random.Random(1234),
    )
    serving.add_triples(VICTIM, triples)
    card = SimCard(imsi=VICTIM, ki=ki, ka=ka, counter=0, rng=random.Random(6))
    card.init(False)
    high_water = 0
    rejections = 0
    consistent = True
    for _ in range(10):
        rand = serving.challenge(VICTIM)
        sqn = oracle.ref_sqn(ka, rand)
        response = card.challenge(rand)
        honest = (response.sres, response.kc) == ac.legacy_response(ki, rand)
        if sqn > high_water:
            consistent &= honest
            high_water = sqn
        else:  # descending pair: the card must have rejected
            consistent &= not honest
            rejections += 1
    random_order_ok = consistent and rejections >= 1

    # IN_ORDER: 10^3 sequential challenges, zero rejections
    triples, _ = ac.generate_triples(ki, ka, 1_000_000, 0, 1_000)
    serving = ServingNetwork(
        policy=ConsumptionPolicy.IN_ORDER,
        cipher_choice=cs.CipherAlgId.A5_3,
        rng=random.Random(7),
    )
    serving.add_triples(VICTIM, triples)
    card = SimCard(imsi=VICTIM, ki=ki, ka=ka, counter=1_000_000, rng=random.Random(8))
    card.init(False)
    in_order_rejections = 0
    for _ in range(1_000):
        rand = serving.challenge(VICTIM)
        response = card.challenge(rand)
        if (response.sres, response.kc) != ac.legacy_response(ki, rand):
            in_order_rejections += 1
    in_order_ok = in_order_rejections == 0

    _report(
        6,
        f"ordering hazard (random-order rejects={rejections}, in-order rejects={in_order_rejections})",
        random_order_ok and in_order_ok,
    )


def test_criterion_7_indistinguishability():
    """Per-bit frequency of 10^5 generated challenges within 4 sigma."""
    report = cli.rand_bit_stats(100_000, seed=0)
    _report(
        7,
        f"bit-frequency smoke test (max dev {report['max_sigma_deviation']} sigma)",
        report["passed"],
    )


def test_criterion_8_determinism():
    """Every scenario config replays to a byte-identical trace."""
    ok = True
    for cfg_path in sorted(CONFIGS.glob("*.json")):
        config = harness.ScenarioConfig.loads(cfg_path.read_text())
        first = harness.render_trace(harness.run_scenario(config).trace)
        second = harness.render_trace(harness.run_scenario(config).trace)
        if first != second:
            ok = False
            break
    _report(8, "trace determinism across reruns", ok)
