"""Tests of the benchmark itself (not of akasim).

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import pytest  # noqa: E402

from akasim import crypto_suite, harness  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import SpanTracer  # noqa: E402

COUNTS = (
    "auth_core.accept_ratio",
    "network_side.triples_issued",
    "network_side.triples_consumed",
    "network_side.triple_use_ratio",
    "harness.tracer.events",
    "crypto_suite.distinct_keys",
    "crypto_suite.keyed_block.calls",
    "crypto_suite.a5_keystream.calls",
    "sim_card.teardown.calls",
)


def test_generators_are_deterministic_per_seed():
    assert workloads.fleet_config(60, 5) == workloads.fleet_config(60, 5)
    assert workloads.fleet_config(60, 5) != workloads.fleet_config(60, 6)
    assert workloads.bulk_traffic_config(3, 5, frames=10) == workloads.bulk_traffic_config(3, 5, frames=10)
    assert workloads.bulk_traffic_config(3, 5, frames=10) != workloads.bulk_traffic_config(3, 6, frames=10)


def test_generated_subscribers_carry_explicit_masters():
    raw = workloads.fleet_config(400, 1)
    subs = raw["subscribers"]
    assert len({s["imsi"] for s in subs}) == 400
    assert all(len(bytes.fromhex(s["master"])) == 16 for s in subs)
    enhanced = sum(s["mode"] == "ENHANCED" for s in subs) / len(subs)
    assert 0.65 < enhanced < 0.85
    assert harness.ScenarioConfig.from_dict(raw).policy.value == "RANDOM_ORDER"


def _traced(workload, tmp_path):
    return run.traced_run(workload, 0.0, tmp_path / "spans.tsv.gz")


@pytest.mark.parametrize(
    "make",
    [
        lambda: workloads.Fleet(3, size=40),
        lambda: workloads.BulkTraffic(3, size=2, frames=12),
        lambda: workloads.GoldenReplay(3),
    ],
    ids=["fleet", "bulk_traffic", "golden_replay"],
)
def test_count_metrics_repeat_exactly(make, tmp_path):
    first = _traced(make(), tmp_path)
    second = _traced(make(), tmp_path)
    assert first["failed"] == second["failed"] == 0
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert (tmp_path / "spans.tsv.gz").stat().st_size > 0


def test_tracer_restores_every_wrapped_attribute():
    originals = {(id(o), a): vars(o)[a] for o, a, _ in SpanTracer().targets()}
    tracer = SpanTracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert vars(crypto_suite)["f1_mac"] is not originals[(id(crypto_suite), "f1_mac")]
            assert isinstance(vars(harness.ScenarioConfig)["loads"], classmethod)
            1 / 0
    assert tracer.restored()
    for owner, attr, _ in SpanTracer().targets():
        assert vars(owner)[attr] is originals[(id(owner), attr)], attr
    assert "sim_card.SimCard.challenge" in {name for _, _, name in tracer.targets()}


def test_self_time_excludes_children():
    tracer = SpanTracer()
    with tracer:
        crypto_suite.a3_sres(bytes(16), bytes(16))
    stats = tracer.aggregate()
    a3, xor = stats["crypto_suite.a3_sres"], stats["crypto_suite.xor_bytes"]
    assert a3.calls == xor.calls == 1
    assert a3.self_s == pytest.approx(a3.total_s - xor.total_s)


def test_corrupted_golden_makes_error_rate_nonzero():
    workload = workloads.GoldenReplay(1)
    name, text, golden = workload.cases[0]
    workload.cases[0] = (name, text, golden.replace(b'"seq_no":3', b'"seq_no":4', 1))
    result = run.untraced_run(workload, 0.0)
    assert result["failed"] > 0


def test_fleet_check_flags_a_wrong_verdict():
    workload = workloads.Fleet(2, size=40)
    it = workload.iterate()
    assert workload.check(it) == 0
    rejected = next(ev for ev in it.detail.trace if ev.event.get("status") == "PROACTIVE_PENDING")
    rejected.event["status"] = "NORMAL"
    assert workload.check(it) == 1


def test_bulk_check_flags_a_wrong_ciphertext():
    workload = workloads.BulkTraffic(2, size=1, frames=workloads.BULK_FRAME_SAMPLE)
    it = workload.iterate()
    assert workload.check(it) == 0
    frame = next(ev for ev in it.detail.trace if ev.event["msg"] == "TRAFFIC")
    text = frame.event["ciphertext"]
    frame.event["ciphertext"] = f"{int(text[:2], 16) ^ 0xFF:02x}" + text[2:]
    assert workload.check(it) == 1
