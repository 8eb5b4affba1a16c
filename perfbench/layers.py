"""Per-layer metrics of the traced run, computed from spans and probes.

`LayerProbes` counts work at the same call boundaries the spans measure
(keystream bytes, triples, accepted challenges, distinct AES keys);
`layer_metrics` turns the aggregated spans plus those counts into the named
per-layer metrics listed in BENCHMARK.json.  Counts are per iteration, so a
given seed reproduces them exactly whatever the run length; times are per
call (or per unit of work) averaged over every traced iteration.
"""

from __future__ import annotations

from collections import Counter

from akasim.auth_core import Accepted
from akasim.network_side import Verdict

KEYED = (
    "crypto_suite.f1_mac",
    "crypto_suite.f5_mask",
    "crypto_suite.a3_sres",
    "crypto_suite.a8_kc",
    "crypto_suite.derive_subscriber_keys",
)
TEARDOWN = ("sim_card.SimCard.fetch", "sim_card.SimCard.terminal_response")
A5 = "crypto_suite.a5_keystream"


class LayerProbes:
    """Work counters fed by the span tracer's probes."""

    def __init__(self):
        self.work = Counter()
        self.keys: set[bytes] = set()

    def probes(self) -> dict:
        work, keys = self.work, self.keys

        def key(args, result):
            keys.add(bytes(args[0]))

        def keystream(args, result):
            keys.add(bytes(args[1]) * 2)
            work["a5_bytes"] += len(result.bytes)

        def triples(args, result):
            work["triples_generated"] += len(result[0])

        def issued(args, result):
            work["triples_issued"] += len(result)

        def verified(args, result):
            work["accepted"] += isinstance(result, Accepted)

        def vlr_verdict(args, result):
            work["authenticated"] += result is Verdict.AUTHENTICATED

        def loaded(args, result):
            work["config_steps"] += len(result.script)

        def rendered(args, result):
            work["rendered_events"] += len(args[0])
            work["rendered_bytes"] += len(result)

        return {
            **{name: key for name in KEYED},
            A5: keystream,
            "auth_core.generate_triples": triples,
            "network_side.HomeNetwork.request_triples": issued,
            "auth_core.verify_hijacked_rand": verified,
            "network_side.ServingNetwork.verify": vlr_verdict,
            "harness.ScenarioConfig.loads": loaded,
            "harness.render_trace": rendered,
        }


# name -> (unit, better); the order is the order of the report
METRICS = {
    "crypto_suite.keyed_block.calls": ("count", "lower"),
    "crypto_suite.keyed_block.us": ("us", "lower"),
    "crypto_suite.distinct_keys": ("count", "lower"),
    "crypto_suite.a5_keystream.calls": ("count", "lower"),
    "crypto_suite.a5_keystream.us_per_kb": ("us/kB", "lower"),
    "crypto_suite.xor_bytes.calls": ("count", "lower"),
    "crypto_suite.xor_bytes.us": ("us", "lower"),
    "auth_core.build_hijacked_rand.us": ("us", "lower"),
    "auth_core.generate_triples.us_per_triple": ("us", "lower"),
    "auth_core.verify_hijacked_rand.us": ("us", "lower"),
    "auth_core.accept_ratio": ("ratio", "higher"),
    "sim_card.challenge.self_us": ("us", "lower"),
    "sim_card.teardown.calls": ("count", "lower"),
    "sim_card.teardown.us": ("us", "lower"),
    "mobile_equipment.handle_challenge.self_us": ("us", "lower"),
    "mobile_equipment.send_traffic.self_us": ("us", "lower"),
    "network_side.provision.us": ("us", "lower"),
    "network_side.request_triples.self_us": ("us", "lower"),
    "network_side.vlr_challenge.us": ("us", "lower"),
    "network_side.vlr_verify.us": ("us", "lower"),
    "network_side.triples_issued": ("count", "lower"),
    "network_side.triples_consumed": ("count", "lower"),
    "network_side.triple_use_ratio": ("ratio", "higher"),
    "adversary.fake_network_attach.us": ("us", "lower"),
    "adversary.bbk_attack.us": ("us", "lower"),
    "harness.config_loads.us_per_step": ("us", "lower"),
    "harness.tracer.events": ("count", "lower"),
    "harness.tracer.us_per_event": ("us", "lower"),
    "harness.render_trace.us_per_event": ("us", "lower"),
    "harness.render_trace.mb_per_s": ("MB/s", "higher"),
    "harness.assert_trace.us": ("us", "lower"),
    "harness.engine.self_us": ("us", "lower"),
    "cli.rand_bit_stats.count_self_s": ("s", "lower"),
    "tracing.spans": ("count", "lower"),
    "tracing.overhead_s": ("s", "lower"),
    "tracing.overhead_ratio": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, probes: LayerProbes, iterations: int, overhead_s: float, overhead_ratio: float) -> dict:
    """Every metric in METRICS; a layer the workload never calls reads 0."""

    def calls(*names):
        return sum(stats[n].calls for n in names if n in stats)

    def total(*names):
        return sum(stats[n].total_s for n in names if n in stats)

    def selft(*names):
        return sum(stats[n].self_s for n in names if n in stats)

    def us(*names):
        return _ratio(total(*names) * 1e6, calls(*names))

    def self_us(*names):
        return _ratio(selft(*names) * 1e6, calls(*names))

    def per_iter(count):
        return count / iterations

    w = probes.work
    values = {
        "crypto_suite.keyed_block.calls": per_iter(calls(*KEYED)),
        "crypto_suite.keyed_block.us": us(*KEYED),
        "crypto_suite.distinct_keys": len(probes.keys),
        "crypto_suite.a5_keystream.calls": per_iter(calls(A5)),
        "crypto_suite.a5_keystream.us_per_kb": _ratio(total(A5) * 1e6, w["a5_bytes"] / 1000),
        "crypto_suite.xor_bytes.calls": per_iter(calls("crypto_suite.xor_bytes")),
        "crypto_suite.xor_bytes.us": us("crypto_suite.xor_bytes"),
        "auth_core.build_hijacked_rand.us": us("auth_core.build_hijacked_rand"),
        "auth_core.generate_triples.us_per_triple": _ratio(
            total("auth_core.generate_triples") * 1e6, w["triples_generated"]
        ),
        "auth_core.verify_hijacked_rand.us": us("auth_core.verify_hijacked_rand"),
        "auth_core.accept_ratio": _ratio(w["accepted"], calls("auth_core.verify_hijacked_rand")),
        "sim_card.challenge.self_us": self_us("sim_card.SimCard.challenge"),
        "sim_card.teardown.calls": per_iter(calls(*TEARDOWN)),
        "sim_card.teardown.us": us(*TEARDOWN),
        "mobile_equipment.handle_challenge.self_us": self_us(
            "mobile_equipment.MobileEquipment.handle_challenge"
        ),
        "mobile_equipment.send_traffic.self_us": self_us("mobile_equipment.MobileEquipment.send_traffic"),
        "network_side.provision.us": us("network_side.HomeNetwork.provision"),
        "network_side.request_triples.self_us": self_us("network_side.HomeNetwork.request_triples"),
        "network_side.vlr_challenge.us": us("network_side.ServingNetwork.challenge"),
        "network_side.vlr_verify.us": us("network_side.ServingNetwork.verify"),
        "network_side.triples_issued": per_iter(w["triples_issued"]),
        "network_side.triples_consumed": per_iter(calls("network_side.ServingNetwork.challenge")),
        "network_side.triple_use_ratio": _ratio(w["authenticated"], w["triples_issued"]),
        "adversary.fake_network_attach.us": us("adversary.Adversary.fake_network_attach"),
        "adversary.bbk_attack.us": us("adversary.Adversary.bbk_attack"),
        "harness.config_loads.us_per_step": _ratio(
            total("harness.ScenarioConfig.loads") * 1e6, w["config_steps"]
        ),
        "harness.tracer.events": per_iter(calls("harness.Tracer.__call__")),
        "harness.tracer.us_per_event": us("harness.Tracer.__call__"),
        "harness.render_trace.us_per_event": _ratio(
            total("harness.render_trace") * 1e6, w["rendered_events"]
        ),
        "harness.render_trace.mb_per_s": _ratio(w["rendered_bytes"] / 1e6, total("harness.render_trace")),
        "harness.assert_trace.us": us("harness.assert_trace"),
        "harness.engine.self_us": self_us("harness.run_scenario"),
        "cli.rand_bit_stats.count_self_s": _ratio(selft("cli.rand_bit_stats"), calls("cli.rand_bit_stats")),
        "tracing.spans": per_iter(sum(s.calls for s in stats.values())),
        "tracing.overhead_s": overhead_s,
        "tracing.overhead_ratio": overhead_ratio,
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in METRICS.items()}
