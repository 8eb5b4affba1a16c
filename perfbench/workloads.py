"""The four benchmark workloads: input generators, one timed iteration each,
and the correctness checks that run outside the timed region.

Every workload is built from `(size, seed)` alone.  The generated configs
carry an explicit `master` key per subscriber, so the checks derive every
Ki/Ka with the pure-Python oracle in `tests/oracle.py` instead of reading
library state.

One iteration is the unit the driver times.  It returns an `Iteration`
whose `output` is compared byte for byte across iterations (and between
traced and untraced runs); `check` inspects one iteration's full output with
the oracle and returns the number of operations whose output is wrong.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from akasim import cli, harness

import oracle

ROOT = Path(__file__).resolve().parent.parent

FLEET_SIZE = 2000
FLEET_ROUNDS = 4
FLEET_BATCH = 4
BULK_SIZE = 8
BULK_FRAMES = 400
SPEECH_FRAME = 33
DATA_FRAME = 1500
RAND_STATS_N = 100_000
BULK_FRAME_SAMPLE = 12
FLEET_SRES_SAMPLE = 200

A5_3_TAG = 0xA3


@dataclass
class Iteration:
    """What one timed iteration did.

    `output` is what must repeat exactly; `failed` counts operations found
    wrong inside the iteration itself (an aborted run, a golden mismatch);
    `samples` are per-scenario wall times, when the iteration has several.
    """

    ops: int
    output: object
    failed: int = 0
    samples: list[float] = field(default_factory=list)
    detail: object = None


def _imsis(rng: random.Random, n: int) -> list[str]:
    return [f"00101{v:010d}" for v in rng.sample(range(10**10), n)]


def _run_config(text: str):
    config = harness.ScenarioConfig.loads(text)
    result = harness.run_scenario(config)
    return result, harness.render_trace(result.trace)


def _events_by_actor(trace) -> dict[str, list[dict]]:
    by_actor: dict[str, list[dict]] = {}
    for ev in trace:
        actor = ev.actor
        if actor == "vlr" and "imsi" in ev.event:
            actor = f"vlr:{ev.event['imsi']}"
        by_actor.setdefault(actor, []).append(ev.event)
    return by_actor


# --- fleet -------------------------------------------------------------------


def fleet_config(size: int, seed: int) -> dict:
    """Many subscribers, out-of-order triple use, four challenges each.

    About 3/4 of the cards are ENHANCED.  Every subscriber attaches, opens a
    data channel and fetches one batch of four triples; then four rounds of
    ATTACH + CHALLENGE follow, each round in a fresh shuffled order so AES
    keys rotate far past the library's context cache.  A rejected challenge
    detaches the phone, hence the ATTACH before every CHALLENGE.
    """
    rng = random.Random(f"perfbench/fleet/{size}/{seed}")
    imsis = _imsis(rng, size)
    subscribers = [
        {
            "imsi": imsi,
            "mode": "ENHANCED" if rng.random() < 0.75 else "LEGACY",
            "master": rng.randbytes(16).hex(),
        }
        for imsi in imsis
    ]
    script = []
    order = imsis[:]
    rng.shuffle(order)
    for imsi in order:
        script += [
            {"op": "ATTACH", "imsi": imsi},
            {"op": "OPEN_CHANNEL", "imsi": imsi},
            {"op": "REQUEST_TRIPLES", "imsi": imsi, "n": FLEET_BATCH},
        ]
    for _ in range(FLEET_ROUNDS):
        rng.shuffle(order)
        for imsi in order:
            script += [{"op": "ATTACH", "imsi": imsi}, {"op": "CHALLENGE", "imsi": imsi}]
    return {
        "seed": rng.randrange(1 << 31),
        "subscribers": subscribers,
        "network_policy": {
            "consumption_policy": "RANDOM_ORDER",
            "cipher": "A5_3",
            "batch_size": FLEET_BATCH,
        },
        "script": script,
    }


class Fleet:
    name = "fleet"

    def __init__(self, seed: int, size: int = FLEET_SIZE):
        self.seed = seed
        self.raw = fleet_config(size, seed)
        self.text = json.dumps(self.raw)
        self.size = size
        self.challenges = size * FLEET_ROUNDS

    def iterate(self) -> Iteration:
        result, text = _run_config(self.text)
        failed = self.size if result.aborted else 0
        return Iteration(ops=self.size, output=text, failed=failed, detail=result)

    def report(self, median_s: float, samples: list[float]):
        yield "subscribers_per_s", self.size / median_s, "1/s"
        yield "challenges_per_s", self.challenges / median_s, "1/s"

    def check(self, it: Iteration) -> int:
        """Subscribers whose challenges disagree with the oracle.

        Every enhanced card's accept/reject sequence is replayed against the
        SQN recovered with ref_f5/ref_f1; on a seeded sample of authenticated
        challenges the SRES is recomputed with ref_a3.
        """
        by_actor = _events_by_actor(it.detail.trace)
        rng = random.Random(f"perfbench/fleet-check/{self.seed}")
        subs = self.raw["subscribers"]
        sres_sample = {s["imsi"] for s in rng.sample(subs, min(FLEET_SRES_SAMPLE, len(subs)))}
        bad = 0
        for sub in subs:
            ok = _check_card(
                sub,
                [e["rand"] for e in by_actor.get(f"vlr:{sub['imsi']}", []) if e["msg"] == "AUTH_CHALLENGE"],
                by_actor.get(f"ue:{sub['imsi']}", []),
                check_sres=sub["imsi"] in sres_sample,
            )
            bad += not ok
        return bad


def _check_card(sub: dict, rands: list[str], ue_events: list[dict], check_sres: bool) -> bool:
    responses = [e for e in ue_events if e["msg"] == "SIM_RESPONSE"]
    dropped = sum(e["msg"] == "CONNECTION_DROPPED" for e in ue_events)
    if len(rands) != FLEET_ROUNDS or len(responses) != FLEET_ROUNDS:
        return False
    enhanced = sub["mode"] == "ENHANCED"
    ki, ka = oracle.ref_derive(bytes.fromhex(sub["master"]), sub["imsi"])
    counter = 0
    rejected = 0
    for rand_hex, resp in zip(rands, responses):
        rand = bytes.fromhex(rand_hex)
        accept = True
        if enhanced:
            mac = rand[8:]
            amf_sqn = oracle.xor(rand[:8], oracle.ref_f5(ka, mac))
            sqn = int.from_bytes(amf_sqn[2:], "big")
            accept = oracle.ref_f1(ka, amf_sqn) == mac and sqn > counter
            if accept:
                counter = sqn
        want_status = "NORMAL" if accept else "PROACTIVE_PENDING"
        if resp["status"] != want_status:
            return False
        rejected += not accept
        if accept and check_sres and bytes.fromhex(resp["sres"]) != oracle.ref_a3(ki, rand):
            return False
    return dropped == rejected


# --- bulk_traffic ------------------------------------------------------------


def bulk_traffic_config(size: int, seed: int, frames: int = BULK_FRAMES) -> dict:
    """A few enhanced subscribers under A5/3 sending many frames each.

    Each subscriber authenticates once, then the frames go out round-robin.
    Three frames in four are 33-byte speech frames, the rest 1500-byte data
    frames, so both per-call and per-byte keystream costs show.
    """
    rng = random.Random(f"perfbench/bulk/{size}/{seed}")
    imsis = _imsis(rng, size)
    subscribers = [
        {"imsi": imsi, "mode": "ENHANCED", "master": rng.randbytes(16).hex()} for imsi in imsis
    ]
    script = []
    for imsi in imsis:
        script += [
            {"op": "ATTACH", "imsi": imsi},
            {"op": "REQUEST_TRIPLES", "imsi": imsi, "n": 1},
            {"op": "CHALLENGE", "imsi": imsi},
        ]
    for frame in range(frames):
        for imsi in imsis:
            length = SPEECH_FRAME if rng.random() < 0.75 else DATA_FRAME
            script.append(
                {
                    "op": "SEND_TRAFFIC",
                    "imsi": imsi,
                    "plaintext": rng.randbytes(length).hex(),
                    "frame_index": frame,
                }
            )
    return {
        "seed": rng.randrange(1 << 31),
        "subscribers": subscribers,
        "network_policy": {"consumption_policy": "IN_ORDER", "cipher": "A5_3", "batch_size": 1},
        "script": script,
    }


class BulkTraffic:
    name = "bulk_traffic"

    def __init__(self, seed: int, size: int = BULK_SIZE, frames: int = BULK_FRAMES):
        self.seed = seed
        self.raw = bulk_traffic_config(size, seed, frames)
        self.text = json.dumps(self.raw)
        self.frames = [s for s in self.raw["script"] if s["op"] == "SEND_TRAFFIC"]
        self.plaintext_bytes = sum(len(s["plaintext"]) // 2 for s in self.frames)

    def iterate(self) -> Iteration:
        result, text = _run_config(self.text)
        failed = len(self.frames) if result.aborted else 0
        return Iteration(ops=len(self.frames), output=text, failed=failed, detail=result)

    def report(self, median_s: float, samples: list[float]):
        yield "traffic_mb_per_s", self.plaintext_bytes / 1e6 / median_s, "MB/s"

    def check(self, it: Iteration) -> int:
        """Frames whose ciphertext disagrees with ref_a5_strong (seeded sample)."""
        by_actor = _events_by_actor(it.detail.trace)
        masters = {s["imsi"]: bytes.fromhex(s["master"]) for s in self.raw["subscribers"]}
        rng = random.Random(f"perfbench/bulk-check/{self.seed}")
        sample = rng.sample(self.frames, min(BULK_FRAME_SAMPLE, len(self.frames)))
        bad = 0
        for step in sample:
            imsi = step["imsi"]
            ue = by_actor.get(f"ue:{imsi}", [])
            rands = [e["rand"] for e in by_actor.get(f"vlr:{imsi}", []) if e["msg"] == "AUTH_CHALLENGE"]
            sent = [e for e in ue if e["msg"] == "TRAFFIC" and e["frame_index"] == step["frame_index"]]
            if len(rands) != 1 or len(sent) != 1 or sent[0]["alg"] != "A5_3":
                bad += 1
                continue
            ki, _ = oracle.ref_derive(masters[imsi], imsi)
            kc = oracle.ref_a8(ki, bytes.fromhex(rands[0]))
            plaintext = bytes.fromhex(step["plaintext"])
            stream = oracle.ref_a5_strong(A5_3_TAG, kc, step["frame_index"], len(plaintext))
            bad += oracle.xor(plaintext, stream) != bytes.fromhex(sent[0]["ciphertext"])
        return bad


# --- rand_stats --------------------------------------------------------------


class RandStats:
    name = "rand_stats"

    def __init__(self, seed: int, size: int = RAND_STATS_N):
        self.seed = seed
        self.n = size

    def iterate(self) -> Iteration:
        report = cli.rand_bit_stats(self.n, self.seed)
        return Iteration(ops=self.n, output=report, failed=0 if report["passed"] else self.n)

    def report(self, median_s: float, samples: list[float]):
        yield "challenges_per_s", self.n / median_s, "1/s"

    def check(self, it: Iteration) -> int:
        return 0 if it.output["passed"] and it.output["n"] == self.n else self.n


# --- golden_replay -----------------------------------------------------------


class GoldenReplay:
    """Every shipped config, replayed and byte-compared with its golden trace.

    The seed only fixes the order of the configs within each pass.
    """

    name = "golden_replay"

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"perfbench/golden/{seed}")
        self.cases = []
        for path in sorted((ROOT / "configs").glob("*.json")):
            golden = ROOT / "tests" / "golden" / f"{path.stem}.trace"
            self.cases.append((path.stem, path.read_text(encoding="utf-8"), golden.read_bytes()))
        if not self.cases:
            raise FileNotFoundError(f"no scenario configs under {ROOT / 'configs'}")

    def iterate(self) -> Iteration:
        order = self.cases[:]
        self.rng.shuffle(order)
        samples, failed, outputs = [], 0, {}
        clock = time.perf_counter
        for name, text, golden in order:
            t0 = clock()
            _, rendered = _run_config(text)
            same = rendered.encode("ascii") == golden
            samples.append(clock() - t0)
            failed += not same
            outputs[name] = rendered
        return Iteration(ops=len(order), output=outputs, failed=failed, samples=samples)

    def report(self, median_s: float, samples: list[float]):
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        yield "scenario_ms_p50", statistics.median(samples) * 1e3, "ms"
        yield "scenario_ms_p99", cuts[98] * 1e3, "ms"
        yield "scenario_samples", len(samples), "count"

    def check(self, it: Iteration) -> int:
        return 0


WORKLOADS = {w.name: w for w in (Fleet, RandStats, BulkTraffic, GoldenReplay)}
