#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

Run from the repository root::

    python3 bench_e2e/selftest.py

1. Runs every workload of ``BENCHMARK.json`` at reduced size through
   ``run.py``, untraced and traced, and checks that the result line names
   exactly the declared end-to-end (untraced) or per-layer (traced)
   metrics, each with its declared unit, and that the run passed.
2. Runs the traced workload again in a process with another string-hash
   seed and checks that the determinism digest and every count metric
   repeat across the processes.
3. Seeds a wrong answer into each kind of correctness gate and checks that
   the gate fires: a tracker's last location, the registrar membership,
   a ledger entry, empty profile-mode query results, and the determinism
   digest.

Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.25"


def fail(message: str) -> None:
    print(f"SELFTEST FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def run_cli(workload: str, trace: int, hash_seed: str) -> tuple:
    """One run at reduced size: its stamp and its result."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "0", "--scale", SCALE,
               "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=170)
    if done.returncode != 0:
        fail(f"{' '.join(command[1:])} exited {done.returncode}: "
             f"{done.stderr[-500:]}")
    stamp, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(stamp), json.loads(result)


def counts(result: dict) -> dict:
    """Every metric of a result that is not a wall time."""
    return {name: metric["value"]
            for name, metric in result["metrics"].items()
            if metric["unit"] != "s"}


def check_metrics(spec: dict) -> None:
    for workload in spec["workloads"]:
        name = workload["name"]
        digests = {}
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            stamp, result = run_cli(name, trace, str(1 + trace))
            digests[trace] = stamp["digest"]
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{name}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{name} trace={trace}: {result}")
            want = {metric["name"]: metric["unit"] for metric in declared}
            got = {metric: value["unit"]
                   for metric, value in result["metrics"].items()}
            if want != got:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(m for m in set(want) & set(got)
                               if want[m] != got[m])
                fail(f"{name} trace={trace}: missing {missing}, "
                     f"extra {extra}, wrong units {wrong}")
            print(f"ok  {name:18s} trace={trace}: {len(got)} metrics")
        # another process, another string-hash seed: same observable run
        stamp, again = run_cli(name, 1, "3")
        if len({stamp["digest"], *digests.values()}) != 1:
            fail(f"{name}: digest differs across processes of one seed")
        if counts(again) != counts(result):
            changed = sorted(metric for metric in counts(result)
                             if counts(again).get(metric)
                             != counts(result)[metric])
            fail(f"{name}: counts differ across processes of one seed: "
                 f"{changed}")
        print(f"ok  {name:18s} digest and {len(counts(result))} counts "
              f"repeat across 3 processes")


def gate_fires(label: str, workload_cls, sabotage, before: bool = False) -> None:
    """Run one reduced repetition, sabotaging it after set-up (``before``
    the measured phase) or else its end state, then check."""
    workload = workload_cls(7, float(SCALE))
    workload.build()
    if before:
        sabotage(workload)
    workload.schedule()
    workload.measure()
    if not before:
        sabotage(workload)
    workload.check()
    if not workload.obs.check_failures:
        fail(f"gate did not fire on a seeded wrong answer: {label}")
    print(f"ok  gate fires: {label}: {workload.obs.check_failures[0]}")


def check_gates() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import DiscoveryChurn, LocationTracking, QueryMix

    def wrong_location(workload) -> None:
        tracker = next(iter(workload.trackers.values()))
        key = next(key for key in sorted(tracker.latest)
                   if key[0] == "location")
        tracker.latest[key] = "nowhere"

    def lost_member(workload) -> None:
        server = workload.sci.ranges["r0"]
        record = next(record for record in server.registrar.records()
                      if record.kind == "ce")
        server.registrar.remove(record.entity_hex, "sabotage",
                                notify_entity=False)

    def tampered_ledger(workload) -> None:
        server = next(iter(workload.sci.ranges.values()))
        entry = server.ledger.entries()[-1]
        entry.payload["sabotage"] = True

    def empty_profiles(workload) -> None:
        """Every CAA is handed profile-mode results with no profiles."""
        for app in workload.apps.values():
            def emptied(app, query_id, payload, check=app.check_result):
                if payload.get("mode") == "profile":
                    payload = dict(payload, profiles=[])
                check(app, query_id, payload)
            app.check_result = emptied

    gate_fires("tracker location", LocationTracking, wrong_location)
    gate_fires("registrar membership", DiscoveryChurn, lost_member)
    gate_fires("ledger verify", QueryMix, tampered_ledger)
    gate_fires("named CE in profile result", DiscoveryChurn, empty_profiles,
               before=True)
    gate_fires("room printers in profile result", QueryMix, empty_profiles,
               before=True)

    digests = set()
    for seed in (7, 7, 8):
        workload = QueryMix(seed, float(SCALE))
        workload.build()
        workload.schedule()
        workload.measure()
        digests.add(workload.digest())
    if len(digests) != 2:
        fail(f"digest should repeat for one seed and differ for another: "
             f"{len(digests)} distinct over seeds 7, 7, 8")
    print("ok  digest repeats per seed and separates seeds")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_gates()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
