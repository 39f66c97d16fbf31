#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the SCI paper path.

Usage (from the repository root)::

    python3 bench_e2e/run.py --workload discovery_churn --seed 1 \\
        --seconds 20 --trace 0

One process, one thread. A run repeats the workload — a fresh deployment
built from the same seed each time — while another repetition fits in
``--seconds`` of wall time (at least ``MIN_REPS`` times), and reports
medians over the repetitions. Every repetition checks its ground truth and its determinism
digest; the digest must be identical in every repetition.

``--trace 0`` prints the end-to-end metrics. Their times are seconds at
nominal machine speed: a fixed reference loop is timed before and after
every repetition (see ``reference.py``), and each repetition's wall times
are scaled by ``NOMINAL_S`` over the mean of the two reference times
around it, which cancels the drift of a shared machine's speed. ``--trace 1`` runs one
untraced repetition, then one with layer wrappers installed, and prints the
per-layer metrics: self time and calls per layer, the tracing overhead, and
the exact per-layer counts (which must agree between the two repetitions).
The spans of the traced repetition are written to
``bench_e2e/out/spans-<workload>.bin``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the environment stamp. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

HERE = Path(__file__).resolve().parent
#: repetitions a run makes at the least, however short ``--seconds`` is
MIN_REPS = 3
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program():
    """Import the program from this checkout's ``src`` only."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


class Rep:
    """The outcome of one repetition."""

    def __init__(self, workload, setup_s: float, wall_s: float, sim_s: float,
                 observed: Dict[str, int], counts: Dict[str, float],
                 exhausted: int):
        obs = workload.obs
        self.setup_s = setup_s
        self.wall_s = wall_s
        self.sim_s = sim_s
        self.observed = observed
        self.counts = counts
        self.event_latencies = obs.event_latencies
        self.query_latencies = obs.query_latencies
        self.digest = workload.digest()
        self.failures = list(obs.check_failures)
        self.attempted = observed["queries"] + observed["starts"]
        self.failed = (len(self.failures) + observed["refused"]
                       + observed["timeouts"] + exhausted)


def run_rep(workload_cls, seed: int, scale: float, tracer=None) -> Rep:
    from counters import FixCounter, layer_counts, read

    gc.collect()
    workload = workload_cls(seed, scale)
    started = perf_counter()
    workload.build()
    setup_s = perf_counter() - started

    sci, obs = workload.sci, workload.obs
    fixes = FixCounter(sci)
    workload.schedule()
    latency = sci.network.obs.metrics.get("net.delivery.latency")
    latency.reset()
    before = read(sci, fixes)
    marks = (obs.registrations, obs.events, obs.queries_acked,
             obs.queries_submitted, obs.starts, obs.queries_refused,
             obs.query_timeouts)
    sim_start = sci.now
    if tracer is None:
        started = perf_counter()
        workload.measure()
        wall_s = perf_counter() - started
    else:
        wall_s = tracer.root(workload.measure)
    after = read(sci, fixes)
    msg_p50 = latency.quantile(0.5) if latency.count else 0.0
    now = (obs.registrations, obs.events, obs.queries_acked,
           obs.queries_submitted, obs.starts, obs.queries_refused,
           obs.query_timeouts)
    observed = dict(zip(("registrations", "events", "acks", "queries",
                         "starts", "refused", "timeouts"),
                        (b - a for a, b in zip(marks, now))))
    workload.check()
    return Rep(workload, setup_s, wall_s, sci.now - sim_start, observed,
               layer_counts(before, after, msg_p50),
               int(after["exhausted"] - before["exhausted"]))


def end_to_end(reps: List[Rep], references: List[float]) -> Dict[str, tuple]:
    """Medians over repetitions of wall seconds at nominal machine speed.

    ``references`` holds the reference times taken before the first
    repetition and after each one; a repetition's wall seconds are scaled
    by ``NOMINAL_S`` over the mean of the two around it.
    """
    from reference import NOMINAL_S

    first = reps[0]
    to_nominal = [2.0 * NOMINAL_S / (before + after)
                  for before, after in zip(references, references[1:])]

    def median_of(value) -> float:
        return statistics.median(value(rep, scale)
                                 for rep, scale in zip(reps, to_nominal))

    def rate(key: str) -> float:
        return median_of(lambda rep, scale:
                         rep.observed[key] / (rep.wall_s * scale))

    events, queries = first.event_latencies, first.query_latencies
    return {
        "setup_s": (median_of(lambda rep, scale: rep.setup_s * scale), "s"),
        "events_per_s": (rate("events"), "1/s"),
        "queries_per_s": (rate("acks"), "1/s"),
        "registrations_per_s": (rate("registrations"), "1/s"),
        "sim_rate": (median_of(lambda rep, scale:
                               rep.sim_s / (rep.wall_s * scale)), "sim_s/s"),
        "event_sim_latency_p50": (percentile(events, 0.50), "sim_s"),
        "event_sim_latency_p99": (percentile(events, 0.99), "sim_s"),
        "query_sim_latency_p50": (percentile(queries, 0.50), "sim_s"),
        "query_sim_latency_p99": (percentile(queries, 0.99), "sim_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(untraced: Rep, traced: Rep, tracer) -> Dict[str, tuple]:
    from counters import UNITS
    from layers import LAYERS, ROOT as ROOT_SPAN

    self_s, calls, total = tracer.self_times()
    metrics: Dict[str, tuple] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    metrics["unattributed_s"] = (self_s[ROOT_SPAN], "s")
    metrics["traced_wall_s"] = (total, "s")
    metrics["untraced_wall_s"] = (untraced.wall_s, "s")
    metrics["trace_overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    for name, value in untraced.counts.items():
        metrics[name] = (value, UNITS.get(name, "count"))
    ratio = (tracer.component_up_useful / tracer.component_up
             if tracer.component_up else 0.0)
    metrics["net.broadcast_useful_ratio"] = (ratio, "ratio")
    metrics["event_latency_samples"] = (len(untraced.event_latencies), "count")
    metrics["query_latency_samples"] = (len(untraced.query_latencies), "count")
    return metrics


def environment() -> Dict[str, str]:
    """Python version, CPU count and the commit (or a source digest)."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(str(path.relative_to(SRC)).encode())
        sources.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": sources.hexdigest()[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size factor (the self-test uses <1)")
    args = parser.parse_args(argv)

    _import_program()
    from reference import reference_s
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    deadline = perf_counter() + args.seconds

    reps: List[Rep] = []
    references: List[float] = []
    tracer = None
    if args.trace:
        from layers import LayerTracer
        reps.append(run_rep(workload_cls, args.seed, args.scale))
        tracer = LayerTracer()
        tracer.install()
        try:
            reps.append(run_rep(workload_cls, args.seed, args.scale, tracer))
        finally:
            tracer.uninstall()
        tracer.write(str(HERE / "out" / f"spans-{args.workload}.bin"))
    else:
        # repeat while another repetition still fits in the time budget;
        # the machine's speed is measured before and after each one
        started = perf_counter()
        references.append(reference_s())
        while True:
            reps.append(run_rep(workload_cls, args.seed, args.scale))
            references.append(reference_s())
            per_rep = (perf_counter() - started) / len(reps)
            if (len(reps) >= MIN_REPS
                    and perf_counter() + per_rep > deadline):
                break

    problems = [f"rep {i}: {failure}" for i, rep in enumerate(reps)
                for failure in rep.failures]
    digests = {rep.digest for rep in reps}
    if len(digests) != 1:
        problems.append(f"determinism digest differs across repetitions: "
                        f"{sorted(d[:12] for d in digests)}")
    if args.trace:
        untraced, traced = reps
        if untraced.counts != traced.counts:
            changed = sorted(name for name in untraced.counts
                             if untraced.counts[name] != traced.counts[name])
            problems.append(f"per-layer counts differ under tracing: {changed}")
        metrics = per_layer(untraced, traced, tracer)
        self_sum = sum(value for name, (value, _) in metrics.items()
                       if name.endswith(".self_s")) + metrics["unattributed_s"][0]
        total = metrics["traced_wall_s"][0]
        if abs(self_sum - total) > 1e-6 * max(1.0, total):
            problems.append(f"self times sum to {self_sum}, not {total}")
    else:
        metrics = end_to_end(reps, references)
    if len(reps[0].event_latencies) < 1000 or len(reps[0].query_latencies) < 1000:
        if args.scale >= 1.0:
            problems.append("fewer than 1000 latency samples in the measured "
                            "phase; p99 is not resolved")

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    correct = not problems and failed == 0
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "loop": workload_cls.loop, "reps": len(reps),
                      "digest": reps[0].digest,
                      "setup_s": [round(rep.setup_s, 4) for rep in reps],
                      "wall_s": [round(rep.wall_s, 4) for rep in reps],
                      "reference_s": [round(ref, 4) for ref in references],
                      "sim_s": reps[0].sim_s,
                      "observed": reps[0].observed,
                      "latency_samples": [len(reps[0].event_latencies),
                                          len(reps[0].query_latencies)],
                      "env": environment()}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
