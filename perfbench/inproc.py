"""In-process campaign caller of the ``fig2`` workload.

``run.py`` starts this file as a child process, so set-up (interpreter
start, imports, topology generation) and peak memory are those of a
real campaign process.  One closed-loop caller runs Figure 2 campaigns
back to back through ``fig2_single_link_failure``, in-process
(``workers=1``, no ledger), so the cyclic-GC pause, R-BGP twin-start
sharing and network disposal run as users get them.  Campaign ``k`` of
seed ``s`` uses the campaign seed ``1000 * s + k``, so seed 0 starts
with the campaign the golden Figure 2 statistics were taken from.

Usage::

    python perfbench/inproc.py --setup-only
    python perfbench/inproc.py --seed 0 --seconds 50 --out result.json \
        [--trace]

The child prints ``READY`` once set-up is done and writes its
measurements as JSON to ``--out``.  With ``--trace`` it then replays
the first campaigns of the run, each once unwrapped and once with every
layer wrapped (``tracing.py``), and adds the spans and counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from repro.experiments import supervisor
from repro.experiments.canonical import canonical_json
from repro.experiments.figures import FailureFigureData, fig2_single_link_failure
from repro.experiments.runner import ExperimentConfig
from repro.topology import generators

from tracing import Tracer, install_layers

#: Instances per campaign (each runs all four protocols).
INSTANCES = 4
#: Campaigns every run completes and a traced run replays (fixed, so
#: counters and digests of one seed repeat exactly).
PREFIX = 3
#: Instances of campaign 0 that the golden Figure 2 statistics cover.
GOLDEN_INSTANCES = 2


def campaign_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def generate_topology():
    graph, _ = generators.generate_internet_topology(
        generators.InternetTopologyConfig()
    )
    return graph


def run_campaign(graph, seed: int, index: int):
    config = ExperimentConfig(
        seed=campaign_seed(seed, index), n_instances=INSTANCES, workers=1
    )
    return fig2_single_link_failure(config, graph=graph)


def campaign_digest(data) -> str:
    """SHA-256 of the per-unit affected, updates and convergence values."""
    rows = [
        [
            protocol, index, run.affected, run.updates,
            run.convergence_time, run.initial_updates,
            run.initial_convergence_time,
        ]
        for protocol, runs in data.runs.items()
        for index, run in enumerate(runs)
    ]
    return hashlib.sha256(canonical_json(rows).encode()).hexdigest()


def golden_stats(data) -> dict:
    """Figure 2 statistics of the first instances, as the golden file has them."""
    head = FailureFigureData(
        scenario_kind=data.scenario_kind,
        runs={p: runs[:GOLDEN_INSTANCES] for p, runs in data.runs.items()},
    )
    return {
        name: {p: repr(v) for p, v in getattr(head, name)().items()}
        for name in (
            "mean_affected", "mean_convergence_time", "mean_updates",
            "mean_initial_updates", "mean_disruption",
        )
    }


class UnitTimer:
    """Wall time of every unit, taken around ``supervisor.run_unit``."""

    def __init__(self) -> None:
        self.samples = []
        run_unit = supervisor.run_unit

        def timed_run_unit(*args):
            start = time.perf_counter()
            result = run_unit(*args)
            self.samples.append(time.perf_counter() - start)
            return result

        supervisor.run_unit = timed_run_unit


def run_one(graph, seed: int, index: int) -> dict:
    begin = time.perf_counter()
    data = run_campaign(graph, seed, index)
    record = {
        "index": index,
        "latency_s": time.perf_counter() - begin,
        "units": sum(len(runs) for runs in data.runs.values())
        + len(data.failures),
        "failed_units": len(data.failures),
        "digest": campaign_digest(data),
    }
    if index == 0:
        record["golden_stats"] = golden_stats(data)
    return record


def run_pass(graph, seed, timer, *, seconds):
    """Closed loop: ``PREFIX`` campaigns, then more until ``seconds`` pass."""
    records = []
    started = time.perf_counter()
    while len(records) < PREFIX or time.perf_counter() - started < seconds:
        records.append(run_one(graph, seed, len(records)))
    return {
        "elapsed_s": time.perf_counter() - started,
        "campaigns": records,
        "unit_s": list(timer.samples),
    }


def run_replay(seed) -> dict:
    """The first ``PREFIX`` campaigns again, each untraced then traced.

    Running each pair back to back keeps slow phases of a shared host
    out of the comparison, so the two latencies differ by the tracing.
    """
    tracer = Tracer()
    install_layers(tracer)
    graph = generate_topology()
    replay = {"untraced": [], "traced": []}
    for index in range(PREFIX):
        for name in replay:
            tracer.enabled = name == "traced"
            replay[name].append(run_one(graph, seed, index))
    replay["trace"] = tracer.dump()
    return replay


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    graph = generate_topology()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    timer = UnitTimer()
    result = run_pass(graph, args.seed, timer, seconds=args.seconds)
    if args.trace:
        result["replay"] = run_replay(args.seed)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
