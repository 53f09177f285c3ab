"""The repository benchmark: one workload per invocation, outputs checked.

Usage::

    python3 perfbench/run.py --workload {fig2,service} \
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the program is ``src/repro``.
``--seed`` makes every input of the run (campaign seeds), so one seed
always gives the same inputs.  With ``--trace 0`` the run measures the
end-to-end metrics with no tracing.  With ``--trace 1`` it makes the
same untraced run, then replays its fixed first campaigns with every
layer wrapped (``tracing.py``) and reports the per-layer metrics,
including the tracing overhead measured against the untraced run.

Each run checks its outputs and fails (exit code 1, ``"correct":
false``) on any mismatch:

* the canonical digest of each campaign's per-unit results must equal
  the digest of the same campaign in the traced replay, and in every
  earlier run of the same seed in this checkout (kept in
  ``.perfbench/expected.json``), as must the exact work counters of a
  traced run;
* at seed 0, the first two instances of the first ``fig2`` campaign
  must give the statistics in ``tests/golden/fig2_seed_golden.json``;
* in ``service``, one campaign's result document must equal, byte for
  byte, the document built from an in-process
  ``fig2_single_link_failure`` run of the same spec.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report.  Workloads, metrics and the layer map
are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import serviceload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
EXPECTED = STATE / "expected.json"
GOLDEN = ROOT / "tests" / "golden" / "fig2_seed_golden.json"

WORKLOADS = ("fig2", "service")
PROTOCOLS = ("bgp", "rbgp-norci", "rbgp", "stamp")
#: Set-ups measured per untraced run, half before and half after the
#: timed phase so that one slow phase of a shared host does not set
#: them all; ``setup_s`` is their median.
SETUP_SAMPLES = 8
#: A percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100
CHILD_TIMEOUT_S = 150.0

#: Work counters that must repeat exactly across runs of one seed.  In
#: ``service`` the sim counters cover only units the daemon ran on a
#: lane thread, which depends on scheduling, so they are not compared.
EXACT_COUNTERS = {
    "fig2": (
        "sim.engine_events", "sim.updates_initial", "sim.updates_event",
        "analysis.trace_changes", "experiments.units_executed",
        "experiments.ledger_hits",
    ),
    "service": (
        "sim.updates_event", "experiments.units_executed",
        "experiments.ledger_hits", "experiments.ledger_puts",
        "service.journal_appends",
    ),
}

#: The split each workload was chosen by, measured with external
#: wrappers before this benchmark existed; printed beside the traced
#: shares so a later change can see where time moved.
QUOTED_SPLIT = {
    "fig2": "initial convergence ~36%",
    "service": "journal/ledger fsyncs, worker spawn, shm fan-out and HTTP",
}


class BenchError(Exception):
    """The run could not be carried out (not an output mismatch)."""


# ----------------------------------------------------------------------
# Running the program
# ----------------------------------------------------------------------


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn_until_ready(argv):
    """Start a child and wait for its ``READY`` line; (process, seconds)."""
    started = time.perf_counter()
    process = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, env=child_env()
    )
    ready, _, _ = select.select([process.stdout], [], [], CHILD_TIMEOUT_S)
    line = process.stdout.readline().strip() if ready else ""
    elapsed = time.perf_counter() - started
    if line != "READY":
        stop_process(process)
        raise BenchError(f"{argv[1]} did not finish set-up: {line!r}")
    return process, elapsed


def stop_process(process) -> None:
    if process.poll() is None:
        process.kill()
    process.wait()
    process.stdout.close()


def sample_setups(probe, trace, first):
    """Set-up samples ``probe(index)``: the first or the second half."""
    if trace:
        return []
    half = SETUP_SAMPLES // 2
    indices = range(half) if first else range(half, SETUP_SAMPLES)
    return [probe(index) for index in indices]


def run_fig2(seed, seconds, trace, tmp):
    base = [sys.executable, str(ROOT / "perfbench" / "inproc.py")]

    def probe(index):
        process, elapsed = spawn_until_ready(base + ["--setup-only"])
        try:
            process.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            stop_process(process)
        return elapsed

    setup = sample_setups(probe, trace, first=True)
    out = tmp / "result.json"
    argv = base + ["--seed", str(seed), "--seconds", str(seconds),
                   "--out", str(out)]
    if trace:
        argv.append("--trace")
    process, _ = spawn_until_ready(argv)
    try:
        code = process.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"fig2 run exceeded {CHILD_TIMEOUT_S}s")
    finally:
        stop_process(process)
    if code != 0:
        raise BenchError(f"fig2 run exited with {code}")
    setup += sample_setups(probe, trace, first=False)
    result = json.loads(out.read_text())
    report = {
        "setup_s": setup,
        "pass": {
            "campaigns": result["campaigns"],
            "unit_s": result["unit_s"],
            "elapsed_s": result["elapsed_s"],
            "units_per_s": sum(c["units"] for c in result["campaigns"])
            / result["elapsed_s"],
        },
        "attempted": 0,
        "failed": 0,
        "digests": {},
        "mismatches": [],
    }
    passes = [("untraced", result["campaigns"])]
    if trace:
        replay = result["replay"]
        passes += [("untraced replay", replay["untraced"]),
                   ("traced", replay["traced"])]
        report["trace"] = replay["trace"]
        report["overhead"] = tuple(
            sum(c["units"] for c in replay[name])
            / sum(c["latency_s"] for c in replay[name])
            for name in ("untraced", "traced")
        )
    for name, campaigns in passes:
        for campaign in campaigns:
            report["attempted"] += campaign["units"]
            report["failed"] += campaign["failed_units"]
            record_digest(report, name, f"fig2/{seed}/{campaign['index']}",
                          campaign["digest"])
            if seed == 0 and "golden_stats" in campaign:
                check_golden(report, name, campaign["golden_stats"])
    return report


def check_golden(report, pass_name, stats) -> None:
    golden = json.loads(GOLDEN.read_text())["fig2_stats"]
    if stats != golden:
        report["mismatches"].append(
            f"{pass_name} fig2 seed 0: the first instances differ from "
            f"{GOLDEN.relative_to(ROOT)}"
        )


def run_service(seed, seconds, trace, tmp):
    def probe(index):
        daemon = serviceload.Daemon(ROOT, tmp / f"probe{index}")
        try:
            return daemon.wait_ready()
        finally:
            daemon.stop()

    setup = sample_setups(probe, trace, first=True)
    main_pass, main_units = drive_daemon(tmp / "main", seed, seconds)
    setup += sample_setups(probe, trace, first=False)
    campaigns = [c for client in main_pass["clients"] for c in client]
    report = {
        "setup_s": setup,
        "pass": {
            "campaigns": campaigns,
            "unit_s": main_units,
            "elapsed_s": main_pass["elapsed_s"],
            "units_per_s": sum(c["resolved_units"] for c in campaigns)
            / main_pass["elapsed_s"],
        },
        "digests": {},
        "mismatches": [],
    }
    passes = [("untraced", main_pass)]
    if trace:
        # Back to back, so slow phases of a shared host hit both alike.
        trace_out = tmp / "trace.json"
        replay, _ = drive_daemon(tmp / "replay", seed, 0.0)
        traced, _ = drive_daemon(tmp / "traced", seed, 0.0, trace_out=trace_out)
        passes += [("untraced replay", replay), ("traced", traced)]
        report["trace"] = json.loads(trace_out.read_text())
        report["service_wait_s"] = (
            sum(c["latency_s"] for client in traced["clients"] for c in client)
            - report["trace"]["times"]
            .get("experiments.campaign", {})
            .get("total_s", 0.0)
        )
        report["overhead"] = (replay_rate(replay), replay_rate(traced))
    report["attempted"] = sum(
        p["requests"] + sum(c["units"] for client in p["clients"] for c in client)
        for _, p in passes
    )
    report["failed"] = sum(
        p["failed_requests"] + len(p["errors"])
        + sum(c["failed_units"] for client in p["clients"] for c in client)
        for _, p in passes
    )
    for name, load in passes:
        report["mismatches"] += load["errors"]
        for client in load["clients"]:
            for campaign in client:
                if campaign["state"] != "done" or campaign["result"] is None:
                    report["mismatches"].append(
                        f"{name} campaign {campaign['id'][:12]} ended "
                        f"{campaign['state']}"
                    )
                    continue
                record_digest(
                    report, name, f"service/{seed}/{campaign['id']}",
                    hashlib.sha256(campaign["result"].encode()).hexdigest(),
                )
    first = next(iter(main_pass["clients"][0]), None)
    if first is None:
        report["mismatches"].append("client 0 finished no campaign")
    elif first["result"] is not None:
        expected = service_reference(serviceload.campaign_spec(seed, 0, 0))
        if first["result"] != expected + "\n":
            report["mismatches"].append(
                f"service campaign {first['id'][:12]} differs from the "
                "in-process fig2_single_link_failure result of its spec"
            )
    return report


def drive_daemon(workdir, seed, seconds, *, trace_out=None):
    """One daemon lifetime under the closed-loop clients."""
    daemon = serviceload.Daemon(ROOT, workdir, trace_out=trace_out)
    try:
        daemon.wait_ready()
        load = serviceload.drive(
            daemon.port, seed, seconds=seconds,
            steps=serviceload.PREFIX_STEPS,
        )
    finally:
        code = daemon.stop()
    if code != 0:
        raise BenchError(f"daemon exited with {code} after SIGTERM")
    return load, daemon.unit_seconds()


def service_reference(payload: dict) -> str:
    """Result document of ``payload`` computed in-process, as the daemon would."""
    sys.path.insert(0, str(SRC))
    from repro.experiments.canonical import canonical_json
    from repro.experiments.figures import fig2_single_link_failure
    from repro.experiments.parallel import CampaignOutcome
    from repro.experiments.runner import ExperimentConfig
    from repro.service.app import build_result_document
    from repro.service.spec import CampaignSpec
    from repro.topology.generators import generate_internet_topology

    spec = CampaignSpec.parse(payload)
    graph, _ = generate_internet_topology(spec.topology_config())
    config = ExperimentConfig(
        seed=spec.seed, n_instances=spec.instances,
        protocols=spec.protocols, workers=1,
    )
    data = fig2_single_link_failure(config, graph=graph)
    outcome = CampaignOutcome(runs=data.runs, failures=data.failures)
    return canonical_json(
        build_result_document(spec.campaign_id(), spec, outcome)
    )


def replay_rate(load) -> float:
    """Units per second of a fixed-length service pass."""
    units = sum(c["resolved_units"] for client in load["clients"] for c in client)
    return units / max(c["finished_s"] for client in load["clients"] for c in client)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def record_digest(report, pass_name, key, digest) -> None:
    seen = report["digests"].setdefault(key, digest)
    if seen != digest:
        report["mismatches"].append(
            f"{key}: {pass_name} digest differs from the untraced run"
        )


def check_expected(entries: dict, mismatches: list) -> None:
    """Compare with earlier runs in this checkout; remember new entries."""
    STATE.mkdir(exist_ok=True)
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for key, value in entries.items():
        if key in expected and expected[key] != value:
            mismatches.append(
                f"{key}: {value} differs from an earlier run of this seed "
                f"({expected[key]})"
            )
        expected.setdefault(key, value)
    handle, path = tempfile.mkstemp(dir=STATE, suffix=".json")
    with os.fdopen(handle, "w") as out:
        json.dump(expected, out, sort_keys=True)
    os.replace(path, EXPECTED)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(report) -> dict:
    run = report["pass"]
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(report["setup_s"]), "s"),
        "units_per_s": (run["units_per_s"], "1/s"),
        "unit_p50_ms": (statistics.median(run["unit_s"]) * 1000, "ms"),
        "latency_p50_s": (
            statistics.median(c["latency_s"] for c in run["campaigns"]), "s"
        ),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }


def per_layer(workload, report) -> dict:
    times = report["trace"]["times"]
    counters = report["trace"]["counters"]

    def self_ms(name):
        return times.get(name, {}).get("self_s", 0.0) * 1000

    def count(name):
        return counters.get(name, 0)

    metrics = {}
    for protocol in PROTOCOLS:
        metrics[f"sim.start_ms.{protocol}"] = (self_ms(f"sim.start.{protocol}"), "ms")
    for protocol in PROTOCOLS:
        metrics[f"sim.reconverge_ms.{protocol}"] = (
            self_ms(f"sim.reconverge.{protocol}"), "ms"
        )
    for name in ("sim.engine_events", "sim.updates_initial", "sim.updates_event"):
        metrics[name] = (count(name), "count")
    metrics["analysis.scenario_ms"] = (self_ms("analysis.scenario"), "ms")
    metrics["analysis.trace_changes"] = (count("analysis.trace_changes"), "count")
    metrics["experiments.build_ms"] = (self_ms("experiments.build"), "ms")
    rbgp_units = count("experiments.rbgp_units")
    metrics["experiments.twin_start_hit_ratio"] = (
        1 - count("experiments.rbgp_starts") / rbgp_units if rbgp_units else 0.0,
        "ratio",
    )
    metrics["experiments.campaign_ms"] = (self_ms("experiments.campaign"), "ms")
    metrics["experiments.ledger_put_ms"] = (self_ms("experiments.ledger_put"), "ms")
    metrics["experiments.ledger_puts"] = (count("experiments.ledger_puts"), "count")
    executed = count("experiments.units_executed")
    hits = count("experiments.ledger_hits")
    metrics["experiments.units_executed"] = (executed, "count")
    metrics["experiments.ledger_hits"] = (hits, "count")
    metrics["experiments.ledger_hit_ratio"] = (
        hits / (hits + executed) if hits + executed else 0.0, "ratio"
    )
    metrics["topology.generate_ms"] = (self_ms("topology.generate"), "ms")
    metrics["topology.share_graph_ms"] = (self_ms("topology.share_graph"), "ms")
    metrics["service.journal_append_ms"] = (self_ms("service.journal_append"), "ms")
    metrics["service.journal_appends"] = (count("service.journal_appends"), "count")
    metrics["service.http_ms"] = (self_ms("service.http"), "ms")
    metrics["service.requests"] = (count("service.requests"), "count")
    metrics["service.wait_s"] = (report.get("service_wait_s", 0.0), "s")
    untraced, traced = report["overhead"]
    metrics["trace.overhead_pct"] = ((untraced - traced) / untraced * 100, "%")
    root = "experiments.campaign" if workload == "service" else "experiments.unit"
    root_total = times.get(root, {}).get("total_s", 0.0)
    metrics["trace.uncovered_pct"] = (
        times.get(root, {}).get("self_s", 0.0) / root_total * 100
        if root_total else 0.0,
        "%",
    )
    return metrics


def layer_shares(workload, report, metrics) -> list:
    """Readable per-layer shares of the traced unit (or campaign) time."""
    times = report["trace"]["times"]
    lines = [f"quoted split for {workload}: {QUOTED_SPLIT[workload]}"]
    if workload == "service":
        total = (
            metrics["service.wait_s"][0]
            + times.get("experiments.campaign", {}).get("total_s", 0.0)
        ) * 1000
        parts = {
            "experiments.campaign (self)": metrics["experiments.campaign_ms"][0],
            "experiments.ledger_put": metrics["experiments.ledger_put_ms"][0],
            "topology.share_graph": metrics["topology.share_graph_ms"][0],
            "units on daemon lanes": times.get("experiments.unit", {})
            .get("total_s", 0.0) * 1000,
            "service.wait (queue, HTTP, polling)": metrics["service.wait_s"][0] * 1000,
        }
        lines.append("traced shares of client latency:")
    else:
        total = times.get("experiments.unit", {}).get("total_s", 0.0) * 1000
        parts = {
            "sim.start (all protocols)": sum(
                metrics[f"sim.start_ms.{p}"][0] for p in PROTOCOLS
            ),
            "sim.reconverge (all protocols)": sum(
                metrics[f"sim.reconverge_ms.{p}"][0] for p in PROTOCOLS
            ),
            "analysis.scenario": metrics["analysis.scenario_ms"][0],
            "experiments.build": metrics["experiments.build_ms"][0],
            "uncovered": times.get("experiments.unit", {}).get("self_s", 0.0) * 1000,
        }
        lines.append("traced shares of unit time:")
    for name, value in parts.items():
        share = value / total * 100 if total else 0.0
        lines.append(f"  {name:40s} {share:6.1f}%  ({value:.1f} ms)")
    lines += predictions(workload, metrics, parts)
    return lines


#: Metrics only the service workload exercises.
SERVICE_ONLY = (
    "experiments.ledger_put_ms", "experiments.ledger_hit_ratio",
    "service.journal_append_ms", "service.wait_s",
)


def predictions(workload, metrics, parts) -> list:
    """The per-layer predictions the benchmark was defined with, checked."""
    if workload == "fig2":
        start = parts["sim.start (all protocols)"]
        checks = [
            ("sim.start_ms.* together are the largest layer share",
             start >= max(v for k, v in parts.items()
                          if k != "sim.start (all protocols)")),
            ("ledger, journal and wait metrics are zero",
             all(metrics[name][0] == 0 for name in SERVICE_ONLY)),
        ]
    else:
        checks = [("ledger, journal and wait metrics are non-zero",
                   all(metrics[name][0] > 0 for name in SERVICE_ONLY))]
    return [f"prediction: {claim}: {'met' if ok else 'NOT MET'}"
            for claim, ok in checks]


def percentile_lines(report) -> list:
    run = report["pass"]
    lines = []
    for label, samples, scale, unit in (
        ("unit", run["unit_s"], 1000, "ms"),
        ("latency", [c["latency_s"] for c in run["campaigns"]], 1, "s"),
    ):
        line = (f"{label}: n={len(samples)} p50="
                f"{statistics.median(samples) * scale:.4g} {unit}")
        if len(samples) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(samples, n=10)[-1]
            line += f" p90={p90 * scale:.4g} {unit}"
        lines.append(line)
    lines.append(
        f"campaigns_per_min: {len(run['campaigns']) / run['elapsed_s'] * 60:.4g}"
    )
    return lines


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2

    STATE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    try:
        if args.workload == "service":
            report = run_service(args.seed, args.seconds, args.trace, tmp)
        else:
            report = run_fig2(args.seed, args.seconds, args.trace, tmp)
    except (BenchError, RuntimeError) as error:
        print(f"benchmark run failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    mismatches = report["mismatches"]
    expected = dict(report["digests"])
    lines = percentile_lines(report)
    if args.trace:
        metrics = per_layer(args.workload, report)
        for name in EXACT_COUNTERS[args.workload]:
            expected[f"{args.workload}/{args.seed}/counter/{name}"] = metrics[name][0]
        lines += layer_shares(args.workload, report, metrics)
    else:
        metrics = end_to_end(report)
    check_expected(expected, mismatches)

    attempted, failed = report["attempted"], report["failed"]
    if not attempted:
        mismatches.append("no operation was attempted")
    lines.append(
        f"error_ratio: {failed / max(attempted, 1):.6g} ({failed} failed of "
        f"{attempted} operations attempted)"
    )
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    for mismatch in mismatches:
        lines.append(f"MISMATCH: {mismatch}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
