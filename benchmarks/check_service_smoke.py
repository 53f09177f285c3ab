#!/usr/bin/env python
"""CI smoke for the campaign service daemon (`repro-stamp serve`).

Exercises the whole crash-recovery story against the real process,
over real HTTP, the way an operator would see it:

1. start the daemon (`--port 0`, ephemeral), assert ``/healthz`` and
   ``/readyz``;
2. submit a tiny campaign over HTTP and poll it to ``done``;
3. start a second lifetime with a fault injected so one unit hangs,
   submit a second campaign, and ``kill -9`` the daemon mid-run;
4. restart cleanly over the same journal + ledger and verify the
   killed campaign was re-listed, resumed (recomputing *only* the
   units the crash swallowed), and finished — and that the first
   campaign's stored result survived byte-for-byte;
5. SIGTERM the daemon and require exit code 0 with a checkpoint as the
   journal's last record;
6. submit two long campaigns to a two-lane daemon, observe them
   demonstrably running at the same time, and assert their results are
   byte-identical to a single-lane control run in a fresh directory;
7. run ``repro.cli ledger compact`` on a live daemon's ledger between
   two campaigns, and assert the resubmission with doubled instances
   is answered half from the compacted ledger, reaches the compacted
   file, and serves the bytes of a fresh-directory control run.

Usage (what ci.yml runs)::

    python benchmarks/check_service_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")

TINY_TOPOLOGY = {"seed": 5, "tier1": 3, "tier2": 8, "tier3": 16, "stubs": 35}
FIRST = {
    "kind": "fig2", "instances": 2,
    "protocols": ["bgp", "stamp"], "topology": TINY_TOPOLOGY,
}
SECOND = dict(FIRST, seed=1)


def start_daemon(tmp, *, env_extra=None, extra_args=()):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update(env_extra or {})
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--ledger", str(tmp / "ledger.jsonl"),
            "--journal", str(tmp / "journal.jsonl"),
            *extra_args,
        ],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    line = process.stdout.readline().strip()
    assert line.startswith("listening on http://"), line
    return process, line.split("listening on ", 1)[1]


def request(base, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def compact_ledger(path):
    """``repro.cli ledger compact`` as an operator runs it; remaining count."""
    output = subprocess.run(
        [sys.executable, "-m", "repro.cli", "ledger", "compact", str(path)],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    ).stdout
    return int(output.split("; ", 1)[1].split()[0])


def run_campaign(base, spec):
    """Submit ``spec``, wait for ``done``; (status doc, result bytes)."""
    status, payload = request(base, "POST", "/campaigns", spec)
    assert status == 202, (status, payload)
    cid = json.loads(payload)["id"]
    final = wait_for(base, cid, lambda d: d["state"] == "done")
    return final, request(base, "GET", f"/campaigns/{cid}/result")[1]


def wait_for(base, cid, predicate, timeout=120.0):
    deadline = time.monotonic() + timeout
    doc = None
    while time.monotonic() < deadline:
        status, payload = request(base, "GET", f"/campaigns/{cid}")
        if status == 200:
            doc = json.loads(payload)
            if predicate(doc):
                return doc
        time.sleep(0.1)
    raise AssertionError(f"campaign {cid}: timed out waiting; last={doc}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)

        # -- lifetime 1: health, a full campaign, graceful stop --------
        daemon, base = start_daemon(tmp)
        status, payload = request(base, "GET", "/healthz")
        assert (status, json.loads(payload)) == (200, {"ok": True})
        assert request(base, "GET", "/readyz")[0] == 200

        status, payload = request(base, "POST", "/campaigns", FIRST)
        assert status == 202, (status, payload)
        first_id = json.loads(payload)["id"]
        wait_for(base, first_id, lambda d: d["state"] == "done")
        _, first_result = request(base, "GET", f"/campaigns/{first_id}/result")
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=60) == 0, "SIGTERM must exit 0"

        # -- lifetime 2: hang one unit, kill -9 mid-campaign -----------
        from repro.experiments.faults import fault_spec
        hang = fault_spec(
            "hang", kind="fig2-single-link", seed=1, instance=1,
            protocol="bgp", hang_seconds=3600.0,
        )
        daemon, base = start_daemon(tmp, env_extra={"REPRO_FAULTS": hang})
        status, payload = request(base, "POST", "/campaigns", SECOND)
        assert status == 202, (status, payload)
        second_id = json.loads(payload)["id"]
        wait_for(
            base, second_id,
            lambda d: d["progress"]["resolved_units"] >= 2,
        )
        daemon.kill()  # SIGKILL: no drain, no checkpoint
        daemon.wait(timeout=30)

        # -- lifetime 3: recover, resume, finish -----------------------
        daemon, base = start_daemon(tmp)
        _, payload = request(base, "GET", "/campaigns")
        listed = {c["id"] for c in json.loads(payload)["campaigns"]}
        assert listed == {first_id, second_id}, (
            f"recovery lost campaigns: {listed}"
        )
        final = wait_for(base, second_id, lambda d: d["state"] == "done")
        assert final["executed"] == 2 and final["ledger_hits"] == 2, (
            f"resume must recompute only the missing units: {final}"
        )
        _, replayed = request(base, "GET", f"/campaigns/{first_id}/result")
        assert replayed == first_result, (
            "recovered result is not byte-identical"
        )
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=60) == 0, "SIGTERM must exit 0"

        journal_lines = (tmp / "journal.jsonl").read_text().splitlines()
        last = json.loads(journal_lines[-1])
        assert last["body"]["event"] == "checkpoint", last

    # -- concurrent lanes: overlap observed, results byte-identical ----
    big_a = dict(FIRST, seed=10, instances=120, protocols=["bgp"])
    big_b = dict(FIRST, seed=11, instances=120, protocols=["bgp"])
    with tempfile.TemporaryDirectory() as tmpdir:
        daemon, base = start_daemon(
            Path(tmpdir), extra_args=("--max-concurrent", "2")
        )
        ids = []
        for spec in (big_a, big_b):
            status, payload = request(base, "POST", "/campaigns", spec)
            assert status == 202, (status, payload)
            ids.append(json.loads(payload)["id"])
        # Both campaigns demonstrably mid-run at the same instant.
        deadline = time.monotonic() + 120
        overlapped = False
        while time.monotonic() < deadline and not overlapped:
            states = []
            for cid in ids:
                status, payload = request(base, "GET", f"/campaigns/{cid}")
                states.append(
                    json.loads(payload)["state"] if status == 200 else "?"
                )
            overlapped = states == ["running", "running"]
            time.sleep(0.02)
        assert overlapped, "two-lane daemon never overlapped campaigns"
        concurrent_results = []
        for cid in ids:
            wait_for(base, cid, lambda d: d["state"] == "done")
            concurrent_results.append(
                request(base, "GET", f"/campaigns/{cid}/result")[1]
            )
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=60) == 0, "SIGTERM must exit 0"

    with tempfile.TemporaryDirectory() as tmpdir:
        daemon, base = start_daemon(
            Path(tmpdir), extra_args=("--max-concurrent", "1")
        )
        for cid, spec, concurrent in zip(
            ids, (big_a, big_b), concurrent_results
        ):
            status, payload = request(base, "POST", "/campaigns", spec)
            assert json.loads(payload)["id"] == cid
            wait_for(base, cid, lambda d: d["state"] == "done")
            _, serial = request(base, "GET", f"/campaigns/{cid}/result")
            assert serial == concurrent, (
                f"concurrent result for {cid[:12]} differs from the "
                "single-lane control"
            )
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=60) == 0, "SIGTERM must exit 0"

    # -- live compaction: `ledger compact` between two campaigns ------
    doubled = dict(FIRST, instances=4)
    with tempfile.TemporaryDirectory() as tmpdir:
        ledger = Path(tmpdir) / "ledger.jsonl"
        daemon, base = start_daemon(Path(tmpdir))
        run_campaign(base, FIRST)
        assert compact_ledger(ledger) == 4
        final, compacted_result = run_campaign(base, doubled)
        assert final["executed"] == 4 and final["ledger_hits"] == 4, (
            f"the live daemon lost the compacted ledger: {final}"
        )
        assert compact_ledger(ledger) == 8, (
            "units written after a live compaction missed the new file"
        )
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=60) == 0, "SIGTERM must exit 0"
    with tempfile.TemporaryDirectory() as tmpdir:
        daemon, base = start_daemon(Path(tmpdir))
        final, control_result = run_campaign(base, doubled)
        assert final["executed"] == 8, final
        assert compacted_result == control_result, (
            "result after a live compaction differs from a fresh run"
        )
        daemon.send_signal(signal.SIGTERM)
        assert daemon.wait(timeout=60) == 0, "SIGTERM must exit 0"

    print(
        "OK: daemon served a campaign, survived kill -9 mid-campaign, "
        "recovered both campaigns from the journal, resumed with exactly "
        "2 recomputed units, served byte-identical results, exited 0 "
        "on SIGTERM with a journal checkpoint, ran two campaigns "
        "concurrently with results byte-identical to a single-lane run, "
        "and kept every unit across a live ledger compaction."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
