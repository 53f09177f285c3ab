"""Closed-loop HTTP clients and daemon lifetime for the ``service`` workload.

The daemon is ``repro-stamp serve`` with 2 lanes and ``--workers 2``,
started through ``daemon.py`` on a loopback port with a fresh journal
and ledger.  ``CLIENTS`` client threads of one process drive it as a
closed loop: submit a campaign, poll it to ``done``, fetch the result,
then submit the next.  The connection is kept alive between requests,
as any HTTP/1.1 client does.  Campaigns are Figure 2 campaigns on the 62-AS
smoke topology of ``benchmarks/check_service_smoke.py``.  Every third
step of a client re-submits its own campaign of two steps earlier with
doubled instances, so a fixed share of units is read from the ledger
beside the units written to it.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

CLIENTS = 2
INSTANCES = 2
PROTOCOLS = ["bgp", "rbgp-norci", "rbgp", "stamp"]
SMOKE_TOPOLOGY = {"seed": 5, "tier1": 3, "tier2": 8, "tier3": 16, "stubs": 35}
DAEMON_ARGS = ["--workers", "2", "serve", "--max-concurrent", "2"]
POLL_S = 0.02
REQUEST_TIMEOUT_S = 30.0
CAMPAIGN_TIMEOUT_S = 60.0
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0
#: Steps per client that every run completes and a traced run replays.
PREFIX_STEPS = 6


def campaign_spec(seed: int, client: int, step: int) -> dict:
    base, instances = step, INSTANCES
    if step % 3 == 2:
        base, instances = step - 2, 2 * INSTANCES
    return {
        "kind": "fig2",
        "seed": 100_000 * seed + 1_000 * client + base,
        "instances": instances,
        "protocols": PROTOCOLS,
        "topology": SMOKE_TOPOLOGY,
    }


class Daemon:
    """One daemon lifetime in its own directory under the run's scratch dir."""

    def __init__(self, root: Path, workdir: Path, trace_out=None) -> None:
        self.unit_log = workdir / "units"
        self.unit_log.mkdir(parents=True)
        env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            PERFBENCH_UNIT_LOG=str(self.unit_log),
        )
        argv = [sys.executable, str(root / "perfbench" / "daemon.py")]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        argv += ["--", *DAEMON_ARGS, "--port", "0",
                 "--ledger", str(workdir / "ledger.jsonl"),
                 "--journal", str(workdir / "journal.jsonl")]
        self._stderr_path = workdir / "daemon.err"
        self._stderr = open(self._stderr_path, "wb")
        self.started = time.perf_counter()
        # A session of its own, so pool workers left behind by a daemon
        # that had to be killed can be killed with it.
        self.process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            env=env, start_new_session=True,
        )
        self.port: Optional[int] = None

    def wait_ready(self) -> float:
        """Block until ``/readyz`` answers 200; seconds since the spawn."""
        deadline = self.started + START_TIMEOUT_S
        ready, _, _ = select.select(
            [self.process.stdout], [], [], START_TIMEOUT_S
        )
        line = self.process.stdout.readline().strip() if ready else ""
        if not line.startswith("listening on http://"):
            tail = self._stderr_path.read_text(errors="replace")[-500:]
            raise RuntimeError(f"daemon did not start: {line!r} {tail}")
        self.port = int(line.rsplit(":", 1)[1])
        probe = Client(self.port)
        try:
            while time.perf_counter() < deadline:
                if probe.try_request("GET", "/readyz")[0] == 200:
                    return time.perf_counter() - self.started
                time.sleep(0.005)
        finally:
            probe.close()
        raise RuntimeError("daemon never became ready")

    def stop(self) -> int:
        """SIGTERM, wait for the drain; kill the session if it does not end."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            try:
                return self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
                return -1
        finally:
            self.process.stdout.close()
            self._stderr.close()

    def unit_seconds(self) -> List[float]:
        samples = []
        for path in sorted(self.unit_log.glob("units-*.log")):
            samples += [float(line) for line in path.read_text().split()]
        return samples


class Client:
    """One keep-alive HTTP connection with operation accounting."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.connection = None
        self.requests = 0
        self.failed_requests = 0

    def request(self, method: str, path: str, body=None):
        self.requests += 1
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        try:
            if self.connection is None:
                self.connection = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
                )
            self.connection.request(method, path, body=data, headers=headers)
            response = self.connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self.failed_requests += 1
            self.close()
            raise
        if not 200 <= response.status < 300:
            self.failed_requests += 1
        return response.status, payload

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None

    def run_campaign(self, spec: dict) -> Dict:
        """Submit, poll to a terminal state, fetch the result.

        Latency runs from the first submission attempt to the instant
        the daemon marked the campaign finished (``updated_at`` of the
        terminal status, on the same host clock), so the poll interval
        does not quantize it.
        """
        submitted = time.time()
        deadline = time.perf_counter() + CAMPAIGN_TIMEOUT_S
        cid = None
        while cid is None:
            if time.perf_counter() > deadline:
                raise RuntimeError("submission kept being refused")
            status, payload = self.try_request("POST", "/campaigns", spec)
            if status in (200, 202):
                cid = json.loads(payload)["id"]
            else:
                time.sleep(POLL_S)
        while True:
            status, payload = self.try_request("GET", f"/campaigns/{cid}")
            doc = json.loads(payload) if status == 200 else {}
            if doc.get("state") in ("done", "partial", "failed", "cancelled"):
                break
            if time.perf_counter() > deadline:
                raise RuntimeError(f"campaign {cid} did not finish")
            time.sleep(POLL_S)
        end = time.perf_counter()
        status, result = self.try_request("GET", f"/campaigns/{cid}/result")
        progress = doc.get("progress", {})
        return {
            "id": cid,
            "latency_s": doc["updated_at"] - submitted,
            "end": end,
            "state": doc.get("state"),
            "units": progress.get("total_units", 0),
            "resolved_units": progress.get("resolved_units", 0),
            "failed_units": progress.get("failed_units", 0),
            "result": result.decode() if status == 200 else None,
        }

    def try_request(self, method, path, body=None):
        try:
            return self.request(method, path, body)
        except (OSError, http.client.HTTPException):
            return None, b""


def drive(port: int, seed: int, *, seconds: float, steps: int) -> Dict:
    """Run the clients: ``steps`` campaigns each, then more until ``seconds``."""
    started = time.perf_counter()
    records: List[List[Dict]] = [[] for _ in range(CLIENTS)]
    clients = [Client(port) for _ in range(CLIENTS)]
    errors: List[str] = []

    def loop(index: int) -> None:
        client = clients[index]
        step = 0
        try:
            while step < steps or time.perf_counter() - started < seconds:
                record = client.run_campaign(campaign_spec(seed, index, step))
                record["finished_s"] = record.pop("end") - started
                records[index].append(record)
                step += 1
        except Exception as error:  # reported as a failed run, never lost
            errors.append(f"client {index}: {error!r}")
        finally:
            client.close()

    threads = [
        threading.Thread(target=loop, args=(index,), name=f"client-{index}")
        for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "elapsed_s": time.perf_counter() - started,
        "clients": records,
        "requests": sum(c.requests for c in clients),
        "failed_requests": sum(c.failed_requests for c in clients),
        "errors": errors,
    }
