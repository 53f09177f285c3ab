"""The daemon's live ledger index and its one-write HTTP responses.

The service opens its result ledger once per lifetime and refreshes it
at every campaign start instead of re-reading the file.  Under test: a
``ledger compact`` run against a live daemon's ledger loses nothing the
daemon writes afterwards, the ledger is loaded once per daemon lifetime
while its file is not replaced, and every response leaves in a single
send on a ``TCP_NODELAY`` socket.
"""

from __future__ import annotations

import json
import socket

from repro.cli import main as cli_main
from repro.experiments.ledger import ResultLedger
from repro.service.app import CampaignRequestHandler
from test_service import SPEC, ServiceClient


def _run(client, spec):
    status, doc, _ = client.request("POST", "/campaigns", spec)
    assert status == 202, (status, doc)
    final = client.wait_terminal(doc["id"])
    assert final["state"] == "done", final
    return final


class TestLiveCompaction:
    def test_compact_between_campaigns_loses_no_later_unit(self, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        client = ServiceClient(tmp_path)
        try:
            _run(client, dict(SPEC, seed=1))
            assert cli_main(["ledger", "compact", str(ledger_path)]) == 0
            second = _run(client, dict(SPEC, seed=2))
            assert (second["executed"], second["ledger_hits"]) == (4, 0)
            # The second campaign's units reached the compacted file,
            # not the inode the compaction replaced.
            with ResultLedger(ledger_path) as fresh:
                assert len(fresh) == 8
            doubled = _run(client, dict(SPEC, seed=2, instances=4))
            assert (doubled["executed"], doubled["ledger_hits"]) == (4, 4)
        finally:
            client.close()


class TestLedgerLoads:
    def test_one_load_per_lifetime_until_the_file_is_replaced(
        self, tmp_path, monkeypatch
    ):
        loads = []
        load = ResultLedger.load

        def counted(ledger):
            loads.append(ledger.path)
            load(ledger)

        monkeypatch.setattr(ResultLedger, "load", counted)
        client = ServiceClient(tmp_path, max_concurrent=2)
        try:
            for seed in range(3):
                _run(client, dict(SPEC, seed=seed))
            resubmitted = _run(client, dict(SPEC, seed=0, instances=4))
            assert resubmitted["ledger_hits"] == 4
            assert len(loads) == 1
            assert cli_main(
                ["ledger", "compact", str(tmp_path / "ledger.jsonl")]
            ) == 0
            loads.clear()  # the compaction's own load
            again = _run(client, dict(SPEC, seed=1, instances=4))
            assert again["ledger_hits"] == 4
            assert len(loads) == 1  # the replaced file, reloaded once
        finally:
            client.close()


class _RecordingSocket:
    """An accepted socket that records every send made on it."""

    def __init__(self, sock, sends):
        self._sock = sock
        self._sends = sends

    def sendall(self, data, *args):
        self._sends.append(bytes(data))
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self._sends.append(bytes(data))
        return self._sock.send(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestOneWriteResponses:
    def test_each_response_is_one_send_on_a_nodelay_socket(self, tmp_path):
        sends, nodelay = [], []

        class RecordingHandler(CampaignRequestHandler):
            def setup(self):
                self.request = _RecordingSocket(self.request, sends)
                super().setup()
                nodelay.append(self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                ))

        client = ServiceClient(tmp_path)
        client.server.RequestHandlerClass = RecordingHandler

        def one_send(method, path, body=None):
            sends.clear()
            status, payload, headers = client.request(
                method, path, body, raw=True
            )
            assert len(sends) == 1, (path, sends)
            assert sends[0].startswith(b"HTTP/1.1 %d " % status)
            assert sends[0].endswith(b"\r\n\r\n" + payload)
            return status, payload, headers

        try:
            assert one_send("GET", "/healthz")[0] == 200
            status, payload, _ = one_send("POST", "/campaigns", SPEC)
            assert status == 202
            cid = json.loads(payload)["id"]
            client.wait_terminal(cid)
            assert one_send("GET", f"/campaigns/{cid}/result")[0] == 200
            client.service.begin_shutdown()
            status, _, headers = one_send(
                "POST", "/campaigns", dict(SPEC, seed=9)
            )
            assert status == 503 and headers["Retry-After"]
            assert nodelay and all(nodelay)
        finally:
            client.close()
