"""Launcher of the campaign daemon for the ``service`` workload.

Runs the real daemon through ``repro.cli`` (``repro-stamp serve``), with
two additions owned by the benchmark:

* the wall time of every unit is appended to
  ``$PERFBENCH_UNIT_LOG/units-<pid>.log``, one line per unit, by
  wrapping ``repro.experiments.supervisor.run_unit``.  A forked pool
  worker inherits the wrapper and the open log; a worker started with
  the ``spawn`` method re-runs this file as ``__mp_main__`` and
  installs its own, so units are timed wherever they run;
* ``--trace-out PATH`` wraps every layer the daemon process runs
  (``tracing.py``) and writes the spans and counters to ``PATH`` as
  JSON once the daemon has drained after SIGTERM.  Without it the
  daemon runs unwrapped, so the two runs differ by the tracing alone.

Usage::

    python perfbench/daemon.py [--trace-out PATH] -- --workers 2 serve \
        --port 0 --ledger L --journal J --max-concurrent 2
"""

from __future__ import annotations

import json
import os
import sys
import time

UNIT_LOG_ENV = "PERFBENCH_UNIT_LOG"


def install_unit_log() -> None:
    directory = os.environ.get(UNIT_LOG_ENV)
    if not directory:
        return
    from repro.experiments import supervisor

    fd = os.open(
        os.path.join(directory, f"units-{os.getpid()}.log"),
        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
        0o644,
    )
    run_unit = supervisor.run_unit

    def timed_run_unit(*args):
        start = time.perf_counter()
        result = run_unit(*args)
        os.write(fd, b"%.9f\n" % (time.perf_counter() - start))
        return result

    supervisor.run_unit = timed_run_unit


if __name__ == "__mp_main__":
    install_unit_log()


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    install_unit_log()
    tracer = None
    if trace_out is not None:
        from tracing import Tracer, install_layers, install_service_layers

        tracer = Tracer()
        install_layers(tracer)
        install_service_layers(tracer)
    from repro.cli import main as cli_main

    code = cli_main(argv)
    if tracer is not None:
        with open(trace_out, "w") as handle:
            json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
