"""Benchmark-owned launcher of the ``repro serve`` daemon.

Runs :func:`repro.serve.server.run_server` with ``jobs=0`` on an ephemeral
loopback port, exactly as ``repro serve --jobs 0`` does.  Traced and
untraced runs use this same launcher; with ``--trace 1`` it installs the
per-layer wrappers before the server starts, and starts recording on
SIGUSR1 (sent after the prewarm, so set-up traffic is not traced).

After the daemon drains (SIGTERM) the launcher writes ``--report``: its
peak RSS and, when traced, the folded spans and registry counter deltas.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    from repro.serve.server import run_server

    recorder = None
    baseline: dict[str, float] = {}
    if args.trace:
        import layers

        recorder = layers.Recorder()
        recorder.install()

        def _start_recording(signum: int, frame: object) -> None:
            baseline.update(layers.read_counters())
            recorder.active = True
            print("perfbench: recording", flush=True)

        signal.signal(signal.SIGUSR1, _start_recording)

    status = run_server("127.0.0.1", 0, jobs=0, announce=True)
    report: dict[str, object] = {
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        import layers

        recorder.active = False
        after = layers.read_counters()
        report["counters"] = {k: after[k] - baseline.get(k, 0.0) for k in after}
        report["folded"] = layers.fold(recorder.spans)
        if args.spans is not None:
            recorder.dump(args.spans)
    args.report.write_text(json.dumps(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
