"""Run the ``repro-bisect`` CLI with the per-layer tracer installed.

    python perfbench/launch.py --trace-out FILE -- <repro-bisect arguments>

The tracer is installed after ``repro.cli`` is imported and before
``repro.cli.main`` runs; probes in modules that ``repro.cli`` does not
import (the study runner, the service client) are skipped, since neither
``run`` nor ``serve`` calls them.  When ``main`` returns, also after SIGINT (which
``serve`` answers by draining and returning 130), FILE receives the tracer
snapshot and the engine queue-wait histogram of this process.  Worker
processes forked by the engine inherit the wrappers but write nothing;
their time reaches the trace through ``JobResult.seconds``.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print("usage: launch.py --trace-out FILE -- <repro-bisect arguments>", file=sys.stderr)
        return 2
    out, cli_argv = Path(argv[1]), argv[3:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import repro.cli
    from repro.obs import REGISTRY

    from perfbench.layers import PROBES
    from perfbench.tracer import Tracer

    tracer = Tracer(PROBES).install(imported_only=True)
    pid = os.getpid()
    try:
        return repro.cli.main(cli_argv)
    finally:
        if os.getpid() == pid:
            histograms = REGISTRY.snapshot()["histograms"]
            out.write_text(
                json.dumps(
                    {
                        "trace": tracer.snapshot(),
                        "queue_wait": histograms.get("engine_queue_wait_seconds"),
                    }
                ),
                encoding="utf-8",
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
