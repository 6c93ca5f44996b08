"""Traced one-shot CLI entry: install the benchmark's wrappers, run
``ocs.cli.main`` on the given arguments, then write the span totals and the
start-up time to ``$PERFBENCH_TRACE_OUT``.

``$PERFBENCH_SPAWN`` is the parent's ``time.monotonic()`` just before the
spawn; start-up is the time from then until ``main`` is called.
"""

from __future__ import annotations

import json
import os
import sys
import time

from tracer import Tracer


def main() -> int:
    import ocs.cli

    tracer = Tracer()
    tracer.install()
    startup_ms = (time.monotonic() - float(os.environ["PERFBENCH_SPAWN"])) * 1000.0
    try:
        code = ocs.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.flush()
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump({"startup_ms": startup_ms, "totals": tracer.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
