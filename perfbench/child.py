"""Run one spexlab CLI command in this (fresh) interpreter and report on it.

    python3 perfbench/child.py <trace 0|1> <spexlab CLI arguments...>

The command's own stdout and stderr pass through unchanged. The last line of
stderr is ``MARKER`` followed by a JSON object: exit code, seconds from after
``import spexlab.cli`` to the return of ``main``, peak resident set in KiB,
and, when traced, the aggregated spans and counts.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

MARKER = "@@perfbench "


def main() -> None:
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    import spexlab.cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = perf_counter()
    rc = spexlab.cli.main(argv)
    seconds = perf_counter() - t0
    sys.stdout.flush()
    meta = {
        "rc": rc,
        "seconds": seconds,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        meta["trace"] = tracer.report()
    sys.stderr.write("\n" + MARKER + json.dumps(meta) + "\n")
    sys.exit(rc)


if __name__ == "__main__":
    main()
