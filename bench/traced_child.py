"""Run one `qtensor` CLI job under the span tracer.

Usage: python bench/traced_child.py <trace-fd> <cli args...>

Behaves like ``python -m qtensor.cli <cli args...>`` (same stdout bytes, same exit
code) and, once the job has ended, writes the reduced spans as one JSON object to
the inherited file descriptor <trace-fd>.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter

from spans import TRACE, Tracer


def main() -> int:
    trace_fd = int(sys.argv[1])
    argv = sys.argv[2:]
    tracer = Tracer()
    root = tracer.open("cli.job")
    span = tracer.open("import.qtensor")
    cli = importlib.import_module("qtensor.cli")
    tracer.close(span)
    span = tracer.open(f"{TRACE}.install")
    tracer.install("qtensor")
    tracer.close(span)
    code = cli.run_cli(argv)
    sys.stdout.flush()
    tracer.close(root)

    reduce_start = perf_counter()
    summary = tracer.summary()
    cache = sys.modules["qtensor.psiphi"]._psi_cached.cache_info()
    summary["sums"]["psiphi.psi_cache_hits"] = cache.hits
    summary["sums"]["psiphi.psi_cache_lookups"] = cache.hits + cache.misses
    summary["reduce_s"] = perf_counter() - reduce_start
    summary["root_start"] = tracer.start_of(root)
    data = json.dumps(summary).encode()
    while data:
        data = data[os.write(trace_fd, data):]
    os.close(trace_fd)
    return code


if __name__ == "__main__":
    sys.exit(main())
