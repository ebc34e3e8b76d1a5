"""One traced CLI invocation: ``python cli_child.py <dump.json> <verb> ...``.

Behaves like ``python -m loopchar <verb> ...`` (same stdout, same exit
code) but times interpreter start, ``import loopchar`` and ``cli.main``
and runs ``main`` with every public function wrapped.  The trace goes
to ``<dump.json>`` for the parent to merge.
"""

import time

T_START_NS = time.monotonic_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer, cache_counts  # noqa: E402


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    spawn_ms = (T_START_NS - int(os.environ["LOOPBENCH_T0"])) / 1e6
    t0 = time.perf_counter()
    import loopchar.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    tr = Tracer()
    tr.install()
    tr.phase = "busy"
    tr.active = True
    t0 = time.perf_counter()
    try:
        rc = loopchar.cli.main(argv)
    except SystemExit as err:
        rc = err.code if isinstance(err.code, int) else 2
    main_ms = (time.perf_counter() - t0) * 1e3
    tr.active = False
    tr.timing("cli.spawn_ms", spawn_ms)
    tr.timing("cli.import_ms", import_ms)
    tr.timing("cli.main_ms", main_ms)
    tr.count("cartan._build.misses", cache_counts("cartan", "_build")[1])
    sys.stdout.flush()
    with open(dump_path, "w") as fh:
        json.dump(tr.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
