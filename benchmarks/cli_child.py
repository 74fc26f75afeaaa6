"""Traced stand-in for ``python -m archuncert.cli``.

    python benchmarks/cli_child.py RECORD_PATH CLI_ARG...

Times the import of ``archuncert.cli`` and its ``main``, records spans
around archuncert's functions while ``main`` runs, writes them and the two
times to RECORD_PATH as JSON, and exits with ``main``'s exit code. The
command's own output goes to standard output as usual.
"""

import json
import sys
import time

import spans


def run():
    record_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import archuncert.cli
    imported = time.perf_counter()
    tracer = spans.Tracer()
    spans.install(tracer)
    root = tracer.begin("cli.main")
    try:
        code = archuncert.cli.main(argv)
    finally:
        tracer.finish(root)
        sys.stdout.flush()
    done = time.perf_counter()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"import_ms": (imported - start) * 1e3,
                   "main_ms": (done - imported) * 1e3,
                   "spans": tracer.spans(),
                   "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(run())
