"""One cold ``kreinkit`` CLI process: times ``import kreinkit.cli``, then runs ``main()``.

Usage: ``python3 cli_child.py TRACE_OUT CLI_ARGS...``.  With an empty
TRACE_OUT the command runs untraced.  Otherwise it runs under the same
wrappers as the in-process workloads, and the per-layer totals, with the
import time, are written to TRACE_OUT as JSON.
"""

import sys
import time

start = time.perf_counter()
import kreinkit.cli  # noqa: E402

import_s = time.perf_counter() - start


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    if not trace_out:
        return kreinkit.cli.main(argv)
    import json

    import tracing

    with tracing.Tracer() as tracer:
        code = kreinkit.cli.main(argv)
    acc = tracing.summarize(tracer.drain())
    acc["cli.import_s"] = import_s
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(acc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
