"""Traced CLI child: the same ``repo_options.cli.main`` call, with spans.

    python -X importtime perfbench/child.py TRACE_OUT <cli arguments>

Times the import of ``repo_options.cli``, installs the tracer's wrappers,
runs ``main`` and writes the spans to TRACE_OUT.  stdout and the exit code
are the CLI's own.
"""

import sys
import time

import tracing

trace_out, argv = sys.argv[1], sys.argv[2:]
t0 = time.perf_counter_ns()
import repo_options.cli  # noqa: E402

t1 = time.perf_counter_ns()
tracer = tracing.Tracer()
tracer.spans.append(["cli.import", t0, t1, -1, 0, None, None])
tracer.install(extra_sites=(("repo_options.cli", "main", "cli.main"),))
try:
    code = repo_options.cli.main(argv)
    sys.stdout.flush()
finally:
    import json

    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
sys.exit(code)
