"""Traced stand-in for `python -m lrbounds`, owned by the benchmark.

    python bench/launcher.py SPANS.json ARGS...

Imports the package, wraps its public functions (bench/spans.py), calls
lrbounds.cli.main(ARGS) and exits with its code.  It writes nothing to
stdout itself, so stdout is byte-identical to `python -m lrbounds ARGS...`;
the spans and the import time go to SPANS.json.
"""

import sys
import time

t0 = time.perf_counter()
import lrbounds.cli  # noqa: E402

import_s = time.perf_counter() - t0

import spans  # noqa: E402

tracer = spans.Tracer()
tracer.install()
try:
    code = lrbounds.cli.main(sys.argv[2:])
finally:
    tracer.dump(sys.argv[1], import_s=import_s)
sys.exit(code)
