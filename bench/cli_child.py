"""`python -m xyent.cli` with per-layer timing, for the traced cli run.

Times the import of xyent.cli and the call to its main(), installs the
layer timers in between, and prints the totals as the last stderr line.
Exits with main()'s code, like the real entry point.
"""

import json
import sys
import time

t0 = time.perf_counter()
from xyent import cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracing  # noqa: E402

tracer = tracing.install()
t1 = time.perf_counter()
code = cli.main(sys.argv[1:])
layers = tracer.report()
layers.update({"cli.import_s": import_s, "cli.run_s": time.perf_counter() - t1})
print(tracing.CHILD_TAG + json.dumps(layers), file=sys.stderr)
raise SystemExit(code)
