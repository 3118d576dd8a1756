"""Traced stand-in for ``python -m mixent.cli`` in the cli-oneshot workload.

    python shim.py SPANS_JSON MIXENT_CLI_ARGUMENTS...

Times ``import mixent.cli`` and ``mixent.cli.main(argv)`` (stdout captured,
then passed through), counts the modules the import loaded, and writes
those numbers to SPANS_JSON.  Only the built-in ``time`` and ``sys`` are
imported before the timed import.
"""

import time

t_start = time.monotonic_ns()

import sys  # noqa: E402

modules_before = len(sys.modules)
t_import = time.monotonic_ns()
import mixent.cli  # noqa: E402

t_imported = time.monotonic_ns()
modules_loaded = len(sys.modules) - modules_before
numpy_loaded = sum(1 for name in sys.modules if name == "numpy" or name.startswith("numpy."))

import io  # noqa: E402
import json  # noqa: E402

argv = sys.argv[2:]
record = {
    "mixent_file": mixent.__file__,
    "start_ns": t_start,
    "import": [t_import, t_imported],
    "modules_loaded": modules_loaded,
    "numpy_loaded": numpy_loaded,
}
captured = io.StringIO()
real_stdout = sys.stdout
sys.stdout = captured
t_main = time.monotonic_ns()
try:
    rc = mixent.cli.main(argv)
finally:
    t_main_end = time.monotonic_ns()
    sys.stdout = real_stdout
out = captured.getvalue()
sys.stdout.write(out)
record["main"] = [t_main, t_main_end]
record["stdout_bytes"] = len(out.encode("utf-8"))
with open(sys.argv[1], "w", encoding="utf-8") as f:
    json.dump(record, f)
sys.exit(rc)
