"""Start one kronlab CLI process.

    python3 cli_boot.py [--trace FILE --job ID] -- ARGV...

Untraced, this does what the installed ``kronlab`` script does: import
kronlab.cli and exit with main(ARGV).  With --trace it first times the
import, installs the tracer's wrappers, runs the wrapped main and writes
the trace snapshot, the import time and the spans to FILE.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, argv = argv[:split], argv[split + 1:]
    if not opts:
        from kronlab.cli import main as cli_main

        return cli_main(argv)

    trace_file, job_id = opts[opts.index("--trace") + 1], opts[opts.index("--job") + 1]
    start = time.perf_counter()
    import kronlab.cli

    import_s = time.perf_counter() - start
    import json

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.job = job_id
    try:
        return kronlab.cli.main(argv)
    finally:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"snapshot": tracer.snapshot(), "import_s": import_s,
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
