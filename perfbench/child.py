"""One benchmark sample: a fresh process that runs `rwre-lab` as a user would.

Usage: child.py FD TRACE_OUT [CLI_ARG...]

Right after ``rwre_lab.cli`` is imported, the child writes one JSON line to
file descriptor FD: the CLOCK_MONOTONIC time of that moment (the end of
set-up), the numpy version and the thread count the CLI resolves.  It then
calls ``rwre_lab.cli.main(CLI_ARG...)`` and exits with its return code; with
no CLI_ARG it exits 0 at once, which times set-up alone.  When
TRACE_OUT is not ``-``, every layer boundary is wrapped first and the trace
is written to TRACE_OUT as JSON after the command returns.
"""

import json
import os
import sys
import time

import numpy
import rwre_lab.cli

imported = time.monotonic()


def main() -> int:
    fd, trace_out, cli_args = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    resolve = getattr(rwre_lab.cli, "_resolve_threads", None)
    stamp = {
        "imported": imported,
        "numpy": numpy.__version__,
        "cli_threads": resolve(None) if resolve else None,
    }
    os.write(fd, (json.dumps(stamp) + "\n").encode())
    os.close(fd)
    if not cli_args:
        return 0
    if trace_out == "-":
        return rwre_lab.cli.main(cli_args)
    import tracer

    t = tracer.install()
    rc = rwre_lab.cli.main(cli_args)
    with open(trace_out, "w") as fh:
        json.dump(t.snapshot(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
