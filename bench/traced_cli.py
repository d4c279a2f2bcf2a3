"""Run the gausskey CLI with spans around its parent-side steps.

Usage: python3 bench/traced_cli.py SPANS_OUT [gausskey arguments...]

Wraps the names gausskey.cli looks up (load_scenario, load_alist,
cmd_simulate and the process pool) and writes the spans plus the wall-clock
time at which main() was entered to SPANS_OUT as JSON.
"""

import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import gausskey.cli as cli

from spans import Tracer, swapped


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()

    class TracedPool(ProcessPoolExecutor):
        """The program's pool, with one span from construction to shutdown."""

        def __init__(self, *args, **kwargs):
            self._span = tracer.begin("cli.pool")
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end(self._span)

    targets = [
        (cli, "load_scenario", "cli.load_scenario", None),
        (cli, "load_alist", "cli.load_alist", None),
        (cli, "cmd_simulate", "cli.cmd_simulate", None),
    ]
    with tracer.installed(targets), swapped([(cli, "ProcessPoolExecutor", TracedPool)]):
        main_start = time.time()
        rc = cli.main(argv)
    spans = [[s.name, s.start, s.end, s.parent, s.run, None] for s in tracer.spans]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"main_start": main_start, "spans": spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
