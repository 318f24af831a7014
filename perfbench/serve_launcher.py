"""Start ``rcgp serve`` for the benchmark, traced or not::

    python3 perfbench/serve_launcher.py [--trace-out SPANS.json] -- serve ARGS

Everything after ``--`` goes to the program's own command-line entry
point, so the server takes exactly the flags ``rcgp serve`` takes.  When
traced, the wrappers are installed before the server starts, forked pool
workers drop them (their spans could not be collected), and the spans
are written once the SIGTERM drain has returned.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv) -> int:
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1:]
    tracer = None
    if "--trace-out" in options:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(server=True)
        os.register_at_fork(after_in_child=tracer.uninstall)
    from repro.cli import main as rcgp_main
    code = rcgp_main(cli_args)
    if tracer is not None:
        tracer.dump(options[options.index("--trace-out") + 1])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
