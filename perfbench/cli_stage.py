"""Run one traced ``logicood`` CLI stage.

Usage: python3 perfbench/cli_stage.py --spans OUT.json --pass K -- <logicood args>

Times the package import, installs the same wrappers as the in-process
traced run, calls ``logicood.cli.main`` under a ``cli.<subcommand>`` span,
and writes the spans to OUT.json once the stage has finished. The exit
code is the CLI's own.
"""

import sys
import time


def main() -> int:
    sep = sys.argv.index("--")
    opts, argv = sys.argv[1:sep], sys.argv[sep + 1:]
    spans_path = opts[opts.index("--spans") + 1]
    pass_id = int(opts[opts.index("--pass") + 1])

    t0 = time.perf_counter()
    import logicood.cli
    import_s = time.perf_counter() - t0

    import tracing

    tracer = tracing.Tracer()
    tracer.pass_id = pass_id
    tracer.install()
    try:
        code = tracer.root(f"cli.{argv[0]}", logicood.cli.main, argv)
    finally:
        tracer.uninstall()
    tracer.dump(spans_path, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
