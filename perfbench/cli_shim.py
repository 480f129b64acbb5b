"""Run one ``fraclangevin`` CLI command with span tracing.

Usage: python perfbench/cli_shim.py SPANS_JSON COMMAND [ARGS...]

Behaves like ``python -m fraclangevin.cli COMMAND [ARGS...]`` (same
stdout, files and exit code) and, on exit, writes to SPANS_JSON the
import time of ``fraclangevin.cli`` and one span per public library
call, nested under a ``cli.main`` span for the whole command.
"""
import json
import sys
import time


def main(argv):
    spans_path, args = argv[0], argv[1:]
    start = time.perf_counter()
    import fraclangevin.cli as cli
    import_s = time.perf_counter() - start

    from spans import Tracer, install
    tracer = Tracer()
    install(tracer)

    def command():
        try:
            cli.main.main(args=args, prog_name="fraclangevin")
        except SystemExit as exc:  # click's standalone mode always exits
            return exc.code
        return 0

    try:
        code = tracer.wrap("cli.main", command)()
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
