"""Traced stand-in for `python -m quditmagic.cli`.

Usage: python trace_child.py SPANS.npz CLI-ARGS...

Installs the span wrappers before quditmagic.cli.main runs, runs it with the
given arguments and writes the spans to SPANS.npz; the exit code is main's.
"""

import sys

import tracer


def run(argv):
    out_path, cli_args = argv[0], argv[1:]
    tr = tracer.Tracer()
    tracer.install(tr)
    from quditmagic import cli
    try:
        return cli.main(cli_args)
    finally:
        tr.dump(out_path)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
