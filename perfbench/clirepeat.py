"""Untimed repeat of cli_cold ops, all in one fresh interpreter.

    PYTHONPATH=src python3 perfbench/clirepeat.py ARGS_FILE

ARGS_FILE holds a JSON list of `jsm` argument lists.  Each runs through
`cli.main` in turn with its console output discarded; an exception that
escapes counts as exit code 1, as it would for `python -m jacobisigma.cli`.
The exit codes are printed as one JSON list.  One interpreter for all the
repeats keeps the byte-identity check of the reports cheap: start-up and
imports are paid once, not once per op.
"""

import contextlib
import io
import json
import sys

import jacobisigma.cli as cli


def run(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else (exc.code is not None)
        except Exception:
            return 1


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        print(json.dumps([run(argv) for argv in json.load(fh)]))
