"""Traced `jsm` child process of the cli_cold workload.

    PYTHONPATH=src python3 -X importtime perfbench/clishim.py TRACE_OUT <jsm args>

Imports jacobisigma.cli, installs the tracer, runs `cli.main` on the given
arguments and exits with its code.  TRACE_OUT receives the import time, the
in-process time, the CLI's parse and emit times, this process's busy time and
the tracer's per-layer totals.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

t = time.perf_counter()
import jacobisigma.cli as cli  # noqa: E402
IMPORT_S = time.perf_counter() - t

sys.path.insert(0, str(Path(__file__).resolve().parent))
import numpy as np  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _inclusive(tr, layer):
    """Summed span time of one layer."""
    lay = np.frombuffer(tr.layer, dtype=np.uint8)
    dur = np.frombuffer(tr.end, dtype=float) - np.frombuffer(tr.start, dtype=float)
    return float(dur[lay == LAYERS.index(layer)].sum())


def _emit_tail(tr):
    """Time main spends after its command returns: rendering and the JSON."""
    names = [tr.names[i] for i in tr.fn]
    main = [i for i, n in enumerate(names) if n == "cli.main"]
    cmds = [i for i, n in enumerate(names) if n.startswith("cli.cmd_")]
    if not main or not cmds:
        return 0.0
    return tr.end[main[-1]] - tr.end[cmds[-1]]


def run():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer()
    tr.install()
    tr.begin_op(0)
    t = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        inproc = time.perf_counter() - t
        tr.end_op()
        tr.uninstall()
    rec = {"import_s": IMPORT_S, "inproc_s": inproc,
           "parse_s": _inclusive(tr, "cli.parse"),
           "emit_s": _inclusive(tr, "cli.emit") + _emit_tail(tr),
           "trace": tr.summary()}
    rec["busy_s"] = time.perf_counter() - T0
    Path(out_path).write_text(json.dumps(rec))
    return rc


if __name__ == "__main__":
    sys.exit(run())
