"""Read the `-X importtime` report a Python process writes to stderr."""

from __future__ import annotations


def parse(stderr: str):
    """(package, self seconds) per imported module, in report order."""
    out = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us = int(parts[0])
        except ValueError:          # the header line
            continue
        out.append((parts[2].strip(), self_us / 1e6))
    return out


def scipy_seconds(stderr: str) -> float:
    """Total self time of every scipy module imported."""
    return sum(s for name, s in parse(stderr)
               if name == "scipy" or name.startswith("scipy."))


def breakdown(stderr: str) -> dict:
    """Import seconds per top-level package (jacobisigma per module)."""
    out = {}
    for name, s in parse(stderr):
        top = name.split(".")[0]
        if top == "jacobisigma":
            top = name
        out[top] = out.get(top, 0.0) + s
    return out
