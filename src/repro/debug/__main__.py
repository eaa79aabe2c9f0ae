"""``python -m repro.debug SUITE/APP KERNEL`` — the debugger CLI.

Interactive when stdin is a TTY; otherwise (piped stdin or ``--script``)
replays a command script and prints a byte-deterministic transcript::

    printf 'break 11\nrun\nepoch\nprint partner\nbanks lre[partner]\nquit\n' \
        | PYTHONPATH=src python -m repro.debug npb/FT cffts1

Also reachable as ``python -m repro.harness debug ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..apps.base import all_apps, get_app
from .session import DebugCommandError, DebugSession


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.debug",
        description="Interactive/scripted debugger for simulated kernel "
                    "launches (breakpoints, lane/warp/epoch stepping, "
                    "live C expressions, shared-memory bank view).")
    ap.add_argument("app", metavar="SUITE/NAME",
                    help="corpus application (e.g. npb/FT)")
    ap.add_argument("kernel", help="kernel to attach to (e.g. cffts1)")
    ap.add_argument("--mode", choices=("ocl", "cuda"), default=None,
                    help="framework to run under (default: ocl when the "
                         "app has an OpenCL version, else cuda)")
    ap.add_argument("--device", default="titan",
                    help="device spec key (default: titan)")
    ap.add_argument("--exec-tier", default=None,
                    choices=("interp", "compiled", "vector"),
                    help="execution tier for the run (the debugged kernel "
                         "itself always drops to interp)")
    ap.add_argument("--script", default=None, metavar="FILE",
                    help="command script to replay ('-' for stdin)")
    args = ap.parse_args(argv)

    if "/" not in args.app:
        ap.error(f"bad app {args.app!r}: expected SUITE/NAME")
    suite, name = args.app.split("/", 1)
    try:
        app = get_app(suite, name)
    except KeyError:
        known = ", ".join(f"{a.suite}/{a.name}" for a in all_apps())
        ap.error(f"unknown app {args.app!r}; have: {known}")

    script = None
    reader = None
    if args.script == "-":
        script = sys.stdin.read().splitlines()
    elif args.script is not None:
        with open(args.script, "r", encoding="utf-8") as fh:
            script = fh.read().splitlines()
    elif not sys.stdin.isatty():
        script = sys.stdin.read().splitlines()
    else:
        def reader(prompt: str) -> str:  # pragma: no cover - needs a TTY
            return input(prompt)

    try:
        ses = DebugSession(app, args.kernel, mode=args.mode,
                           device=args.device, exec_tier=args.exec_tier,
                           script=script, reader=reader)
    except DebugCommandError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    result = ses.run()
    if result is None:
        return 0
    return 0 if result.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
