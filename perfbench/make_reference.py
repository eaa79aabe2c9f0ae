"""Regenerate the benchmark's committed data files.

``reference/bars.json``
    every Fig. 7/8 bar's modeled output, run on the ``interp`` tier (the
    independent reference interpreter); the benchmark compares each bar it
    runs on the ``vector`` tier against it.
``partition.json``
    each app's share of vector-tier wall time spent in ``kernel:`` spans
    and the resulting fixed host-bound / kernel-bound split.

Run from the repository root::

    python3 perfbench/make_reference.py bars
    python3 perfbench/make_reference.py partition

Regenerate ``partition.json`` only on purpose: a kernel speed-up must not
move apps between workloads.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import corpus  # noqa: E402

#: apps whose bars spend at least this share of vector-tier wall time in
#: kernel: spans form the eval-kernel workload
KERNEL_SHARE_CUTOFF = 0.5
#: traced cold passes the kernel shares are summed over
PASSES = 3

WHY = {
    "eval-host": ("Fig. 7/8 bars of the host-bound apps: host-program "
                  "interpretation and the API wrappers dominate, so host-side "
                  "changes show and device changes barely move it."),
    "eval-kernel": ("Fig. 7/8 bars of the kernel-bound apps: kernel "
                    "execution, the demotion ladder and trace accounting "
                    "dominate; native vs translated bars and warp-32 vs "
                    "wavefront-64 use the engine differently."),
    "translate": ("cold serial corpus translation plus Tables 3 and 1: the "
                  "front end and passes do all the work and every cache "
                  "access is a write; no kernel runs."),
}


def make_bars(path: Path) -> None:
    bars = {}
    for item in corpus.distinct_bars():
        t0 = time.perf_counter()
        out = corpus.execute(item, tier="interp")
        if not out["ok"]:
            raise SystemExit(f"{item.key}: reference run failed")
        bars[item.key] = json.loads(corpus.canonical(out))
        print(f"{item.key:55s} {time.perf_counter() - t0:7.3f} s",
              file=sys.stderr)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"tier": "interp", "bars": bars}, indent=1,
                               sort_keys=True) + "\n", encoding="utf-8")


def make_partition(path: Path) -> None:
    from repro.observability import Tracer, activate
    bars = corpus.distinct_bars()
    # traced passes give each app's kernel share
    wall = defaultdict(float)
    kernel = defaultdict(float)
    for _ in range(PASSES):
        corpus.clear_caches()
        for item in bars:
            tracer = Tracer()
            with activate(tracer):
                t0 = time.perf_counter()
                corpus.execute(item)
            wall[item.app] += time.perf_counter() - t0
            kernel[item.app] += sum(s.duration_ns for s in tracer.finished
                                    if s.name.startswith("kernel:")) / 1e9
    shares = {app: round(kernel[app] / wall[app], 3) for app in sorted(wall)}
    split = {"eval-host": {}, "eval-kernel": {}}
    for app, share in shares.items():
        name = "eval-kernel" if share >= KERNEL_SHARE_CUTOFF else "eval-host"
        split[name][app] = share
    doc = {
        "measured_on": f"{platform.machine()}, {platform.python_version()}, "
                       f"{PASSES} traced cold passes on the {corpus.TIER} "
                       "tier",
        "kernel_share_cutoff": KERNEL_SHARE_CUTOFF,
        "workloads": {
            "eval-host": {"why": WHY["eval-host"],
                          "kernel_share": split["eval-host"]},
            "eval-kernel": {"why": WHY["eval-kernel"],
                            "kernel_share": split["eval-kernel"]},
            "translate": {"why": WHY["translate"]},
        },
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("what", choices=("bars", "partition"))
    args = ap.parse_args()
    if args.what == "bars":
        make_bars(corpus.REFERENCE_PATH)
    else:
        make_partition(corpus.PARTITION_PATH)


if __name__ == "__main__":
    main()
