"""Repository benchmark: time to regenerate the paper's evaluation.

Run from the repository root::

    python3 perfbench/run.py --workload eval-host --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, both modes

Workloads (``README.md`` says why each exists): ``eval-host`` and
``eval-kernel`` run the Fig. 7/8 bars of the host-bound and kernel-bound
apps on the ``vector`` tier; ``translate`` runs the corpus translation jobs
and Tables 3 and 1.  The seed orders the workload's apps.  The workload is
run pass after pass, single-process, with the translation and
kernel-codegen caches emptied before every pass, until ``--seconds`` are
used.  Every output is checked against committed references.

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
The last line of stdout is one JSON object; the exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import corpus
from corpus import Item, Oracle
from layers import METRICS, LayerProbe, LayerTotals
from stats import (has_tail, percentile, speed_factor, speed_probe, summary,
                   tail_count)

SRC = corpus.ROOT / "src"

WORKLOADS = ("eval-host", "eval-kernel", "translate")

#: fresh interpreters started to measure ``setup_s``
SETUP_REPEATS = 5
#: percentile reported next to the median; at least ``stats.MIN_TAIL``
#: item runs must lie above it before a ``--trace 0`` run may stop
TAIL_PCT = 90
#: a run never measures longer than this, whatever ``--seconds`` says
HARD_CAP_S = 120.0

#: (name, unit) of the end-to-end metrics, in report order
E2E_METRICS = (("setup_s", "s"), ("wall_s", "s"), ("item_p50_ms", "ms"),
               ("item_p90_ms", "ms"), ("peak_rss_mb", "MB"))

SETUP_CODE = ("import sys, time\n"
              "import repro\n"
              "from repro.apps.base import all_apps\n"
              "all_apps()\n"
              "sys.stdout.write(str(time.monotonic_ns()))\n")


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------

def workload_items(name: str, partition: Dict[str, Any]) -> List[Item]:
    if name == "translate":
        return corpus.translate_items()
    apps = partition["workloads"][name]["kernel_share"]
    return [i for i in corpus.distinct_bars() if i.app in apps]


def ordered(items: Sequence[Item], seed: int) -> List[Item]:
    """The run's item order: the seed shuffles the apps; each app's items
    keep their figure order, so the Titan bar always fills the cache the
    HD7970 bar reads, whatever the seed."""
    groups: Dict[str, List[Item]] = {}
    for item in items:
        groups.setdefault(item.app or item.key, []).append(item)
    keys = list(groups)
    random.Random(seed).shuffle(keys)
    return [item for key in keys for item in groups[key]]


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    traced: bool
    #: host seconds of each item, as measured
    times: List[float] = field(default_factory=list)
    #: host-speed probes, one before the first item and one after each
    probes: List[float] = field(default_factory=list)
    outputs: Dict[str, str] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def speed(self) -> float:
        """Turns this pass's measured seconds into seconds at the
        reference host speed."""
        return speed_factor(self.probes)

    def normalized_ms(self) -> List[float]:
        """Item times in milliseconds at the reference host speed."""
        scale = self.speed * 1e3
        return [t * scale for t in self.times]


def run_pass(items: Sequence[Item], oracle: Oracle,
             totals: Optional[LayerTotals] = None) -> PassResult:
    """One pass over ``items`` with cold caches.  With ``totals`` the pass
    runs under the layer probe and folds every item's span forest into
    it; an item's time never includes the folding."""
    from repro.observability import Tracer, activate
    result = PassResult(traced=totals is not None)
    corpus.clear_caches()
    outputs: Dict[str, Dict[str, Any]] = {}
    tracer = Tracer(service="perfbench") if totals is not None else None
    result.probes.append(speed_probe())
    with (LayerProbe() if tracer is not None else nullcontext()):
        for item in items:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outputs[item.key] = corpus.execute(item)
                else:
                    with activate(tracer), \
                            tracer.span(f"bench.item:{item.key}"):
                        outputs[item.key] = corpus.execute(item)
            except Exception as e:  # one failed item never ends the run
                result.failures[item.key] = f"{type(e).__name__}: {e}"
            result.times.append(time.perf_counter() - t0)
            result.probes.append(speed_probe())
            if tracer is not None:
                totals.add(tracer.finished)
                tracer.finished.clear()
    if totals is not None:
        totals.passes += 1
    by_key = {i.key: i for i in items}
    for key, out in outputs.items():
        result.outputs[key] = corpus.canonical(out)
        verdict = oracle.judge(by_key[key], out)
        if verdict is not None:
            result.failures.setdefault(key, verdict)
    sims = {k: o["sim_time"] for k, o in outputs.items() if "sim_time" in o}
    for key, reason in oracle.ratio_failures(sims):
        result.failures.setdefault(key, reason)
    return result


def measure_setup(probes: List[float]) -> List[float]:
    """Seconds from starting a fresh interpreter until ``import repro``
    and corpus registration are done, once per repeat; appends a host-speed
    probe before and after each to ``probes``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    probes.append(speed_probe())
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        out.append((int(proc.stdout) - t0) / 1e9)
        probes.append(speed_probe())
    return out


@dataclass
class RunOutcome:
    items: List[Item]
    passes: List[PassResult]
    totals: Optional[LayerTotals]
    #: measured ``setup_s`` samples and the probes taken around them
    setup: List[float]
    setup_probes: List[float]
    failures: List[Tuple[str, str]]

    @property
    def plain(self) -> List[PassResult]:
        return [p for p in self.passes if not p.traced]

    @property
    def attempted(self) -> int:
        return sum(len(p.times) for p in self.passes)


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> RunOutcome:
    """Run the workload pass after pass.  Untraced, passes repeat until
    ``seconds`` are used and the tail rule holds; traced, untraced and
    traced passes alternate until ``seconds`` are used, at least one of
    each."""
    partition = json.loads(corpus.PARTITION_PATH.read_text(encoding="utf-8"))
    items = ordered(workload_items(workload, partition), seed)
    oracle = Oracle.load()
    setup_probes: List[float] = []
    setup = [] if trace else measure_setup(setup_probes)
    totals = LayerTotals() if trace else None
    passes: List[PassResult] = []
    start = time.perf_counter()
    cap = min(HARD_CAP_S, 3 * seconds)
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(items, oracle, totals if traced else None))
        elapsed = time.perf_counter() - start
        if trace:
            enough = len(passes) >= 2
        else:
            enough = has_tail([t for p in passes for t in p.times], TAIL_PCT)
        # the next pass is of the same kind as the one before last
        next_cost = passes[-2].wall if len(passes) > 1 else passes[-1].wall
        if elapsed >= cap or (enough and elapsed + next_cost > seconds):
            break

    failures = [(k, r) for p in passes for k, r in p.failures.items()]
    untraced = passes[0].outputs
    for p in passes:
        if p.traced:
            failures += [(k, "traced output differs from untraced")
                         for k, out in p.outputs.items()
                         if k not in p.failures and untraced.get(k) != out]
    return RunOutcome(items, passes, totals, setup, setup_probes, failures)


# ---------------------------------------------------------------------------
# metrics and report
# ---------------------------------------------------------------------------

def e2e_metrics(run: RunOutcome) -> Dict[str, Dict[str, float]]:
    """name -> {value, median, q1, q3, n} for every end-to-end metric.
    Times are normalized to the reference host speed by the probes of the
    phase they were measured in: the set-up interpreters, or their pass.
    The item percentiles pool every item run; their quartiles are over the
    per-pass percentiles."""
    per_pass_ms = [p.normalized_ms() for p in run.plain]
    items_ms = [t for times in per_pass_ms for t in times]
    speed = speed_factor(run.setup_probes)
    s = summary([t * speed for t in run.setup])
    out = {"setup_s": dict(s, value=s["median"])}
    s = summary([p.wall * p.speed for p in run.plain])
    out["wall_s"] = dict(s, value=s["median"])
    for name, pct in (("item_p50_ms", 50), ("item_p90_ms", TAIL_PCT)):
        per_pass = summary([percentile(times, pct) for times in per_pass_ms])
        out[name] = dict(per_pass, value=percentile(items_ms, pct),
                         n=len(items_ms))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = {"value": rss, "median": rss, "q1": rss, "q3": rss,
                          "n": 1}
    return out


def report(workload: str, seed: int, run: RunOutcome,
           metrics: Dict[str, Any]) -> List[str]:
    failed = len(run.failures)
    lines = [f"workload {workload}  seed {seed}  {len(run.items)} items  "
             f"passes {len(run.plain)} untraced + "
             f"{len(run.passes) - len(run.plain)} traced",
             "pass walls (s, as measured x host-speed factor): " + " ".join(
                 f"{p.wall:.3f}x{p.speed:.3f}"
                 f"{' traced' if p.traced else ''}" for p in run.passes),
             f"fail_ratio {failed}/{run.attempted} = "
             f"{failed / run.attempted:.4f}"]
    lines += [f"  FAILED {key}: {reason}" for key, reason in run.failures[:20]]
    if run.totals is None:
        items = [t for p in run.plain for t in p.times]
        lines.append(f"{'metric':14s} {'unit':5s} {'value':>12s} "
                     f"{'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>5s}")
        for name, unit in E2E_METRICS:
            m = metrics[name]
            lines.append(f"{name:14s} {unit:5s} {m['value']:12.4f} "
                         f"{m['median']:12.4f} {m['q1']:12.4f} "
                         f"{m['q3']:12.4f} {m['n']:5d}")
        lines.append(f"item runs above p{TAIL_PCT}: "
                     f"{tail_count(items, TAIL_PCT)} of {len(items)}")
    else:
        lines.append(f"per-layer metrics, per traced pass "
                     f"({run.totals.passes} traced):")
        lines += [f"  {name:40s} {unit:6s} {metrics[name]:14.6f}"
                  for name, unit in METRICS]
    return lines


def pin_to_one_cpu() -> None:
    """Keep the benchmark, and the set-up interpreters it starts, on one
    CPU, so the host-speed probes time the CPU the work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    pin_to_one_cpu()
    run = measure(workload, seed, seconds, trace)
    if run.totals is not None:
        traced = [p.wall * p.speed for p in run.passes if p.traced]
        plain = [p.wall * p.speed for p in run.plain]
        shown: Dict[str, Any] = run.totals.metrics(
            statistics.median(traced) / statistics.median(plain) - 1)
        metrics = {name: {"value": shown[name], "unit": unit}
                   for name, unit in METRICS}
    else:
        shown = e2e_metrics(run)
        metrics = {name: {"value": shown[name]["value"], "unit": unit}
                   for name, unit in E2E_METRICS}
    for line in report(workload, seed, run, shown):
        print(line)
    print(json.dumps({"correct": not run.failures,
                      "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 1 if run.failures else 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            status |= subprocess.run(cmd).returncode
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description="Time to regenerate the paper's evaluation, end to end "
                    "and layer by layer.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    # the benchmark sets tier, caches and tracing itself: drop every knob
    # that would warm a cache or trace the untraced passes
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
