"""Benchmark items and their correctness oracle.

An *item* is one unit of timed work: one Fig. 7/8 bar (a ``run_*`` call
for one app, mode and device), one corpus translation job, or one paper
table.  :func:`execute` runs an item on the ``vector`` tier and returns its
modeled output; :class:`Oracle` compares that output with the committed
references and counts at most one failure per item.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference" / "bars.json"
PARTITION_PATH = HERE / "partition.json"
GOLDEN_DIR = ROOT / "tests" / "translate" / "golden"

#: execution tier of every timed bar (the fastest verified tier)
TIER = "vector"

#: paper invariants on modeled-time ratios, checked whenever a pass holds
#: both bars: (numerator bar, denominator bar, low, high)
RATIO_CHECKS = (
    # FT: the 64-bit CUDA bank mode removes the two-way conflicts of
    # NVIDIA OpenCL's 32-bit mode (paper Fig. 7b: ~0.57)
    ("npb/FT|ocl->cuda|titan", "npb/FT|ocl-native|titan", 0.55, 0.63),
    # cfd: nvcc's register allocation costs occupancy (0.375 vs 0.469)
    ("rodinia/cfd|ocl->cuda|titan", "rodinia/cfd|ocl-native|titan",
     1.05, math.inf),
)

#: paper Table 3: untranslatable Toolkit samples per category (of 81;
#: the other 25 translate)
PAPER_TABLE3 = {
    "No corresponding functions": 6,
    "Unsupported libraries": 5,
    "Unsupported language extensions": 19,
    "OpenGL binding": 15,
    "Use of PTX": 7,
    "Use of unified virtual address space": 4,
}
PAPER_TABLE3_TRANSLATED = 25

#: paper Table 1: memory/allocation -> availability in (OpenCL, CUDA)
PAPER_TABLE1 = {
    "constant/dynamic": ["O", "X"], "constant/static": ["O", "O"],
    "global/dynamic": ["O", "O"], "global/static": ["X", "O"],
    "local/dynamic": ["O", "O"], "local/static": ["O", "O"],
}

#: fields of a RunResult that make up a bar's modeled output
BAR_FIELDS = ("ok", "exit_code", "stdout", "sim_time", "breakdown",
              "api_calls", "kernel_launches", "transfer_ops",
              "transfer_bytes")


@dataclass(frozen=True)
class Item:
    """One timed unit of work; ``key`` is unique within the benchmark."""

    key: str
    kind: str           # 'bar' | 'job' | 'table1' | 'table3'

    @property
    def app(self) -> str:
        """``suite/app`` of a bar or job ('' for tables)."""
        if self.kind == "bar":
            return self.key.split("|", 1)[0]
        if self.kind == "job":
            return self.key.split(":", 2)[2]
        return ""


def bar_key(suite: str, app: str, mode: str, device: str) -> str:
    return f"{suite}/{app}|{mode}|{device}"


def distinct_bars() -> List[Item]:
    """Every distinct (app, mode, device) bar of paper Figs. 7 and 8, in
    the order :func:`repro.harness.figures.figure7`/``figure8`` run them."""
    from repro.apps.base import apps_in_suite
    keys: Dict[str, None] = {}
    for suite in ("rodinia", "npb", "toolkit"):
        for app in apps_in_suite(suite):
            if not app.has_opencl:
                continue
            keys[bar_key(suite, app.name, "ocl-native", "titan")] = None
            keys[bar_key(suite, app.name, "ocl->cuda", "titan")] = None
            if app.has_cuda and app.cuda_runs_natively and suite == "rodinia":
                keys[bar_key(suite, app.name, "cuda-native", "titan")] = None
    for suite in ("rodinia", "toolkit"):
        for app in apps_in_suite(suite):
            if not (app.has_cuda and app.cuda_translatable
                    and app.cuda_runs_natively):
                continue
            keys[bar_key(suite, app.name, "cuda-native", "titan")] = None
            keys[bar_key(suite, app.name, "cuda->ocl", "titan")] = None
            if app.has_opencl:
                keys[bar_key(suite, app.name, "ocl-native", "titan")] = None
            keys[bar_key(suite, app.name, "cuda->ocl", "hd7970")] = None
    return [Item(k, "bar") for k in keys]


def translate_items() -> List[Item]:
    """The ``translate`` workload: every corpus translation job, then the
    Table-3 analyzer sweep and the Table-1 probe."""
    from repro.harness.runner import corpus_jobs
    items = [Item(f"job:{j.direction}:{j.name}", "job")
             for j in corpus_jobs()]
    return items + [Item("table3", "table3"), Item("table1", "table1")]


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _run_bar(key: str, tier: str):
    from repro.apps.base import get_app
    from repro.harness.runner import (run_cuda_app, run_cuda_translated,
                                      run_opencl_app, run_opencl_translated)
    name, mode, device = key.split("|")
    suite, app_name = name.split("/", 1)
    app = get_app(suite, app_name)
    if mode == "ocl-native":
        return run_opencl_app(app.name, app.opencl_host, app.opencl_kernels,
                              device, exec_tier=tier)
    if mode == "ocl->cuda":
        return run_opencl_translated(app.name, app.opencl_host,
                                     app.opencl_kernels, device,
                                     exec_tier=tier)
    if mode == "cuda-native":
        return run_cuda_app(app.name, app.cuda_source, device,
                            exec_tier=tier)
    if mode == "cuda->ocl":
        return run_cuda_translated(app.name, app.cuda_source, device,
                                   exec_tier=tier)
    raise ValueError(f"unknown bar mode in {key!r}")


_JOBS: Dict[str, Any] = {}


def _job(key: str):
    if not _JOBS:
        from repro.harness.runner import corpus_jobs
        _JOBS.update((f"job:{j.direction}:{j.name}", j)
                     for j in corpus_jobs())
    return _JOBS[key]


def execute(item: Item, tier: str = TIER) -> Dict[str, Any]:
    """Run ``item`` once and return its modeled output as plain data.

    Translation jobs go serially through the batch pipeline with the
    shared translation cache, exactly like ``translate_corpus``.
    """
    if item.kind == "bar":
        res = _run_bar(item.key, tier)
        return {f: getattr(res, f) for f in BAR_FIELDS}
    if item.kind == "job":
        from repro.harness.runner import shared_translation_cache
        from repro.pipeline.batch import translate_many
        (res,) = translate_many([_job(item.key)],
                                cache=shared_translation_cache(),
                                parallel=False)
        return {"ok": res.ok, "error": res.error_message,
                "host_source": res.host_source,
                "device_source": res.device_source}
    from repro.device.engine import exec_tier_override
    from repro.harness.tables import table1, table3
    with exec_tier_override(tier):
        if item.kind == "table3":
            t3 = table3()
            return {"counts": t3.counts, "translated": len(t3.translated),
                    "mismatches": list(t3.mismatches)}
        if item.kind == "table1":
            cells = table1().cells
            return {"cells": {f"{m}/{a}": list(v)
                              for (m, a), v in sorted(cells.items())}}
    raise ValueError(f"unknown item kind {item.kind!r}")


def clear_caches() -> None:
    """Empty the translation cache and the kernel-codegen cache, so a pass
    pays for translation and codegen like a fresh process does."""
    from repro.harness.runner import shared_translation_cache
    from repro.pipeline.cache import kernel_code_cache
    shared_translation_cache().clear()
    kernel_code_cache().clear()


def canonical(output: Dict[str, Any]) -> str:
    """Byte-exact canonical form of a modeled output (floats keep every
    digit through ``repr``)."""
    return json.dumps(output, sort_keys=True)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def load_reference() -> Dict[str, Dict[str, Any]]:
    """Bar key -> modeled output on the ``interp`` tier."""
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["bars"]


def load_golden() -> Dict[str, Dict[str, str]]:
    """``job:<direction>:<suite>/<app>`` -> golden host/device sources."""
    out: Dict[str, Dict[str, str]] = {}
    for path in sorted(GOLDEN_DIR.glob("*_*.json")):
        suite, direction = path.stem.split("_", 1)
        panel = json.loads(path.read_text(encoding="utf-8"))
        for app, sources in panel.items():
            out[f"job:{direction}:{suite}/{app}"] = sources
    return out


class Oracle:
    """Judges item outputs; every verdict is ``None`` (correct) or a
    one-line reason.  One item fails at most once, whatever the number of
    checks it breaks."""

    def __init__(self, bars: Dict[str, Dict[str, Any]],
                 golden: Dict[str, Dict[str, str]]) -> None:
        self.bars = bars
        self.golden = golden

    @classmethod
    def load(cls) -> "Oracle":
        return cls(load_reference(), load_golden())

    def judge(self, item: Item, output: Dict[str, Any]) -> Optional[str]:
        check = getattr(self, f"_judge_{item.kind}")
        return check(item, output)

    def _judge_bar(self, item: Item, out: Dict[str, Any]) -> Optional[str]:
        if not out["ok"]:
            return f"run not ok (exit {out['exit_code']})"
        ref = self.bars.get(item.key)
        if ref is None:
            return "no reference entry"
        # a JSON round trip gives the reference's types (tuples -> lists)
        got = json.loads(canonical(out))
        diff = [f for f in BAR_FIELDS if got[f] != ref[f]]
        return f"modeled output differs from reference in {diff}" \
            if diff else None

    def _judge_job(self, item: Item, out: Dict[str, Any]) -> Optional[str]:
        if not out["ok"]:
            return f"translation failed: {out['error']}"
        ref = self.golden.get(item.key)
        if ref is None:
            return "no golden entry"
        diff = [f for f in ("host_source", "device_source")
                if out[f] != ref[f]]
        return f"translation differs from golden in {diff}" if diff else None

    def _judge_table3(self, item: Item, out: Dict[str, Any]) -> Optional[str]:
        if out["mismatches"]:
            return f"Table 3 verdicts wrong: {out['mismatches'][:3]}"
        if out["counts"] != PAPER_TABLE3:
            return f"Table 3 counts {out['counts']} differ from the paper"
        if out["translated"] != PAPER_TABLE3_TRANSLATED:
            return (f"Table 3 accepted {out['translated']} samples, not "
                    f"{PAPER_TABLE3_TRANSLATED}")
        return None

    def _judge_table1(self, item: Item, out: Dict[str, Any]) -> Optional[str]:
        return None if out["cells"] == PAPER_TABLE1 else \
            f"Table 1 cells {out['cells']} differ from the paper"

    @staticmethod
    def ratio_failures(sim_times: Dict[str, float]
                       ) -> List[Tuple[str, str]]:
        """``(bar key, reason)`` for every paper ratio violated among the
        bars present in ``sim_times``; the numerator bar is blamed."""
        out = []
        for num, den, lo, hi in RATIO_CHECKS:
            if num in sim_times and den in sim_times:
                ratio = sim_times[num] / sim_times[den]
                if not lo <= ratio <= hi:
                    out.append((num, f"modeled ratio {ratio:.3f} outside "
                                     f"[{lo}, {hi}] vs {den}"))
        return out
