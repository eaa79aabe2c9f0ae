"""Order statistics, span self time and host-speed normalization for the
benchmark."""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: the reported percentile must have at least this many samples above it
MIN_TAIL = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_count(samples: Sequence[float], pct: float) -> int:
    """Number of samples strictly above the ``pct`` percentile."""
    cut = percentile(samples, pct)
    return sum(1 for s in samples if s > cut)


def has_tail(samples: Sequence[float], pct: float,
             need: int = MIN_TAIL) -> bool:
    """True when at least ``need`` samples lie above the ``pct``
    percentile, so the percentile rests on a tail, not on one sample."""
    return bool(samples) and tail_count(samples, pct) >= need


def summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile (``statistics.quantiles``) and
    the sample count."""
    if len(samples) >= 2:
        q1, med, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = med = q3 = samples[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(samples)}


def covered_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0
    cur_start: Optional[int] = None
    cur_end = 0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence) -> Dict[str, int]:
    """span id -> self time in ns: the span's duration minus the part of
    its interval that its child spans cover (overlapping children count
    once; a child sticking out of its parent counts only inside it)."""
    children: Dict[Optional[str], List] = defaultdict(list)
    for s in spans:
        children[s.parent_id].append(s)
    out: Dict[str, int] = {}
    for s in spans:
        end = s.end_ns if s.end_ns is not None else s.start_ns
        kids = ((max(c.start_ns, s.start_ns),
                 min(c.end_ns if c.end_ns is not None else c.start_ns, end))
                for c in children.get(s.span_id, ()))
        out[s.span_id] = (end - s.start_ns) - covered_ns(kids)
    return out


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

class _Node:
    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op: str, left=None, right=None, value: int = 0):
        self.op, self.left, self.right, self.value = op, left, right, value


def _tree(depth: int, seed: int) -> _Node:
    if depth == 0:
        return _Node("lit", value=seed)
    return _Node("add" if depth % 2 else "mul", _tree(depth - 1, seed),
                 _tree(depth - 1, seed + 1))


def _evaluate(node: _Node, counts: Dict[str, int]) -> int:
    if node.op == "lit":
        return node.value
    a = _evaluate(node.left, counts)
    b = _evaluate(node.right, counts)
    counts[node.op] = counts.get(node.op, 0) + 1
    return (a + b) & 0xFFFF if node.op == "add" else (a * b) & 0xFFFF


_PROBE_TREE = _tree(9, 1)

#: the typical mean :func:`speed_probe` over a pass on the reference host
#: (an x86_64 2-vCPU VM, CPython 3.11.7); normalized times are host
#: seconds at that speed
PROBE_REF_S = 0.45e-3


def speed_probe() -> float:
    """Seconds three fixed walks of a small expression tree take, after one
    untimed walk that warms the CPU caches: dict, attribute and call work
    like the simulator's own, and nothing from the repository, so no change
    to the program moves it."""
    _evaluate(_PROBE_TREE, {})
    t0 = time.perf_counter()
    for _ in range(3):
        _evaluate(_PROBE_TREE, {})
    return time.perf_counter() - t0


def speed_factor(probes: Sequence[float]) -> float:
    """What turns host seconds measured while ``probes`` were taken into
    host seconds at the reference speed: ``PROBE_REF_S`` over their mean.
    The mean, not the median, because the host spends a varying share of
    the time in a slow state and the work is slowed by that share."""
    if not probes:
        raise ValueError("speed factor of no probes")
    return PROBE_REF_S / statistics.fmean(probes)
