"""Tests for the warp-scheduler execution core (``repro.device.sched``).

Covers the extracted drive loop's contract surface: warp windowing (the
single source of truth for lane→warp grouping), explicit suspend / resume /
step-by-barrier-epoch semantics, rendezvous-based warp primitives with
partial-warp participation, and the located barrier-divergence diagnostic.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.clike import parse
from repro.clike import types as T
from repro.clike.interp import BARRIER, WarpOp
from repro.device import Device, GTX_TITAN, launch_kernel, load_module
from repro.device.engine import _account_traces
from repro.device.perf import PerfCounters
from repro.device.sched import (DONE, GeneratorProgram, WarpScheduler,
                                divergence_error, resolve_warp_op,
                                warp_windows)
from repro.errors import DeviceError


# ---------------------------------------------------------------------------
# warp windowing
# ---------------------------------------------------------------------------


class TestWarpWindows:
    def test_exact_multiple(self):
        assert warp_windows(64, 32) == [(0, 32), (32, 64)]

    def test_partial_trailing_warp(self):
        assert warp_windows(48, 32) == [(0, 32), (32, 48)]

    def test_single_partial_warp(self):
        assert warp_windows(7, 32) == [(0, 7)]

    def test_single_lane(self):
        assert warp_windows(1, 32) == [(0, 1)]

    def test_no_lanes(self):
        assert warp_windows(0, 32) == []

    def test_windows_cover_every_lane_once(self):
        for lanes in (1, 31, 32, 33, 48, 63, 64, 100):
            seen = [lid for lo, hi in warp_windows(lanes, 32)
                    for lid in range(lo, hi)]
            assert seen == list(range(lanes))


# ---------------------------------------------------------------------------
# scheduler suspend / resume / step-by-epoch
# ---------------------------------------------------------------------------


def _lane(n_barriers, lane):
    def gen():
        for _ in range(n_barriers):
            yield BARRIER
    return GeneratorProgram(gen(), [lane])


class TestWarpScheduler:
    def test_step_epoch_advances_one_barrier(self):
        progs = [_lane(2, i) for i in range(4)]
        sched = WarpScheduler(progs, 32)
        assert not sched.done
        assert sched.step_epoch() is True          # everyone at barrier 1
        assert sched.barrier_epochs == 1
        assert len(sched.active) == 4              # inspectable between epochs
        assert sched.step_epoch() is True          # barrier 2
        assert sched.step_epoch() is False         # ran to completion
        assert sched.done
        assert sched.barrier_epochs == 2

    def test_run_counts_epochs(self):
        sched = WarpScheduler([_lane(3, i) for i in range(2)], 32)
        assert sched.run() == 3
        assert sched.done

    def test_no_barriers_single_epoch(self):
        sched = WarpScheduler([_lane(0, 0)], 32)
        assert sched.run() == 0

    def test_lane_and_warp_counts(self):
        progs = [GeneratorProgram(iter(()), range(lo, hi))
                 for lo, hi in warp_windows(48, 32)]
        sched = WarpScheduler(progs, 32)
        assert sched.num_lanes == 48
        assert sched.num_warps == 2

    def test_divergence_raises_with_kernel_name(self):
        def waiter():
            yield BARRIER

        def leaver():
            return
            yield  # pragma: no cover

        sched = WarpScheduler(
            [GeneratorProgram(waiter(), [0]), GeneratorProgram(leaver(), [1])],
            32, kernel_name="mykern")
        with pytest.raises(DeviceError, match="divergence.*'mykern'"):
            sched.run()

    def test_unexpected_token_rejected(self):
        def bogus():
            yield "not-a-token"

        sched = WarpScheduler([GeneratorProgram(bogus(), [0])], 32)
        with pytest.raises(DeviceError, match="unexpected yield token"):
            sched.run()

    def test_generator_program_resume_protocol(self):
        def g():
            got = yield BARRIER
            assert got == "resumed"
        p = GeneratorProgram(g(), [0])
        assert p.resume() is BARRIER
        assert p.resume("resumed") is DONE

    def test_step_epoch_after_done_is_noop(self):
        sched = WarpScheduler([_lane(1, 0)], 32)
        sched.run()
        assert sched.step_epoch() is False
        assert sched.barrier_epochs == 1

    def test_base_lane_program_is_abstract(self):
        from repro.device.sched import LaneProgram
        with pytest.raises(NotImplementedError):
            LaneProgram().resume()

    def test_multi_lane_program_may_not_use_warp_primitives(self):
        def g():
            yield WarpOp("ballot", (1,), 0)

        sched = WarpScheduler([GeneratorProgram(g(), [0, 1])], 32)
        with pytest.raises(DeviceError, match="multi-lane"):
            sched.run()


# ---------------------------------------------------------------------------
# warp-primitive rendezvous semantics (unit level)
# ---------------------------------------------------------------------------


def _ops(kind, votes):
    return {pos: WarpOp(kind, (v,), 1) for pos, v in votes.items()}


class TestResolveWarpOp:
    def test_ballot_full_warp(self):
        r = resolve_warp_op("ballot", _ops("ballot", {p: 1 for p in range(32)}),
                            32)
        assert all(v == (1 << 32) - 1 for v in r.values())

    def test_ballot_partial_warp_masks_only_active_lanes(self):
        # regression: a 16-lane trailing warp must NOT report a full
        # (1 << 32) - 1 mask
        r = resolve_warp_op("ballot", _ops("ballot", {p: 1 for p in range(16)}),
                            32)
        assert all(v == (1 << 16) - 1 for v in r.values())

    def test_ballot_respects_votes(self):
        votes = {0: 1, 1: 0, 2: 7, 3: 0.0}
        r = resolve_warp_op("ballot", _ops("ballot", votes), 32)
        assert r[0] == (1 << 0) | (1 << 2)

    def test_all_any(self):
        r = resolve_warp_op("all", _ops("all", {0: 1, 1: 1, 5: 1}), 32)
        assert set(r.values()) == {1}
        r = resolve_warp_op("all", _ops("all", {0: 1, 1: 0}), 32)
        assert set(r.values()) == {0}
        r = resolve_warp_op("any", _ops("any", {0: 0, 9: 3}), 32)
        assert set(r.values()) == {1}
        r = resolve_warp_op("any", _ops("any", {0: 0, 9: 0}), 32)
        assert set(r.values()) == {0}

    def test_shfl_broadcast(self):
        ops = {p: WarpOp("shfl", (p * 10, 3), 1) for p in range(8)}
        r = resolve_warp_op("shfl", ops, 32)
        assert set(r.values()) == {30}

    def test_shfl_down_and_up_boundaries(self):
        ops = {p: WarpOp("shfl_down", (p, 2), 1) for p in range(4)}
        r = resolve_warp_op("shfl_down", ops, 32)
        # lanes whose source is not participating read their own value
        assert r == {0: 2, 1: 3, 2: 2, 3: 3}
        ops = {p: WarpOp("shfl_up", (p, 2), 1) for p in range(4)}
        r = resolve_warp_op("shfl_up", ops, 32)
        assert r == {0: 0, 1: 1, 2: 0, 3: 1}

    def test_shfl_xor_within_width_segment(self):
        ops = {p: WarpOp("shfl_xor", (p, 1, 4), 1) for p in range(8)}
        r = resolve_warp_op("shfl_xor", ops, 32)
        assert r == {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6}

    def test_inactive_source_lane_yields_own_value(self):
        # only even lanes participate; odd sources are absent
        ops = {p: WarpOp("shfl_down", (p, 1), 1) for p in range(0, 8, 2)}
        r = resolve_warp_op("shfl_down", ops, 32)
        assert r == {0: 0, 2: 2, 4: 4, 6: 6}

    def test_unknown_kind_rejected(self):
        with pytest.raises(DeviceError, match="unknown warp primitive"):
            resolve_warp_op("vote42", _ops("vote42", {0: 1}), 32)

    def test_non_numeric_predicates_use_truthiness(self):
        votes = {0: np.int64(0), 1: np.int64(5)}
        r = resolve_warp_op("ballot", _ops("ballot", votes), 32)
        assert r[0] == 1 << 1


class TestPartialWarpShuffleEdges:
    """Shuffles in the trailing short warp of a ``local_size % warp_size
    != 0`` launch: sources beyond the populated lanes exist *geometrically*
    (inside the width segment) but carry no value — the own-value fallback
    must kick in, and segment clamping must still apply first."""

    # a 10-lane trailing warp (e.g. local_size 42 on warp 32)
    SHORT = 10

    def _short(self, kind, delta, width=None):
        args = (lambda p: (p, delta) if width is None else (p, delta, width))
        return {p: WarpOp(kind, args(p), 1) for p in range(self.SHORT)}

    def test_shfl_up_short_warp(self):
        r = resolve_warp_op("shfl_up", self._short("shfl_up", 4), 32)
        # lanes 0-3 would cross the segment start: own value
        assert r == {0: 0, 1: 1, 2: 2, 3: 3,
                     4: 0, 5: 1, 6: 2, 7: 3, 8: 4, 9: 5}

    def test_shfl_down_short_warp_absent_sources(self):
        r = resolve_warp_op("shfl_down", self._short("shfl_down", 4), 32)
        # lanes 6-9 target lanes 10-13: inside the 32-lane segment, so no
        # clamping — but those lanes do not exist in the short warp, and
        # the own-value fallback applies
        assert r == {0: 4, 1: 5, 2: 6, 3: 7, 4: 8, 5: 9,
                     6: 6, 7: 7, 8: 8, 9: 9}

    def test_shfl_xor_short_warp_absent_partners(self):
        r = resolve_warp_op("shfl_xor", self._short("shfl_xor", 8), 32)
        # 0^8=8 and 1^8=9 exist; 2..7 pair with absent 10..15; 8,9 pair
        # back with 0,1
        assert r == {0: 8, 1: 9, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7,
                     8: 0, 9: 1}

    def test_shfl_broadcast_short_warp_absent_source(self):
        # broadcast from lane 12 of a 10-lane warp: nobody has it
        ops = {p: WarpOp("shfl", (p * 10, 12), 1) for p in range(self.SHORT)}
        r = resolve_warp_op("shfl", ops, 32)
        assert r == {p: p * 10 for p in range(self.SHORT)}

    def test_width_zero_falls_back_to_warp_size(self):
        # CUDA's default width arg is the warp size; a literal 0 must not
        # produce a zero-wide segment (division by zero) but mean "whole
        # warp"
        ops = {p: WarpOp("shfl", (p * 10, 2, 0), 1) for p in range(8)}
        r = resolve_warp_op("shfl", ops, 32)
        assert set(r.values()) == {20}
        ops = {p: WarpOp("shfl_down", (p, 4, 0), 1) for p in range(8)}
        r = resolve_warp_op("shfl_down", ops, 32)
        assert r == {0: 4, 1: 5, 2: 6, 3: 7, 4: 4, 5: 5, 6: 6, 7: 7}

    def test_width_segments_clamp_before_absence(self):
        # width=8 segments: lane 5's shfl_down(4) target (9) crosses its
        # segment end -> own value even though lane 9 *is* populated
        ops = {p: WarpOp("shfl_down", (p, 4, 8), 1) for p in range(16)}
        r = resolve_warp_op("shfl_down", ops, 32)
        assert r[3] == 7
        assert r[5] == 5          # 5+4=9 is outside segment [0,8)
        assert r[9] == 13         # second segment, within bounds
        assert r[13] == 13        # 13+4=17 outside segment [8,16)

    def test_shfl_up_segment_crossing_with_width(self):
        ops = {p: WarpOp("shfl_up", (p, 2, 4), 1) for p in range(8)}
        r = resolve_warp_op("shfl_up", ops, 32)
        # each 4-lane segment restarts the crossing rule
        assert r == {0: 0, 1: 1, 2: 0, 3: 1, 4: 4, 5: 5, 6: 4, 7: 5}

    def test_shfl_xor_segment_boundary_with_width(self):
        # width=4: 2^3=1 stays in segment; 3^3=0 stays; partner outside
        # the segment end gets own value
        ops = {p: WarpOp("shfl_xor", (p, 6, 4), 1) for p in range(4)}
        r = resolve_warp_op("shfl_xor", ops, 32)
        # 0^6=6, 1^6=7, 2^6=4, 3^6=5 — all >= seg+width(4): own values
        assert r == {0: 0, 1: 1, 2: 2, 3: 3}


# ---------------------------------------------------------------------------
# partial-warp shuffles through real kernel launches
# ---------------------------------------------------------------------------


_SHFL_SHORT_WARP = """
__global__ void k(long* out) {
  int t = threadIdx.x;
  int u;
  int d;
  u = __shfl_up(t, 4);
  d = __shfl_down(t, 4);
  out[t] = (long)u * 100 + d;
}
"""


@pytest.mark.parametrize("tier", ["interp", "compiled"])
def test_shfl_short_trailing_warp_launch(dev, tier):
    """local_size 42 = one full warp + a 10-lane trailing warp: the short
    warp's segment rules and own-value fallbacks, end to end."""
    out = _launch(dev, _SHFL_SHORT_WARP, 42, 42, tier=tier)
    for t in range(42):
        lane = t % 32
        warp_lanes = range(32) if t < 32 else range(10)
        up_src = lane - 4
        up = (t - 4) if up_src >= 0 else t
        dn_src = lane + 4
        dn = (t + 4) if (dn_src < 32 and dn_src in warp_lanes) else t
        assert int(out[t]) == up * 100 + dn, f"lane {t}"

# warp primitives through real kernel launches (per-lane semantics)
# ---------------------------------------------------------------------------


@pytest.fixture
def dev():
    return Device(GTX_TITAN)


def _launch(dev, src, block, n_out, tier=None):
    unit = parse(src, "cuda")
    mod = load_module(dev, unit, "cuda", exec_tier=tier)
    k = mod.get_kernel(next(iter(mod.kernels)))
    p = dev.alloc_global(8 * n_out)
    dev.global_mem.view(p.off, 8 * n_out)[:] = 0
    launch_kernel(dev, k, [1], [block], [p.retype(T.LONG)])
    return dev.global_mem.typed_view(p.off, T.LONG, n_out).copy()


_BALLOT = """
__global__ void k(long* out) {
  int t = threadIdx.x;
  long m;
  m = __ballot(1);
  out[t] = m;
}
"""


@pytest.mark.parametrize("tier", ["interp", "compiled"])
def test_ballot_partial_warp_regression(dev, tier):
    """``local_size`` not a multiple of the warp size: the trailing warp's
    ballot mask covers only its populated lanes."""
    out = _launch(dev, _BALLOT, 48, 48, tier=tier)
    assert all(int(v) == (1 << 32) - 1 for v in out[:32])
    assert all(int(v) == (1 << 16) - 1 for v in out[32:])


def test_ballot_under_vector_tier_demotes_and_matches(dev):
    # warp primitives are per-lane by construction; the vector tier must
    # demote such kernels to the scalar chain and still agree
    out = _launch(dev, _BALLOT, 48, 48, tier="vector")
    assert all(int(v) == (1 << 32) - 1 for v in out[:32])
    assert all(int(v) == (1 << 16) - 1 for v in out[32:])


def test_ballot_per_lane_votes(dev):
    src = """
    __global__ void k(long* out) {
      int t = threadIdx.x;
      long m;
      m = __ballot(t % 2);
      out[t] = m;
    }
    """
    out = _launch(dev, src, 32, 32)
    odd = sum(1 << p for p in range(1, 32, 2))
    assert all(int(v) == odd for v in out)


def test_divergent_ballots_rendezvous_separately(dev):
    # lanes suspended at *different* call sites form separate rendezvous
    # groups: each branch's ballot sees only its own participants
    src = """
    __global__ void k(long* out) {
      int t = threadIdx.x;
      long m;
      if (t % 2 == 0) { m = __ballot(1); } else { m = __ballot(1); }
      out[t] = m;
    }
    """
    out = _launch(dev, src, 32, 32)
    even = sum(1 << p for p in range(0, 32, 2))
    odd = sum(1 << p for p in range(1, 32, 2))
    for t, v in enumerate(out):
        assert int(v) == (even if t % 2 == 0 else odd)


@pytest.mark.parametrize("tier", ["interp", "compiled"])
def test_shfl_down_warp_reduction(dev, tier):
    src = """
    __global__ void k(long* out) {
      int t = threadIdx.x;
      int v = t + 1;
      v += __shfl_down(v, 16);
      v += __shfl_down(v, 8);
      v += __shfl_down(v, 4);
      v += __shfl_down(v, 2);
      v += __shfl_down(v, 1);
      out[t] = v;
    }
    """
    out = _launch(dev, src, 32, 32, tier=tier)
    assert int(out[0]) == sum(range(1, 33))


def test_all_any_partial_warp(dev):
    src = """
    __global__ void k(long* out) {
      int t = threadIdx.x;
      int a;
      int y;
      a = __all(t < 40);
      y = __any(t == 47);
      out[t] = a * 10 + y;
    }
    """
    out = _launch(dev, src, 48, 48)
    # warp 0: all lanes < 40? no (32..39 yes -> wait, lanes 0..31 all < 40)
    assert all(int(v) == 10 for v in out[:32])
    # warp 1 (lanes 32..47): not all < 40, and lane 47 exists -> any == 1
    assert all(int(v) == 1 for v in out[32:])


# ---------------------------------------------------------------------------
# located barrier-divergence diagnostics
# ---------------------------------------------------------------------------


class TestDivergenceDiagnostics:
    def test_error_names_kernel_and_location(self, dev):
        src = """
        __kernel void bad_kern(__global int* x) {
          if (get_local_id(0) < 16) barrier(CLK_LOCAL_MEM_FENCE);
          x[get_global_id(0)] = 1;
        }
        """
        unit = parse(src, "opencl")
        mod = load_module(dev, unit, "opencl")
        p = dev.alloc_global(4 * 32)
        with pytest.raises(DeviceError) as ei:
            launch_kernel(dev, mod.get_kernel("bad_kern"), [1], [32],
                          [p.retype(T.INT)])
        msg = str(ei.value)
        assert "bad_kern" in msg
        assert "line" in msg
        diag = getattr(ei.value, "diagnostic", None)
        assert diag is not None
        assert diag.pass_name == "warp-scheduler"
        assert diag.span.known

    @pytest.mark.parametrize("tier", ["compiled", "vector"])
    def test_error_located_under_generated_tiers(self, dev, tier):
        src = """
        __kernel void bad_gen(__global int* x) {
          int lid = get_local_id(0);
          if (lid < 16) return;
          barrier(CLK_LOCAL_MEM_FENCE);
          x[lid] = 1;
        }
        """
        unit = parse(src, "opencl")
        mod = load_module(dev, unit, "opencl", exec_tier=tier)
        p = dev.alloc_global(4 * 32)
        with pytest.raises(DeviceError, match="divergence.*'bad_gen'"):
            launch_kernel(dev, mod.get_kernel("bad_gen"), [1], [32],
                          [p.retype(T.INT)])

    def test_divergence_error_without_node(self):
        err = divergence_error("k", None)
        assert "barrier divergence in kernel 'k'" in str(err)
        assert not hasattr(err, "diagnostic")

    def test_divergence_error_anonymous(self):
        assert "barrier divergence:" in str(divergence_error("", None))


# ---------------------------------------------------------------------------
# trace accounting over the scheduler's warp grouping (partial warps)
# ---------------------------------------------------------------------------


def _fake_launch(threads):
    dev = SimpleNamespace(spec=GTX_TITAN)
    return SimpleNamespace(device=dev, counters=PerfCounters(),
                           local_traces=[dict() for _ in range(threads)],
                           global_traces=[dict() for _ in range(threads)])


class TestAccountTracesPartialWarps:
    def test_partial_trailing_warp_counts_separately(self):
        # 40 lanes -> windows (0,32) and (32,40).  Every lane hits one
        # distinct 4-byte word at site 1: one conflict-free transaction
        # per warp window.
        launch = _fake_launch(40)
        for lid in range(40):
            launch.local_traces[lid][1] = [(4 * lid, 4)]
        _account_traces(launch, 40, 32)
        assert launch.counters.local_transactions == 2

    def test_bank_conflicts_do_not_cross_warp_boundary(self):
        # lanes 0 and 32 hit the same bank with different words; they are
        # in different warps, so no conflict: 1 transaction each
        launch = _fake_launch(33)
        launch.local_traces[0][7] = [(0, 4)]
        launch.local_traces[32][7] = [(32 * 4, 4)]
        _account_traces(launch, 33, 32)
        assert launch.counters.local_transactions == 2

    def test_ragged_depths_within_warp(self):
        # lane 0 makes two accesses at the site, lane 1 only one: step 0
        # pairs both lanes, step 1 is lane 0 alone
        launch = _fake_launch(2)
        launch.local_traces[0][3] = [(0, 4), (128 * 4, 4)]
        launch.local_traces[1][3] = [(0, 4)]
        _account_traces(launch, 2, 32)
        assert launch.counters.local_transactions == 2

    def test_empty_trailing_lane_traces(self):
        # lanes with no accesses at all contribute nothing — including a
        # whole silent trailing portion of the warp
        launch = _fake_launch(48)
        launch.local_traces[0][1] = [(0, 4)]
        _account_traces(launch, 48, 32)
        assert launch.counters.local_transactions == 1

    def test_global_segments_partial_warp(self):
        # trailing 8-lane warp streams 4-byte words within one 128-byte
        # segment -> a single coalesced transaction; the full warp spans
        # exactly one segment as well
        launch = _fake_launch(40)
        for lid in range(32):
            launch.global_traces[lid][2] = [(4 * lid, 4)]
        for j, lid in enumerate(range(32, 40)):
            launch.global_traces[lid][2] = [(256 + 4 * j, 4)]
        _account_traces(launch, 40, 32)
        assert launch.counters.global_transactions == 2

    def test_global_ragged_depths(self):
        # second step has only one participating lane -> its own segment
        launch = _fake_launch(2)
        launch.global_traces[0][5] = [(0, 4), (512, 4)]
        launch.global_traces[1][5] = [(4, 4)]
        _account_traces(launch, 2, 32)
        assert launch.counters.global_transactions == 2

    def test_straddling_access_counts_both_segments(self):
        launch = _fake_launch(1)
        launch.global_traces[0][9] = [(124, 8)]  # crosses the 128 boundary
        _account_traces(launch, 1, 32)
        assert launch.counters.global_transactions == 2
