"""Seeded property tests: generated kernels, interp ≡ compiled.

Each seed deterministically generates a small OpenCL kernel from a pool of
statement templates covering the constructs the compile tier must lower
faithfully: barriers with local memory, divergent branches, loops, and
integer/float arithmetic (including C division/modulo and shift-width
wrapping).  The kernel runs under both execution tiers on fresh devices and
the suite asserts byte-identical output buffers, identical performance
counters, and bit-for-bit identical modeled kernel time.

A second group checks the ``compiled`` tier's contract: unsupported
constructs fall back to the interpreter per kernel, with the demotion
recorded and the run still correct.
"""

import random

import numpy as np
import pytest

from repro.clike import parse
from repro.clike import types as T
from repro.device.engine import (Device, LocalArg, launch_kernel, load_module)
from repro.device.specs import GTX_TITAN
from repro.observability import get_metrics

BLOCK = 32
GROUPS = 4
N = BLOCK * GROUPS

# ---------------------------------------------------------------------------
# kernel generator
# ---------------------------------------------------------------------------


def _gen_statements(rng: random.Random, depth: int = 0):
    """A few random statements over the fixed locals f (float), v (int)."""
    stmts = []
    for _ in range(rng.randint(3, 6)):
        # barriers (kind 5) only in uniform top-level control flow: a
        # barrier inside a divergent branch is UB in both models and the
        # engine rejects it
        kind = rng.randint(0, 5 if depth == 0 else 4)
        if kind == 0:                                   # float arithmetic
            c = rng.uniform(0.25, 2.0)
            op = rng.choice(["+", "-", "*"])
            stmts.append(f"f = f {op} {c:.4f}f;")
        elif kind == 1:                                 # int arithmetic
            c = rng.randint(1, 9)
            op = rng.choice(["+", "-", "*", "&", "|", "^", "%", "/"])
            stmts.append(f"v = (v {op} {c}) + lid;")
        elif kind == 2:                                 # shifts
            s = rng.randint(0, 4)
            stmts.append(f"v = (v << {s}) ^ (v >> {s + 1});")
        elif kind == 3:                                 # divergent branch
            m = rng.randint(2, 5)
            r = rng.randrange(m)
            a = _gen_statements(rng, depth + 1) if depth == 0 else ["f += 1.0f;"]
            b = _gen_statements(rng, depth + 1) if depth == 0 else ["v -= 2;"]
            stmts.append("if (gid % {} == {}) {{ {} }} else {{ {} }}".format(
                m, r, " ".join(a), " ".join(b)))
        elif kind == 4:                                 # loop
            k = rng.randint(1, 4)
            stmts.append(
                f"for (int i = 0; i < {k}; i++) f = f * 0.5f + (float)(v + i);")
        else:                                           # local mem + barriers
            s = rng.randint(1, BLOCK - 1)
            stmts.append(
                f"tmp[lid] = f; barrier(CLK_LOCAL_MEM_FENCE); "
                f"f += tmp[(lid + {s}) % {BLOCK}]; "
                f"barrier(CLK_LOCAL_MEM_FENCE);")
    return stmts


def gen_kernel(seed: int) -> str:
    rng = random.Random(seed)
    body = "\n  ".join(_gen_statements(rng))
    return f"""
__kernel void prop(__global const float* fin, __global float* fout,
                   __global const int* iin, __global int* iout,
                   __local float* tmp, int n) {{
  int gid = get_global_id(0);
  int lid = get_local_id(0);
  if (gid >= n) return;
  float f = fin[gid];
  int v = iin[gid];
  {body}
  fout[gid] = f;
  iout[gid] = v + (int)f;
}}
"""


# ---------------------------------------------------------------------------
# dual-tier launch helper
# ---------------------------------------------------------------------------


def _upload(dev, arr):
    p = dev.alloc_global(arr.nbytes)
    dev.global_mem.view(p.off, arr.nbytes)[:] = arr.view(np.uint8).reshape(-1)
    return p


def _run_tier(src: str, tier: str):
    """Fresh device, fixed inputs, one launch; returns everything that must
    match across tiers plus the module (for tier introspection)."""
    dev = Device(GTX_TITAN)
    unit = parse(src, "opencl")
    mod = load_module(dev, unit, "opencl", exec_tier=tier)
    k = mod.get_kernel("prop")

    rng = np.random.default_rng(42)
    fin = rng.random(N, np.float32)
    iin = rng.integers(-1000, 1000, N).astype(np.int32)
    pf_in, pi_in = _upload(dev, fin), _upload(dev, iin)
    pf_out = dev.alloc_global(4 * N)
    pi_out = dev.alloc_global(4 * N)

    res = launch_kernel(dev, k, [GROUPS], [BLOCK],
                        [pf_in.retype(T.FLOAT), pf_out.retype(T.FLOAT),
                         pi_in.retype(T.INT), pi_out.retype(T.INT),
                         LocalArg(4 * BLOCK), N])
    fout = bytes(dev.global_mem.view(pf_out.off, 4 * N))
    iout = bytes(dev.global_mem.view(pi_out.off, 4 * N))
    return fout, iout, res, mod


@pytest.mark.parametrize("seed", range(12))
def test_generated_kernel_identical(seed):
    src = gen_kernel(seed)
    f1, i1, r1, m1 = _run_tier(src, "interp")
    f2, i2, r2, m2 = _run_tier(src, "compiled")
    # the compiled tier really compiled — no silent demotion
    assert m2.compile_fallbacks == {}, m2.compile_fallbacks
    assert "prop" in m2.compiled_entries
    assert m1.compiled_entries == {}
    # byte-identical buffers, identical counters, bit-identical modeled time
    assert f2 == f1
    assert i2 == i1
    assert r2.counters == r1.counters
    assert r2.time.total == r1.time.total
    assert r2.time == r1.time


@pytest.mark.parametrize("seed", range(12))
def test_generated_kernel_identical_vector(seed):
    """The warp-vectorized tier over the same seeds: the generator only
    emits uniformly-branching bodies with divergent *data* masks, so every
    seed must vectorize (no silent demotion) and stay byte-identical."""
    src = gen_kernel(seed)
    f1, i1, r1, m1 = _run_tier(src, "interp")
    f3, i3, r3, m3 = _run_tier(src, "vector")
    assert m3.vector_fallbacks == {}, m3.vector_fallbacks
    assert "prop" in m3.vector_entries
    assert f3 == f1
    assert i3 == i1
    assert r3.counters == r1.counters
    assert r3.time.total == r1.time.total
    assert r3.time == r1.time
    assert r3.occupancy == r1.occupancy


# ---------------------------------------------------------------------------
# compiled-tier fallback on unsupported constructs
# ---------------------------------------------------------------------------

_SHADOW = """
__kernel void shadow(__global int* out, int n) {
  int gid = get_global_id(0);
  if (gid < n) { int n = 7; out[gid] = n + gid; }
}
"""


def _launch_shadow(tier):
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(_SHADOW, "opencl"), "opencl", exec_tier=tier)
    p = dev.alloc_global(4 * N)
    launch_kernel(dev, mod.get_kernel("shadow"), [GROUPS], [BLOCK],
                  [p.retype(T.INT), N])
    return dev.global_mem.typed_view(p.off, T.INT, N).copy(), mod


def test_compiled_tier_also_falls_back():
    """The ``compiled`` tier degrades per kernel instead of failing."""
    before = get_metrics().counter("engine.compile.fallback").value
    got, mod = _launch_shadow("compiled")
    got_interp, _ = _launch_shadow("interp")
    # the construct was demoted, with a reason, and the kernel still ran
    # correctly through the interpreter
    assert "shadow" in mod.compile_fallbacks
    assert "shadows parameter" in mod.compile_fallbacks["shadow"]
    assert "shadow" not in mod.compiled_entries
    assert np.array_equal(got, got_interp)
    assert np.array_equal(got, np.arange(7, 7 + N, dtype=np.int32))
    assert get_metrics().counter("engine.compile.fallback").value > before


# ---------------------------------------------------------------------------
# vector-tier demotion chain: vector -> compiled -> interp
# ---------------------------------------------------------------------------

_BUILTIN_CALL = """
__kernel void root(__global float* out, int n) {
  int gid = get_global_id(0);
  if (gid >= n) return;
  out[gid] = sqrt((float)gid);
}
"""


def test_vector_demotes_to_scalar_compiled():
    """A per-lane builtin call is outside the vector subset: the kernel
    demotes one rung (to generated scalar code), not two, and the
    demotion is recorded with a reason."""
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(_BUILTIN_CALL, "opencl"), "opencl",
                      exec_tier="vector")
    assert "root" in mod.vector_fallbacks
    assert "root" not in mod.vector_entries
    # middle rung still holds: the scalar compiled form runs it
    assert "root" in mod.compiled_entries
    assert mod.compile_fallbacks == {}
    p = dev.alloc_global(4 * N)
    launch_kernel(dev, mod.get_kernel("root"), [GROUPS], [BLOCK],
                  [p.retype(T.FLOAT), N])
    out = dev.global_mem.typed_view(p.off, T.FLOAT, N).copy()
    assert np.allclose(out, np.sqrt(np.arange(N, dtype=np.float32)))


def test_vector_chains_to_interp_on_scalar_fallback():
    """A kernel the *scalar* pass already demoted records the chained
    reason in the vector tier and still executes via the interpreter."""
    dev = Device(GTX_TITAN)
    mod = load_module(dev, parse(_SHADOW, "opencl"), "opencl",
                      exec_tier="vector")
    assert "shadow" in mod.vector_fallbacks
    assert mod.vector_fallbacks["shadow"].startswith("scalar fallback:")
    assert "shadows parameter" in mod.vector_fallbacks["shadow"]
    assert "shadow" not in mod.vector_entries
    assert "shadow" not in mod.compiled_entries
    p = dev.alloc_global(4 * N)
    launch_kernel(dev, mod.get_kernel("shadow"), [GROUPS], [BLOCK],
                  [p.retype(T.INT), N])
    got = dev.global_mem.typed_view(p.off, T.INT, N).copy()
    assert np.array_equal(got, np.arange(7, 7 + N, dtype=np.int32))


def test_vector_demotion_counted():
    before = get_metrics().counter("engine.vector.fallback").value
    load_module(Device(GTX_TITAN), parse(_BUILTIN_CALL, "opencl"), "opencl",
                exec_tier="vector")
    assert get_metrics().counter("engine.vector.fallback").value > before


def test_bad_tier_rejected():
    from repro.errors import DeviceError
    dev = Device(GTX_TITAN)
    with pytest.raises(DeviceError, match="bad execution tier"):
        load_module(dev, parse(_SHADOW, "opencl"), "opencl",
                    exec_tier="jit")
