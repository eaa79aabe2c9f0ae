"""Layer attribution of span forests and the probe as a pure observer."""

import sys
from types import SimpleNamespace

import pytest

import corpus
from layers import METRICS, LayerProbe, LayerTotals, layer_of


def span(sid, parent, start, end, name, **attrs):
    return SimpleNamespace(span_id=sid, parent_id=parent, start_ns=start,
                           end_ns=end, name=name, attrs=attrs,
                           duration_ns=end - start)


def forest():
    """One traced ocl->cuda item; times in ns."""
    return [
        span("i", None, 0, 100, "bench.item:app|ocl->cuda|titan"),
        span("r", "i", 5, 95, "run:ocl->cuda:app"),
        span("p1", "r", 5, 15, "clike.parse:parse", bytes=2048),
        # a translated entry point calling a native one: nested, so the
        # wrapper keeps only the time the native call does not cover
        span("w", "r", 20, 60, "translate.wrappers:clBuildProgram"),
        span("t", "w", 22, 40, "translate.entry:translate_kernel_unit"),
        # the program's own translate: span belongs to the entry point
        span("tp", "t", 23, 39, "translate:ocl2cuda"),
        span("pc", "tp", 25, 30, "pass:clone-unit"),
        span("p2", "tp", 30, 35, "clike.parse:parse", bytes=1024),
        span("n", "w", 45, 50, "ocl.api:clGetDeviceInfo"),
        span("l", "r", 60, 80, "device.launch.vector:k"),
        span("k", "l", 61, 79, "kernel:k", work_items=64),
        span("b", "k", 70, 72, "device.banks:warp_transactions"),
        span("c", "r", 82, 84, "pipeline.cache:get", hit=True),
        span("cc", "c", 82, 83, "cache:get"),
    ]


def test_layer_of_program_spans():
    assert layer_of("run:cuda->ocl:x", "bench.item") == "clike.interp.host"
    assert layer_of("compile:opencl", "device.load_module") == \
        "device.compile"
    assert layer_of("pass:host-rewrite", "translate") == \
        "translate.pass.host-rewrite"
    assert layer_of("kernel:k", "device.launch.interp") == \
        "device.launch.interp"
    assert layer_of("ocl.api:clFinish", "translate.wrappers") == "ocl.api"


def test_totals_attribute_self_time_once_per_layer():
    totals = LayerTotals()
    totals.add(forest())
    totals.passes = 1
    m = totals.metrics(overhead_ratio=0.25)
    ns = 1e-9
    assert m["clike.interp.host_s"] == pytest.approx((90 - 10 - 40 - 20 - 2)
                                                     * ns)
    assert m["clike.interp.host_share"] == pytest.approx(18 / 100)
    assert m["translate.wrappers.calls"] == 1
    assert m["translate.wrappers.s"] == pytest.approx((40 - 18 - 5) * ns)
    assert m["ocl.api.calls"] == 1
    assert m["ocl.api.s"] == pytest.approx(5 * ns)
    assert m["translate.calls"] == 1
    assert m["translate.s"] == pytest.approx((18 - 5 - 5) * ns)
    assert m["translate.pass.clone-unit_s"] == pytest.approx(5 * ns)
    assert m["clike.parse.calls"] == 2
    assert m["clike.parse.s"] == pytest.approx(15 * ns)
    assert m["clike.parse.kb_per_s"] == pytest.approx(3 / (15 * ns))
    # the kernel: span belongs to the launch that opened it, minus banks
    assert m["device.launch.vector_s"] == pytest.approx((20 - 2) * ns)
    assert m["device.launch.calls"] == 1
    assert m["device.vector.coverage"] == 1.0
    assert m["device.host_ns_per_workitem"] == pytest.approx(18 / 64)
    assert m["device.banks.calls"] == 1
    assert m["device.banks.s"] == pytest.approx(2 * ns)
    assert m["pipeline.cache.lookups"] == 1
    assert m["pipeline.cache.hit_ratio"] == 1.0
    assert m["pipeline.cache.s"] == pytest.approx(2 * ns)
    assert m["trace.overhead_ratio"] == 0.25
    assert list(m) == [name for name, _ in METRICS]


def test_totals_report_per_pass():
    totals = LayerTotals()
    totals.add(forest())
    totals.add(forest())
    totals.passes = 2
    m = totals.metrics(0.0)
    assert m["clike.parse.calls"] == 2
    assert m["ocl.api.s"] == pytest.approx(5e-9)


def _bindings():
    """Identity of every attribute the probe may rebind."""
    from repro.clike.hostlib import HostEnv
    from repro.cuda.runtime import CudaRuntime
    from repro.harness.runner import shared_translation_cache
    from repro.ocl.api import OpenCLFramework
    from repro.pipeline.cache import kernel_code_cache
    from repro.translate.cuda2ocl.wrappers import Cuda2OclRuntime
    owners = [m for n, m in sorted(sys.modules.items())
              if m is not None and n.startswith("repro")]
    owners += [HostEnv, CudaRuntime, OpenCLFramework, Cuda2OclRuntime,
               shared_translation_cache(), kernel_code_cache()]
    return [(o, dict(vars(o))) for o in owners]


BARS = ["toolkit/oclVectorAdd|ocl-native|titan",
        "toolkit/oclVectorAdd|ocl->cuda|titan",
        "toolkit/vectorAdd|cuda-native|titan",
        "toolkit/vectorAdd|cuda->ocl|hd7970",
        # local memory: bank-conflict accounting
        "toolkit/oclReduction|ocl->cuda|titan"]


def test_probe_is_a_pure_observer_and_restores_every_binding():
    from repro.observability import Tracer, activate
    items = [corpus.Item(k, "bar") for k in BARS]
    corpus.clear_caches()
    plain = [corpus.canonical(corpus.execute(i)) for i in items]
    with LayerProbe():
        pass                            # imports every probed module
    before = _bindings()
    tracer = Tracer()
    corpus.clear_caches()
    with LayerProbe(), activate(tracer):
        traced = [corpus.canonical(corpus.execute(i)) for i in items]
    after = _bindings()
    assert traced == plain
    assert len(after) == len(before)
    for (owner, old), (_, new) in zip(before, after):
        assert old.keys() == new.keys(), owner
        assert all(old[k] is new[k] for k in old), owner

    seen = {s.name.partition(":")[0] for s in tracer.finished}
    assert {"clike.parse", "ocl.api", "cuda.api", "translate.wrappers",
            "translate.entry", "translate.analyze", "pipeline.cache",
            "pipeline.kernel_cache", "device.load_module",
            "device.launch.vector", "device.banks", "device.perf", "run",
            "kernel", "compile", "pass"} <= seen

    # with the probe gone, the same calls record no probe spans
    tracer = Tracer()
    with activate(tracer):
        corpus.execute(items[0])
    assert not any("." in s.name.partition(":")[0] for s in tracer.finished)
