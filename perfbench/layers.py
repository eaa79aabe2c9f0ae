"""Outside-in per-layer tracing.

:class:`LayerProbe` wraps calls into each layer's public functions in
:class:`repro.observability.Tracer` spans named ``<layer>:<function>``;
the program's own ``run:``, ``kernel:``, ``compile:``, ``pass:`` and
``cache:`` spans nest beneath them.  Nothing inside ``src/`` changes: the
probe rebinds names at their import sites while a traced pass runs and
puts every original back afterwards.  :class:`LayerTotals` turns the span
forest of traced passes into the per-layer metrics of ``README.md``.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from stats import self_times

#: modules the probe rebinds names in; imported up front so that no module
#: first imported mid-pass captures a wrapper
MODULES = (
    "repro.clike", "repro.clike.interp", "repro.clike.compile",
    "repro.clike.vectorize", "repro.device", "repro.device.engine",
    "repro.ocl.api", "repro.cuda.runtime", "repro.cuda.driver",
    "repro.translate", "repro.translate.api", "repro.translate.analyzer",
    "repro.translate.passes", "repro.translate.ocl2cuda.kernel",
    "repro.translate.ocl2cuda.wrappers", "repro.translate.cuda2ocl.wrappers",
    "repro.pipeline.batch", "repro.pipeline.cache", "repro.harness.runner",
    "repro.harness.tables",
)

#: (metric name, unit); the order the report prints them in
METRICS: Tuple[Tuple[str, str], ...] = (
    ("clike.parse.calls", "count"),
    ("clike.parse.s", "s"),
    ("clike.parse.kb_per_s", "KiB/s"),
    ("clike.interp.host_s", "s"),
    ("clike.interp.host_share", "ratio"),
    ("ocl.api.calls", "count"),
    ("ocl.api.s", "s"),
    ("cuda.api.calls", "count"),
    ("cuda.api.s", "s"),
    ("translate.wrappers.calls", "count"),
    ("translate.wrappers.s", "s"),
    ("translate.calls", "count"),
    ("translate.s", "s"),
    ("translate.analyze.s", "s"),
    ("translate.pass.parse_s", "s"),
    ("translate.pass.translatability-check_s", "s"),
    ("translate.pass.host-rewrite_s", "s"),
    ("translate.pass.clone-unit_s", "s"),
    ("translate.pass.template-specialize_s", "s"),
    ("pipeline.cache.lookups", "count"),
    ("pipeline.cache.hit_ratio", "ratio"),
    ("pipeline.cache.s", "s"),
    ("pipeline.kernel_cache.hit_ratio", "ratio"),
    ("device.load_module.calls", "count"),
    ("device.load_module.s", "s"),
    ("device.compile.s", "s"),
    ("device.launch.calls", "count"),
    ("device.launch.vector_s", "s"),
    ("device.launch.compiled_s", "s"),
    ("device.launch.interp_s", "s"),
    ("device.vector.coverage", "ratio"),
    ("device.host_ns_per_workitem", "ns"),
    ("device.banks.calls", "count"),
    ("device.banks.s", "s"),
    ("device.perf.calls", "count"),
    ("device.perf.s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

TIERS = ("vector", "compiled", "interp")

#: layers whose spans the probe (or the benchmark loop) opens itself
PROBE_LAYERS = frozenset({
    "bench.item", "clike.parse", "ocl.api", "cuda.api", "translate.wrappers",
    "translate.entry", "translate.analyze", "pipeline.cache",
    "pipeline.kernel_cache", "device.load_module", "device.banks",
    "device.perf"} | {f"device.launch.{t}" for t in TIERS})


def _tracer():
    from repro.observability import get_tracer
    return get_tracer()


def _spanned(layer: str, fn: Callable[..., Any],
             attrs: Optional[Callable[..., Dict[str, Any]]] = None,
             name: Optional[str] = None) -> Callable[..., Any]:
    """``fn`` inside a ``<layer>:<name>`` span of the active tracer
    (``name`` defaults to the function's own)."""
    name = f"{layer}:{name or getattr(fn, '__name__', 'call')}"

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        extra = attrs(*args, **kwargs) if attrs is not None else {}
        with _tracer().span(name, **extra):
            return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.perfbench_layer = layer  # type: ignore[attr-defined]
    return wrapper


def _source_bytes(source: str, *args: Any, **kwargs: Any) -> Dict[str, Any]:
    return {"bytes": len(source)}


def _launch_tier(kernel: Any) -> str:
    """The tier the engine will run ``kernel`` on (see
    ``repro.device.engine._run_group``)."""
    mod = kernel.module
    if mod.exec_tier == "interp" or kernel.name in mod.debug_demotions:
        return "interp"
    if mod.exec_tier == "vector" and kernel.name in mod.vector_entries:
        return "vector"
    return "compiled" if kernel.name in mod.compiled_entries else "interp"


class LayerProbe:
    """Context manager installing the per-layer spans; restores every
    rebound name on exit, even when the pass raised."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, bool, Any]] = []
        #: layer of the framework whose ``install`` is running (host API)
        self._installing: List[str] = []

    # -- rebinding ----------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def _everywhere(self, fn: Callable[..., Any], wrapper: Callable) -> None:
        """Rebind every ``repro`` module attribute bound to ``fn``."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro"
                                   or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def _at(self, module: str, attr: str, layer: str) -> None:
        """Rebind ``attr`` in ``module`` only: calls from elsewhere stay
        untimed."""
        mod = sys.modules[module]
        self._set(mod, attr, _spanned(layer, getattr(mod, attr)))

    def __enter__(self) -> "LayerProbe":
        for name in MODULES:
            importlib.import_module(name)
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, own, value = self._saved.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def _install(self) -> None:
        import repro.clike as clike
        import repro.device.engine as engine
        import repro.translate.analyzer as analyzer
        import repro.translate.api as tapi
        import repro.translate.ocl2cuda.kernel as o2c_kernel

        self._everywhere(clike.parse,
                         _spanned("clike.parse", clike.parse, _source_bytes))
        self._everywhere(engine.load_module,
                         _spanned("device.load_module", engine.load_module))
        for fn in (tapi.translate_cuda_program, tapi.translate_opencl_program,
                   o2c_kernel.translate_kernel_unit):
            self._everywhere(fn, _spanned("translate.entry", fn))
        for fn in (analyzer.analyze_cuda_source,
                   analyzer.analyze_opencl_source):
            self._everywhere(fn, _spanned("translate.analyze", fn))

        self._install_launch(("repro.ocl.api", "repro.cuda.runtime",
                              "repro.cuda.driver"))
        self._at("repro.device.engine", "warp_transactions", "device.banks")
        for attr in ("kernel_time", "calc_occupancy", "estimate_registers"):
            self._at("repro.device.engine", attr, "device.perf")
        self._install_host_api()
        self._install_caches()

    def _install_launch(self, modules: Sequence[str]) -> None:
        fn = getattr(sys.modules[modules[0]], "launch_kernel")

        def launch_kernel(device: Any, kernel: Any, *args: Any,
                          **kwargs: Any) -> Any:
            layer = f"device.launch.{_launch_tier(kernel)}"
            with _tracer().span(f"{layer}:{kernel.name}"):
                return fn(device, kernel, *args, **kwargs)

        launch_kernel.__wrapped__ = fn  # type: ignore[attr-defined]
        for name in modules:
            self._set(sys.modules[name], "launch_kernel", launch_kernel)

    def _install_host_api(self) -> None:
        """Span every host function a framework ``install``s into a
        ``HostEnv``.  A framework installed by another one (the native
        OpenCL framework under the CUDA→OpenCL wrappers) keeps its own
        layer, so a wrapper calling a native entry point nests."""
        from repro.clike.hostlib import HostEnv
        from repro.cuda.runtime import CudaRuntime
        from repro.ocl.api import OpenCLFramework
        from repro.translate.cuda2ocl.wrappers import Cuda2OclRuntime
        from repro.translate.ocl2cuda.wrappers import Ocl2CudaFramework

        probe = self

        def during_install(cls: type, layer_for: Callable[[Any], str]) -> None:
            original = vars(cls)["install"]

            def install(fw: Any, env: Any, *args: Any, **kwargs: Any) -> Any:
                probe._installing.append(layer_for(fw))
                try:
                    return original(fw, env, *args, **kwargs)
                finally:
                    probe._installing.pop()

            self._set(cls, "install", install)

        during_install(OpenCLFramework,
                       lambda fw: "translate.wrappers"
                       if isinstance(fw, Ocl2CudaFramework) else "ocl.api")
        during_install(CudaRuntime, lambda fw: "cuda.api")
        during_install(Cuda2OclRuntime, lambda fw: "translate.wrappers")

        register = vars(HostEnv)["register"]

        def spanned_register(env: Any, name: str, impl: Any) -> None:
            if probe._installing and not hasattr(impl, "perfbench_layer"):
                impl = _spanned(probe._installing[-1], impl, name=name)
            register(env, name, impl)

        self._set(HostEnv, "register", spanned_register)

    def _install_caches(self) -> None:
        from repro.harness.runner import shared_translation_cache
        from repro.pipeline.cache import kernel_code_cache
        for layer, cache in (("pipeline.cache", shared_translation_cache()),
                             ("pipeline.kernel_cache", kernel_code_cache())):
            get = cache.get

            def spanned_get(key: str, _get=get, _name=f"{layer}:get") -> Any:
                with _tracer().span(_name) as span:
                    result = _get(key)
                    span.set(hit=result is not None)
                    return result

            self._set(cache, "get", spanned_get)
            for attr in ("put", "get_or_translate"):
                self._set(cache, attr, _spanned(layer, getattr(cache, attr)))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def layer_of(name: str, parent_layer: str) -> str:
    """The layer a span's self time belongs to.  Probe spans name their
    layer; ``run:`` self time is host-program interpretation; ``compile:``
    is kernel codegen; ``pass:<p>`` is one translator pass; every other
    program span (``kernel:``, ``cache:``, ``translate:``, ``batch:``...)
    belongs to the probe span it runs under."""
    kind, _, detail = name.partition(":")
    if kind in PROBE_LAYERS:
        return kind
    if kind == "run":
        return "clike.interp.host"
    if kind == "compile":
        return "device.compile"
    if kind == "pass":
        return f"translate.pass.{detail}"
    return parent_layer


class LayerTotals:
    """Per-layer sums over the span forests of one or more traced passes."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Counter = Counter()
        self.parse_bytes = 0
        self.work_items: Counter = Counter()
        self.lookups: Counter = Counter()
        self.hits: Counter = Counter()
        self.item_ns = 0
        self.passes = 0

    def add(self, spans: Sequence[Any]) -> None:
        """Fold one forest of finished spans (e.g. one item's) in."""
        by_id = {s.span_id: s for s in spans}
        own = self_times(spans)
        layers: Dict[str, str] = {}

        def resolve(span: Any) -> str:
            # iterative walk up to the nearest resolved ancestor
            chain = []
            cur: Optional[Any] = span
            while cur is not None and cur.span_id not in layers:
                chain.append(cur)
                cur = by_id.get(cur.parent_id)
            layer = layers[cur.span_id] if cur is not None else "bench.other"
            for s in reversed(chain):
                layer = layers[s.span_id] = layer_of(s.name, layer)
            return layer

        for s in spans:
            layer = resolve(s)
            self.self_ns[layer] += own[s.span_id]
            kind = s.name.partition(":")[0]
            if kind in PROBE_LAYERS:
                self.calls[kind] += 1
            if kind == "bench.item":
                self.item_ns += s.duration_ns
            elif kind == "clike.parse":
                self.parse_bytes += s.attrs.get("bytes", 0)
            elif kind == "kernel":
                self.work_items[layer] += s.attrs.get("work_items", 0)
            elif s.name in ("pipeline.cache:get", "pipeline.kernel_cache:get"):
                self.lookups[kind] += 1
                self.hits[kind] += bool(s.attrs.get("hit"))

    def metrics(self, overhead_ratio: float) -> Dict[str, float]:
        """Every metric of :data:`METRICS`, per traced pass."""
        n = max(self.passes, 1)

        def sec(*layers: str) -> float:
            return sum(self.self_ns[layer] for layer in layers) / 1e9 / n

        def per_pass(count: float) -> float:
            return count / n

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        launch = [f"device.launch.{t}" for t in TIERS]
        launch_ns = sum(self.self_ns[layer] for layer in launch)
        items = sum(self.work_items[layer] for layer in launch)
        out = {
            "clike.parse.calls": per_pass(self.calls["clike.parse"]),
            "clike.parse.s": sec("clike.parse"),
            "clike.parse.kb_per_s": ratio(self.parse_bytes / 1024,
                                          self.self_ns["clike.parse"] / 1e9),
            "clike.interp.host_s": sec("clike.interp.host"),
            "clike.interp.host_share": ratio(
                self.self_ns["clike.interp.host"], self.item_ns),
            "translate.calls": per_pass(self.calls["translate.entry"]),
            "translate.s": sec("translate.entry"),
            "translate.analyze.s": sec("translate.analyze"),
            "pipeline.cache.lookups": per_pass(
                self.lookups["pipeline.cache"]),
            "pipeline.cache.hit_ratio": ratio(
                self.hits["pipeline.cache"], self.lookups["pipeline.cache"]),
            "pipeline.cache.s": sec("pipeline.cache", "pipeline.kernel_cache"),
            "pipeline.kernel_cache.hit_ratio": ratio(
                self.hits["pipeline.kernel_cache"],
                self.lookups["pipeline.kernel_cache"]),
            "device.compile.s": sec("device.compile"),
            "device.launch.calls": per_pass(
                sum(self.calls[layer] for layer in launch)),
            "device.vector.coverage": ratio(
                self.work_items["device.launch.vector"], items),
            "device.host_ns_per_workitem": ratio(launch_ns, items),
            "trace.overhead_ratio": overhead_ratio,
        }
        for layer in ("ocl.api", "cuda.api", "translate.wrappers",
                      "device.load_module", "device.banks", "device.perf"):
            out[f"{layer}.calls"] = per_pass(self.calls[layer])
            out[f"{layer}.s"] = sec(layer)
        for tier in TIERS:
            out[f"device.launch.{tier}_s"] = sec(f"device.launch.{tier}")
        for p in ("parse", "translatability-check", "host-rewrite",
                  "clone-unit", "template-specialize"):
            out[f"translate.pass.{p}_s"] = sec(f"translate.pass.{p}")
        return {name: out[name] for name, _ in METRICS}
