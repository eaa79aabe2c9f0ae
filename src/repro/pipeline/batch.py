"""Batch translation: fan a list of jobs out over a process pool.

``translate_many`` is the corpus-scale entry point: Table 3 analyses every
NVIDIA Toolkit sample, the figure benchmarks translate whole suites, and
both re-run the frontend per app.  Jobs are independent source-to-source
translations, so they parallelize perfectly, and the batch is
*fault-isolated*: every per-job failure — a Table-3
``TranslationNotSupported``, a framework error, an arbitrary exception
from the frontend (e.g. ``RecursionError`` on pathologically nested
source), a hung job, or a dying worker process — is captured as structured
fields on that job's :class:`JobResult` without aborting the rest of the
batch.  The failure taxonomy (``JobResult.error_class``):

* ``unsupported`` — Table-3 rejection by the translatability analysis;
* ``framework``   — any other :class:`~repro.errors.ReproError`;
* ``internal``    — a non-framework exception inside the job (captured
  with a compact traceback summary in ``error_traceback``);
* ``timeout``     — the job exceeded the per-job wall-clock ``timeout``;
* ``crash``       — the worker process running the job died.

``timeout`` and ``crash`` are *transient*: the job is re-dispatched with
exponential backoff up to ``retries`` extra attempts (``attempts`` /
``error_history`` record the journey), while completed sibling results are
preserved — dispatch is per-future, never an all-or-nothing ``pool.map``.

Determinism contract (enforced by ``scripts/check_determinism.py`` and the
differential tests): results are returned in job order and the translated
sources are byte-identical whether a job ran serially, in a worker
process, after a retry, or was served from the cache.

The pool degrades gracefully: if worker processes cannot be spawned (e.g.
a sandbox without semaphores) the batch falls back to serial execution
in-process, and a result that cannot be pickled back from a worker causes
only that job to be re-run in-process.

Deterministic fault injection for all of the above lives in
:mod:`repro.pipeline.faults` (``REPRO_FAULT_PLAN`` / ``fault_plan=``);
``tests/pipeline/test_faults.py`` proves the isolation guarantees
end-to-end.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pickle import PicklingError
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..observability import Tracer, activate, get_metrics, get_tracer
from .cache import TranslationCache, cache_key
from .faults import FaultPlan, UnpicklableResult

__all__ = ["TranslationJob", "JobResult", "BatchStats", "translate_many"]

#: translation directions understood by :func:`translate_many`
DIRECTIONS = ("cuda2ocl", "ocl2cuda")

#: the failure taxonomy (JobResult.error_class values)
FAILURE_CLASSES = ("unsupported", "framework", "internal", "timeout", "crash")

#: failure classes that are re-dispatched (bounded by ``retries``)
RETRYABLE_CLASSES = frozenset({"timeout", "crash"})

#: env knobs for the default fault-isolation policy
TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"
RETRIES_ENV = "REPRO_JOB_RETRIES"
BACKOFF_ENV = "REPRO_JOB_BACKOFF"

#: poll interval of the pooled gather loop while a timeout is armed
_POLL_S = 0.05

#: environment errors meaning "no usable process pool here" — includes
#: PicklingError / BrokenProcessPool so a pool that breaks before any
#: result is harvested degrades to serial instead of aborting the batch
POOL_ENV_ERRORS = (OSError, PermissionError, ImportError, AttributeError,
                   BrokenPipeError, PicklingError, BrokenProcessPool)


@dataclass(frozen=True)
class TranslationJob:
    """One unit of batch work.

    ``source`` is the ``.cu`` text for ``cuda2ocl`` jobs and the kernel
    file text for ``ocl2cuda`` jobs (whose untouched host program, if any,
    goes in ``host_source`` — it feeds the translatability check only).
    """

    name: str
    direction: str                      # 'cuda2ocl' | 'ocl2cuda'
    source: str
    host_source: str = ""
    defines: Optional[Tuple[Tuple[str, str], ...]] = None
    device: str = "titan"               # short spec name ('titan', 'hd7970')

    def defines_dict(self) -> Optional[Dict[str, str]]:
        return dict(self.defines) if self.defines is not None else None

    def key(self) -> str:
        """Content-address of this job (see :func:`cache_key`)."""
        from ..device.specs import get_device_spec
        spec = get_device_spec(self.device)
        if self.direction == "cuda2ocl":
            return cache_key(self.source, "cuda", self.defines_dict(),
                             spec.name)
        return cache_key(self.source + "\x00" + self.host_source, "opencl",
                         self.defines_dict(), spec.name)


@dataclass
class JobResult:
    """Outcome of one job: a result object or a structured error."""

    job: TranslationJob
    ok: bool
    result: Any = None                  # TranslatedCudaProgram | Ocl2CudaResult
    cached: bool = False
    error_type: Optional[str] = None    # exception class name
    error_class: Optional[str] = None   # taxonomy class (FAILURE_CLASSES)
    error_category: Optional[str] = None  # Table-3 category, when applicable
    error_feature: Optional[str] = None
    error_message: Optional[str] = None
    error_traceback: Optional[str] = None  # compact summary, internal errors
    error_line: int = 0                 # 1-based source span (0 = unlocated)
    error_col: int = 0
    attempts: int = 1                   # dispatches consumed by this job
    #: transient failure classes of the attempts that preceded the final
    #: one (e.g. ``('timeout',)`` for a job that hung once, then passed)
    error_history: Tuple[str, ...] = ()
    #: spans recorded by a pool worker while running this job (plain
    #: dicts, see ``Tracer.export_spans``); the parent ingests and clears
    #: them at harvest, so they are only populated transiently — and only
    #: when the batch ran with tracing enabled
    spans: Tuple[Dict[str, Any], ...] = ()

    @property
    def host_source(self) -> Optional[str]:
        from .cache import result_sources
        return result_sources(self.result)[0] if self.ok else None

    @property
    def device_source(self) -> Optional[str]:
        from .cache import result_sources
        return result_sources(self.result)[1] if self.ok else None


@dataclass
class BatchStats:
    """Aggregate counters over one batch's :class:`JobResult` list.

    Rendered by ``repro.harness.report.render_batch_stats`` next to the
    cache and pass statistics.
    """

    total: int = 0
    ok: int = 0
    failed: int = 0
    cached: int = 0
    retries: int = 0                    # extra dispatches beyond the first
    timeouts: int = 0                   # timeout events, incl. retried ones
    crashes: int = 0                    # worker-crash events, incl. retried
    by_class: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_results(cls, results: Sequence[JobResult]) -> "BatchStats":
        s = cls()
        for r in results:
            s.total += 1
            if r.ok:
                s.ok += 1
            else:
                s.failed += 1
                if r.error_class:
                    s.by_class[r.error_class] = \
                        s.by_class.get(r.error_class, 0) + 1
            if r.cached:
                s.cached += 1
            s.retries += max(r.attempts - 1, 0)
            events = list(r.error_history)
            if not r.ok and r.error_class in RETRYABLE_CLASSES:
                events.append(r.error_class)
            s.timeouts += events.count("timeout")
            s.crashes += events.count("crash")
        return s

    def as_dict(self) -> Dict[str, Any]:
        return {"total": self.total, "ok": self.ok, "failed": self.failed,
                "cached": self.cached, "retries": self.retries,
                "timeouts": self.timeouts, "crashes": self.crashes,
                "by_class": dict(self.by_class)}


def _traceback_summary(exc: BaseException, limit: int = 3) -> str:
    """``ExcType: message [file:line in func; ...]`` over the innermost
    ``limit`` frames — compact enough to ride in a JobResult, located
    enough to point at the failing code."""
    frames = traceback.extract_tb(exc.__traceback__, limit=-limit)
    where = "; ".join(f"{os.path.basename(f.filename)}:{f.lineno} "
                      f"in {f.name}" for f in frames)
    head = f"{type(exc).__name__}: {exc}"
    return f"{head} [{where}]" if where else head


def _translate_job(job: TranslationJob, plan: Optional[FaultPlan] = None,
                   attempt: int = 1, in_pool: bool = False,
                   trace_ctx: Optional[Dict[str, Any]] = None) -> JobResult:
    """Run one job, capturing *any* failure as structured fields.

    Must stay module-level (pickled by the process pool); errors are
    captured rather than raised because the repro exception hierarchy uses
    multi-argument constructors that do not survive unpickling — and
    because nothing a single job does may abort the batch.

    ``trace_ctx`` (pooled runs only) is a serialized
    :meth:`~repro.observability.Tracer.context`: the worker builds a local
    tracer nesting under the parent's dispatch span on the shared
    monotonic timeline and ships its spans back on ``JobResult.spans``.
    """
    if trace_ctx is not None:
        tracer = Tracer.from_context(trace_ctx)
        with activate(tracer):
            res = _translate_job(job, plan, attempt, in_pool)
        res.spans = tuple(tracer.export_spans())
        return res

    from ..device.specs import get_device_spec

    if job.direction not in DIRECTIONS:
        raise ValueError(f"unknown direction {job.direction!r}; "
                         f"expected one of {DIRECTIONS}")
    spec = get_device_spec(job.device)
    tr = get_tracer()
    with tr.span(f"job:{job.name}", direction=job.direction,
                 attempt=attempt, pooled=in_pool) as span:
        res = _translate_job_guarded(job, plan, attempt, in_pool, spec)
        span.set(ok=res.ok)
        if res.error_class:
            span.set(error_class=res.error_class)
            span.status = "error"
    return res


def _translate_job_guarded(job: TranslationJob, plan: Optional[FaultPlan],
                           attempt: int, in_pool: bool,
                           spec: Any) -> JobResult:
    """The failure-taxonomy core of :func:`_translate_job`."""
    from ..errors import ReproError, TranslationNotSupported, WorkerCrash
    from ..translate.api import (translate_cuda_program,
                                 translate_opencl_program)
    try:
        effects: Tuple[str, ...] = ()
        if plan is not None:
            effects = plan.apply(job.name, attempt, in_pool)
        if job.direction == "cuda2ocl":
            result: Any = translate_cuda_program(
                job.source, defines=job.defines_dict(), spec=spec)
        else:
            result = translate_opencl_program(
                job.source, job.host_source, defines=job.defines_dict(),
                spec=spec)
        if "badresult" in effects:
            result = UnpicklableResult(result)
        return JobResult(job=job, ok=True, result=result, attempts=attempt)
    except TranslationNotSupported as e:
        return JobResult(job=job, ok=False, error_type=type(e).__name__,
                         error_class="unsupported",
                         error_category=e.category, error_feature=e.feature,
                         error_message=str(e),
                         error_line=getattr(e, "line", 0),
                         error_col=getattr(e, "col", 0), attempts=attempt)
    except WorkerCrash as e:
        # only reachable in-process (the serial form of the crash fault);
        # a real worker crash surfaces as BrokenProcessPool in the parent
        return JobResult(job=job, ok=False, error_type=type(e).__name__,
                         error_class="crash", error_message=str(e),
                         attempts=attempt)
    except ReproError as e:
        return JobResult(job=job, ok=False, error_type=type(e).__name__,
                         error_class="framework", error_message=str(e),
                         error_line=getattr(e, "line", 0),
                         error_col=getattr(e, "col", 0), attempts=attempt)
    except Exception as e:
        # anything else — stdlib exceptions, RecursionError from deep
        # nesting, injected faults — still must not cross the pool
        return JobResult(job=job, ok=False, error_type=type(e).__name__,
                         error_class="internal", error_message=str(e),
                         error_traceback=_traceback_summary(e),
                         attempts=attempt)


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    try:
        value = float(raw) if raw else None
    except ValueError:
        return None
    return value if value and value > 0 else None


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name, "").strip()
    try:
        return int(raw) if raw else None
    except ValueError:
        return None


def translate_many(jobs: Sequence[TranslationJob], *,
                   cache: Optional[TranslationCache] = None,
                   parallel: bool = True,
                   max_workers: Optional[int] = None,
                   timeout: Optional[float] = None,
                   retries: Optional[int] = None,
                   backoff: Optional[float] = None,
                   fault_plan: Optional[FaultPlan] = None,
                   trace: Optional[Tracer] = None) -> List[JobResult]:
    """Translate every job, returning per-job results in job order.

    Cache hits are served immediately (``cached=True``); the remaining
    jobs fan out over a :class:`~concurrent.futures.ProcessPoolExecutor`
    (or run serially when ``parallel=False``, for single-job batches, or
    when the pool is unavailable).  Successful results are written back to
    the cache.  The batch never aborts on a per-job failure (see the
    module docstring for the failure taxonomy).

    ``timeout`` is the per-job wall-clock limit in seconds (pooled runs
    only; default ``$REPRO_JOB_TIMEOUT`` or unlimited); ``retries`` bounds
    re-dispatches of transient failures (default ``$REPRO_JOB_RETRIES`` or
    1); ``backoff`` is the base of the exponential retry delay (default
    ``$REPRO_JOB_BACKOFF`` or 0.05s).  ``fault_plan`` injects
    deterministic faults (default: parsed from ``$REPRO_FAULT_PLAN``).

    ``trace`` overrides the ambient tracer for this batch (default: the
    active :func:`~repro.observability.get_tracer`, i.e. whatever
    ``$REPRO_TRACE`` / :func:`~repro.observability.install_tracer` set
    up).  Tracing records one ``batch`` root span, a ``dispatch`` span
    per pooled attempt with the worker's ``job``/``pass`` spans stitched
    underneath, and ``retry``/``timeout``/``crash``/``quarantine``
    events; it never changes the translated bytes.
    """
    for job in jobs:
        if job.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {job.direction!r}; "
                             f"expected one of {DIRECTIONS}")

    tracer = trace if trace is not None else get_tracer()
    with activate(tracer), \
            tracer.span("batch:translate_many", jobs=len(jobs),
                        parallel=parallel) as root:
        results = _translate_many_traced(jobs, cache, parallel, max_workers,
                                         timeout, retries, backoff,
                                         fault_plan, tracer)
        ok = sum(1 for r in results if r.ok)
        cached = sum(1 for r in results if r.cached)
        root.set(ok=ok, cached=cached)
        m = get_metrics()
        m.counter("batch.jobs", outcome="ok").inc(ok)
        m.counter("batch.jobs", outcome="failed").inc(len(results) - ok)
        m.counter("batch.cache_hits").inc(cached)
    return results


def _translate_many_traced(jobs: Sequence[TranslationJob],
                           cache: Optional[TranslationCache],
                           parallel: bool, max_workers: Optional[int],
                           timeout: Optional[float], retries: Optional[int],
                           backoff: Optional[float],
                           fault_plan: Optional[FaultPlan],
                           tracer: Any) -> List[JobResult]:
    """The body of :func:`translate_many`, run under its root span."""
    if timeout is None:
        timeout = _env_float(TIMEOUT_ENV)
    if retries is None:
        env_retries = _env_int(RETRIES_ENV)
        retries = env_retries if env_retries is not None else 1
    retries = max(retries, 0)
    if backoff is None:
        backoff = _env_float(BACKOFF_ENV) or 0.05

    plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
    owns_state = False
    if plan is not None and plan.state_dir is None:
        # per-batch once-semantics for the plan's counted actions
        plan = plan.with_state_dir(tempfile.mkdtemp(prefix="repro-faults-"))
        owns_state = True

    try:
        results: List[Optional[JobResult]] = [None] * len(jobs)
        pending: List[int] = []
        for i, job in enumerate(jobs):
            hit = cache.get(job.key()) if cache is not None else None
            if hit is not None:
                results[i] = JobResult(job=job, ok=True, result=hit,
                                       cached=True)
            else:
                pending.append(i)

        if pending:
            worked = _run_pending([jobs[i] for i in pending], parallel,
                                  max_workers, timeout, retries, backoff,
                                  plan)
            for i, res in zip(pending, worked):
                results[i] = res
                if cache is not None and res.ok:
                    cache.put(jobs[i].key(), res.result,
                              meta={"name": jobs[i].name,
                                    "direction": jobs[i].direction,
                                    "device": jobs[i].device})
                    if plan is not None:
                        plan.corrupt_artifact(cache, jobs[i].key(),
                                              jobs[i].name)
    finally:
        if owns_state:
            shutil.rmtree(plan.state_dir, ignore_errors=True)

    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


def _run_pending(jobs: List[TranslationJob], parallel: bool,
                 max_workers: Optional[int], timeout: Optional[float],
                 retries: int, backoff: float,
                 plan: Optional[FaultPlan]) -> List[JobResult]:
    workers = max_workers or min(len(jobs), os.cpu_count() or 1, 8)
    if not parallel or len(jobs) < 2 or workers < 2:
        return [_run_serial_one(j, plan, retries, backoff) for j in jobs]
    return _run_pooled(jobs, workers, timeout, retries, backoff, plan)


def _run_serial_one(job: TranslationJob, plan: Optional[FaultPlan],
                    retries: int, backoff: float) -> JobResult:
    """One job in-process, with the same bounded transient-retry policy as
    the pooled path (timeouts cannot occur in-process)."""
    attempt = 1
    history: List[str] = []
    tracer = get_tracer()
    while True:
        res = _translate_job(job, plan, attempt, in_pool=False)
        if res.ok or res.error_class not in RETRYABLE_CLASSES \
                or attempt > retries:
            res.attempts = attempt
            res.error_history = tuple(history)
            return res
        history.append(res.error_class)  # type: ignore[arg-type]
        if tracer.enabled:
            tracer.event("retry", job=job.name, cls=res.error_class,
                         attempt=attempt)
        get_metrics().counter("batch.retries").inc()
        attempt += 1
        if backoff:
            time.sleep(min(backoff * 2 ** (len(history) - 1), 1.0))


def _infra_failure(job: TranslationJob, cls: str, attempts: int,
                   history: List[str],
                   timeout: Optional[float]) -> JobResult:
    """Final JobResult for a job whose *execution* failed (not its
    translation): retries exhausted on a timeout or worker crash."""
    from ..errors import JobTimeout, WorkerCrash
    if cls == "timeout":
        err: Exception = JobTimeout(job.name, timeout or 0.0)
    else:
        err = WorkerCrash(f"worker process died while running "
                          f"job {job.name!r}")
    return JobResult(job=job, ok=False, error_type=type(err).__name__,
                     error_class=cls, error_message=str(err),
                     attempts=attempts, error_history=tuple(history))


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Kill the pool's worker processes (used to reap hung workers)."""
    procs = getattr(pool, "_processes", None)
    for p in list((procs or {}).values()):
        try:
            p.terminate()
        except Exception:
            pass


def _run_pooled(jobs: List[TranslationJob], workers: int,
                timeout: Optional[float], retries: int, backoff: float,
                plan: Optional[FaultPlan]) -> List[JobResult]:
    """Per-future dispatch with per-job timeouts and transient retries.

    Rounds: each round owns one pool; a round ends when every dispatched
    future is harvested, timed out, or lost to a broken pool.  Jobs with
    transient failures and remaining retries carry over to the next round
    (with exponential backoff); completed results always survive.

    A dying worker breaks the whole pool, so every in-flight sibling of a
    crashing job shares its ``BrokenProcessPool`` — the culprit cannot be
    told from collateral.  Jobs that exhaust their crash retries are
    therefore *quarantined*: one final dispatch in a dedicated
    single-worker pool, which exonerates innocent bystanders (their result
    stands) and convicts the real crasher (only then does it fail).
    """
    n = len(jobs)
    results: List[Optional[JobResult]] = [None] * n
    dispatches = [0] * n
    history: List[List[str]] = [[] for _ in range(n)]
    pending = list(range(n))
    quarantine: List[int] = []
    round_no = 0
    tracer = get_tracer()

    while pending:
        if round_no and backoff:
            time.sleep(min(backoff * 2 ** (round_no - 1), 1.0))
        round_no += 1
        progress = sum(dispatches) + sum(r is not None for r in results)
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except POOL_ENV_ERRORS:
            # no subprocess/semaphore support here — serial keeps the
            # batch deterministic, just slower
            for i in pending:
                results[i] = _finish_serially(jobs[i], plan, retries,
                                              backoff, dispatches[i],
                                              history[i])
            break

        # windowed dispatch: never more futures in flight than workers, so
        # a submitted future is genuinely executing (its submit time is
        # its start time — the per-job timeout clock) and a dying worker
        # can take down at most `workers` siblings, not the whole batch
        queue = list(pending)
        retry_next: List[int] = []
        futs: Dict[Future, int] = {}
        not_done: Set[Future] = set()
        started: Dict[Future, float] = {}
        dspans: Dict[Future, Any] = {}   # per-dispatch parent spans
        abandoned: Set[Future] = set()   # hung futures; worker still burned
        broken = False

        try:
            while not_done or (queue and not broken):
                while queue and not broken \
                        and len(not_done) + len(abandoned) < workers:
                    i = queue.pop(0)
                    dispatches[i] += 1
                    dsp = trace_ctx = None
                    if tracer.enabled:
                        dsp = tracer.begin(f"dispatch:{jobs[i].name}",
                                           attempt=dispatches[i],
                                           round=round_no)
                        trace_ctx = tracer.context(dsp)
                    try:
                        fut = pool.submit(_translate_job, jobs[i], plan,
                                          dispatches[i], True, trace_ctx)
                    except Exception:
                        dispatches[i] -= 1
                        queue.insert(0, i)
                        broken = True
                        if dsp is not None:
                            tracer.end(dsp.set(submit_failed=True),
                                       status="error")
                        break
                    futs[fut] = i
                    not_done.add(fut)
                    started[fut] = time.monotonic()
                    if dsp is not None:
                        dspans[fut] = dsp
                if not not_done:
                    break   # every worker is hung: recycle into a new pool
                done, not_done = wait(
                    not_done, timeout=_POLL_S if timeout else None)
                now = time.monotonic()
                for fut in done:
                    i = futs[fut]
                    dsp = dspans.pop(fut, None)
                    try:
                        res = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        history[i].append("crash")
                        get_metrics().counter("batch.crashes").inc()
                        if dsp is not None:
                            tracer.event("crash", span=dsp,
                                         job=jobs[i].name,
                                         attempt=dispatches[i])
                            tracer.end(dsp, status="error")
                        if history[i].count("crash") <= retries:
                            retry_next.append(i)
                            if tracer.enabled:
                                tracer.event("retry", job=jobs[i].name,
                                             cls="crash",
                                             attempt=dispatches[i])
                        else:
                            quarantine.append(i)
                    except Exception:
                        # the result could not cross the process boundary
                        # — e.g. an unpicklable result; re-running this
                        # one job in-process is deterministic and keeps
                        # the batch alive
                        if dsp is not None:
                            tracer.end(dsp.set(result_unpicklable=True))
                        res = _translate_job(jobs[i], plan, dispatches[i],
                                             in_pool=False)
                        res.error_history = tuple(history[i])
                        results[i] = res
                    else:
                        res.attempts = dispatches[i]
                        res.error_history = tuple(history[i])
                        results[i] = res
                        if res.spans:
                            tracer.ingest(res.spans)
                            res.spans = ()
                        if dsp is not None:
                            tracer.end(dsp)
                if timeout and not_done:
                    for fut in list(not_done):
                        if now - started[fut] < timeout:
                            continue
                        not_done.discard(fut)
                        abandoned.add(fut)
                        i = futs[fut]
                        get_metrics().counter("batch.timeouts").inc()
                        dsp = dspans.pop(fut, None)
                        if dsp is not None:
                            tracer.event("timeout", span=dsp,
                                         job=jobs[i].name,
                                         attempt=dispatches[i],
                                         limit_s=timeout)
                            tracer.end(dsp, status="error")
                        if dispatches[i] <= retries:
                            history[i].append("timeout")
                            queue.append(i)
                            if tracer.enabled:
                                tracer.event("retry", job=jobs[i].name,
                                             cls="timeout",
                                             attempt=dispatches[i])
                        else:
                            results[i] = _infra_failure(
                                jobs[i], "timeout", dispatches[i],
                                history[i], timeout)
        finally:
            if abandoned:
                _terminate_pool(pool)
            pool.shutdown(wait=not abandoned, cancel_futures=True)

        # jobs never dispatched (broken pool / all workers hung) carry
        # over without burning a retry; retried jobs already did
        pending = sorted(set(retry_next) | set(queue))
        if pending and progress == \
                sum(dispatches) + sum(r is not None for r in results):
            # a fully unproductive round: this environment cannot run a
            # pool at all — finish the remainder in-process
            for i in pending:
                results[i] = _finish_serially(jobs[i], plan, retries,
                                              backoff, dispatches[i],
                                              history[i])
            break

    for i in quarantine:
        dispatches[i] += 1
        with tracer.span(f"quarantine:{jobs[i].name}",
                         attempt=dispatches[i]) as qsp:
            res = _isolated_dispatch(jobs[i], plan, dispatches[i], timeout)
            qsp.set(verdict="convicted" if res.error_class
                    in RETRYABLE_CLASSES else "exonerated")
        res.attempts = dispatches[i]
        res.error_history = tuple(history[i])
        results[i] = res

    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


def _isolated_dispatch(job: TranslationJob, plan: Optional[FaultPlan],
                       attempt: int, timeout: Optional[float]) -> JobResult:
    """One final dispatch of a crash suspect, alone in a single-worker
    pool: a break here can only be this job's doing, so crash/timeout are
    terminal rather than retried."""
    hung = False
    tracer = get_tracer()
    trace_ctx = tracer.context() if tracer.enabled else None
    try:
        pool = ProcessPoolExecutor(max_workers=1)
    except POOL_ENV_ERRORS:
        return _translate_job(job, plan, attempt, in_pool=False)
    try:
        try:
            fut = pool.submit(_translate_job, job, plan, attempt, True,
                              trace_ctx)
        except Exception:
            return _translate_job(job, plan, attempt, in_pool=False)
        try:
            res = fut.result(timeout=timeout)
            if res.spans:
                tracer.ingest(res.spans)
                res.spans = ()
            return res
        except BrokenProcessPool:
            return _infra_failure(job, "crash", attempt, [], timeout)
        except TimeoutError:
            hung = True
            return _infra_failure(job, "timeout", attempt, [], timeout)
        except Exception:
            return _translate_job(job, plan, attempt, in_pool=False)
    finally:
        if hung:
            _terminate_pool(pool)
        pool.shutdown(wait=not hung, cancel_futures=True)


def _finish_serially(job: TranslationJob, plan: Optional[FaultPlan],
                     retries: int, backoff: float, prior_dispatches: int,
                     prior_history: List[str]) -> JobResult:
    """Serial completion of a job the pool could not run, folding in the
    attempts it already burned there."""
    res = _run_serial_one(job, plan, retries, backoff)
    res.attempts += prior_dispatches
    res.error_history = tuple(prior_history) + res.error_history
    return res
