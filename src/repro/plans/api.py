"""``repro.mine`` — the one public mining entrypoint.

Everything the six hand-written applications did, plus arbitrary
motifs, behind a single keyword-only call::

    import repro

    repro.mine(graph, workload="tc")                  # built-in plan
    repro.mine(graph, pattern="tailed-triangle")      # named motif
    repro.mine(graph, pattern=my_tree_pattern)        # tree matching
    repro.mine(graph, pattern=PatternQuery(...))      # full vocabulary

Workload names resolve to the legacy applications (bit-identical to
the historical entry points); every other pattern spelling goes
through the plan compiler and the generic executor.
"""

from __future__ import annotations

from typing import Any, Optional

from repro import kernels
from repro.core.config import GMinerConfig
from repro.core.job import GMinerJob, JobResult
from repro.graph.graph import Graph
from repro.mining.patterns import TreePattern
from repro.plans.builtins import builtin_plan
from repro.plans.compiler import ExecutionPlan, compile_pattern
from repro.plans.executor import PlanApp
from repro.plans.query import PatternQuery, motif

_BACKEND_CHOICES = (None, "auto", "reference", "numpy", "bitset", "sketch")

#: Workloads with an estimate-tolerant result the sketch backend may
#: approximate: tc (global count), gc (threshold-certified similarity
#: scoring), cd (threshold-certified membership filter).  The others
#: (mcf/gm/gl — and every compiled pattern plan) enumerate exact
#: structures; approximating them silently would corrupt results, so
#: they are rejected up front.
SKETCH_CAPABLE_WORKLOADS = ("tc", "cd", "gc")


def resolve_pattern(pattern: Any) -> ExecutionPlan:
    """Turn any accepted pattern spelling into an execution plan.

    Strings name motifs (``ValueError`` for unknown names); a
    :class:`TreePattern` compiles with the legacy matcher semantics; a
    :class:`PatternQuery` compiles as-is; an :class:`ExecutionPlan`
    passes through.
    """
    if isinstance(pattern, ExecutionPlan):
        return pattern
    if isinstance(pattern, str):
        return compile_pattern(motif(pattern))
    if isinstance(pattern, (TreePattern, PatternQuery)):
        return compile_pattern(pattern)
    raise TypeError(
        "pattern must be a motif name, TreePattern, PatternQuery or "
        f"ExecutionPlan, got {type(pattern).__name__}"
    )


def _explain_text(describe: str, config: GMinerConfig) -> str:
    """The ``explain=True`` report: plan text + execution/backend lines."""
    lines = [describe]
    if config.execution == "native":
        from repro.native import default_native_workers

        workers = config.native_workers or default_native_workers()
        lines.append(
            f"execution: native (workers={workers}, "
            f"chunk_size={config.native_chunk_size})"
        )
    else:
        lines.append("execution: sim")
    backend = config.kernel_backend
    if backend == "auto":
        with kernels.use_backend("auto") as resolved:
            backend = f"auto ({resolved})"
    lines.append(f"backend: {backend or kernels.get_backend()}")
    return "\n".join(lines)


def prepare_job(
    graph: Graph,
    *,
    pattern: Any = None,
    workload: Optional[str] = None,
    config: Optional[GMinerConfig] = None,
    failure_plan: Any = None,
    execution: Optional[str] = None,
    backend: Optional[str] = None,
    deadline: Optional[float] = None,
    **options: Any,
) -> GMinerJob:
    """Resolve the ``mine()`` surface into an unstarted :class:`GMinerJob`.

    Exactly the validation and app/config construction :func:`mine`
    performs, stopping short of ``run()``.  ``repro.service`` builds
    submitted jobs through this helper, which is what guarantees a job
    run through the service is bit-identical to the same arguments
    passed to a standalone ``mine()`` call — both paths construct the
    same app, the same effective config, the same plan/backend choices.
    """
    if pattern is None and workload is None:
        raise TypeError(
            "mine() needs exactly one of pattern= or workload= "
            "(both are keyword-only)"
        )
    if backend not in _BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {backend!r}: expected one of "
            f"{[b for b in _BACKEND_CHOICES if b]} or None"
        )
    if config is None:
        config = GMinerConfig()
    if execution is not None:
        config = config.replace(execution=execution)
    if deadline is not None:
        config = config.replace(job_deadline=deadline)
    if backend is not None:
        config = config.replace(kernel_backend=backend)

    if config.kernel_backend == "sketch":
        if workload is None:
            raise ValueError(
                "kernel_backend='sketch' only supports the estimate-"
                f"tolerant built-in workloads {SKETCH_CAPABLE_WORKLOADS}; "
                "compiled pattern plans enumerate exact embeddings — run "
                "them on an exact backend"
            )
        if workload not in SKETCH_CAPABLE_WORKLOADS:
            raise ValueError(
                f"workload {workload!r} is exact-only: "
                "kernel_backend='sketch' supports "
                f"{SKETCH_CAPABLE_WORKLOADS} (estimate-tolerant results); "
                "use an exact backend ('reference'/'numpy'/'bitset'/"
                "'auto') for this workload"
            )

    if workload is not None:
        if pattern is not None:
            # alongside workload=, pattern= is a workload option (gm's
            # tree pattern); workloads that take none reject it by name
            options["pattern"] = pattern
        bp = builtin_plan(workload)
        app = bp.build_app(graph, **options)
    else:
        if options:
            raise TypeError(
                f"unknown option(s) {sorted(options)}: pattern queries "
                "take no extra options — encode constraints in the "
                "PatternQuery itself"
            )
        app = PlanApp(resolve_pattern(pattern))
    return GMinerJob(app, graph, config, failure_plan)


def mine(
    graph: Graph,
    *,
    pattern: Any = None,
    workload: Optional[str] = None,
    config: Optional[GMinerConfig] = None,
    failure_plan: Any = None,
    execution: Optional[str] = None,
    backend: Optional[str] = None,
    deadline: Optional[float] = None,
    explain: bool = False,
    **options: Any,
) -> Any:
    """Mine ``graph`` for a pattern or a built-in workload.

    At least one of ``pattern`` and ``workload`` must be given
    (keyword-only); when both are, ``pattern`` parameterises the
    workload (only ``gm`` accepts that).  ``workload`` is one of the
    six built-ins
    (``tc``/``mcf``/``gm``/``gl``/``cd``/``gc``), executed by the
    legacy grower — results and work units are bit-identical to the
    historical per-app entry points.  ``pattern`` is a named motif, a
    :class:`~repro.mining.patterns.TreePattern`, a
    :class:`~repro.plans.query.PatternQuery` or a pre-compiled
    :class:`~repro.plans.compiler.ExecutionPlan`, run by the generic
    plan executor; the job value is the embedding count.

    ``execution`` overrides ``config.execution`` (``"sim"`` runs the
    modelled cluster, ``"native"`` runs the multiprocess engine —
    bit-identical per DESIGN.md's equivalence contract).  ``backend``
    picks the kernel backend for the whole job
    (``config.replace(kernel_backend=backend)``): ``"auto"`` resolves
    once, to numpy when importable, else reference; ``None`` keeps
    ``config.kernel_backend``.

    ``explain=True`` runs *nothing*: it returns the compiled plan
    description (or a one-line note for plan-less legacy workloads)
    plus the execution mode and backend choice as a string.

    ``deadline`` (seconds) is shorthand for
    ``config.replace(job_deadline=deadline)``: a cooperative per-job
    deadline — simulated time for ``execution="sim"``, wall-clock for
    ``"native"`` — that cancels the job with a structured
    :class:`~repro.core.errors.JobDeadlineExceeded` instead of
    returning a result.

    Extra keyword ``options`` parameterise built-in workloads (e.g.
    ``pattern=`` for ``gm``, ``k=`` for ``gl``, ``exemplars=`` for
    ``gc``); the pattern path accepts none.  ``config`` defaults to
    :class:`~repro.core.config.GMinerConfig`'s single-job defaults;
    ``failure_plan`` is forwarded to the job untouched.  Returns the
    :class:`~repro.core.job.JobResult` (or the explain string).
    """
    job = prepare_job(
        graph,
        pattern=pattern,
        workload=workload,
        config=config,
        failure_plan=failure_plan,
        execution=execution,
        backend=backend,
        deadline=deadline,
        **options,
    )
    if explain:
        app = job.app
        if isinstance(app, PlanApp):
            describe = app.plan.describe()
        else:
            if pattern is not None:
                options["pattern"] = pattern
            query = builtin_plan(workload).query(**options)
            if query is not None:
                describe = compile_pattern(query).describe()
            else:
                describe = (
                    f"workload {workload!r}: legacy grower "
                    "(no fixed-pattern plan)"
                )
        return _explain_text(describe, job.config)
    return job.run()
