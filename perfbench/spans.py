"""Per-layer spans recorded from outside the program.

The benchmark never edits ``repro``: in a traced run it replaces each
layer's public entry point (a module function or a class method) with a
thin wrapper that times the call and books its *self* time (duration
minus the time of wrapped calls nested inside it) to the layer.  Every
module of the package that imported the function by name is patched
too, so nested calls are seen wherever they come from.

Spans belong to an :class:`Op`, the benchmark operation they ran
under.  The current op lives in a context variable, so the two
concurrent serve clients (separate asyncio tasks) never mix their
spans, and a call made while no op is current costs one variable read.

Serve requests execute in a forked worker process.  The worker inherits
the patched modules; the parent-side ``WorkerPool.run`` wrapper tags the
job payload, the worker-side ``solve_job`` wrapper records the job's
spans into a fresh :class:`Op` and returns it inside the result dict,
and the parent merges it into the request's op.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import sys
import time
import weakref
from collections import defaultdict

#: Each wrapped entry point: ``(layer, "module:qualname", wrap, record)``.
#: ``wrap`` names the :class:`Tracer` method that builds the wrapper:
#: ``span`` times a plain call, ``background_span`` also books calls made
#: outside any op (the service spills from its dispatcher tasks),
#: ``async_span`` times a coroutine, and ``pool_run`` / ``solve_job``
#: carry traced jobs across the process pool (the job's own glue is
#: booked to ``serve_job``).  ``record``, if set, names the
#: ``Tracer._record_*`` method that reads counts off the call's result.
#: ``spill`` is the spill half of the artefacts layer and gets its own
#: bucket because it has its own metric.
TARGETS = (
    ("workloads", "repro.workloads.generators:dag_profile_matrix", "span", None),
    ("workloads", "repro.workloads.suite:SuiteEntry.build", "span", None),
    ("workloads", "repro.serve.request:build_workload", "span", None),
    ("artefacts", "repro.exec_model.artefacts:get_artefacts", "span",
     "artefacts"),
    ("artefacts", "repro.analysis.dag:build_dag", "span", None),
    ("artefacts", "repro.analysis.levels:compute_levels", "span", None),
    ("artefacts", "repro.analysis.levels:compute_dispatch_fronts", "span", None),
    ("artefacts", "repro.exec_model.artefacts:AnalysisArtefacts.placement",
     "span", None),
    ("artefacts", "repro.exec_model.artefacts:AnalysisArtefacts.comm_costs",
     "span", None),
    ("spill", "repro.exec_model.artefacts:SpillStore.put", "background_span",
     None),
    ("spill", "repro.exec_model.artefacts:load_artefacts", "span", None),
    ("tasks", "repro.runtime.config:RunConfig.build_distribution", "span", None),
    ("timeline", "repro.exec_model.timeline:simulate_execution", "span",
     "estimate"),
    ("solvers", "repro.solvers.des_solver:des_execute", "span", "des"),
    ("resilience", "repro.resilience.recovery:residual_repair", "span",
     "repair"),
    ("resilience", "repro.resilience.faults:FaultPlan.build", "span", None),
    ("runtime", "repro.runtime.session:SolverSession.solve", "span", None),
    ("runtime", "repro.runtime.session:SolverSession.simulate", "span", None),
    ("serve", "repro.serve.service:SolveService.submit", "async_span", None),
    ("serve", "repro.serve.workers:WorkerPool.run", "pool_run", None),
    ("serve_job", "repro.serve.workers:solve_job", "solve_job", None),
)

#: Payload / result key carrying a traced job across the process pool.
JOB_KEY = "_perfbench_trace"

_OP: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)
_SPAN: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Op:
    """Spans and counts of one benchmark operation."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        #: ``(events, simulated_us, page_faults)`` per finished DES run.
        self.des: list[tuple[int, float, int]] = []
        #: Wall seconds the request's jobs ran in the worker process.
        self.worker_s = 0.0

    def to_mapping(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "des": list(self.des),
            "worker_s": self.worker_s,
        }


def _merge_job(op: Op, job: dict | None) -> None:
    """Fold a worker job's spans into the request's op."""
    if job is None:
        return
    for layer, seconds in job["self_s"].items():
        op.self_s[layer] += seconds
    for name, count in job["counts"].items():
        op.counts[name] += count
    op.des.extend(tuple(d) for d in job["des"])
    op.worker_s += job["worker_s"]


class Tracer:
    """Installs the layer wrappers and scopes spans to operations."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self._bundles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: Serve requests are matched to their op by right-hand-side seed,
        #: because the worker round trip runs in a dispatcher task.
        self.ops_by_rhs_seed: dict[int, Op] = {}
        #: Receives spills made outside any op: the service spills from
        #: its dispatcher tasks, before the worker round trip starts.
        self.background: Op | None = None

    # -- scoping -------------------------------------------------------
    @staticmethod
    def activate(op: Op | None):
        """Make ``op`` current in this context; returns the reset token."""
        return _OP.set(op)

    @staticmethod
    def deactivate(token) -> None:
        _OP.reset(token)

    @staticmethod
    def current() -> Op | None:
        return _OP.get()

    # -- installation --------------------------------------------------
    def install(self) -> None:
        import repro  # noqa: F401 - imports the package's modules

        for layer, target, wrap, record in TARGETS:
            module_name, qualname = target.split(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            build = getattr(self, "_wrap_" + wrap)
            record = getattr(self, "_record_" + record) if record else None
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, build(layer, original, record))
            else:
                original = getattr(module, attr)
                wrapper = build(layer, original, record)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if (name == "repro" or name.startswith("repro.")) and (
                        getattr(mod, attr, None) is original
                    ):
                        self._set(mod, attr, wrapper)

        self.span_cost_s = self._calibrate()

    def _calibrate(self, calls: int = 20_000) -> float:
        """Seconds one traced call adds over the bare call (best of 5)."""

        def bare():
            return None

        wrapped = self._wrap_span("calibration", bare, None)
        token = _OP.set(Op())
        best = float("inf")
        try:
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(calls):
                    wrapped()
                t1 = time.perf_counter()
                for _ in range(calls):
                    bare()
                t2 = time.perf_counter()
                best = min(best, ((t1 - t0) - (t2 - t1)) / calls)
        finally:
            _OP.reset(token)
        return max(best, 0.0)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ------------------------------------------------------
    def _wrap_span(self, layer: str, fn, record, background: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = _OP.get()
            if op is None and background:
                op = self.background
            if op is None:
                return fn(*args, **kwargs)
            span = [0.0]
            token = _SPAN.set(span)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                _book(op, layer, span, token, t0)
            if record is not None:
                record(op, out)
            return out

        return wrapper

    def _wrap_background_span(self, layer: str, fn, record):
        return self._wrap_span(layer, fn, record, background=True)

    @staticmethod
    def _wrap_async_span(layer: str, fn, _record):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            op = _OP.get()
            if op is None:
                return await fn(*args, **kwargs)
            span = [0.0]
            token = _SPAN.set(span)
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                _book(op, layer, span, token, t0)

        return wrapper

    def _wrap_pool_run(self, _layer, fn, _record):
        ops = self.ops_by_rhs_seed

        @functools.wraps(fn)
        async def run(pool, payload, timeout=None):
            op = ops.get(payload.get("rhs", {}).get("seed"))
            if op is None:
                return await fn(pool, payload, timeout)
            try:
                raw = await fn(pool, {**payload, JOB_KEY: True}, timeout)
            except Exception as err:
                _merge_job(op, err.__dict__.pop(JOB_KEY, None))
                raise
            _merge_job(op, raw.pop(JOB_KEY, None))
            return raw

        return run

    @staticmethod
    def _wrap_solve_job(layer: str, fn, _record):
        @functools.wraps(fn)
        def solve_job(payload):
            if not payload.pop(JOB_KEY, False):
                return fn(payload)
            op = Op()
            token = _OP.set(op)
            span = [0.0]
            span_token = _SPAN.set(span)
            t0 = time.perf_counter()

            def job() -> dict:
                op.worker_s = time.perf_counter() - t0
                _book(op, layer, span, span_token, t0)
                _OP.reset(token)
                return op.to_mapping()

            try:
                raw = fn(payload)
            except Exception as err:
                # Typed errors cross the pool with their __dict__, so the
                # failed attempt's spans still reach the parent.
                err.__dict__[JOB_KEY] = job()
                raise
            raw[JOB_KEY] = job()
            return raw

        return solve_job

    # -- per-call records ----------------------------------------------
    def _record_artefacts(self, op: Op, bundle) -> None:
        # A bundle seen for the first time with zero hits was just built
        # (a spilled bundle loaded in a worker arrives with its hit).
        if bundle not in self._bundles and bundle.hits == 0:
            op.counts["artefact_builds"] += 1
        else:
            op.counts["artefact_hits"] += 1
        self._bundles[bundle] = True

    @staticmethod
    def _record_estimate(op: Op, _report) -> None:
        op.counts["estimates"] += 1

    @staticmethod
    def _record_des(op: Op, ex) -> None:
        op.des.append(
            (int(ex.events), float(ex.total_time) * 1e6, int(ex.page_faults))
        )

    @staticmethod
    def _record_repair(op: Op, out) -> None:
        op.counts["repaired"] += len(out[1])


def _book(op: Op, layer: str, span: list, token, t0: float) -> None:
    """Close a span: book its self time and charge its parent."""
    dt = time.perf_counter() - t0
    _SPAN.reset(token)
    op.self_s[layer] += dt - span[0]
    op.counts["spans"] += 1
    parent = _SPAN.get()
    if parent is not None:
        parent[0] += dt
