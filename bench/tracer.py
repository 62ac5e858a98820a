"""In-memory span tracer that wraps vaclab's public functions from outside.

Each target is replaced by a wrapper wherever the program looks it up: on
its class for methods, and for module-level functions in every loaded
``vaclab`` module that holds the same object (``vaclab.runio.evolve`` is
bound at import time beside ``vaclab.radial.evolve``).

Boundaries crossed a few hundred times per run are recorded as spans
(id, name, start, end, parent id, time in child spans).  Boundaries crossed
once per right-hand side or per output are aggregated per (name, parent
span) into a count, an inclusive time and a self time, which keeps memory
and overhead bounded on runs of ~10^5 right-hand sides.  Each thread keeps
its own stack, so a span started in a worker thread of ``suite.verify``
has no parent.  Spans stay in memory until :meth:`Tracer.dump`.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter

# (trace name, module, attribute, recorded as individual spans)
TARGETS = (
    ("sweep.sweep", "vaclab.sweep", "sweep", True),
    ("runio.run", "vaclab.runio", "run", True),
    ("suite.verify", "vaclab.suite", "verify", True),
    ("correction.solve", "vaclab.correction", "solve_correction", True),
    ("correction.h_at", "vaclab.correction", "CorrectionPath.h_at", False),
    ("correction.h_t_at", "vaclab.correction", "CorrectionPath.h_t_at", False),
    ("radial.evolve", "vaclab.radial", "evolve", True),
    ("radial.rhs", "vaclab.radial", "RadialOperator.rhs", False),
    ("radial.pressure", "vaclab.radial", "RadialOperator.pressure", False),
    ("radial.damping", "vaclab.radial", "RadialOperator.damping", False),
    ("radial.wave_coefficient", "vaclab.radial", "RadialOperator.wave_coefficient", False),
    ("radial.step_cap", "vaclab.radial", "RadialOperator.step_cap", False),
    ("radial.time_derivatives", "vaclab.radial", "RadialOperator.time_derivatives", False),
    ("radial.reconstruct_physical", "vaclab.radial", "reconstruct_physical", False),
    ("radial.reconstructed_mass", "vaclab.radial", "reconstructed_mass", False),
    ("timestepping.integrate_adaptive", "vaclab.timestepping", "integrate_adaptive", True),
    ("timestepping.integrate_fixed_rk4", "vaclab.timestepping", "integrate_fixed_rk4", True),
    ("energy.radial_component", "vaclab.energy", "RadialEnergies.component", False),
    ("energy.mode_component", "vaclab.energy", "ModeEnergies.component", False),
    ("weighted.grid", "vaclab.weighted", "WeightedGrid.__init__", True),
    ("quadrature.jacobi_rule_01", "vaclab.quadrature", "jacobi_rule_01", False),
    ("diagnostics.gap_series", "vaclab.diagnostics", "gap_series", True),
    ("diagnostics.theorem_rate_report", "vaclab.diagnostics", "theorem_rate_report", True),
    ("diagnostics.boundedness_report", "vaclab.diagnostics", "boundedness_report", True),
    ("angular.evolve_mode", "vaclab.angular", "evolve_mode", True),
    ("angular.planar_rhs", "vaclab.angular", "PlanarModeOperator.rhs", False),
    ("angular.toroidal_rhs", "vaclab.angular", "ToroidalModeOperator.rhs", False),
    ("angular.planar_time_derivatives", "vaclab.angular",
     "PlanarModeOperator.time_derivatives", False),
    ("kinematics.build_deformation", "vaclab.kinematics", "build_deformation", True),
    ("kinematics.check_identities", "vaclab.kinematics", "check_identities", True),
)

INTEGRATORS = ("timestepping.integrate_adaptive", "timestepping.integrate_fixed_rk4")


class BoundaryNotFound(RuntimeError):
    """A trace target no longer exists under the name the benchmark wraps."""


def replace_everywhere(module_name: str, attribute: str, make_wrapper) -> None:
    """Replace ``module.attribute`` (a function or ``Class.method``) by
    ``make_wrapper(original)`` wherever the program looks it up."""
    module = sys.modules.get(module_name)
    owner_name, _, method = attribute.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    original = (vars(owner).get(method) if isinstance(owner, type)
                else getattr(owner, method, None))
    if owner is None or original is None:
        raise BoundaryNotFound(f"{module_name}.{attribute} not found")
    wrapped = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, method, wrapped)
        return
    for name, loaded in list(sys.modules.items()):
        if name == "vaclab" or name.startswith("vaclab."):
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)


class _ThreadState:
    def __init__(self):
        self.stack: list[list[float]] = []   # child time of each open call
        self.span_ids: list[int] = []        # open recorded spans
        self.aggregate: dict = {}            # (name, parent) -> [count, total, self]
        self.spans: list[tuple] = []


class Tracer:
    """Spans and counts at the boundaries listed in :data:`TARGETS`."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self.counts: Counter = Counter()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _count(self, **increments) -> None:
        with self._lock:
            self.counts.update(increments)

    def wrap(self, name: str, fn, record: bool = False, on_result=None,
             on_kwargs=None):
        """Wrapper that times ``fn`` under ``name``."""
        clock = time.perf_counter
        state_of = self._state
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state_of()
            if on_kwargs is not None:
                on_kwargs(kwargs)
            parent = st.span_ids[-1] if st.span_ids else None
            if record:
                sid = next(ids)
                st.span_ids.append(sid)
            frame = [0.0]
            st.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                st.stack.pop()
                duration = end - start
                if st.stack:
                    st.stack[-1][0] += duration
                key = (name, parent)
                totals = st.aggregate.get(key)
                if totals is None:
                    totals = st.aggregate[key] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[0]
                if record:
                    st.span_ids.pop()
                    st.spans.append((sid, name, start, end, parent, frame[0]))
            if on_result is not None:
                result = on_result(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; exact counts come from the values returned."""
        hooks = {
            "correction.solve": {"on_result": self._count_radau},
            "radial.step_cap": {"on_result": lambda cap: self.wrap("radial.step_cap", cap)},
        }
        for name in INTEGRATORS:
            hooks[name] = {"on_result": self._count_integration,
                           "on_kwargs": self._wrap_on_output}
        for name, module, attribute, record in TARGETS:
            replace_everywhere(module, attribute, functools.partial(
                self.wrap, name, record=record, **hooks.get(name, {})))

    def _count_radau(self, path):
        self._count(**{"correction.radau_steps": int(path.step_times.size) - 1})
        return path

    def _count_integration(self, result):
        stats = result.stats
        self._count(**{"timestepping.steps": stats.steps,
                       "timestepping.rejected": stats.rejected,
                       "timestepping.rhs_evaluations": stats.rhs_evaluations})
        return result

    def _wrap_on_output(self, kwargs) -> None:
        if kwargs.get("on_output") is not None:
            kwargs["on_output"] = self.wrap("timestepping.on_output", kwargs["on_output"])

    def summary(self) -> dict:
        """Per-name call count, inclusive seconds and self seconds."""
        by_name: dict[str, list] = {}
        for state in self._states:
            for (name, _parent), (count, total, own) in state.aggregate.items():
                entry = by_name.setdefault(name, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += total
                entry[2] += own
        return {"calls": {k: v[0] for k, v in by_name.items()},
                "total_s": {k: v[1] for k, v in by_name.items()},
                "self_s": {k: v[2] for k, v in by_name.items()},
                "counts": dict(self.counts)}

    def dump(self) -> dict:
        """Recorded spans and aggregated boundaries, for writing out."""
        spans, aggregated = [], []
        for state in self._states:
            spans += [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                       "parent": s[4], "self_s": s[3] - s[2] - s[5]} for s in state.spans]
            aggregated += [{"name": name, "parent": parent, "calls": v[0],
                            "total_s": v[1], "self_s": v[2]}
                           for (name, parent), v in state.aggregate.items()]
        spans.sort(key=lambda s: s["start"])
        return {"spans": spans, "aggregated": aggregated, "counts": dict(self.counts)}
