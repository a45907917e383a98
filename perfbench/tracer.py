"""Spans and counts at the boundaries of pltdual's modules, recorded from
outside the package.

:meth:`Tracer.install` replaces each target below with a wrapper that
records a span (name, start, end, parent span, thread) and counts calls.
A function imported by name into other modules (``graph_at``, ``expm2``,
``bracket_coeffs``, ``integrate_*``, ...) is replaced in every
``pltdual`` module that holds it, not only where it is defined;
``GroupKit`` methods are replaced on the class.  A target that no longer
exists (the private ``_rk_mk_step`` and ``_tangent_field`` may be renamed
or merged) is skipped and its layer reported as absent.

Spans are kept in memory and written out by :meth:`Tracer.write_spans`.
A span's self time is its duration minus the durations of its direct
children, which run in the same thread.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import Counter


def _state_key(state) -> tuple:
    """Identity of a loop state by content, with its node count."""
    return hash((state.kl.tobytes(), state.kr.tobytes())), state.kl.shape[0]


def _first_state(*args, **kwargs):
    return (_state_key(args[0]),)


def _written_bytes(args, result) -> int:
    return os.path.getsize(args[0])


def _emitted_bytes(args, result) -> int:
    return len(args[1].encode())


# (module, attribute, span name, state key, bytes written)
TARGETS = (
    ("cli", "run", "cli.run", None, None),
    ("cli", "_sweep_one", "cli.sweep.replica", None, None),
    ("reporting", "write_csv", "reporting.write", None, _written_bytes),
    ("reporting", "write_json", "reporting.write", None, _written_bytes),
    ("cli", "_emit", "reporting.write", None, _emitted_bytes),
    ("models", "make_preset", "models.setup", None, None),
    ("duality", "splitting", "models.setup", None, None),
    ("groups", "GroupKit.__init__", "models.setup", None, None),
    ("fieldsim", "integrate_field", "fieldsim.integrate_field", None, None),
    ("fieldsim", "random_smooth_loop", "fieldsim.init_loop", None, None),
    ("fieldsim", "step", "fieldsim.step", None, None),
    ("fieldsim", "_tangent_field", "fieldsim.tangent_field", _first_state, None),
    ("fieldsim", "total_hamiltonian", "fieldsim.quadrature", None, None),
    ("fieldsim", "moment_map_basis", "fieldsim.quadrature", None, None),
    ("fieldsim", "loop_functions", "fieldsim.quadrature", None, None),
    ("fieldsim", "duality_check", "fieldsim.duality_check", _first_state, None),
    ("fieldsim", "eom_residuals", "fieldsim.eom_residuals", None, None),
    ("fieldsim", "factorize_grid", "fieldsim.factorize_grid", _first_state, None),
    ("fieldsim", "factorize_grid_dual", "fieldsim.factorize_grid", _first_state, None),
    ("particle", "integrate_particle", "particle.integrate", None, None),
    ("particle", "_rk_mk_step", "particle.rkmk_step", None, None),
    ("particle", "particle_rhs", "particle.rhs", None, None),
    ("particle", "particle_hamiltonian", "particle.record", None, None),
    ("particle", "particle_charges", "particle.record", None, None),
    ("duality", "graph_at", "duality.graph_at", None, None),
    ("duality", "dual_graph_at", "duality.dual_graph_at", None, None),
    ("groups", "GroupKit.factorize_gm", "groups.factorize_gm", None, None),
    ("groups", "GroupKit.factorize_mg", "groups.factorize_mg", None, None),
    ("groups", "GroupKit.ad_d", "groups.ad_d", None, None),
    ("groups", "GroupKit.ad_g", "groups.ad_g", None, None),
    ("groups", "GroupKit.hat_pi", "groups.hat_pi", None, None),
    ("groups", "expm2", "groups.expm2", None, None),
    ("liecore", "bracket_coeffs", "liecore.bracket_coeffs", None, None),
)

# exceptions counted once each, at the innermost span they cross
ERROR_METRICS = {
    "FactorizationError": "groups.factorization_errors",
    "GraphBlowupError": "duality.graph_blowups",
}


class Phase:
    """Counts of one traced phase (set-up or one operation)."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # span name -> [calls, self_s, total_s]
        self.states: dict[str, set] = {}  # span name -> distinct state keys
        self.errors: Counter = Counter()
        self.bytes_written = 0
        self.first_span_id = 0

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, thread)
        self.absent: set[str] = set()
        self.phase = Phase()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counted: set[int] = set()

    def new_phase(self) -> Phase:
        self.phase = Phase()
        self.phase.first_span_id = next(self._ids)
        return self.phase

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, key=None, written=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][0] if stack else None
            frame = [next(tracer._ids), 0.0]
            keys = key(*args, **kwargs) if key else ()
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._note_error(exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer._record(frame[0], name, start, end, parent, duration - frame[1], keys)
            if written:
                with tracer._lock:
                    tracer.phase.bytes_written += written(args, result)
            return result

        return traced

    def _record(self, span_id, name, start, end, parent, self_time, keys) -> None:
        with self._lock:
            stat = self.phase.stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += self_time
            stat[2] += end - start
            if keys:
                self.phase.states.setdefault(name, set()).update(keys)
            self.spans.append((span_id, name, start, end, parent, threading.get_ident()))

    def _note_error(self, exc: Exception) -> None:
        metric = ERROR_METRICS.get(type(exc).__name__)
        with self._lock:
            if metric and id(exc) not in self._counted:
                self._counted.add(id(exc))
                self.phase.errors[metric] += 1

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        import pltdual.cli  # noqa: F401  (loads every module of the package)

        modules = [m for n, m in sys.modules.items() if n.startswith("pltdual")]
        for module_name, attr, name, key, written in TARGETS:
            home = sys.modules.get(f"pltdual.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, method, None)
            if original is None:
                self.absent.add(name)
                continue
            wrapped = self.wrap(original, name, key, written)
            if owner_name:
                setattr(owner, method, wrapped)
                continue
            for module in modules:
                for global_name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, global_name, wrapped)

    def spans_in_phase(self, phase: Phase):
        return [s for s in self.spans if s[0] >= phase.first_span_id]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tthread\n")
            for span in sorted(self.spans):
                fh.write("\t".join("" if v is None else str(v) for v in span) + "\n")


# per-layer metrics, in the order BENCHMARK.json lists them
PER_LAYER = (
    ("fieldsim.eom_residuals.calls", "count"),
    ("fieldsim.eom_residuals.self_s", "s"),
    ("fieldsim.duality_check.calls", "count"),
    ("fieldsim.duality_check.self_s", "s"),
    ("fieldsim.factorize_grid.calls", "count"),
    ("fieldsim.step.calls", "count"),
    ("fieldsim.step.self_s", "s"),
    ("fieldsim.tangent_field.calls", "count"),
    ("fieldsim.tangent_field.self_s", "s"),
    ("fieldsim.tangent_field.per_state", "ratio"),
    ("fieldsim.quadrature.self_s", "s"),
    ("fieldsim.init_loop.self_s", "s"),
    ("groups.factorize_gm.calls", "count"),
    ("groups.factorize_gm.self_s", "s"),
    ("groups.factorize_mg.calls", "count"),
    ("groups.factorize_mg.self_s", "s"),
    ("groups.factorize.per_node_state", "ratio"),
    ("groups.ad_d.calls", "count"),
    ("groups.ad_d.self_s", "s"),
    ("groups.ad_g.calls", "count"),
    ("groups.hat_pi.calls", "count"),
    ("groups.expm2.calls", "count"),
    ("groups.expm2.self_s", "s"),
    ("groups.factorization_errors", "count"),
    ("duality.graph_blowups", "count"),
    ("duality.graph_at.calls", "count"),
    ("duality.graph_at.self_s", "s"),
    ("duality.graph_at.per_step", "ratio"),
    ("duality.dual_graph_at.calls", "count"),
    ("duality.dual_graph_at.self_s", "s"),
    ("particle.rkmk_step.calls", "count"),
    ("particle.rkmk_step.self_s", "s"),
    ("particle.rhs.calls", "count"),
    ("particle.rhs.self_s", "s"),
    ("particle.record.self_s", "s"),
    ("liecore.bracket_coeffs.calls", "count"),
    ("liecore.bracket_coeffs.self_s", "s"),
    ("reporting.write.calls", "count"),
    ("reporting.write.bytes", "bytes"),
    ("reporting.write.self_s", "s"),
    ("cli.sweep.replica_s", "s"),
    ("cli.sweep.pool_eff", "ratio"),
    ("models.setup_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, setup: Phase, op: Phase, traced_s: float,
                  untraced_s: float, workers: int) -> dict:
    """Per-layer metrics of one traced operation (``op``) after one traced
    set-up (``setup``), as ``{name: value}`` in :data:`PER_LAYER` order."""
    m = {}
    for metric, unit in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            m[metric] = op.calls(span)
        elif kind == "self_s":
            m[metric] = op.self_s(span)
    names = {s[0]: s[1] for s in tracer.spans_in_phase(op)}
    # a factorize_gm nested in factorize_mg is part of that one request
    nested_gm = sum(1 for s in tracer.spans_in_phase(op)
                    if s[1] == "groups.factorize_gm" and names.get(s[4]) == "groups.factorize_mg")
    factorized = set().union(*(op.states.get(n, set()) for n in
                               ("fieldsim.duality_check", "fieldsim.factorize_grid")))
    tangent_states = op.states.get("fieldsim.tangent_field", set())
    steps = op.calls("particle.rkmk_step") + op.calls("fieldsim.step")
    replica_s = op.total_s("cli.sweep.replica")
    m.update({
        "fieldsim.tangent_field.per_state": _ratio(op.calls("fieldsim.tangent_field"),
                                                   len(tangent_states)),
        "groups.factorize.per_node_state": _ratio(
            op.calls("groups.factorize_gm") - nested_gm + op.calls("groups.factorize_mg"),
            sum(nodes for _, nodes in factorized)),
        "groups.factorization_errors": op.errors["groups.factorization_errors"],
        "duality.graph_blowups": op.errors["duality.graph_blowups"],
        "duality.graph_at.per_step": _ratio(op.calls("duality.graph_at"), steps),
        "reporting.write.bytes": op.bytes_written,
        "cli.sweep.replica_s": replica_s,
        "cli.sweep.pool_eff": _ratio(replica_s, workers * op.total_s("cli.run")),
        "fieldsim.init_loop.self_s": setup.self_s("fieldsim.init_loop")
        + op.self_s("fieldsim.init_loop"),
        "models.setup_s": setup.total_s("models.setup"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
    })
    return {metric: m[metric] for metric, _ in PER_LAYER}


def absent_metrics(tracer: Tracer) -> list:
    return [metric for metric, _ in PER_LAYER
            if any(metric.startswith(span) for span in tracer.absent)]


def profile_shape(tracer: Tracer, op: Phase, op_s: float) -> dict:
    """Inclusive shares of the operation that characterise each workload's
    known profile (printed, not gated: optimisations are meant to move them).
    Shares of spans that run in several threads (the sweep) sum over them."""
    names = {s[0]: s[1] for s in tracer.spans_in_phase(op)}
    graph_in_rhs = sum(s[3] - s[2] for s in tracer.spans_in_phase(op)
                       if s[1] == "duality.graph_at" and names.get(s[4]) == "particle.rhs")
    return {
        "eom_residuals_share": _ratio(op.total_s("fieldsim.eom_residuals"), op_s),
        "duality_check_share": _ratio(op.total_s("fieldsim.duality_check"), op_s),
        "step_share": _ratio(op.total_s("fieldsim.step"), op_s),
        "graph_at_share_of_rhs": _ratio(graph_in_rhs, op.total_s("particle.rhs")),
    }
