"""Spans recorded from outside sqopt, and the per-layer metrics derived from them.

sqopt modules bind their dependencies at import (``from .smoothing import
solve_dual_1d``), so a name is wrapped where it is looked up: in
``sqopt.oracles`` for the dual solve, in ``sqopt.experiments`` for the solver,
the loss-map factories and the superquantiles, and in ``sqopt.cli`` for the
studies.  Every ``LossMap`` a wrapped factory returns is rebuilt around timed
``eval`` and ``adjoint_apply`` callables.  The benchmark's own fits look the
same names up in ``sqopt.experiments``, so one set of wrappers covers all
three workloads.

A span is ``(id, name, start, end, parent, op, amount)``; ``op`` is the index
of the timed operation (-1 during set-up) and ``amount`` is a layer-specific
size (values for a dual solve, computed bytes for a loss-map call).  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import sqopt.cli as cli
import sqopt.experiments as experiments
import sqopt.oracles as oracles
from sqopt.oracles import LossMap

SETUP_OP = -1

# (module, attribute, span name)
PLAIN_WRAPS = (
    (experiments, "superquantile", "core.superquantile"),
    (experiments, "generate_quadratic", "data"),
    (experiments, "split_indices", "data"),
    (experiments, "downsample_majority", "data"),
    (cli, "synthetic_credit", "data"),
)
DUAL_WRAPS = (
    (oracles, "solve_dual_1d"),
    (experiments, "smoothed_superquantile"),
)
STUDY_NAMES = ("run_toyreg", "run_federated", "run_fairness", "run_abalone",
               "run_credit", "run_convergence", "run_sweep")

PER_LAYER_UNITS = {
    "smoothing.dual.calls": "count",
    "smoothing.dual.busy_s": "s",
    "smoothing.dual.per_call_us": "us",
    "smoothing.dual.ns_per_elem": "ns",
    "models.eval.calls": "count",
    "models.eval.busy_s": "s",
    "models.adjoint.calls": "count",
    "models.adjoint.busy_s": "s",
    "models.bytes_computed": "B",
    "models.gbps_computed": "GB/s",
    "optim.fits": "count",
    "optim.failed_fits": "count",
    "optim.iterations": "count",
    "optim.oracle_calls": "count",
    "optim.oracle_calls_per_iter": "ratio",
    "optim.self_s": "s",
    "oracles.calls": "count",
    "oracles.self_s": "s",
    "core.superquantile.calls": "count",
    "core.superquantile.busy_s": "s",
    "experiments.busy_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "B",
    "data.busy_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder; inactive wrappers pass calls straight through."""

    def __init__(self):
        self.active = False
        self.op = SETUP_OP
        self.spans: list[tuple] = []
        self.fit_results: list[tuple[int, int, str]] = []  # (op, iterations, status)
        self.artifact_bytes: dict[int, int] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._originals: list[tuple] = []

    def call(self, name, fn, args, kwargs, amount=0):
        if not self.active:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op, amount))

    # -- wrappers -----------------------------------------------------------

    def _patch(self, module, attr, replacement):
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _plain(self, name, fn):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapped

    def _dual(self, fn):
        def wrapped(values, *args, **kwargs):
            return self.call("smoothing.dual", fn, (values, *args), kwargs, amount=len(values))
        return wrapped

    def _loss_map_factory(self, fn):
        def wrapped(dataset, *args, **kwargs):
            lm = fn(dataset, *args, **kwargs)
            # one n x d pass reads 8*n*d bytes of the design matrix; eval makes
            # one pass, adjoint_apply two (it recomputes the predictions)
            pass_bytes = 8 * dataset.n_rows * lm.dim
            lm_eval, lm_adjoint = lm.eval, lm.adjoint_apply

            def timed_eval(w):
                return self.call("models.eval", lm_eval, (w,), {}, amount=pass_bytes)

            def timed_adjoint(w, q):
                return self.call("models.adjoint", lm_adjoint, (w, q), {}, amount=2 * pass_bytes)

            return LossMap(dim=lm.dim, n=lm.n, eval=timed_eval, adjoint_apply=timed_adjoint)
        return wrapped

    def _minimize(self, fn):
        def wrapped(oracle, *args, **kwargs):
            if not self.active:
                return fn(oracle, *args, **kwargs)

            def timed_oracle(w):
                return self.call("oracles", oracle, (w,), {})

            result = self.call("optim.minimize", fn, (timed_oracle, *args), kwargs)
            self.fit_results.append((self.op, result.iterations, result.status))
            return result
        return wrapped

    def install(self):
        """Wrap every traced name; call :meth:`uninstall` to restore them."""
        for module, attr, name in PLAIN_WRAPS:
            self._patch(module, attr, self._plain(name, getattr(module, attr)))
        for module, attr in DUAL_WRAPS:
            self._patch(module, attr, self._dual(getattr(module, attr)))
        for attr in ("pointwise_loss_map", "grouped_loss_map"):
            self._patch(experiments, attr, self._loss_map_factory(getattr(experiments, attr)))
        self._patch(experiments, "minimize", self._minimize(experiments.minimize))
        for attr in STUDY_NAMES:
            self._patch(cli, attr, self._plain("experiments", getattr(cli, attr)))

    def uninstall(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def write(self, path):
        """Write every span, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, op, amount in self.spans:
                handle.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op, "amount": amount}))
                handle.write("\n")

    # -- derived metrics ----------------------------------------------------

    def layer_metrics(self, traced_ops, traced_op_s, untraced_op_s):
        """Per-operation layer figures: counts, and medians over the traced ops of the times."""
        child_time = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start

        per_op = {op: defaultdict(float) for op in traced_ops}
        dual_durations = []
        setup_data_s = 0.0
        for sid, name, start, end, _, op, amount in self.spans:
            dur = end - start
            if op == SETUP_OP:
                if name == "data":
                    setup_data_s += dur
                continue
            if op not in per_op:
                continue
            acc = per_op[op]
            acc[name + ".calls"] += 1
            acc[name + ".busy_s"] += dur
            acc[name + ".self_s"] += dur - child_time[sid]
            acc[name + ".amount"] += amount
            if name == "smoothing.dual":
                dual_durations.append(dur)
        for op, iterations, status in self.fit_results:
            if op in per_op:
                per_op[op]["optim.iterations"] += iterations
                per_op[op]["optim.failed_fits"] += status != "converged"

        def med(key):
            return statistics.median(per_op[op][key] for op in traced_ops)

        def ratio(num, den):
            return num / den if den else 0.0

        dual_busy = med("smoothing.dual.busy_s")
        models_busy = med("models.eval.busy_s") + med("models.adjoint.busy_s")
        models_bytes = med("models.eval.amount") + med("models.adjoint.amount")
        oracle_calls = med("oracles.calls")
        iterations = med("optim.iterations")
        values = {
            "smoothing.dual.calls": med("smoothing.dual.calls"),
            "smoothing.dual.busy_s": dual_busy,
            "smoothing.dual.per_call_us": statistics.median(dual_durations) * 1e6 if dual_durations else 0.0,
            "smoothing.dual.ns_per_elem": ratio(dual_busy * 1e9, med("smoothing.dual.amount")),
            "models.eval.calls": med("models.eval.calls"),
            "models.eval.busy_s": med("models.eval.busy_s"),
            "models.adjoint.calls": med("models.adjoint.calls"),
            "models.adjoint.busy_s": med("models.adjoint.busy_s"),
            "models.bytes_computed": models_bytes,
            "models.gbps_computed": ratio(models_bytes / 1e9, models_busy),
            "optim.fits": med("optim.minimize.calls"),
            "optim.failed_fits": med("optim.failed_fits"),
            "optim.iterations": iterations,
            "optim.oracle_calls": oracle_calls,
            "optim.oracle_calls_per_iter": ratio(oracle_calls, iterations),
            "optim.self_s": med("optim.minimize.self_s"),
            "oracles.calls": oracle_calls,
            "oracles.self_s": med("oracles.self_s"),
            "core.superquantile.calls": med("core.superquantile.calls"),
            "core.superquantile.busy_s": med("core.superquantile.busy_s"),
            "experiments.busy_s": med("experiments.busy_s"),
            "cli.self_s": med("cli.self_s"),
            "cli.artifact_bytes": statistics.median(self.artifact_bytes.get(op, 0) for op in traced_ops),
            "data.busy_s": setup_data_s + med("data.busy_s"),
            "trace.overhead_s": traced_op_s - untraced_op_s,
        }
        return {name: {"value": float(values[name]), "unit": unit}
                for name, unit in PER_LAYER_UNITS.items()}
