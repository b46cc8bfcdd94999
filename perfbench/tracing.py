"""Spans around the calls into each srbb module, recorded from outside.

``Tracer.install`` replaces every reference to a traced function in the
package's module namespaces (``srbb.varopt.unitary_of``,
``srbb.cli.train``, ``srbb.circuit.apply`` and so on) with a wrapper, so
calls between modules are caught wherever the caller looks the name up.
Each span is (name, start, end, parent) and stays in memory until the run
ends.  A span's self time is its duration minus that of its children; the
program is single-threaded here, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

TRACED = {
    "algebra": ("build_srbb", "check_basis_properties"),
    "compiler": ("synthesize_circuit", "naive_circuit"),
    "circuit": ("unitary_of", "apply"),
    "varopt": ("train", "nelder_mead", "adam", "fd_gradient"),
    "targets": ("named_target",),
    "cli": ("main",),
}

COMPLEX_BYTES = 16


def _counting(fn, counts: Counter, key: str):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs) if fn is not None else None
    return counted


class Tracer:
    def __init__(self, package):
        self.package = package
        self.phases: dict[str, list] = {}
        self.counts: dict[str, Counter] = {}
        self.spans: list = []
        self.count = Counter()
        self.stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._gate_cost: dict[int, tuple[object, int, int]] = {}

    # -- phases -----------------------------------------------------------

    def phase(self, name: str) -> None:
        """Record the following spans and counts under ``name``."""
        self.spans = self.phases.setdefault(name, [])
        self.count = self.counts.setdefault(name, Counter())
        self.stack = []

    @contextmanager
    def root(self, name: str):
        """A benchmark-level span; one per operation, so the spans of one
        operation share its index as their root."""
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent)

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for mod_name, names in TRACED.items():
            module = sys.modules[f"{self.package.__name__}.{mod_name}"]
            for fname in names:
                original = getattr(module, fname)
                wrappers[original] = self._wrap(f"{mod_name}.{fname}", original)
        prefix = self.package.__name__
        for mname, module in list(sys.modules.items()):
            if mname != prefix and not mname.startswith(prefix + "."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        before = {
            "circuit.unitary_of": self._before_unitary_of,
            "varopt.nelder_mead": self._before_nelder_mead,
            "varopt.adam": self._before_adam,
            "varopt.fd_gradient": self._before_fd_gradient,
        }.get(name)
        signature = inspect.signature(fn)

        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(signature, args, kwargs)
            # the body of root, inlined: this runs once per simulated circuit
            spans, stack = self.spans, self.stack
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
        return wrapper

    def _before_unitary_of(self, signature, args, kwargs):
        circuit = args[0] if args else kwargs["circuit"]
        cached = self._gate_cost.get(id(circuit))
        if cached is None or cached[0] is not circuit:
            one_qubit = sum(1 for g in circuit.gates if len(g.qubits) == 1)
            cached = (circuit, len(circuit.gates), one_qubit)
            self._gate_cost[id(circuit)] = cached
        _, gates, one_qubit = cached
        d = 2 ** circuit.n
        # computed, not measured: a one-qubit gate reads and writes the whole
        # d x d array once; a CNOT reads and writes the half its control selects
        self.count["unitary_of.gates"] += gates
        self.count["unitary_of.bytes"] += COMPLEX_BYTES * d * d * (
            2 * one_qubit + (gates - one_qubit))
        return args, kwargs

    def _counted(self, signature, args, kwargs, **keys):
        """Rebind the call with the named callables wrapped in counters."""
        bound = signature.bind(*args, **kwargs)
        for param, key in keys.items():
            bound.arguments[param] = _counting(bound.arguments.get(param),
                                               self.count, key)
        return bound.args, bound.kwargs

    def _before_nelder_mead(self, signature, args, kwargs):
        return self._counted(signature, args, kwargs,
                             objective="nelder_mead.evals",
                             callback="nelder_mead.iters")

    def _before_adam(self, signature, args, kwargs):
        return self._counted(signature, args, kwargs, callback="adam.steps")

    def _before_fd_gradient(self, signature, args, kwargs):
        return self._counted(signature, args, kwargs,
                             objective="fd_gradient.evals")

    # -- summaries --------------------------------------------------------

    def summary(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        spans = self.phases.get(phase, [])
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def dump(self) -> dict:
        """Every span of every phase, with a name table, for writing out."""
        names: dict[str, int] = {}
        phases = {}
        for phase, spans in self.phases.items():
            phases[phase] = [[names.setdefault(n, len(names)), s, e, p]
                             for n, s, e, p in spans]
        return {"names": list(names), "fields": ["name", "start", "end", "parent"],
                "phases": phases,
                "counts": {k: dict(v) for k, v in self.counts.items()}}
