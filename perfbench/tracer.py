"""In-memory span tracer for one benchmark command.

A span records a name, its start and end (``time.perf_counter``), the span
that was open when it began, and the trial it belongs to.  Functions are
traced by rebinding every name in the ``mberlink`` modules that refers to
them, so a span is named after the binding its caller used (for example
``harness.jio_step``) while metrics aggregate by the defining function
(``jio_mber.jio_step``).  Spans stay in memory until :meth:`Tracer.dump`.
"""

import json
import sys
from contextlib import contextmanager
from time import perf_counter


def package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "mberlink" or name.startswith("mberlink."))
    ]


def rebind(fn, make_wrapper) -> None:
    """Replace every ``mberlink`` module binding of ``fn``.

    ``make_wrapper(binding_name)`` builds the replacement for one binding,
    where ``binding_name`` is ``<module>.<attribute>`` as the caller sees it.
    """
    for module in package_modules():
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, make_wrapper(f"{short}.{attr}"))


class Tracer:
    """Collects spans as ``[name_id, start, end, parent, trial]`` lists."""

    def __init__(self):
        self.names = []  # (span name, function key, layer) per name id
        self.spans = []
        self.work = {}  # function key -> summed work units (symbols, bytes)
        self._stack = [-1]
        self._trial = -1  # id of the trial in progress, -1 outside trials
        self._trials = 0
        self._name_ids = {}

    def _name_id(self, name, key, layer):
        ident = (name, key, layer)
        if ident not in self._name_ids:
            self._name_ids[ident] = len(self.names)
            self.names.append(ident)
        return self._name_ids[ident]

    def _open(self, name_id):
        rec = [name_id, 0.0, 0.0, self._stack[-1], self._trial]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def add_span(self, name, layer, start, end):
        """Record a finished top-level span from timestamps taken earlier."""
        self.spans.append([self._name_id(name, name, layer), start, end, -1, -1])

    @contextmanager
    def span(self, name, layer):
        """Manual span around a block of the benchmark's own code."""
        rec = self._open(self._name_id(name, name, layer))
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, binding, key, layer, work=None, new_trial=False):
        name_id = self._name_id(binding, key, layer)
        tracer = self

        def traced(*args, **kwargs):
            if new_trial:
                tracer._trial = tracer._trials
                tracer._trials += 1
            rec = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
                if new_trial:
                    tracer._trial = -1
            if work is not None:
                tracer.work[key] = tracer.work.get(key, 0) + work(args, kwargs, result)
            return result

        return traced

    def trace_function(self, fn, key, layer, work=None, new_trial=False) -> None:
        rebind(
            fn, lambda binding: self.wrap(fn, binding, key, layer, work, new_trial)
        )

    def trace_method(self, cls, attr, key, layer, work=None) -> None:
        fn = getattr(cls, attr)
        setattr(cls, attr, self.wrap(fn, f"{cls.__name__}.{attr}", key, layer, work))

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per function key and per layer.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it.
        """
        n = len(self.spans)
        child = [0.0] * n
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        functions = {}
        layers = {}
        for i, rec in enumerate(self.spans):
            _, key, layer = self.names[rec[0]]
            dur = rec[2] - rec[1]
            own = dur - child[i]
            f = functions.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            f["calls"] += 1
            f["total_s"] += dur
            f["self_s"] += own
            layers[layer] = layers.get(layer, 0.0) + own
        for key, units in self.work.items():
            functions.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            functions[key]["work"] = units
        return {
            "functions": functions,
            "layer_self_s": layers,
            "spans": n,
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "trial"],
                    "names": [list(ident) for ident in self.names],
                    "spans": self.spans,
                },
                fh,
            )
