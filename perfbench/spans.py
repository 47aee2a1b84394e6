"""Spans around planeval's public functions, recorded from outside the program.

``Tracer.install`` replaces every attribute of every loaded ``planeval``
module that is bound to a traced function (``build`` imports ``paste_onto``,
``finalize`` and ``validate_kb`` by name, so the defining module alone is not
enough), and wraps traced methods on their class.  ``Tracer.restore`` puts
every original object back.  A traced name the program no longer has is
listed in ``absent`` and its metrics read zero; it never fails the run.

Spans stay in memory: (name, start, end, parent index, instance id, extra).
Self time is a span's duration minus the durations of its direct children;
the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute path) of every traced public function or method.
TRACED = (
    ("dsl", "parse_kb"),
    ("dsl", "parse_plan"),
    ("model", "validate_kb"),
    ("plan", "flatten_hierarchy"),
    ("plan", "linearize"),
    ("build", "make_schedule"),
    ("build", "Schedule.analyse"),
    ("build", "complete_with_persistence"),
    ("build", "merge_contingent"),
    ("build", "attach_during"),
    ("build", "add_clock"),
    ("build", "build_pe_net"),
    ("build", "split_situations"),
    ("net", "paste_onto"),
    ("net", "paste_into"),
    ("net", "PENet.add_parent"),
    ("net", "PENet.topological_nodes"),
    ("net", "finalize"),
    ("net", "canonical_dump"),
    ("inference", "exact_query"),
    ("inference", "mc_query"),
    ("cli", "run_cli"),
)


def _rows_arg(args, kwargs):
    frag = kwargs.get("frag", args[1] if len(args) > 1 else None)
    return len(getattr(frag, "rows", ()))


# Counts read at the boundary, from a call's arguments or its result.
EXTRAS = {
    "net.paste_onto": lambda args, kwargs, result: {"rows": _rows_arg(args, kwargs)},
    "net.paste_into": lambda args, kwargs, result: {"rows": _rows_arg(args, kwargs)},
    "plan.flatten_hierarchy": lambda args, kwargs, result: {
        "steps": len(result.steps), "boundaries": len(result.boundaries())},
    "inference.exact_query": lambda args, kwargs, result: {"width": result.elimination_width or 0},
    "inference.mc_query": lambda args, kwargs, result: {"samples": result.sample_count or 0},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None
        self.absent = []
        self._saved = []  # (owner, attribute, original object, owned by the class itself)

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, self.instance, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "planeval" or key.startswith("planeval."))]
        for module_name, path in TRACED:
            name = f"{module_name}.{path}"
            module = importlib.import_module(f"planeval.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, original)
            if owner_name:
                self._saved.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original, True))
                        setattr(mod, key, wrapped)

    def restore(self):
        for owner, attr, original, owned in reversed(self._saved):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()

    def originals(self):
        """(owner, attribute, original) for every attribute ``install`` replaced."""
        return [(owner, attr, original) for owner, attr, original, _owned in self._saved]

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _child_time(spans: list) -> list:
    out = [0.0] * len(spans)
    for _name, start, end, parent, _inst, _extra in spans:
        if parent is not None:
            out[parent] += end - start
    return out


def summarize(spans: list, keep=lambda span: True) -> dict:
    """Per span name over the kept spans: calls, total and self seconds, durations, summed extras."""
    child_time = _child_time(spans)
    out = {}
    for i, span in enumerate(spans):
        if not keep(span):
            continue
        name, start, end, _parent, _inst, extra = span
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "extra": {}})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["durations"].append(end - start)
        for key, value in (extra or {}).items():
            if key == "width":
                entry["extra"][key] = max(entry["extra"].get(key, 0), value)
            else:
                entry["extra"][key] = entry["extra"].get(key, 0) + value
    return out


def self_time_by_module(spans: list, root: str, keep=lambda span: True) -> dict:
    """Self seconds per module inside the kept spans named ``root``, the roots' own included."""
    child_time = _child_time(spans)
    inside = [False] * len(spans)
    out = {}
    for i, span in enumerate(spans):
        name, start, end, parent, _inst, _extra = span
        inside[i] = (name == root and keep(span)) or (parent is not None and inside[parent])
        if inside[i]:
            module = name.split(".")[0]
            out[module] = out.get(module, 0.0) + end - start - child_time[i]
    return out
