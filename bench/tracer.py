"""In-process span tracer for the hydronets layers.

The tracer wraps public functions of the package from outside: each
function is replaced at every ``hydronets`` module attribute that refers
to it, so a call is traced whichever import site it goes through
(``hydronets.training.forward_batch``, ``hydronets.metrics.forward_batch``,
the names ``experiments`` and ``cli`` import, the package re-exports).
Nothing inside ``src/`` changes, and leaving the ``with`` block puts every
original object back.

Each span records its name, start and end (``perf_counter_ns``), the index
of its parent span, the thread it ran on, and a few sizes computed from
the arguments or the result. Spans stay in memory until the caller writes
them out. A span opened on a worker thread with nothing open on that
thread takes the innermost span open on the main thread as its parent:
the experiment runners block there while their thread pool works.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

MODULES = ("cli", "data", "experiments", "metrics", "model", "presets", "region", "training")

# (defining module, qualified name) of every traced callable; the span name
# is "<module>.<qualname>".
FUNCTIONS = (
    ("cli", "main"),
    ("data", "load_series"),
    ("data", "prepare_datasets"),
    ("data", "window_examples"),
    ("experiments", "load_inputs"),
    ("experiments", "run_depth_experiment"),
    ("experiments", "run_all_basins"),
    ("experiments", "run_scarcity"),
    ("metrics", "evaluate"),
    ("model", "forward_batch"),
    ("model", "save_checkpoint"),
    ("model", "load_checkpoint"),
    ("training", "train"),
    ("training", "train_flat"),
    ("training", "backward_hydronet"),
)
METHODS = (
    ("model", "HydroNetParams", "pack"),
    ("model", "HydroNetParams", "unpack"),
    ("model", "FlatLinearParams", "pack"),
    ("model", "FlatLinearParams", "unpack"),
)

MARKER = "__bench_traced__"


def _first_len(mapping) -> int:
    return len(next(iter(mapping.values())))


# Sizes recorded on a span, computed after its end time is taken so they
# cost nothing inside the span. Each takes (args, result).
MEASURES = {
    "data.load_series": lambda a, r: {"rows": max(a[0].count("\n") - 1, 0)},
    "data.window_examples": lambda a, r: {"bytes": sum(f.nbytes for f in r.features.values())},
    "model.forward_batch": lambda a, r: {"rows": _first_len(a[1])},
    "model.HydroNetParams.pack": lambda a, r: {"bytes": r.nbytes},
    "model.FlatLinearParams.pack": lambda a, r: {"bytes": r.nbytes},
    "model.HydroNetParams.unpack": lambda a, r: {"bytes": a[1].nbytes},
    "model.FlatLinearParams.unpack": lambda a, r: {"bytes": a[1].nbytes},
}


def _module(short: str):
    return importlib.import_module(f"hydronets.{short}")


def installed_wrappers() -> list[str]:
    """Every hydronets module or class attribute currently holding a
    tracer wrapper (empty when no tracer is installed)."""
    found = []
    import hydronets

    for mod in (hydronets, *(_module(m) for m in MODULES)):
        for name, value in vars(mod).items():
            if getattr(value, MARKER, False):
                found.append(f"{mod.__name__}.{name}")
    for mod, cls, meth in METHODS:
        if getattr(vars(getattr(_module(mod), cls))[meth], MARKER, False):
            found.append(f"hydronets.{mod}.{cls}.{meth}")
    return found


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    ``spans`` is a list of dicts with keys name, start, end (ns), parent
    (index or None), thread and, for some names, sizes.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- installation ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import hydronets

        modules = (hydronets, *(_module(m) for m in MODULES))
        for short, qualname in FUNCTIONS:
            original = getattr(_module(short), qualname)
            wrapper = self._wrap(original, f"{short}.{qualname}")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(_module(short), cls_name)
            original = vars(cls)[meth]
            self._replace(cls, meth, self._wrap(original, f"{short}.{cls_name}.{meth}"))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- spans -------------------------------------------------------------------

    def _wrap(self, fn, name: str):
        measure = MEASURES.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if tid != self._main and main else None
            span = {"name": name, "start": 0, "end": 0, "parent": parent, "thread": tid}
            with self._lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
            if measure is not None:
                span.update(measure(args, result))
            return result

        setattr(wrapper, MARKER, True)
        return wrapper


# --- analysis -------------------------------------------------------------------

def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total = 0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans: list[dict]) -> list[int]:
    """Duration of each span minus the part its children cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - covered_ns(children.get(i, []))
        for i, s in enumerate(spans)
    ]


def check_nesting(spans: list[dict]) -> list[str]:
    """Problems with the span tree: a span outside its parent's interval,
    a parent that starts after its child, or negative self time."""
    problems = []
    for i, s in enumerate(spans):
        if s["end"] < s["start"]:
            problems.append(f"span {i} {s['name']} ends before it starts")
        p = s["parent"]
        if p is not None:
            if not (0 <= p < i):
                problems.append(f"span {i} {s['name']} has parent {p} opened after it")
                continue
            parent = spans[p]
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                problems.append(f"span {i} {s['name']} lies outside parent {parent['name']}")
    for i, t in enumerate(self_times(spans)):
        if t < 0:
            problems.append(f"span {i} {spans[i]['name']} has negative self time")
    return problems
