"""In-memory call tracer for the hopfdeform modules.

The tracer lives in the benchmark only; the library is not changed.  On
``install`` it wraps every public function defined in the traced modules,
in every ``hopfdeform`` namespace that binds it (so a name imported with
``from … import`` is wrapped where it is used too), plus the methods in
``METHODS``.  Each call records a span (name, start, end, parent) and
updates per-name counts, inclusive time and self time.  Inclusive time
counts only the outermost activation of a name, so recursion is not
counted twice; self time is a span's duration minus the time of its
traced children.

The wrapper's own work is taken out of both times.  Each call clocks the
wrapper's work outside its span (bookkeeping, distinct-input probes and
strategy tags); ``calibrate`` times an empty wrapped function once at install
for the small rest that no clock read covers.  A parent's self time loses
that cost for each traced child, its inclusive time for each traced
descendant.  The spans themselves stay as the clock read them.

The aggregates cover every call.  Spans are kept in compact arrays up to
``SPAN_CAP`` (the earliest calls); later spans are counted as dropped.
"""
from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

MODULES = (
    "cli", "config", "sampling", "instances", "core",
    "convolution", "cohomology", "deformation", "report",
)
METHODS = (
    ("convolution", "Cochain", "value"),
    ("convolution", "LinMap", "value"),
    ("core", "Element", "__init__"),
    ("sampling", "ElementSampler", "element"),
)
# basis-level rules handed to BialgebraInstance; each is evaluated once per
# distinct key reaching mul_terms / comul_terms / antipode_terms / star_terms
BASIS_RULES = ("mul_basis", "comul_basis", "antipode_basis", "star_basis")
# the conv_exp strategy certified for each instance kind
STRATEGIES = {
    "grouplike_basis": "closed_form_grouplike",
    "graded_connected": "degree_truncated",
    "finite": "zero_functional",
}
SPAN_CAP = 250_000
CALIBRATION_CALLS = 20_000
CALIBRATION_ROUNDS = 5


def _keys_of_method(args):
    return args[0], tuple(args[1])


# distinct-input probes: the call's input, identified by object and keys
PROBES = {
    "convolution.tuple_comul_terms": _keys_of_method,
    "convolution.Cochain.value": _keys_of_method,
    "convolution.LinMap.value": _keys_of_method,
    "deformation.deformed_mul_pair": tuple,
}


def _strategy(args):
    return STRATEGIES[args[0].instance.kind.value]


TAGS = {"convolution.conv_exp": _strategy}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.own: list[float] = []
        self._active: list[int] = []
        # per open call: time of traced children, and tracing cost inside it
        self._frames = [0.0]
        self._hidden = [0.0]
        self._parents = [-1]
        # wrapper cost per call that its own clock reads miss: outside and
        # inside the callee's span (see ``calibrate``)
        self.outer_cost = 0.0
        self.inner_cost = 0.0
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.tags: Counter = Counter()
        self.counters: Counter = Counter()
        self.distinct_totals: Counter = Counter()
        self._seen: dict[str, set] = {name: set() for name in PROBES}
        self._generators: set = set()
        self._restore: list = []

    # -- wrapping -------------------------------------------------------------

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.incl.append(0.0)
        self.own.append(0.0)
        self._active.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, on_return=None):
        idx = self._index(name)
        probe = PROBES.get(name)
        seen = self._seen.get(name)
        tag = TAGS.get(name)
        tags = self.tags
        clock = time.perf_counter
        calls, incl, own, active = self.calls, self.incl, self.own, self._active
        frames, hidden, parents = self._frames, self._hidden, self._parents
        s_name, s_parent, s_start, s_end = (
            self.span_name, self.span_parent, self.span_start, self.span_end
        )
        outer_cost, inner_cost = self.outer_cost, self.inner_cost

        def traced(*args, **kwargs):
            t_in = clock()
            if probe is not None:
                seen.add(probe(args))
            if tag is not None:
                tags[tag(args)] += 1
            frames.append(0.0)
            hidden.append(0.0)
            active[idx] += 1
            sid = len(s_start)
            if sid < SPAN_CAP:
                s_name.append(idx)
                s_parent.append(parents[-1])
                s_start.append(0.0)
                s_end.append(0.0)
                parents.append(sid)
            else:
                parents.append(-1)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                parents.pop()
                active[idx] -= 1
                dur = t1 - t0
                child = frames.pop()
                inside = hidden.pop() + inner_cost
                calls[idx] += 1
                own[idx] += dur - child - inner_cost
                if not active[idx]:
                    incl[idx] += dur - inside
                if sid < SPAN_CAP:
                    s_start[sid] = t0
                    s_end[sid] = t1
                # this call's tracing cost outside its span, as the caller sees it
                cost = clock() - t_in - dur + outer_cost
                frames[-1] += dur + cost
                hidden[-1] += inside + cost
            if on_return is not None:
                on_return(result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self.outer_cost, self.inner_cost = calibrate()
        modules = {m: importlib.import_module(f"hopfdeform.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                on_return = self._generators.add if name == "config.build_cocycle" else None
                wrappers[value] = self._wrap(value, name, on_return)
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "hopfdeform" or key.startswith("hopfdeform.")
        ]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            label = f"{short}.{cls_name}" + ("" if meth == "__init__" else f".{meth}")
            self._set(cls, meth, self._wrap(cls.__dict__[meth], label))
        instance_cls = modules["core"].BialgebraInstance
        self._set(instance_cls, "__init__", self._counting_init(instance_cls.__dict__["__init__"]))

    def _counting_init(self, init):
        signature = inspect.signature(init)
        counters = self.counters

        def counted(rule):
            def evaluate(*args):
                counters["basis_rule.evals"] += 1
                return rule(*args)
            return evaluate

        def wrapped_init(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            for name in BASIS_RULES:
                rule = bound.arguments.get(name)
                if rule is not None:
                    bound.arguments[name] = counted(rule)
            init(*bound.args, **bound.kwargs)

        functools.update_wrapper(wrapped_init, init)
        return wrapped_init

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- per-job bookkeeping ------------------------------------------------------

    def end_job(self) -> None:
        """Fold the job's distinct-input sets into totals and release them.

        Memos live on per-job objects, so distinct inputs are counted per
        job; the sets hold the objects, which keeps identities unique.
        """
        values = self._seen["convolution.Cochain.value"]
        self.counters["cocycle.evals"] += sum(1 for c, _ in values if c in self._generators)
        for name, seen in self._seen.items():
            self.distinct_totals[name] += len(seen)
            seen.clear()
        self._generators.clear()

    # -- results ------------------------------------------------------------

    def stats(self, name: str) -> dict:
        """Calls, inclusive and self time of one traced name (zeros if absent)."""
        try:
            i = self.names.index(name)
        except ValueError:
            return {"calls": 0, "s": 0.0, "self_s": 0.0}
        return {"calls": self.calls[i], "s": self.incl[i], "self_s": self.own[i]}

    def distinct_frac(self, name: str) -> float:
        calls = self.stats(name)["calls"]
        return self.distinct_totals[name] / calls if calls else 0.0

    @property
    def spans_recorded(self) -> int:
        return len(self.span_start)

    @property
    def spans_dropped(self) -> int:
        return sum(self.calls) - len(self.span_start)

    def write(self, stem: Path) -> None:
        """Write ``<stem>.json`` (aggregates, layout) and ``<stem>.spans`` (arrays)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": self.spans_recorded,
            "spans_dropped": self.spans_dropped,
            "span_layout": ["name:int32", "parent:int32", "start_s:float64", "end_s:float64"],
            "byteorder": sys.byteorder,
            "per_name": {n: self.stats(n) for n in self.names},
            "wrapper_cost_s": {"outer": self.outer_cost, "inner": self.inner_cost},
            "tags": dict(self.tags),
            "counters": dict(self.counters),
            "distinct": dict(self.distinct_totals),
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1, sort_keys=True) + "\n")
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def calibrate() -> tuple[float, float]:
    """The wrapper's cost per call that no clock read of its own covers.

    Returns the cost outside the wrapper's own clock reads, which the
    caller's span holds, and the cost inside the callee's span.  An empty
    function is timed bare and wrapped, taking the fastest of a few rounds
    of each.  The wrapped call's time less the wrapper's clocked time is the
    first; the clocked span time less the bare call is the second.
    """
    def empty(a, b):
        return None

    probe = Tracer()
    wrapped = probe._wrap(empty, "calibrate")
    clock = time.perf_counter
    bare = total = clocked = spans = float("inf")
    for _ in range(CALIBRATION_ROUNDS):
        t0 = clock()
        for _ in range(CALIBRATION_CALLS):
            empty(1, 2)
        t1 = clock()
        before = probe._frames[0], probe.incl[0]
        for _ in range(CALIBRATION_CALLS):
            wrapped(1, 2)
        t2 = clock()
        bare = min(bare, t1 - t0)
        total = min(total, t2 - t1)
        clocked = min(clocked, probe._frames[0] - before[0])
        spans = min(spans, probe.incl[0] - before[1])
    bare, total, clocked, spans = (
        x / CALIBRATION_CALLS for x in (bare, total, clocked, spans)
    )
    return max(total - clocked, 0.0), max(spans - bare, 0.0)


def read_spans(stem: Path):
    """Load the spans written by :meth:`Tracer.write` as four arrays."""
    header = json.loads(stem.with_suffix(".json").read_text())
    n = header["spans"]
    out = []
    with open(stem.with_suffix(".spans"), "rb") as fh:
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            out.append(arr)
    return header, out
