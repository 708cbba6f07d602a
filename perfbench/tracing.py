"""In-memory call tracing of the fermatlucas modules, for the per-layer metrics.

A Tracer replaces every public function of the layer modules at every module
binding that holds it (`primality.fermat_mod`, `quadratic.fermat_mod` and the
package's own `fermatlucas.fermat_mod` alike), and puts the originals back
when it exits.  Module functions resolve globals at call time, so calls
between modules go through the wrappers.  Nothing under src/ is edited.

Per function and per pass it keeps calls, inclusive time, self time (span
minus the spans of its traced children) and work units.  Spans down to
SPAN_DEPTH are kept in memory for the first traced pass and written out when
the benchmark ends; deeper calls are folded into the per-function totals.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

PACKAGE = "fermatlucas"
LAYER_MODULES = ("cli", "primality", "lucas", "quadratic", "symbols")

# Depth 0 is cli.main; depth 2 reaches s_sequence under fermat_llt.
SPAN_DEPTH = 3


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Work units of one call: modular squarings for the chain functions, index
# bits for fast doubling.
WORK = {
    "primality.s_sequence": lambda a, k: (1 << _arg(a, k, 0, "n")) - 2,
    "primality.pepin": lambda a, k: (1 << _arg(a, k, 0, "n")) - 1,
    "primality.mersenne_llt": lambda a, k: _arg(a, k, 0, "q") - 2,
    "lucas.uv_mod": lambda a, k: _arg(a, k, 1, "n").bit_length(),
}

_MARK = "_perfbench_traced"


def package_modules() -> list:
    """The package and its already-imported submodules."""
    return [mod for name, mod in sorted(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def traced_bindings() -> list[str]:
    """`module.name` of every binding that currently holds a wrapper."""
    return [f"{mod.__name__}.{name}" for mod in package_modules()
            for name, obj in vars(mod).items() if hasattr(obj, _MARK)]


class Tracer:
    """Context manager that wraps the layer functions and restores them on exit."""

    def __init__(self):
        originals = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (f"{short}.{name}", obj)
        self._originals = originals
        self._bindings = [(mod, name, obj) for mod in package_modules()
                          for name, obj in vars(mod).items() if id(obj) in originals]
        self.new_pass(record_spans=False)

    def new_pass(self, record_spans: bool) -> None:
        """Start fresh per-pass totals; keep spans only when asked."""
        self.stats: dict[str, list] = {}  # key -> [calls, incl_s, self_s, work]
        self.items: dict[str, int] = {}   # generator key -> items yielded
        self.spans: list[tuple] = []      # (id, parent id, key, start, end)
        self.record_spans = record_spans
        self._child = []                  # child time of each open call
        self._span_ids = []               # ids of the open recorded spans
        self._next_id = 0

    def __enter__(self) -> Tracer:
        wrappers = {i: self._wrap(key, fn) for i, (key, fn) in self._originals.items()}
        for mod, name, fn in self._bindings:
            setattr(mod, name, wrappers[id(fn)])
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, fn in self._bindings:
            setattr(mod, name, fn)

    def _wrap(self, key, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    tracer.items[key] = tracer.items.get(key, 0) + 1
                    yield item
            setattr(gen_wrapper, _MARK, True)
            return gen_wrapper

        work_of = WORK.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = tracer._child
            depth = len(child)
            span_id = None
            if tracer.record_spans and depth < SPAN_DEPTH:
                span_id = tracer._next_id
                tracer._next_id += 1
                tracer._span_ids.append(span_id)
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                elapsed = t1 - t0
                own_children = child.pop()
                if child:
                    child[-1] += elapsed
                s = tracer.stats.get(key)
                if s is None:
                    s = tracer.stats[key] = [0, 0.0, 0.0, 0]
                s[0] += 1
                s[1] += elapsed
                s[2] += elapsed - own_children
                if work_of is not None:
                    s[3] += work_of(args, kwargs)
                if span_id is not None:
                    tracer._span_ids.pop()
                    parent = tracer._span_ids[-1] if tracer._span_ids else None
                    tracer.spans.append((span_id, parent, key, t0, t1))

        setattr(wrapper, _MARK, True)
        return wrapper
