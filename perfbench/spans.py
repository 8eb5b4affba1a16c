"""Outside-in span tracer for akasim.

`SpanTracer.install()` replaces every public function of the traced modules
(the names in each module's `__all__`) and every public method of the
classes they export with a wrapper that records one span: name, parent span,
start and end.  The library looks these names up at call time (module
attributes, module globals, class attributes), so the wrappers see every
call without a change to the library.  `restore()` puts the original objects
back and `restored()` confirms it.

Spans stay in memory in flat arrays until `aggregate()` turns them into
per-name call counts, inclusive time and self time (a span's duration minus
the durations of its child spans) and `write()` saves them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "akasim"
MODULES = (
    "crypto_suite",
    "auth_core",
    "sim_card",
    "mobile_equipment",
    "network_side",
    "adversary",
    "harness",
    "cli",
)


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class SpanTracer:
    """Records spans around akasim's public callables while installed.

    `probes` maps a span name to `probe(args, result)`, called after each
    successful call so a caller can count work (bytes, triples, keys) at the
    same boundary the span measures.
    """

    def __init__(self, probes=None):
        self.probes = dict(probes or {})
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.active = False

    def __len__(self) -> int:
        return len(self.name_id)

    # --- wrapping ------------------------------------------------------------

    def targets(self):
        """Yield (owner, attribute, span name) for every callable traced."""
        for modname in MODULES:
            module = importlib.import_module(f"{PACKAGE}.{modname}")
            for attr in module.__all__:
                obj = vars(module)[attr]
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, attr, f"{modname}.{attr}"
                elif inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_") and meth != "__call__":
                            continue
                        if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                            yield obj, meth, f"{modname}.{obj.__name__}.{meth}"

    def install(self):
        if self.active:
            raise RuntimeError("tracer already installed")
        self._saved = []
        for owner, attr, name in list(self.targets()):
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._span(raw.__func__, name))
            else:
                wrapped = self._span(raw, name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        self.active = True

    def restore(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self.active = False

    def restored(self) -> bool:
        """True when every attribute the tracer replaced holds its original."""
        return not self.active and all(vars(owner)[attr] is raw for owner, attr, raw in self._saved)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _span(self, fn, name: str):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        probe = self.probes.get(name)
        ids, parents, starts, ends, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if probe is not None:
                probe(args, result)
            return result

        return traced

    # --- results -------------------------------------------------------------

    def aggregate(self) -> dict[str, NameStats]:
        n = len(self.name_id)
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * n))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        stats: dict[str, NameStats] = defaultdict(NameStats)
        for i, nid in enumerate(self.name_id):
            st = stats[self.names[nid]]
            st.calls += 1
            st.total_s += dur[i]
            st.self_s += dur[i] - child[i]
        return stats

    def write(self, path) -> None:
        """Save the spans as gzipped TSV: id, parent, name, start_us, dur_us."""
        t_zero = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as out:
            out.write("id\tparent\tname\tstart_us\tdur_us\n")
            names = self.names
            for i, (nid, p, s, e) in enumerate(zip(self.name_id, self.parent, self.start, self.end)):
                out.write(f"{i}\t{p}\t{names[nid]}\t{(s - t_zero) * 1e6:.3f}\t{(e - s) * 1e6:.3f}\n")

