"""Layer-boundary tracing installed from outside the package.

The layers are the modules of ``truncgibbs``.  A boundary callable is a
function or class that one package module binds from another, found by
reading each module's import statements and ``module.attribute`` uses, so
renamed private functions are followed without editing this file.  While
a :class:`Tracer` is installed, every binding of a boundary function (in
its own module too, so calls inside the layer are counted as well) is
replaced by a wrapper, and so is every method of a boundary class and
``cli.main``, the entry point of every call.

Each call is a span with a name, start, end and parent.  Self time is a
span's duration minus the time its child spans cover.  Every span feeds
per-name aggregates (count, total, self); the first ``SPAN_LIMIT`` spans
of each name are also kept whole, so per-update boundaries such as the
scalar quantile cost a count and a sum, not a record each.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import itertools
import pkgutil
import statistics
from time import perf_counter_ns

LAYERS = ("cli", "kernel", "streams", "truncnorm", "sampler", "diagnostics",
          "finite_spec", "transforms")
CFTP = "sampler.cftp_samples"
ENTRY = ("cli", "main")            # wrapped as well: the root of every pass
SPAN_LIMIT = 64                    # spans of one name kept whole
CALIBRATION_CALLS = 20_000
CALIBRATION_REPEATS = 5


def package_modules(package):
    """The package itself and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def _resolve_relative(mod, node):
    """Absolute module name of an ``ImportFrom`` inside ``mod``, or None."""
    if node.level == 0:
        return node.module
    base = mod.__name__ if hasattr(mod, "__path__") else mod.__name__.rpartition(".")[0]
    for _ in range(node.level - 1):
        base = base.rpartition(".")[0]
    return f"{base}.{node.module}" if node.module else base


def boundary_objects(package):
    """Functions and classes that one package module binds from another."""
    prefix = package.__name__
    found = {}
    for mod in package_modules(package):
        tree = ast.parse(inspect.getsource(mod))
        module_aliases = {}
        targets = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = _resolve_relative(mod, node)
            if not source or not source.startswith(prefix):
                continue
            src_mod = importlib.import_module(source)
            for alias in node.names:
                obj = getattr(src_mod, alias.name, None)
                if inspect.ismodule(obj):
                    module_aliases[alias.asname or alias.name] = obj
                else:
                    targets.append(obj)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in module_aliases):
                targets.append(getattr(module_aliases[node.value.id], node.attr, None))
        for obj in targets:
            home = getattr(obj, "__module__", "") or ""
            if home == mod.__name__ or not home.startswith(prefix + "."):
                continue
            if inspect.isfunction(obj) or (inspect.isclass(obj)
                                           and not issubclass(obj, BaseException)):
                found[id(obj)] = obj
    return list(found.values())


def _layer_of(obj) -> str:
    return obj.__module__.rpartition(".")[2]


def _noop(m, a, b, u):
    return m


class Tracer:
    """Records spans at layer boundaries while installed (a context manager).

    Times are corrected for the tracer's own cost: :meth:`calibrate`
    measures what one wrapped call adds, and every inclusive time drops
    that cost once per nested span, every self time once per child span.
    The calibration runs in a tight loop, so inside a large hot loop the
    real cost is higher and some overhead remains in the corrected times.
    """

    def __init__(self, package):
        self.package = package
        self.span_cost_ns = 0.0
        self._objects = None
        self._undo = []
        self.reset()

    # ------------------------------------------------------------------ data
    def reset(self):
        self.stack = []
        self.spans = []                    # (id, name, start_ns, end_ns, parent_id)
        # name -> [layer, count, total_ns, self_ns, nested spans, child spans]
        self.stats = {}
        self.quantiles = 0                 # values returned by truncnorm to sampler
        self.site_updates = 0              # (site, uniform) pairs drawn by sampler outside CFTP
        self.cftp_replica_updates = 0      # pairs drawn inside CFTP, one per replica and slot
        self.cftp_rounds = 0
        # [ns, nested spans]: CFTP time before its first quantile and after it
        self.cftp_key = [0, 0]
        self.cftp_dynamics = [0, 0]
        # [ns, nested spans]: streams calls other than pair draws that a
        # sampler call makes before its first quantile
        self.key_setup = [0, 0]
        self.grid_bytes = 0                # largest quadrature tensor, computed
        self._ids = itertools.count()
        self._last_slot = None

    # ---------------------------------------------------------------- wiring
    def _wrap(self, fn, name, layer):
        tracer = self
        stack = self.stack
        entry = self.stats.setdefault(name, [layer, 0, 0, 0, 0, 0])
        next_id = self._ids.__next__
        is_truncnorm = layer == "truncnorm"
        is_streams = layer == "streams"
        is_cftp = name == CFTP
        is_quadrature = name == "diagnostics.quadrature_marginals"
        slot_index = None
        if is_streams:
            params = list(inspect.signature(fn).parameters)
            slot_index = params.index("slot") if "slot" in params else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            # frame: name, layer, child ns, first quantile ns, id, children,
            # nested spans, nested spans before the first quantile
            frame = [name, layer, 0, None, next_id(), 0, 0, 0]
            if is_truncnorm and parent is not None and parent[1] == "sampler" \
                    and parent[3] is None:
                parent[3] = perf_counter_ns()
                parent[7] = parent[6]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                entry[1] += 1
                entry[2] += dur
                entry[3] += dur - frame[2]
                entry[4] += frame[6]
                entry[5] += frame[5]
                if parent is not None:
                    parent[2] += dur
                    parent[5] += 1
                    parent[6] += frame[6] + 1
                if entry[1] <= SPAN_LIMIT:
                    tracer.spans.append((frame[4], name, start, end,
                                         parent[4] if parent is not None else None))
                if is_cftp:
                    split, before = (frame[3], frame[7]) if frame[3] is not None \
                        else (end, frame[6])
                    tracer.cftp_key[0] += split - start
                    tracer.cftp_key[1] += before
                    tracer.cftp_dynamics[0] += end - split
                    tracer.cftp_dynamics[1] += frame[6] - before
            if parent is not None and parent[1] == "sampler":
                if is_truncnorm:
                    tracer.quantiles += getattr(result, "size", 1)
                elif is_streams:
                    if not (isinstance(result, tuple) and len(result) == 2):
                        if parent[3] is None:
                            tracer.key_setup[0] += dur
                            tracer.key_setup[1] += frame[6]
                    elif parent[0] != CFTP:
                        tracer.site_updates += len(result[0])
                    else:
                        tracer.cftp_replica_updates += len(result[0])
                        slot = args[slot_index] if slot_index is not None \
                            and len(args) > slot_index else kwargs.get("slot")
                        # each round walks from its deepest slot back to slot 1
                        if slot is not None and (tracer._last_slot is None
                                                 or slot > tracer._last_slot):
                            tracer.cftp_rounds += 1
                        tracer._last_slot = slot
            if is_quadrature:
                tracer.grid_bytes = max(tracer.grid_bytes,
                                        8 * len(result.grid) ** len(result.sites))
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Reset the records and wrap every boundary callable and ``cli.main``."""
        self.reset()
        modules = package_modules(self.package)
        if self._objects is None:
            self._objects = boundary_objects(self.package)
        for obj in self._objects:
            layer = _layer_of(obj)
            if inspect.isfunction(obj):
                wrapper = self._wrap(obj, f"{layer}.{obj.__qualname__}", layer)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is obj:
                            self._set(mod, attr, wrapper)
                continue
            for attr, value in list(vars(obj).items()):
                if attr.startswith("__") and attr != "__init__":
                    continue
                name = f"{layer}.{obj.__qualname__}.{attr}"
                if isinstance(value, (classmethod, staticmethod)):
                    wrapped = type(value)(self._wrap(value.__func__, name, layer))
                elif inspect.isfunction(value):
                    wrapped = self._wrap(value, name, layer)
                else:
                    continue
                self._set(obj, attr, wrapped)
        module, attr = ENTRY
        entry_mod = importlib.import_module(f"{self.package.__name__}.{module}")
        fn = getattr(entry_mod, attr)
        self._set(entry_mod, attr, self._wrap(fn, f"{module}.{fn.__qualname__}", module))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def calibrate(self) -> float:
        """Measure the cost one wrapped call adds, on the hottest path: a
        scalar truncnorm call made from a sampler frame."""
        costs = []
        for _ in range(CALIBRATION_REPEATS):
            self.reset()
            wrapped = self._wrap(_noop, "calibration", "truncnorm")
            self.stack.append(["calibration", "sampler", 0, 0, -1, 0, 0, 0])
            start = perf_counter_ns()
            for _ in range(CALIBRATION_CALLS):
                wrapped(0.5, 0.0, 1.0, 0.25)
            traced = perf_counter_ns() - start
            start = perf_counter_ns()
            for _ in range(CALIBRATION_CALLS):
                _noop(0.5, 0.0, 1.0, 0.25)
            plain = perf_counter_ns() - start
            costs.append(max(0.0, (traced - plain) / CALIBRATION_CALLS))
        self.reset()
        self.span_cost_ns = statistics.median(costs)
        return self.span_cost_ns

    # --------------------------------------------------------------- results
    def total_s(self, name) -> float:
        """Inclusive time of every call of ``name``, less the tracer's cost."""
        entry = self.stats.get(name)
        if entry is None:
            return 0.0
        return (entry[2] - self.span_cost_ns * entry[4]) / 1e9

    def corrected_s(self, ns_and_nested) -> float:
        ns, nested = ns_and_nested
        return (ns - self.span_cost_ns * nested) / 1e9

    def count(self, name) -> int:
        entry = self.stats.get(name)
        return entry[1] if entry else 0

    def layer_self_s(self) -> dict:
        """Self time of each layer, less the tracer's cost."""
        out = dict.fromkeys(LAYERS, 0.0)
        for layer, _count, _total, own, _nested, children in self.stats.values():
            if layer in out:
                out[layer] += (own - self.span_cost_ns * children) / 1e9
        return out

    def span_records(self):
        return [{"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p}
                for i, n, s, e, p in self.spans]

    def stats_records(self):
        return {name: {"layer": layer, "count": count, "total_ns": total, "self_ns": own,
                       "nested_spans": nested, "child_spans": children}
                for name, (layer, count, total, own, nested, children)
                in sorted(self.stats.items())}
