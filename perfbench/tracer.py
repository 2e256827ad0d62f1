"""Span tracer for the traced benchmark run, installed from outside the package.

``Tracer.install`` replaces every public function of the traced spde_lab
layers, and the few public methods listed in ``CLASS_METHODS``, with a
wrapper that records a span (id, parent, op id, name, layer, start, end).
The same function object is also replaced wherever another module re-bound
it through ``from ... import`` (``spde_lab.solvers.heat_kernel``,
``spde_lab.cli.fk_second_moment``, the ``cli._RUNNERS`` table), so every
call path is timed. ``RngStream.generator`` hands out a ``numpy.random.
Generator`` subclass over the same bit generator that times and counts its
draws; draws are therefore identical to the untraced run.

Block functions passed to ``map_replica_blocks`` get a span of their own
whose layer is the layer of the caller, so their time counts toward the
layer that passed them; ``rng`` keeps only draws and pool overhead. Spans
stay in memory; ``dump`` returns them for writing at the end of the run.
A layer's self time is its span duration minus the union of its children.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import os
import threading
import time

import numpy as np

LAYERS = ("rng", "kernels", "noise", "solvers", "moments", "conditions", "field", "cli")

CLASS_METHODS = {
    "noise": {"HomogeneousNoiseSampler": ("__init__", "sample_batch", "sample")},
    "solvers": {"WickPamSampler": ("__init__", "sample_chaos", "second_moment_samples")},
}

# per-layer time metrics: self time summed over the named spans and the
# spans of the replica blocks those functions passed to map_replica_blocks
SELF_TIME_METRICS = {
    "kernels.heat_s": ("kernels.heat_kernel",),
    "noise.factor_s": (
        "noise.time_factor_matrix",
        "noise.space_factor_matrix",
        "noise.fbm_covariance_matrix",
        "noise.riesz_cell_integral",
        "noise.riesz_cell_integral_1d",
        "noise.fractional_time_cell_integral",
        "noise.cell_covariance",
    ),
    "noise.cholesky_s": ("noise.cholesky_with_jitter",),
    "noise.correlate_s": (
        "noise.HomogeneousNoiseSampler.__init__",
        "noise.HomogeneousNoiseSampler.sample_batch",
        "noise.HomogeneousNoiseSampler.sample",
        "noise.sample_homogeneous_noise",
        "noise.sample_fbm_paths",
        "noise.sample_fbm_path",
        "noise.sample_bm_paths",
        "noise.sample_bm_path",
        "noise.sample_bm_at",
        "noise.sample_white_noise_sheet",
    ),
    "solvers.conv_s": (
        "solvers.solve_linear_heat_1d",
        "solvers.linear_heat_point_samples",
        "solvers.linear_heat_node_samples",
        "solvers.solve_nonlinear_heat_picard",
    ),
    "solvers.point_weights_s": ("solvers.linear_heat_point_weights",),
    "solvers.euler_s": ("solvers.solve_pam_euler", "solvers.pam_euler_final_batch"),
    "solvers.wick_init_s": ("solvers.WickPamSampler.__init__",),
    "solvers.wick_march_s": (
        "solvers.WickPamSampler.sample_chaos",
        "solvers.WickPamSampler.second_moment_samples",
    ),
    "moments.fk_s": ("moments.fk_second_moment",),
    "moments.holder_fit_s": ("moments.holder_estimate",),
    "moments.estimate_s": ("moments.estimate_moments", "moments.jackknife_stderr"),
    "conditions.quad_s": (
        "conditions.dalang_integral_numeric",
        "conditions.general_joint_condition",
    ),
    "conditions.certificate_s": ("conditions.dalang_gronwall_certificate",),
    "field.write_s": ("field.write_csv", "field.write_spdf"),
    "field.read_s": ("field.read_spdf",),
}

PICARD = "solvers.solve_nonlinear_heat_picard"
CELL_SAMPLERS = {
    "noise.HomogeneousNoiseSampler.sample_batch": lambda r: r.size,
    "noise.sample_white_noise_sheet": lambda r: r.values.size,
    "noise.sample_fbm_paths": lambda r: r[:, 1:].size,
    "noise.sample_bm_paths": lambda r: r[:, 1:].size,
    "noise.sample_bm_at": lambda r: r.size,
}


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, op, name, layer, t0, t1)
        self.counts = collections.Counter()
        self.block_mb_max = 0.0
        self.enabled = False
        self.op = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed = []  # (owner, attribute, original) to restore

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """(span id, name, layer) of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else (None, "bench", "bench")

    def span(self, name: str, layer: str):
        return _Span(self, name, layer)

    def _record(self, sid, parent, name, layer, t0, t1):
        with self._lock:
            self.spans.append((sid, parent, self.op, name, layer, t0, t1))

    def add(self, key: str, value: float = 1.0):
        with self._lock:
            self.counts[key] += value

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of each traced layer of ``package``."""
        modules = {name: getattr(package, name) for name in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(fn, f"{layer}.{cls_name}.{meth}", layer))
        # install each wrapper wherever any spde_lab module bound its original
        for mod in [package] + list(modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._installed.append((obj, key, val))
                            obj[key] = wrappers[val]
        self._install_generator(modules["rng"].RngStream)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._installed.clear()

    def _set(self, owner, attr, value):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str, layer: str):
        if name == "rng.map_replica_blocks":
            return self._wrap_map_blocks(fn)
        hook = self._hook(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name, layer):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _hook(self, fn, name: str):
        """Counter update run after a traced call, or None."""
        sig = inspect.signature(fn)

        def arg(args, kwargs, key):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments[key]

        if name == "kernels.heat_kernel":
            return lambda a, k, r: self.add("kernels.heat_calls")
        if name == "noise.cholesky_with_jitter":

            def cholesky(a, k, r):
                self.add("noise.cholesky_calls")
                self.add("noise.jitter_applied", float(r[1] > 0.0))

            return cholesky
        if name in CELL_SAMPLERS:
            cells = CELL_SAMPLERS[name]
            return lambda a, k, r: self.add("noise.cells", cells(r))
        if name == PICARD:
            return lambda a, k, r: self.add("solvers.picard_iters", arg(a, k, "n_iter"))
        if name in ("field.write_csv", "field.write_spdf"):
            return lambda a, k, r: self.add("field.write_bytes", os.path.getsize(arg(a, k, "path")))
        return None

    def _wrap_map_blocks(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            _, caller_name, caller_layer = self.current()
            block_fn = bound.arguments["fn"]
            busy = []
            with self.span("rng.map_replica_blocks", "rng") as pool_span:
                pool_id = pool_span.sid

                def traced_block(gen, count):
                    stack = self._stack()
                    pushed = not stack or stack[-1][0] != pool_id
                    if pushed:  # worker thread: hang the block from the pool span
                        stack.append((pool_id, "rng.map_replica_blocks", "rng"))
                    self._local.block_bytes = 0
                    t0 = time.perf_counter()
                    try:
                        with self.span(f"{caller_name}.block", caller_layer):
                            return block_fn(gen, count)
                    finally:
                        busy.append(time.perf_counter() - t0)
                        with self._lock:
                            self.block_mb_max = max(
                                self.block_mb_max, self._local.block_bytes / 1e6
                            )
                        self._local.block_bytes = None
                        if pushed:
                            stack.pop()

                bound.arguments["fn"] = traced_block
                result = fn(*bound.args, **bound.kwargs)
            n, size = bound.arguments["n_replicas"], bound.arguments["block_size"]
            self.add("rng.blocks", -(-n // size))
            self.add("rng.pool_busy_s", sum(busy))
            threads = max(1, bound.arguments["threads"])
            self.add("rng.pool_capacity_s", threads * (pool_span.t1 - pool_span.t0))
            return result

        return wrapper

    def _install_generator(self, stream_cls) -> None:
        tracer = self

        class CountingGenerator(np.random.Generator):
            """Same bit generator, same draws; times and counts each request."""

            def standard_normal(self, *args, **kwargs):
                return tracer._draw(super().standard_normal, args, kwargs, normal=True)

            def random(self, *args, **kwargs):
                return tracer._draw(super().random, args, kwargs)

            def uniform(self, *args, **kwargs):
                return tracer._draw(super().uniform, args, kwargs)

        original = stream_cls.generator

        @functools.wraps(original)
        def generator(stream):
            gen = original(stream)
            return CountingGenerator(gen.bit_generator) if self.enabled else gen

        self._set(stream_cls, "generator", generator)

    def _draw(self, method, args, kwargs, normal: bool = False):
        if not self.enabled:
            return method(*args, **kwargs)
        with self.span("rng.draw", "rng") as sp:
            out = method(*args, **kwargs)
        nbytes = np.asarray(out).size * 8
        block = getattr(self._local, "block_bytes", None)
        if block is not None:
            self._local.block_bytes = block + nbytes
        else:  # a request outside any replica block is a block of its own
            with self._lock:
                self.block_mb_max = max(self.block_mb_max, nbytes / 1e6)
        if normal:
            self.add("rng.normals", nbytes // 8)
            self.add("rng.normal_draw_s", sp.t1 - sp.t0)
        return out

    # -- merging and reduction ---------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "block_mb_max": self.block_mb_max,
        }

    def merge(self, dumped: dict, parent) -> None:
        """Adopt the spans and counters a traced child process recorded.

        Span times share the system-wide monotonic clock, so the child's root
        spans hang from ``parent`` in this process.
        """
        ids = {}
        for sid, par, _, name, layer, t0, t1 in dumped["spans"]:
            ids[sid] = next(self._ids)
        for sid, par, _, name, layer, t0, t1 in dumped["spans"]:
            self._record(ids[sid], ids.get(par, parent), name, layer, t0, t1)
        for key, value in dumped["counts"].items():
            self.add(key, value)
        with self._lock:
            self.block_mb_max = max(self.block_mb_max, dumped["block_mb_max"])

    def self_times(self) -> collections.Counter:
        """Self time per span name, summed over the traced ops."""
        children = collections.defaultdict(list)
        for sid, parent, op, name, layer, t0, t1 in self.spans:
            children[parent].append((t0, t1))
        out = collections.Counter()
        for sid, parent, op, name, layer, t0, t1 in self.spans:
            if op is None:
                continue
            out[name] += (t1 - t0) - covered_length(children.get(sid, ()), t0, t1)
        return out

    def layer_metrics(self, cycles: int) -> dict:
        """Per-layer metrics, time and counts per traced op cycle."""
        self_t = self.self_times()
        c = self.counts

        def total(names):
            return sum(v for k, v in self_t.items() if k in names or k.removesuffix(".block") in names)

        m = {key: total(names) / cycles for key, names in SELF_TIME_METRICS.items()}
        m["cli.main_s"] = sum(
            v for k, v in self_t.items() if k.startswith("cli.")
        ) / cycles
        m["rng.draw_s"] = self_t["rng.draw"] / cycles
        m["rng.normals"] = c["rng.normals"] / cycles
        m["rng.ns_per_normal"] = (
            1e9 * c["rng.normal_draw_s"] / c["rng.normals"] if c["rng.normals"] else 0.0
        )
        m["rng.blocks"] = c["rng.blocks"] / cycles
        m["rng.block_draw_mb_max"] = self.block_mb_max
        m["rng.pool_util"] = (
            c["rng.pool_busy_s"] / c["rng.pool_capacity_s"] if c["rng.pool_capacity_s"] else 0.0
        )
        m["kernels.heat_calls"] = c["kernels.heat_calls"] / cycles
        m["noise.cholesky_calls"] = c["noise.cholesky_calls"] / cycles
        m["noise.jitter_applied"] = c["noise.jitter_applied"] / cycles
        m["noise.cells"] = c["noise.cells"] / cycles
        m["solvers.picard_iter_s"] = (
            total((PICARD,)) / c["solvers.picard_iters"] if c["solvers.picard_iters"] else 0.0
        )
        m["field.write_mb"] = c["field.write_bytes"] / 1e6 / cycles
        return m


class _Span:
    def __init__(self, tracer: Tracer, name: str, layer: str):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        tr = self.tracer
        self.parent = tr.current()[0]
        self.sid = next(tr._ids)
        tr._stack().append((self.sid, self.name, self.layer))
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.t1 = time.perf_counter()
        tr = self.tracer
        tr._stack().pop()
        tr._record(self.sid, self.parent, self.name, self.layer, self.t0, self.t1)
        return False
