"""Per-layer tracing of toricnets from outside the package.

Each traced function is replaced by a wrapper that counts calls and
records wall time.  The wrapper is bound at every call site: modules such
as ``nonabelian``, ``builder`` and ``schema`` import ``mat_mul``,
``sheet_lift_map``, ``dual_polytope`` and others by name, so rebinding
only the defining module would miss those calls.  ``install`` therefore
rebinds every ``toricnets`` module attribute that refers to the original
function, and refuses to trace if any other reference to the original
remains that it cannot rebind.

Times are self times: the wall time of a call minus the wall time of the
traced calls it made.  A span stack keeps that bookkeeping exact under
nesting and exceptions.
"""
from __future__ import annotations

import gc
import sys
import time

# (module, function, key).  The key names the layer and the stage in the
# reported metrics; its first component is the module.
TRACED = [
    ("schema", "parse_problem", "schema.parse"),
    ("schema", "emit_network", "schema.emit_network"),
    ("schema", "emit_cocycle", "schema.emit_cocycle"),
    ("fans", "dual_polytope", "fans.polytope"),
    ("multisection", "validate", "multisection.validate"),
    ("multisection", "classify_two_fold", "multisection.classify"),
    ("multisection", "n_genericity", "multisection.n_genericity"),
    ("multisection", "intersection_cones", "multisection.intersection_cones"),
    ("builder", "build_network", "builder.build"),
    ("cover", "build_cover", "cover.build"),
    ("cover", "sheet_lift_map", "cover.sheet_lift_map"),
    ("cover", "make_local_system", "cover.local_system"),
    ("network", "validate_network", "network.validate"),
    ("network", "walls_pairwise_disjoint", "network.walls_disjoint"),
    ("network", "track_events", "network.track_events"),
    ("network", "track_path", "network.track_path"),
    ("network", "boundary_loop", "network.boundary_loop"),
    ("network", "enumerate_solitons", "network.enumerate_solitons"),
    ("network", "branch_point_arms", "network.branch_point_arms"),
    ("geom", "polyline_pairwise_disjoint", "geom.disjoint"),
    ("nonabelian", "semiflat_factor", "nonabelian.semiflat_factor"),
    ("nonabelian", "wall_factor", "nonabelian.wall_factor"),
    ("nonabelian", "cut_factor", "nonabelian.cut_factor"),
    ("nonabelian", "path_ordered", "nonabelian.path_ordered"),
    ("nonabelian", "loop_identity_check", "nonabelian.loop_check"),
    ("nonabelian", "kaneyama_cocycle", "nonabelian.kaneyama"),
    ("nonabelian", "verify_bundle", "nonabelian.verify_bundle"),
    ("laurent", "mat_mul", "laurent.mat_mul"),
    ("render", "render_svg", "render.svg"),
    ("cli", "cmd_verify", "cli.verify"),
]

LAYERS = sorted({key.split(".")[0] for _, _, key in TRACED})


class TraceError(RuntimeError):
    """The tracer could not see every call of a traced function."""


class Tracer:
    """Call counts and self times of the traced toricnets functions."""

    def __init__(self):
        self.calls = {key: 0 for _, _, key in TRACED}
        self.returns = {key: 0 for _, _, key in TRACED}
        self.self_s = {key: 0.0 for _, _, key in TRACED}
        self._stack = []
        self._bindings = []   # (namespace, attribute, original)

    def _wrap(self, fn, key):
        calls, returns, self_s, stack = (self.calls, self.returns,
                                         self.self_s, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[key] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            returns[key] += 1
            return result

        # not functools.wraps: its __wrapped__ would keep a reference to
        # the original that _check_unbound cannot tell from a call site
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Bind a wrapper at every call site of every traced function.

        Raises TraceError, with every binding restored, when some
        reference to a traced function cannot be rebound.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "toricnets" or name.startswith("toricnets.")]
        try:
            for module, attr, key in TRACED:
                original = getattr(sys.modules[f"toricnets.{module}"], attr)
                wrapper = self._wrap(original, key)
                for mod in modules:
                    namespace = vars(mod)
                    for name, value in list(namespace.items()):
                        if value is original:
                            self._bindings.append((namespace, name, original))
                            namespace[name] = wrapper
                self._check_unbound(original, key)
        except TraceError:
            self.uninstall()
            raise

    def _check_unbound(self, original, key):
        # A container still holding the original (a module namespace, a
        # dispatch table, a default-argument tuple, a class attribute)
        # would let calls bypass the count.  The wrapper's closure cell,
        # the restore list and the caller's frame are the only expected
        # holders.
        restore = {id(b) for b in self._bindings}
        for ref in gc.get_referrers(original):
            if isinstance(ref, tuple) and id(ref) in restore:
                continue
            if isinstance(ref, (dict, list, set, tuple, type)):
                raise TraceError(f"{key}: a {type(ref).__name__} still "
                                 "refers to the untraced function")

    def uninstall(self):
        """Restore every binding that ``install`` replaced."""
        for namespace, name, original in reversed(self._bindings):
            namespace[name] = original
        self._bindings.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def snapshot(self):
        """Copy of the counters, for differences over an interval."""
        return {"calls": dict(self.calls), "returns": dict(self.returns),
                "self_s": dict(self.self_s)}

    @staticmethod
    def delta(after, before):
        return {part: {k: after[part][k] - before[part][k]
                       for k in after[part]}
                for part in after}


def layer_self_s(counters):
    """Self time per layer (module) from a counter snapshot or delta."""
    out = {layer: 0.0 for layer in LAYERS}
    for key, value in counters["self_s"].items():
        out[key.split(".")[0]] += value
    return out
