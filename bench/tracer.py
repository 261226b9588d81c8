"""Per-layer tracing installed from outside the library.

`install()` replaces each traced function with a wrapper in every
`modp_hecke` module namespace that binds it (and on the class, for
methods), and `uninstall()` puts the originals back.  Only the traced child
process calls them, so untraced runs execute the library unmodified.

Every wrapped call pushes a frame that collects the time of its traced
children; its self time is its duration minus that.  Coarse calls also
record a span (id, parent span, op id, name, start, end).  The hot leaves
only feed the aggregated counters, because they run 10^5-10^6 times per
run.  Everything stays in memory until the run ends.
"""

from __future__ import annotations

import sys
import time

from modp_hecke import affine_weyl, hecke, oracle, root_datum, satake

# (layer, metric name, owner, attribute, hot leaf, count distinct arguments)
TRACED = (
    ("root_datum", "finite_mul", root_datum.FiniteWeylElement, "__mul__", True, False),
    ("root_datum", "x_coords", root_datum.RootDatum, "x_coords", True, True),
    ("root_datum", "finite_word", root_datum.RootDatum, "finite_word", True, True),
    ("affine_weyl", "affine_mul", affine_weyl.AffineWeylElement, "__mul__", True, False),
    ("affine_weyl", "length", affine_weyl, "length", True, True),
    ("affine_weyl", "reduced_word", affine_weyl, "reduced_word", False, True),
    ("affine_weyl", "bruhat_leq", affine_weyl, "bruhat_leq", False, True),
    ("affine_weyl", "lower_set", affine_weyl, "lower_set", False, True),
    ("affine_weyl", "demazure_product", affine_weyl, "demazure_product", False, False),
    ("affine_weyl", "min_coset_rep", affine_weyl, "min_coset_rep", True, False),
    ("affine_weyl", "double_coset_rep", affine_weyl, "double_coset_rep", False, True),
    ("affine_weyl", "enumerate_lower_interval", affine_weyl, "enumerate_lower_interval",
     False, True),
    ("affine_weyl", "element_sort_key", affine_weyl, "element_sort_key", True, False),
    ("affine_weyl", "element_to_string", affine_weyl, "element_to_string", False, True),
    ("hecke", "convolve_phi_classes", hecke, "convolve_phi_classes", False, False),
    ("hecke", "convolve", hecke, "convolve", False, False),
    ("hecke", "convert", hecke.HeckeElement, "convert", False, False),
    ("satake", "closed_attractor_component", satake, "closed_attractor_component",
     False, True),
    ("satake", "component_of", satake, "component_of", False, False),
    ("satake", "phi_c_w", satake, "phi_c_w", False, False),
    ("satake", "satake_phi", satake, "satake_phi", False, True),
    ("oracle", "generic_mul", oracle.GenericHeckeElement, "__mul__", False, False),
    ("oracle", "brute_bruhat", oracle, "brute_bruhat", False, False),
    ("oracle", "brute_length", oracle, "brute_length", False, False),
)


def metric_names() -> list:
    """Every per-layer metric name, in a fixed order."""
    names = []
    for layer, name, _, _, _, distinct in TRACED:
        names += [f"{layer}.{name}.calls", f"{layer}.{name}.self_s"]
        if distinct:
            names.append(f"{layer}.{name}.distinct")
    return names


class Tracer:
    def __init__(self):
        self.child_time = []      # one slot per active traced call
        self.span_stack = [0]     # ids of the enclosing spans; 0 is "no op"
        self.spans = []           # (id, parent, op, name, start, end)
        self.next_id = 1
        self.op = -1
        self.stats = {}           # "layer.name" -> [calls, self_s, distinct keys or None]
        self._patched = []

    # -- operation spans -------------------------------------------------------

    def begin_op(self, op: int):
        self.op = op
        self.span_stack.append(self.next_id)
        self.next_id += 1
        self.child_time.append(0.0)
        self._op_start = time.perf_counter()

    def end_op(self):
        end = time.perf_counter()
        self.child_time.pop()
        sid = self.span_stack.pop()
        self.spans.append((sid, 0, self.op, "op", self._op_start, end))

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, fn, key: str, hot: bool, distinct: bool):
        stat = self.stats.setdefault(key, [0, 0.0, set() if distinct else None])
        child_time, span_stack, spans = self.child_time, self.span_stack, self.spans
        clock = time.perf_counter
        tracer = self

        if hot:
            def wrapper(*args, **kwargs):
                child_time.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    inner = child_time.pop()
                    if child_time:
                        child_time[-1] += dur
                    stat[0] += 1
                    stat[1] += dur - inner
                    if distinct:
                        stat[2].add(args + tuple(sorted(kwargs.items())))
        else:
            def wrapper(*args, **kwargs):
                sid = tracer.next_id
                tracer.next_id += 1
                parent = span_stack[-1]
                span_stack.append(sid)
                child_time.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    dur = end - start
                    inner = child_time.pop()
                    span_stack.pop()
                    if child_time:
                        child_time[-1] += dur
                    stat[0] += 1
                    stat[1] += dur - inner
                    if distinct:
                        stat[2].add(args + tuple(sorted(kwargs.items())))
                    spans.append((sid, parent, tracer.op, key, start, end))
        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "modp_hecke" or name.startswith("modp_hecke."))]
        for layer, name, owner, attr, hot, distinct in TRACED:
            orig = owner.__dict__[attr]
            wrapper = self._wrap(orig, f"{layer}.{name}", hot, distinct)
            targets = [owner] if isinstance(owner, type) else modules
            for target in targets:
                for bound, value in list(vars(target).items()):
                    if value is orig:
                        setattr(target, bound, wrapper)
                        self._patched.append((target, bound, orig))

    def uninstall(self):
        for target, bound, orig in reversed(self._patched):
            setattr(target, bound, orig)
        self._patched.clear()

    def metrics(self) -> dict:
        out = {}
        for layer, name, _, _, _, distinct in TRACED:
            calls, self_s, keys = self.stats.get(f"{layer}.{name}", (0, 0.0, None))
            out[f"{layer}.{name}.calls"] = calls
            out[f"{layer}.{name}.self_s"] = self_s
            if distinct:
                out[f"{layer}.{name}.distinct"] = len(keys) if keys is not None else 0
        return out
