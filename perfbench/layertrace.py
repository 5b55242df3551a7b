"""Per-layer tracing of loopoid_lab from outside the package.

``Tracer.install`` replaces every public module-level function of each
layer module, in every ``loopoid_lab`` module that holds a reference to it,
with a wrapper that records a span; ``uninstall`` puts the originals back.
Nothing in the package is edited.  Besides the module functions it wraps

* the chart maps (alpha, beta, unit_embed, mul, inverse) of every object a
  ``specio.build_*`` builder returns, and the Lagrangian of built systems;
* the residual handed to ``newton_solve``, to count its evaluations;
* the frame field returned by ``make_frame_field``, to count requests.

A span's self time is its duration minus the durations of the spans it
encloses, so a layer's ``self_s`` is the time spent in its own code.  A
layer's ``calls`` counts entries into it from another layer.  Counts depend
only on the operations and their inputs, so they repeat exactly.
"""

import dataclasses
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> layer; the chart and cli layers have no module of their own
MODULE_LAYERS = {
    "specio": "specio",
    "loops": "loops",
    "loopoids": "loopoids",
    "numdiff": "numdiff",
    "newton": "newton",
    "algebroid": "algebroid",
    "tangent": "tangent",
    "mechanics": "mechanics",
    "finite": "finite",
    "_kernels": "kernels",
    "octonion": "octonion",
}
LAYERS = ("cli", "specio", "chart", "loops", "loopoids", "numdiff", "newton", "algebroid",
          "tangent", "mechanics", "finite", "kernels", "octonion")
CHART_MAPS = ("alpha", "beta", "unit_embed", "mul", "inverse")

# counters reported besides each layer's calls and self time
COUNTERS = (
    "chart.mul.calls", "chart.alpha.calls", "chart.beta.calls", "chart.unit_embed.calls",
    "chart.inverse.calls", "chart.lagrangian.calls",
    "loops.eval_mul.calls",
    "numdiff.jacobian.calls", "numdiff.directional.calls", "numdiff.mixed_bilinear.calls",
    "numdiff.lie_bracket.calls",
    "newton.solves", "newton.iterations", "newton.residual_evals", "newton.failures",
    "algebroid.frame_requests", "algebroid.frames_built", "algebroid.prolong.calls",
    "algebroid.bracket.calls",
    "mechanics.step_solve.calls", "mechanics.el_residual.calls", "mechanics.legendre.calls",
    "loopoids.multiply.calls",
    "tangent.tangent_multiply.calls",
    "finite.validate.calls", "kernels.scan.calls", "kernels.scan.triples", "kernels.oct.calls",
    "kernels.oct.pairs",
    "octonion.oct_mul.calls", "octonion.oct_mul_batch.calls",
    "specio.parse_spec.calls", "specio.spec_bytes", "specio.report_bytes",
    "cli.ops",
)

# counter names that differ from "<layer>.<function>.calls"
RENAMED = {
    "newton.newton_solve.calls": "newton.solves",
    "algebroid.algebroid_frame.calls": "algebroid.frames_built",
    "algebroid.algebroid_bracket.calls": "algebroid.bracket.calls",
    "finite.validate_latin_square.calls": "finite.validate.calls",
    "kernels.oct_mul_many.calls": "kernels.oct.calls",
    "cli.op.calls": "cli.ops",
}
SCANS = {"associative_scan", "moufang_scan", "left_bol_scan", "right_bol_scan", "sampled_identity_scan"}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.stack = []  # open spans: [layer, name, time of enclosed spans]
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def span(self, layer, name, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before`` may rewrite the arguments,
        ``after`` may replace the result."""
        counter = RENAMED.get(f"{name}.calls", f"{name}.calls")

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            if parent is None or parent[0] != layer:
                self.calls[layer] += 1
            self.counts[counter] += 1
            if before is not None:
                args, kwargs = before(parent, args, kwargs)
            frame = [layer, name, 0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name == "newton.newton_solve":
                    self.counts["newton.failures"] += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                self.stack.pop()
                self.self_s[layer] += elapsed - frame[2]
                if self.stack:
                    self.stack[-1][2] += elapsed
            return after(result) if after is not None else result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for particular functions --------------------------------------

    def _count_residual(self, parent, args, kwargs):
        residual = args[0] if args else kwargs.pop("residual")

        def counted(x):
            self.counts["newton.residual_evals"] += 1
            return residual(x)

        return (counted,) + tuple(args[1:]), kwargs

    def _jacobian_in_newton(self, parent, args, kwargs):
        # newton_solve differentiates its residual once per iteration
        if parent is not None and parent[1] == "newton.newton_solve":
            self.counts["newton.iterations"] += 1
        return args, kwargs

    def _scan_triples(self, name):
        def before(parent, args, kwargs):
            table = args[0]
            if name == "sampled_identity_scan":
                self.counts["kernels.scan.triples"] += len(args[2])
            else:
                self.counts["kernels.scan.triples"] += table.shape[0] ** 3
            self.counts["kernels.scan.calls"] += 1
            return args, kwargs

        return before

    def _oct_pairs(self, parent, args, kwargs):
        self.counts["kernels.oct.pairs"] += len(args[0])
        return args, kwargs

    def _spec_bytes(self, parent, args, kwargs):
        self.counts["specio.spec_bytes"] += len(args[0])
        return args, kwargs

    def _report_bytes(self, result):
        self.counts["specio.report_bytes"] += len(result)
        return result

    def _frame_field(self, field):
        def request(u):
            self.counts["algebroid.frame_requests"] += 1
            return field(u)

        return self.span("algebroid", "algebroid.frame_field", request)

    def _chart(self, obj):
        """Copy of a built object with its chart maps wrapped as chart spans."""
        if not dataclasses.is_dataclass(obj):
            return obj
        names = {f.name for f in dataclasses.fields(obj)}
        changes = {
            m: self.span("chart", f"chart.{m}", getattr(obj, m))
            for m in CHART_MAPS
            if m in names and callable(getattr(obj, m))
        }
        if "lagrangian" in names:
            changes["lagrangian"] = self.span("chart", "chart.lagrangian", obj.lagrangian)
        return dataclasses.replace(obj, **changes) if changes else obj

    def _hooks(self, layer, fname):
        name = f"{layer}.{fname}"
        if name == "newton.newton_solve":
            return self._count_residual, None
        if name == "numdiff.jacobian":
            return self._jacobian_in_newton, None
        if layer == "kernels" and fname in SCANS:
            return self._scan_triples(fname), None
        if name == "kernels.oct_mul_many":
            return self._oct_pairs, None
        if name == "specio.parse_spec":
            return self._spec_bytes, None
        if name in ("specio.canonical_json", "specio.write_csv"):
            return None, self._report_bytes
        if name == "algebroid.make_frame_field":
            return None, self._frame_field
        if layer == "specio" and fname.startswith("build_"):
            return None, self._chart
        return None, None

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = {n: m for n, m in sys.modules.items() if n == "loopoid_lab" or n.startswith("loopoid_lab.")}
        wrappers = {}
        for short, layer in MODULE_LAYERS.items():
            mod = modules[f"loopoid_lab.{short}"]
            for fname, fn in vars(mod).items():
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                before, after = self._hooks(layer, fname)
                wrappers[id(fn)] = (fn, self.span(layer, f"{layer}.{fname}", fn, before, after))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self):
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        for name in COUNTERS:
            out[name] = (self.counts[name], "bytes" if name.endswith("_bytes") else "count")
        evals = self.counts["newton.residual_evals"]
        requests = self.counts["algebroid.frame_requests"]
        out["newton.useful_eval_ratio"] = (self.counts["newton.iterations"] / evals if evals else 0.0, "ratio")
        out["algebroid.frame_hit_ratio"] = (
            1.0 - self.counts["algebroid.frames_built"] / requests if requests else 0.0,
            "ratio",
        )
        return out
