"""Per-layer tracing of skeinlab, installed from outside the program.

`Tracer.install()` wraps every public function of the skeinlab modules and
a few public methods, and rebinds each wrapper wherever the original is
bound: the defining module and every module that did `from .x import f`.
`uninstall()` puts the originals back.

Two kinds of wrapper:

* spans, at layer boundaries (linmap, braid, planar, rmatrix, switchback,
  identities, cli).  A span's self time is its duration minus the spans
  and scalar calls it covers.  Spans are aggregated per name (calls and
  self seconds) rather than stored, because a run makes millions.
* the scalar boundary (arithmetic on GaussRat, LaurentA, RatFunA and Dual,
  ring constructors, promotion, text).  Only calls made from outside the
  scalar layer are counted and timed; calls it makes to itself are not.

Work the tracer itself does (counting nonzeros for the compose ratio) is
timed separately as bookkeeping and taken out of the enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
import types
from collections import defaultdict
from time import perf_counter

from skeinlab import braid, cli, identities, linmap, planar, rmatrix, scalars, switchback

MODULES = (scalars, linmap, planar, switchback, rmatrix, braid, identities, cli)

# Public methods traced as spans (class -> methods).  Small accessors such as
# LinearMap.entry and the scalars' is_zero are left inside their caller's
# self time: wrapping them would multiply the tracing overhead.
SPAN_METHODS = {
    linmap.LinearMap: ("__add__", "__sub__", "__neg__", "scale", "is_zero", "identity", "zero"),
}

SCALAR_CLASSES = {
    scalars.GaussRat: "gauss",
    scalars.LaurentA: "laurent",
    scalars.RatFunA: "ratfun",
    scalars.Dual: "dual",
}
# counted operation for each scalar method; None = timed but not counted
SCALAR_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
    "__mul__": "mul", "__rmul__": "mul",
    "inv": "inv", "__truediv__": "inv", "__rtruediv__": "inv",
    "__neg__": None, "__pow__": None,
}
SCALAR_FUNCTIONS = ("promote", "demote", "specialize")
TEXT_FUNCTIONS = ("format_scalar", "parse_scalar")

# Span groups behind the per-layer metric names.  Functions outside every
# group still appear in the full per-function table.
GROUPS = {
    "linmap.compose": ("linmap.compose",),
    "linmap.tensor": ("linmap.tensor", "linmap.tensor_all"),
    "linmap.elementwise": tuple(f"linmap.LinearMap.{m}" for m in (
        "__add__", "__sub__", "__neg__", "scale", "is_zero")),
    "linmap.trace": ("linmap.partial_trace", "linmap.partial_trace_last",
                     "linmap.full_trace", "linmap.trace_of_product"),
    "linmap.rref": ("linmap.rref",),
    "braid.r_of_word": ("braid.r_of_word",),
    "braid.turaev": ("braid.make_turaev", "braid.make_nu", "braid.solve_uv",
                     "braid.turaev_first_failure", "braid.verify_turaev"),
    "planar.state_sum": ("planar.bracket_state_sum", "planar.jones_polynomial"),
    "rmatrix.tl": ("rmatrix.tl_generators", "rmatrix.tl_first_failure",
                   "rmatrix.verify_tl_relations"),
    "rmatrix.ybe": ("rmatrix.ybe_residual", "rmatrix.verify_ybe"),
    "rmatrix.build": ("rmatrix.build_R", "rmatrix.cupcap",
                      "rmatrix.solve_deformed_coefficients"),
    "switchback.matrices": ("switchback.d1_matrix", "switchback.d2_matrix",
                            "switchback.d3_matrix"),
    "switchback.cohomology": ("switchback.cohomology_dims", "switchback.solve_2cocycles",
                              "switchback.z3_solve", "switchback.z1_check"),
    "switchback.deform": ("switchback.deform", "switchback.verify_switchback",
                          "switchback.switchback_residuals",
                          "switchback.deformation_obstruction"),
    "switchback.degree2": ("switchback.degree2_analysis",),
    "identities.check_d2d1": ("identities.check_d2d1", "identities.d2d1_residual"),
    "identities.evaluate": ("identities.evaluate", "identities.evaluate_expr"),
    "identities.infiltrate": ("identities.infiltrate", "identities.elaborate",
                              "identities.one_differential"),
}
HARNESS = "harness.item"


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0])   # name -> [calls, self_s]
        self.frames = [[0.0]]                        # covered time per open span
        self.scalar_counts = defaultdict(int)
        self.scalar_s = 0.0
        self.text_s = 0.0
        self.bookkeeping_s = 0.0
        self.in_scalar = False
        self.ratfun_results = 0
        self.ratfun_nontrivial = 0
        self.stats = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, before=None):
        """Wrap fn as a span; `before(args)` records counts ahead of the call."""
        spans, frames = self.spans, self.frames

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                b0 = perf_counter()
                before(args)
                spent = perf_counter() - b0
                self.bookkeeping_s += spent
                frames[-1][0] += spent
            frame = [0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                frames.pop()
                rec = spans[name]
                rec[0] += 1
                rec[1] += dur - frame[0]
                frames[-1][0] += dur

        return wrapper

    def scalar(self, fn, count_key=None, ratfun=False, text=False):
        """Wrap a scalar-layer callable: time and count outermost calls only."""
        frames, counts = self.frames, self.scalar_counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.in_scalar:
                return fn(*args, **kwargs)
            self.in_scalar = True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.in_scalar = False
                self.scalar_s += dt
                if text:
                    self.text_s += dt
                frames[-1][0] += dt
            if count_key is not None:
                counts[count_key] += 1
                if ratfun and isinstance(out, scalars.RatFunA):
                    self.ratfun_results += 1
                    terms = out.den.terms
                    if len(terms) != 1 or terms[0][0] != 0:
                        self.ratfun_nontrivial += 1
            return out

        return wrapper

    @contextlib.contextmanager
    def suspended(self):
        """Scalar calls made inside are neither counted nor timed; their
        time stays with the enclosing span (used for the harness's checks)."""
        self.in_scalar = True
        try:
            yield
        finally:
            self.in_scalar = False

    # -- counts taken ahead of a call --------------------------------------

    def _compose_stats(self, args):
        f, g = args[0], args[1]
        n, k, m = len(f.rows), len(g.rows), len(g.rows[0]) if g.rows else 0
        col_nnz = [0] * k
        for row in f.rows:
            for t, x in enumerate(row):
                if not x.is_zero():
                    col_nnz[t] += 1
        row_nnz = [sum(1 for x in row if not x.is_zero()) for row in g.rows]
        self.stats["compose.useful"] += sum(a * b for a, b in zip(col_nnz, row_nnz))
        self.stats["compose.iterations"] += n * k * m
        self.stats["compose.max_dim"] = max(self.stats["compose.max_dim"], n, k, m)

    def _rref_stats(self, args):
        rows = args[0]
        cells = len(rows) * (len(rows[0]) if rows else 0)
        self.stats["rref.max_cells"] = max(self.stats["rref.max_cells"], cells)

    def _letters(self, args):
        self.stats["braid.letters"] += len(args[1].letters)

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        # the raw entry, so that a staticmethod is restored as one
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        before = {
            "linmap.compose": self._compose_stats,
            "linmap.rref": self._rref_stats,
            "braid.r_of_word": self._letters,
        }
        wrapped = {}   # original function -> wrapper
        for mod in MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                if mod is scalars:
                    if attr in SCALAR_FUNCTIONS or attr in TEXT_FUNCTIONS:
                        wrapped[obj] = self.scalar(obj, text=attr in TEXT_FUNCTIONS)
                    continue
                name = f"{short}.{attr}"
                wrapped[obj] = self.span(name, obj, before.get(name))
        # rebind wherever bound, including `from .linmap import compose`
        for mod in MODULES:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        for cls, methods in SPAN_METHODS.items():
            prefix = f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}"
            for m in methods:
                raw = cls.__dict__[m]
                if isinstance(raw, staticmethod):
                    self._set(cls, m, staticmethod(self.span(f"{prefix}.{m}", raw.__func__)))
                else:
                    self._set(cls, m, self.span(f"{prefix}.{m}", raw))
        self._set(planar.PlanarMatching, "__mul__", self._counted(planar.PlanarMatching.__mul__))
        for cls, ring in SCALAR_CLASSES.items():
            for m, op in SCALAR_OPS.items():
                if m not in cls.__dict__:
                    continue
                key = None if op is None else f"scalars.{ring}.{op}"
                self._set(cls, m, self.scalar(cls.__dict__[m], key, ratfun=ring == "ratfun"))
        for m in ("zero", "one", "from_int"):
            self._set(scalars.Ring, m, self.scalar(scalars.Ring.__dict__[m]))

    def _counted(self, fn):
        stats = self.stats

        @functools.wraps(fn)
        def wrapper(*args):
            stats["planar.diagram_products"] += 1
            return fn(*args)

        return wrapper

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def attributed_s(self) -> float:
        """Self time of every span (the harness's own included), plus the
        scalar layer and the tracer's bookkeeping."""
        return sum(s for _, s in self.spans.values()) + self.scalar_s + self.bookkeeping_s

    def group(self, name: str) -> tuple[int, float]:
        members = GROUPS.get(name, (name,))
        return (sum(self.spans[m][0] for m in members if m in self.spans),
                sum(self.spans[m][1] for m in members if m in self.spans))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for ring in SCALAR_CLASSES.values():
            for op in ("mul", "add", "inv"):
                key = f"scalars.{ring}.{op}"
                out[key] = (self.scalar_counts[key], "count")
        out["scalars.self_s"] = (self.scalar_s, "s")
        out["scalars.ratfun.nontrivial_den_ratio"] = (
            self.ratfun_nontrivial / self.ratfun_results if self.ratfun_results else 0.0, "ratio")
        out["scalars.text.self_s"] = (self.text_s, "s")
        calls, self_s = self.group("linmap.compose")
        out["linmap.compose.calls"] = (calls, "count")
        out["linmap.compose.self_s"] = (self_s, "s")
        out["linmap.compose.max_dim"] = (self.stats["compose.max_dim"], "count")
        iters = self.stats["compose.iterations"]
        out["linmap.compose.useful_ratio"] = (
            self.stats["compose.useful"] / iters if iters else 0.0, "ratio")
        for g in ("linmap.tensor", "linmap.elementwise", "linmap.trace"):
            out[f"{g}.self_s"] = (self.group(g)[1], "s")
        calls, self_s = self.group("linmap.rref")
        out["linmap.rref.calls"] = (calls, "count")
        out["linmap.rref.self_s"] = (self_s, "s")
        out["linmap.rref.max_cells"] = (self.stats["rref.max_cells"], "count")
        out["braid.r_of_word.self_s"] = (self.group("braid.r_of_word")[1], "s")
        out["braid.letters"] = (self.stats["braid.letters"], "count")
        out["braid.turaev.self_s"] = (self.group("braid.turaev")[1], "s")
        out["planar.state_sum.self_s"] = (self.group("planar.state_sum")[1], "s")
        out["planar.diagram_products"] = (self.stats["planar.diagram_products"], "count")
        for g in ("rmatrix.tl", "rmatrix.ybe", "rmatrix.build", "switchback.matrices",
                  "switchback.cohomology", "switchback.deform", "switchback.degree2",
                  "identities.check_d2d1", "identities.evaluate", "identities.infiltrate"):
            out[f"{g}.self_s"] = (self.group(g)[1], "s")
        out["cli.main.calls"] = (self.spans["cli.main"][0] if "cli.main" in self.spans else 0,
                                 "count")
        out["cli.self_s"] = (sum(s for n, (_, s) in self.spans.items() if n.startswith("cli.")),
                             "s")
        return out

    def table(self) -> dict[str, list]:
        """Every span as name -> [calls, self_s], for the full report."""
        return {k: [c, round(s, 6)] for k, (c, s) in sorted(self.spans.items())}
