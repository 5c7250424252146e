"""Per-layer tracing installed from outside the package.

``Tracer.install()`` replaces the public functions of each postselect module
with timing wrappers.  Modules import kernel names directly
(``from .kernels import delta``), so a function is replaced under every name
that refers to it in every postselect module, not only in the module that
defines it.  Spans are kept in memory (name, start, end, parent) and written
out by ``write_spans`` when the run ends; self time is a span's duration minus
the durations of its direct children.  Each thread keeps its own span stack:
the simulator's worker threads open root spans, so a ``simulate`` span's self
time includes the time it waits for its workers.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from collections import defaultdict

# (module, attribute) of every traced function; the span name is
# "<module>.<attribute>".
TRACED_FUNCTIONS = {
    "kernels": (
        "integrate_against_h",
        "chi_scaled_density",
        "delta",
        "gaussian_region_prob",
        "normals_from_stream",
    ),
    "model": (
        "xi_from_gram",
        "conditional_from_gram",
        "component_covariance",
        "restricted_ls_mean",
    ),
    "selection": (
        "selection_prob_known",
        "selection_prob_unknown",
        "restricted_fit_operators",
    ),
    "distribution": (
        "cdf_known_variance",
        "cdf_unknown_variance",
        "density_known_variance",
        "density_unknown_variance",
        "two_regressor_density",
    ),
    "asymptotic": (
        "limit_cdf",
        "limit_selection_prob",
        "local_alternative_limit",
    ),
    "montecarlo": (
        "simulate",
        "ks_distance",
        "empirical_cdf",
        "write_report_csv",
    ),
}
ENGINE_METHODS = ("weight", "term_cdf", "term_density")
# Counters the wrappers record, with their units.
COUNTS = {
    "kernels.integrate_against_h.neval": "count",
    "kernels.quad.neval": "count",
    "kernels.qmc_points": "count",
    "kernels.normals_from_stream.normals": "count",
    "model.cho_factor.calls": "count",
    "model.ill_conditioned": "count",
    "mixture.engines": "count",
    "montecarlo.write_report_csv.bytes": "B",
}
MODULES = ("kernels", "model", "mixture", "selection", "distribution",
           "asymptotic", "montecarlo", "config", "cli")


def region_path(comp) -> str:
    """Integration path gaussian_region_prob takes for a component."""
    try:
        if comp.rank == 0:
            return "point"
        return "quad1d" if comp.k == 1 and comp.covariance[0, 0] > 0.0 else "qmc"
    except (AttributeError, IndexError, TypeError):
        return "other"


class Tracer:
    """In-memory span recorder with per-name call, time and self-time totals."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[list]:
        """This thread's open spans: [span index, name, start, child seconds]."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)  # filled on exit, keeps causal order
        self._stack().append([index, name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        stack = self._stack()
        index, name, start, child = stack.pop()
        dur = end - start
        parent = stack[-1][0] if stack else -1
        if stack:
            stack[-1][3] += dur
        with self._lock:
            self.spans[index] = (name, start, end, parent)
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - child

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def innermost(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def timed(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, original, replacement, namespaces) -> None:
        """Point every name bound to ``original`` in ``namespaces`` at ``replacement``."""
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._set(ns, key, replacement)

    def _wrap(self, name: str, fn, ill_conditioned):
        tracer = self

        def wrapper(*args, **kwargs):
            span = name
            if name == "kernels.gaussian_region_prob":
                span = f"{name}.{region_path(args[0] if args else kwargs.get('comp'))}"
            tracer.enter(span)
            try:
                out = fn(*args, **kwargs)
            except ill_conditioned as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    tracer.count("model.ill_conditioned")
                raise
            finally:
                tracer.exit()
            if name == "kernels.normals_from_stream":
                tracer.count("kernels.normals_from_stream.normals", getattr(out, "size", 0))
            elif name == "montecarlo.write_report_csv":
                path = args[1] if len(args) > 1 else kwargs.get("path")
                if path is not None and os.path.isfile(path):
                    tracer.count("montecarlo.write_report_csv.bytes", os.path.getsize(path))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every traced function under every name that refers to it.

        A function, method or module the package no longer has is skipped,
        so its metrics read 0 instead of the traced run failing.
        """
        import numpy.linalg
        import scipy.integrate
        import scipy.linalg
        import scipy.stats.qmc

        mods = {}
        for m in MODULES:
            try:
                mods[m] = importlib.import_module(f"postselect.{m}")
            except ImportError:
                continue
        namespaces = [importlib.import_module("postselect"), *mods.values()]
        ill = getattr(mods.get("model"), "IllConditionedError", ())

        for mod_name, attrs in TRACED_FUNCTIONS.items():
            for attr in attrs:
                original = getattr(mods.get(mod_name), attr, None)
                if original is not None:
                    self._replace(original, self._wrap(f"{mod_name}.{attr}", original, ill),
                                  namespaces)

        engine = getattr(mods.get("mixture"), "MixtureEngine", None)
        if engine is not None:
            for attr in ENGINE_METHODS:
                if hasattr(engine, attr):
                    self._set(engine, attr,
                              self._wrap(f"mixture.{attr}", getattr(engine, attr), ill))
            self._set(engine, "__init__", self._counted("mixture.engines", engine.__init__))

        # Library functions are replaced in the library module as well as under
        # any name a postselect module imported them as, so the counts hold
        # whichever way the package calls them.
        for lib, attr in ((scipy.linalg, "cho_factor"), (scipy.linalg, "cholesky"),
                          (numpy.linalg, "cholesky")):
            original = getattr(lib, attr)
            self._replace(original, self._counted("model.cho_factor.calls", original),
                          [lib, *namespaces])

        tracer = self

        def record_neval(neval: int) -> None:
            tracer.count("kernels.quad.neval", neval)
            if tracer.innermost() == "kernels.integrate_against_h":
                tracer.count("kernels.integrate_against_h.neval", neval)

        # scipy's adaptive rules report their integrand evaluation counts
        # when the caller asks for full output, as the package does.
        original_quad, original_quad_vec = scipy.integrate.quad, scipy.integrate.quad_vec

        def quad(*args, **kwargs):
            out = original_quad(*args, **kwargs)
            if kwargs.get("full_output"):
                record_neval(int(out[2]["neval"]))
            return out

        def quad_vec(*args, **kwargs):
            out = original_quad_vec(*args, **kwargs)
            if kwargs.get("full_output"):
                record_neval(int(out[2].neval))
            return out

        self._replace(original_quad, quad, [scipy.integrate, *namespaces])
        self._replace(original_quad_vec, quad_vec, [scipy.integrate, *namespaces])

        original_sobol = scipy.stats.qmc.Sobol

        class Sobol(original_sobol):
            def random(self, n=1, *args, **kwargs):
                tracer.count("kernels.qmc_points", n)
                return super().random(n, *args, **kwargs)

        self._replace(original_sobol, Sobol, [scipy.stats.qmc, *namespaces])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One line per span: index, parent index, name, start and end (s)."""
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            fh.writelines(
                f"{i},{parent},{name},{start:.9f},{end:.9f}\n"
                for i, (name, start, end, parent) in enumerate(self.spans)
            )
