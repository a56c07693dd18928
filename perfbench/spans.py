"""Spans around the library's public functions, patched in from outside.

``Tracer.install`` replaces every public function of the ``specfun``,
``pricing``, ``calibrate``, ``verify`` and ``process`` modules (the names in
each module's ``__all__``) with a wrapper that records a span: name, start,
end and the span that called it.  The wrapper is put in place of the
function wherever the package holds a reference to it, so calls between
modules (``calibrate`` calling ``call_prices``) are seen too.  A function a
later version removes is simply not wrapped and its figures read zero.

Spans are kept in memory only while an operation of the benchmark runs,
not while its output is checked, and only up to ``MAX_KEPT_SPANS`` of them
are kept for the results file; the per-function totals that the per-layer
metrics come from are summed over every span.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("specfun", "pricing", "calibrate", "verify", "process")
MAX_KEPT_SPANS = 200_000


def _size(value) -> int:
    return int(np.size(value))


# how many items (points, strikes) one call handles, for the functions that
# have a natural count
ITEMS = {
    "specfun.chi2_noncentral_sf_cdf": lambda a, k: max(_size(a[0]), _size(a[2])),
    "pricing.call_prices": lambda a, k: _size(a[3]),
    "pricing.transition_density": lambda a, k: _size(a[3]),
}


class Stat:
    __slots__ = ("calls", "inclusive", "self_time", "items", "in_fit")

    def __init__(self) -> None:
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.items = 0
        self.in_fit = 0.0  # inclusive time of calls made under calibrate.fit


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.stats: dict[str, Stat] = {}
        self.spans: list = []
        self.span_count = 0
        self._stack: list = []  # [span id, name, start, child time]
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        items_of = ITEMS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self.span_count
            self.span_count += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[2]
                stat.calls += 1
                stat.inclusive += duration
                stat.self_time += duration - frame[3]
                if items_of is not None:
                    stat.items += items_of(args, kwargs)
                if any(f[1] == "calibrate.fit" for f in self._stack):
                    stat.in_fit += duration
                if self._stack:
                    self._stack[-1][3] += duration
                if len(self.spans) < MAX_KEPT_SPANS:
                    self.spans.append((span_id, parent, name, frame[2], end))

        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"msfcev.{layer}")
                   for layer in LAYERS}
        everywhere = [importlib.import_module("msfcev")] + list(modules.values())
        targets = []
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    targets.append((f"{layer}.{attr}", fn))
        # the objective is private; it is counted when it exists
        objective = getattr(modules["calibrate"], "_objective", None)
        if inspect.isfunction(objective):
            targets.append(("calibrate._objective", objective))
        for name, fn in targets:
            wrapper = self._wrap(name, fn)
            for module in everywhere:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- figures -----------------------------------------------------------

    def total(self, field: str, *names: str) -> float:
        return sum(getattr(self.stats[n], field) for n in names if n in self.stats)

    def layer_self(self, layer: str) -> float:
        return sum(s.self_time for n, s in self.stats.items()
                   if n.startswith(layer + "."))

    def metrics(self, rounds: int) -> dict:
        """Per-layer figures, each per round of the workload."""
        ncx2 = ("specfun.chi2_noncentral_sf", "specfun.chi2_noncentral_cdf",
                "specfun.chi2_noncentral_sf_cdf")
        bessel = ("specfun.bessel_i", "specfun.bessel_i_scaled",
                  "specfun.log_bessel_i")
        kummer = ("specfun.kummer_m", "specfun.whittaker_m")
        points = sum(self.stats[n].items if n in ITEMS else self.stats[n].calls
                     for n in ncx2 if n in self.stats)
        fit_s = self.total("inclusive", "calibrate.fit")
        pricing_in_fit = self.total("in_fit", "pricing.call_prices")
        per = 1.0 / rounds
        return {
            "specfun.ncx2_s": (self.total("inclusive", *ncx2) * per, "s"),
            "specfun.ncx2_calls": (self.total("calls", *ncx2) * per, "count"),
            "specfun.ncx2_points": (points * per, "count"),
            "specfun.bessel_s": (self.total("inclusive", *bessel) * per, "s"),
            "specfun.bessel_calls": (self.total("calls", *bessel) * per, "count"),
            "specfun.kummer_s": (self.total("inclusive", *kummer) * per, "s"),
            "specfun.self_s": (self.layer_self("specfun") * per, "s"),
            "pricing.phi_s": (self.total("inclusive", "pricing.effective_variance") * per, "s"),
            "pricing.call_prices_s": (self.total("inclusive", "pricing.call_prices") * per, "s"),
            "pricing.call_prices_calls": (self.total("calls", "pricing.call_prices") * per, "count"),
            "pricing.density_s": (self.total("inclusive", "pricing.transition_density") * per, "s"),
            "pricing.self_s": (self.layer_self("pricing") * per, "s"),
            "calibrate.objective_evals": (self.total("calls", "calibrate._objective") * per, "count"),
            "calibrate.fit_s": (fit_s * per, "s"),
            "calibrate.pricing_s": (pricing_in_fit * per, "s"),
            "calibrate.pricing_share": (pricing_in_fit / fit_s if fit_s else 0.0, "ratio"),
            "calibrate.optimizer_self_s": (self.layer_self("calibrate") * per, "s"),
            "verify.solve_fpe_s": (self.total("inclusive", "verify.solve_fpe") * per, "s"),
            "verify.mc_s": (self.total("inclusive", "verify.mc_price_msfbs",
                                       "verify.mc_price_cev_classical") * per, "s"),
            "verify.quadrature_s": (self.total("inclusive", "verify.quadrature_price",
                                               "pricing.effective_variance_quadrature",
                                               "verify.effective_variance_quadrature")
                                    * per, "s"),
            "verify.self_s": (self.layer_self("verify") * per, "s"),
            "process.covariance_s": (self.total("inclusive", "process.covariance_matrix") * per, "s"),
            "process.sample_s": (self.total("inclusive", "process.sample_msfbm") * per, "s"),
            "process.self_s": (self.layer_self("process") * per, "s"),
        }
