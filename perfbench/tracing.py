"""Outside-in layer trace for the traced benchmark run.

Each hooked layer function is wrapped by replacing the module attribute
in every ``korenblum`` module that bound the same object (``integrate``
lives in ``quadrature``, ``weights`` and ``refuter``; ``weighted_norm``
in ``analytic``, ``cli``, ``certifier`` and ``refuter``), and weight
methods are wrapped on the classes that define them. A wrapper records
a span (name, start, end, parent, job) in memory and bumps the layer's
work counters from the call's arguments or result. Nothing inside the
package changes; :meth:`Tracer.uninstall` puts every original back.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

_NS = "korenblum"


class Tracer:
    """Spans and counters of one traced pass over a deck."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self._stack = [-1]
        self.job_index = -1
        self.counts: dict[str, float] = {}
        self.job_counts: list[dict[str, float]] = []
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def bump(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount
        per_job = self.job_counts[self.job_index]
        per_job[key] = per_job.get(key, 0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)
        per_job = self.job_counts[self.job_index]
        per_job[key] = max(per_job.get(key, 0), value)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_index)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def begin_job(self) -> int:
        self.job_index += 1
        self.job_counts.append({})
        return self.open("cli.main")

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, home: str, attr: str, make_wrapper) -> None:
        try:
            original = getattr(importlib.import_module(f"{_NS}.{home}"), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{home}.{attr}")
            return
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == _NS and getattr(mod, attr, None) is original:
                self._patched.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def _replace_methods(self, method: str, make_wrapper) -> None:
        from korenblum import weights

        found = False
        for cls in vars(weights).values():
            if isinstance(cls, type) and issubclass(cls, weights.RadialWeight) and method in vars(cls):
                original = vars(cls)[method]
                self._patched.append((cls, method, original))
                setattr(cls, method, make_wrapper(original))
                found = True
        if not found:
            self.missing.append(f"weights.{method}")

    def install(self) -> None:
        for home, attr, name, count in _FUNCTION_HOOKS:
            self._replace_everywhere(home, attr, lambda fn, n=name, c=count: self._span(n, fn, c))
        for method in ("integrate_against", "power_mass"):
            self._replace_methods(method, lambda fn, n=f"weights.{method}": self._span(n, fn, _count_calls))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _span(self, name, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                args, kwargs = count.before(tracer, name, args, kwargs)
                result = fn(*args, **kwargs)
            except BaseException as exc:
                count.failed(tracer, name, exc)
                raise
            finally:
                tracer.close(sid)
            count.after(tracer, name, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ----------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "job": np.frombuffer(self.job, dtype=np.int32),
            "dur": dur,
            "self": dur - child,
        }

    def times(self) -> dict[str, float]:
        """Inclusive seconds per span name (``<name>.s``) and self seconds per layer."""
        spans = self.span_arrays()
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            mask = spans["name"] == nid
            out[f"{name}.s"] = float(spans["dur"][mask].sum())
            out[f"{name}.self_s"] = float(spans["self"][mask].sum())
            layer = name.split(".")[0]
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + out[f"{name}.self_s"]
        return out


class _Count:
    """Counter hooks run around one wrapped call; the default counts calls."""

    def before(self, tracer, name, args, kwargs):
        tracer.bump(f"{name}.calls")
        return args, kwargs

    def after(self, tracer, name, args, kwargs, result):
        pass

    def failed(self, tracer, name, exc):
        pass


_count_calls = _Count()


class _Quadrature(_Count):
    """Panels are calls of the integrand: one per 15-node Gauss panel."""

    def before(self, tracer, name, args, kwargs):
        tracer.bump(f"{name}.calls")
        f = args[0] if args else kwargs.pop("f")

        def counted(x):
            tracer.bump("quadrature.panels")
            return f(x)

        return (counted, *args[1:]), kwargs

    def failed(self, tracer, name, exc):
        if type(exc).__name__ == "QuadratureDivergence":
            tracer.bump("quadrature.divergences")


class _InverseH(_Count):
    def after(self, tracer, name, args, kwargs, result):
        rho = args[0] if args else kwargs["rho"]
        tracer.bump("schuster.F_points", int(np.size(rho)))


class _MeanBatch(_Count):
    """A batch that returns unconverged stopped at the angular cap."""

    def after(self, tracer, name, args, kwargs, result):
        p = args[2] if len(args) > 2 else kwargs["p"]
        tol = args[3] if len(args) > 3 else kwargs["tol"]
        vals, diff = result
        means = np.asarray(vals) ** (1.0 / p)
        if not np.all(diff <= tol * np.maximum(means, 1e-300)):
            tracer.bump("analytic.angular_cap_hits")


class _Angular(_Count):
    def after(self, tracer, name, args, kwargs, result):
        radii = args[1] if len(args) > 1 else kwargs["radii"]
        n = int(args[3] if len(args) > 3 else kwargs["n"])
        tracer.bump("analytic.angular_nodes", int(np.size(radii)) * n)
        tracer.peak("analytic.max_angular_n", n)


class _Domination(_Count):
    def after(self, tracer, name, args, kwargs, result):
        n_r, n_a = result.grid
        tracer.bump("certifier.domination_points", n_r * n_a)
        if not result.conclusive:
            tracer.bump("certifier.inconclusive")


class _Counterexample(_Count):
    def failed(self, tracer, name, exc):
        if type(exc).__name__ == "NoWitnessFound":
            tracer.bump("refuter.no_witness")


# (home module, attribute, span name, counter hooks)
_FUNCTION_HOOKS = (
    ("quadrature", "integrate", "quadrature.integrate", _Quadrature()),
    ("schuster", "inverse_H", "schuster.inverse_H", _InverseH()),
    ("analytic", "weighted_norm", "analytic.weighted_norm", _count_calls),
    ("analytic", "_mean_pow_batch", "analytic.mean_batch", _MeanBatch()),
    ("analytic", "_abs_pow_means", "analytic.angular", _Angular()),
    ("certifier", "certify", "certifier.certify", _count_calls),
    ("certifier", "check_domination", "certifier.check_domination", _Domination()),
    ("refuter", "find_counterexample", "refuter.find_counterexample", _Counterexample()),
    ("refuter", "monomial_upper_bound", "refuter.monomial_upper_bound", _count_calls),
)
