"""Per-layer counts and self times, from wrappers around qcbracket's functions.

A wrapper only counts if calls go through it, so each one is installed where
calls resolve: every module global of the ``qcbracket`` package that holds the
wrapped function (``brackets``, ``explorer`` and ``cli`` import names by
value), the bracket dispatch table, and class attributes for operators.
``uninstall`` puts every original back.

A span's self time is its wall time minus the time of the spans it encloses.
Bookkeeping after a call (such as keying bracket arguments) is charged to no
span; the call counters on coefficient operators are charged to the spans
around them, and show in ``trace.overhead_ratio``.
"""

from __future__ import annotations

import json
import resource
import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

from qcbracket import algebra, brackets, cli, explorer
from qcbracket.brackets import BracketKind

import workloads

GR_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
          "__truediv__", "divided_by_i")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio") or metric.endswith("utilization"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _observable_key(a: algebra.Observable) -> tuple:
    return tuple((m, tuple(sorted(s.terms.items())))
                 for m, s in sorted(a.terms.items(), key=lambda item: item[0]))


class Tracer:
    """Wrappers that count calls and time spans; ``metrics`` reads them out."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._cells = {"algebra.gr_ops": [0], "algebra.series_mul": [0]}
        self._bracket_args: set[tuple] = set()
        self._stack: list[list] = []  # [span name, seconds spent in child spans]
        self._undo: list[tuple[Any, str, Any]] = []

    # --- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if note is not None:
                start = perf_counter()
                note(args, result)
                if stack:
                    stack[-1][1] += perf_counter() - start
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        cell = self._cells[name]

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _bracket(self, kind: BracketKind, fn: Callable) -> Callable:
        def note(args, result):
            self.counts[f"brackets.bracket.calls.{kind.value}"] += 1
            a, b = args
            self._bracket_args.add((kind, _observable_key(a), _observable_key(b)))

        return self._span("brackets.bracket", fn, note)

    def _residual(self, fn: Callable) -> Callable:
        def note(args, result):
            if self._stack and self._stack[-1][0] == "explorer.scan":
                self.counts["explorer.scan.triples"] += 1

        return self._span("brackets.residual", fn, note)

    def _scan(self, fn: Callable) -> Callable:
        def observed(config, jobs=1):
            # Spans inside pool workers are out of scope: take the wrappers out
            # while workers run, so they neither count nor slow the workers.
            if jobs > 1:
                self.uninstall()
            cpu0, start = _children_cpu_s(), perf_counter()
            try:
                records = fn(config, jobs=jobs)
            finally:
                self.counts["explorer.pool.child_cpu_s"] += _children_cpu_s() - cpu0
                self.counts["explorer.pool.capacity_s"] += jobs * (perf_counter() - start)
                if jobs > 1:
                    self.install()
            self.counts["explorer.scan.violations"] += len(records)
            return records

        return self._span("explorer.scan", observed)

    # --- installing -------------------------------------------------------------

    def _set(self, target: Any, key: str, value: Any) -> None:
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, target.__dict__[key]))
            setattr(target, key, value)

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        """Replace ``original`` in every qcbracket module namespace."""
        for name, module in list(sys.modules.items()):
            if name == "qcbracket" or name.startswith("qcbracket."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def install(self) -> None:
        self._rebind(algebra._product, self._span(
            "algebra.product", algebra._product,
            lambda args, result: self.counts.update(
                {"algebra.product.terms_out": len(result.terms)})))
        self._rebind(algebra.divide_by_i_hbar, self._span(
            "algebra.divide_by_i_hbar", algebra.divide_by_i_hbar))
        self._set(algebra.Observable, "__add__",
                  self._span("algebra.add", algebra.Observable.__add__))
        for attr in GR_OPS:
            self._set(algebra.GaussianRational, attr, self._counter(
                "algebra.gr_ops", algebra.GaussianRational.__dict__[attr]))
        for attr in ("__mul__", "__rmul__"):
            self._set(algebra.HbarSeries, attr, self._counter(
                "algebra.series_mul", algebra.HbarSeries.__dict__[attr]))

        # The bracket dispatch table: a bracket nested inside another (the
        # commutator part of aleksandrov) belongs to its caller's self time.
        for value in list(vars(brackets).values()):
            if isinstance(value, dict) and value and all(
                    isinstance(key, BracketKind) for key in value):
                for kind, fn in list(value.items()):
                    self._set(value, kind, self._bracket(kind, fn))
        for fn in (brackets.jacobi_residual, brackets.leibniz_residual,
                   brackets.axiom_residuals):
            self._rebind(fn, self._residual(fn))

        self._rebind(explorer.scan, self._scan(explorer.scan))
        self._rebind(explorer.random_observable, self._span(
            "explorer.random_observable", explorer.random_observable))

        self._rebind(cli.parse, self._span("cli.parse", cli.parse))
        self._rebind(cli.format_observable,
                     self._span("cli.format", cli.format_observable))
        record = cli.OutputRecord
        for attr in ("from_observable", "from_dict"):
            fn = record.__dict__[attr].__func__
            self._set(record, attr, classmethod(self._span("cli.json", fn)))
        for attr in ("as_dict", "to_observable"):
            self._set(record, attr, self._span("cli.json", record.__dict__[attr]))
        self._set(cli, "json", SimpleNamespace(
            dumps=self._span("cli.json", json.dumps), loads=json.loads))
        self._set(workloads, "read_back", self._span("cli.json", workloads.read_back))

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    # --- results ------------------------------------------------------------------

    def metrics(self, reorder_before, reorder_after) -> dict[str, float]:
        """Per-layer values; the reorder arguments are ``cache_info()`` or None."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        bracket_calls = calls["brackets.bracket"]
        capacity = counts["explorer.pool.capacity_s"]
        hits = misses = entries = 0
        if reorder_before is not None and reorder_after is not None:
            hits = reorder_after.hits - reorder_before.hits
            misses = reorder_after.misses - reorder_before.misses
            entries = reorder_after.currsize
        out = {
            "algebra.gr_ops.calls": self._cells["algebra.gr_ops"][0],
            "algebra.series_mul.calls": self._cells["algebra.series_mul"][0],
            "algebra.product.calls": calls["algebra.product"],
            "algebra.product.self_s": self_s["algebra.product"],
            "algebra.product.terms_out": counts["algebra.product.terms_out"],
            "algebra.add.self_s": self_s["algebra.add"],
            "algebra.divide_by_i_hbar.self_s": self_s["algebra.divide_by_i_hbar"],
            "algebra.reorder.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "algebra.reorder.entries": entries,
            "brackets.bracket.calls": bracket_calls,
        }
        for kind in BracketKind:
            out[f"brackets.bracket.calls.{kind.value}"] = counts[
                f"brackets.bracket.calls.{kind.value}"]
        out.update({
            "brackets.bracket.self_s": self_s["brackets.bracket"],
            "brackets.bracket.distinct_arg_ratio":
                len(self._bracket_args) / bracket_calls if bracket_calls else 0.0,
            "brackets.residual.self_s": self_s["brackets.residual"],
            "explorer.scan.triples": counts["explorer.scan.triples"],
            "explorer.scan.violations": counts["explorer.scan.violations"],
            "explorer.scan.self_s": self_s["explorer.scan"],
            "explorer.pool.child_cpu_s": counts["explorer.pool.child_cpu_s"],
            "explorer.pool.utilization":
                counts["explorer.pool.child_cpu_s"] / capacity if capacity else 0.0,
            "explorer.random_observable.self_s": self_s["explorer.random_observable"],
            "cli.parse.self_s": self_s["cli.parse"],
            "cli.format.self_s": self_s["cli.format"],
            "cli.json.self_s": self_s["cli.json"],
        })
        return {name: float(value) if unit_of(name) in ("s", "ratio") else value
                for name, value in out.items()}
