"""Spans and counters for the traced run.

The traced run replaces public ntdice functions by timing wrappers in
every ntdice module that binds them (``ntdice.algebra.classify`` as well
as ``ntdice.core.classify``), so calls made inside the package are seen
too.  Each call records a span [name, start, end, parent]; spans stay in
memory and are written out when the run ends.  ``restore`` puts every
original function back and reports whether it did.
"""

from __future__ import annotations

import json
import os
import time
from types import ModuleType

# (span name, defining module, function); enumerate_words is split by use.
LAYER_FUNCTIONS = (
    ("core.classify", "core", "classify"),
    ("algebra.is_irreducible", "algebra", "is_irreducible"),
    ("rewriting.find_shift_sites", "rewriting", "find_shift_sites"),
    ("rewriting.apply_move", "rewriting", "apply_move"),
    ("rewriting.similar", "rewriting", "similar"),
    ("rewriting.similarity_class", "rewriting", "similarity_class"),
    ("constructions.optimize", "constructions", "optimize_max_prob"),
    ("constructions.max_shift_rounds", "constructions", "max_shift_rounds"),
    ("constructions.construct", "constructions", "construct_irreducible"),
    ("constructions.construct", "constructions", "construct_near_half"),
    ("constructions.bound_report", "constructions", "bound_report"),
    ("enumeration.enumerate", "enumeration", "enumerate_words"),
    ("enumeration.cache_write", "enumeration", "cache_stats"),
    ("enumeration.cache_load", "enumeration", "load_stats"),
    ("enumeration.fair_census", "enumeration", "verify_fair_conjecture"),
)

MODULES = ("", ".core", ".algebra", ".rewriting", ".constructions", ".enumeration", ".cli")


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[ModuleType, str, object]] = []

    def add(self, key: str, value: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    # -- wrapping -----------------------------------------------------------

    def install(self, package: ModuleType) -> None:
        """Wrap every binding of the layer functions in the package."""
        import importlib

        modules = [importlib.import_module(package.__name__ + suffix) for suffix in MODULES]
        for name, home, attr in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"{package.__name__}.{home}"), attr)
            wrapped = self._wrap(name, attr, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
                    self._patched.append((module, attr, original))

    def restore(self) -> bool:
        """Put back every original function; True when all are back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        ok = all(getattr(module, attr) is original for module, attr, original in self._patched)
        self._patched.clear()
        return ok

    def _wrap(self, name: str, attr: str, original):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            if attr == "enumerate_words":
                consumer = kwargs.get("consumer")
                if consumer is not None:
                    span_name = "enumeration.stream"

                    def counted(word, verdict, _inner=consumer):
                        tracer.add("deliveries")
                        _inner(word, verdict)

                    kwargs["consumer"] = counted
                else:
                    span_name = "enumeration.stats"
            idx = tracer.begin(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer._count(attr, span_name, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _count(self, attr, span_name, args, result) -> None:
        if attr == "classify":
            self.add("classify_letters", len(args[0]))
        elif attr == "find_shift_sites":
            self.add("sites_listed", len(result))
        elif attr == "apply_move":
            if type(args[1]).__name__ == "TripleShift":
                self.add("shifts_applied")
        elif attr == "similar":
            self.add("bfs_states", result.explored)
        elif attr == "similarity_class":
            self.add("bfs_states", len(result[0]))
        elif attr == "optimize_max_prob":
            self.add("optimize_moves", len(result.moves.moves))
        elif attr == "enumerate_words":
            kind = "stream_words" if span_name == "enumeration.stream" else "stats_words"
            self.add(kind, result.total_words)
        elif attr == "cache_stats":
            self.add("stats_file_bytes", os.path.getsize(args[1]))

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds (minus children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[idx]
        return out

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of child_name spans whose direct parent is a parent_name span."""
        spans = self.spans
        return sum(
            1 for name, _, _, parent in spans
            if name == child_name and parent >= 0 and spans[parent][0] == parent_name
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
            fh.write("\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced run, per timed round.

    A layer the workload does not call reads 0.  Times and counts are
    divided by the number of rounds, so runs of different length compare.
    """
    t = tracer.totals()
    c = tracer.counts

    def s(name: str, key: str = "s") -> float:
        return t.get(name, {}).get(key, 0.0)

    def calls(name: str) -> int:
        return int(t.get(name, {}).get("calls", 0))

    per = 1.0 / rounds
    bfs_s = s("rewriting.similar") + s("rewriting.similarity_class")
    checks = calls("algebra.is_irreducible")
    return {
        "core.classify_calls": (calls("core.classify") * per, "count"),
        "core.classify_s": (s("core.classify") * per, "s"),
        "core.letters_per_s": (_ratio(c.get("classify_letters", 0), s("core.classify")), "1/s"),
        "algebra.is_irreducible_s": (s("algebra.is_irreducible") * per, "s"),
        "algebra.is_irreducible_self_s": (s("algebra.is_irreducible", "self_s") * per, "s"),
        "algebra.classify_per_check": (
            _ratio(tracer.children_of("algebra.is_irreducible", "core.classify"), checks), "count"),
        "rewriting.find_shift_sites_s": (s("rewriting.find_shift_sites") * per, "s"),
        "rewriting.apply_move_s": (s("rewriting.apply_move") * per, "s"),
        "rewriting.sites_listed": (c.get("sites_listed", 0) * per, "count"),
        "rewriting.sites_used_ratio": (
            _ratio(c.get("shifts_applied", 0), c.get("sites_listed", 0)), "ratio"),
        "rewriting.bfs_states": (c.get("bfs_states", 0) * per, "count"),
        "rewriting.bfs_s": (bfs_s * per, "s"),
        "rewriting.bfs_states_per_s": (_ratio(c.get("bfs_states", 0), bfs_s), "1/s"),
        "constructions.optimize_s": (s("constructions.optimize") * per, "s"),
        "constructions.optimize_self_s": (s("constructions.optimize", "self_s") * per, "s"),
        "constructions.optimize_moves": (c.get("optimize_moves", 0) * per, "count"),
        "constructions.max_shift_rounds_s": (s("constructions.max_shift_rounds") * per, "s"),
        "constructions.construct_s": (s("constructions.construct") * per, "s"),
        "constructions.bound_report_s": (s("constructions.bound_report") * per, "s"),
        "enumeration.stats_s": (s("enumeration.stats") * per, "s"),
        "enumeration.stats_words_per_s": (
            _ratio(c.get("stats_words", 0), s("enumeration.stats")), "1/s"),
        "enumeration.parallel_speedup": (0.0, "ratio"),  # measured by the census workload
        "enumeration.cache_write_s": (s("enumeration.cache_write") * per, "s"),
        "enumeration.cache_load_s": (s("enumeration.cache_load") * per, "s"),
        "enumeration.stats_file_bytes": (c.get("stats_file_bytes", 0) * per, "bytes"),
        "enumeration.stream_s": (s("enumeration.stream") * per, "s"),
        "enumeration.stream_words_per_s": (
            _ratio(c.get("stream_words", 0), s("enumeration.stream")), "1/s"),
        "enumeration.match_ratio": (
            _ratio(c.get("deliveries", 0), c.get("stream_words", 0)), "ratio"),
        "enumeration.fair_census_self_s": (s("enumeration.fair_census", "self_s") * per, "s"),
    }
