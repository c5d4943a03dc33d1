"""Spans around the public entry points of each tripaths module.

The tracer replaces an entry point with a timing wrapper everywhere a
``tripaths`` module binds it (``from .flows import k_fan`` gives
``tripaths.construct`` its own binding), so calls between modules are
seen without any change under ``src/``.  Spans stay in memory; the
caller writes them out when the run ends.

A span is ``[name, start, end, parent, op, status]``: ``name`` is
``<module>.<function>``, times come from ``time.perf_counter`` (a
system-wide monotonic clock on Linux, so spans from child processes
line up), ``parent`` is the index of the enclosing span or -1, ``op``
is the id of the benchmark operation, and ``status`` is ``ok``, the
name of the exception raised, or a label taken from the result.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# Layer (module) -> public entry points timed in that layer.
ENTRY_POINTS = {
    "graphs": ("build", "copy_union", "delete_copies", "spanning_intra_view",
               "View.without", "View.restricted_to"),
    "flows": ("max_internally_disjoint_paths", "k_fan", "disjoint_set_paths",
              "min_vertex_cut", "local_connectivity", "vertex_connectivity"),
    "tripod": ("solve_tripod",),
    "construct": ("build_structure",),
    "verification": ("check_tripod", "check_omega_path_set"),
    "pairing": ("pair_structure",),
    "certify": ("make_certificate", "emit", "load", "verify_certificate"),
}

VIEW_SPANS = frozenset({
    "graphs.copy_union", "graphs.delete_copies", "graphs.spanning_intra_view",
    "graphs.View.without", "graphs.View.restricted_to",
})

CASE_IDS = ("Even", "OddCase1_1", "OddCase1_2_1", "OddCase1_2_2", "OddCase2",
            "OddCase3_1", "OddCase3_2", "OddCase3_3", "FallbackGeneric")


def _label(name, result):
    """Status of a span that returned: the case route of a structure and
    whether the tripod solver gave up."""
    if name == "construct.build_structure":
        return result[1].case_id
    if name == "tripod.solve_tripod":
        return type(result).__name__
    return "ok"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._plan: list[tuple[object, str, object, object]] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------ spans

    def begin(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.op, "ok"]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list, status: str = "ok") -> None:
        rec[2] = time.perf_counter()
        rec[5] = status
        self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(rec, type(exc).__name__)
                raise
            self.end(rec, _label(name, result))
            return result
        traced.__wrapped__ = fn
        return traced

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every entry point at each place a tripaths module binds it."""
        if self._patches:
            return
        if not self._plan:
            self._plan = self._make_plan()
        for owner, attr, _original, wrapper in self._plan:
            setattr(owner, attr, wrapper)
        self._patches = self._plan

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)
        self._patches = []

    def _make_plan(self) -> list:
        import importlib

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "tripaths" or k.startswith("tripaths."))]
        plan = []
        for layer, names in ENTRY_POINTS.items():
            home = importlib.import_module(f"tripaths.{layer}")
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    plan.append((cls, meth, original,
                                 self._wrap(f"{layer}.{name}", original)))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            plan.append((mod, attr, original, wrapper))
        return plan


def dump_spans(spans: list[list], path: str) -> None:
    with open(path, "w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")


def load_spans(path: str) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def merge(into: list[list], spans: list[list], parent: int, op: int) -> None:
    """Append a child process's spans, re-rooting them under ``parent``."""
    base = len(into)
    for name, start, end, par, _op, status in spans:
        into.append([name, start, end, parent if par < 0 else par + base, op, status])


def _p(values, q):
    """q-th decile of values (Python's exclusive method), 0 when empty."""
    if not values:
        return 0.0
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=10)[q - 1]


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-layer counts, self times and ratios over a finished run."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op, _status in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def pick(pred):
        return [(i, s) for i, s in enumerate(spans) if pred(s[0])]

    def self_s(rows):
        return sum(s[2] - s[1] - child_time[i] for i, s in rows)

    def total_s(rows):
        return sum(s[2] - s[1] for _, s in rows)

    def ms(rows):
        return [(s[2] - s[1]) * 1e3 for _, s in rows]

    out: dict[str, float] = {}
    views = pick(lambda n: n in VIEW_SPANS)
    out["graphs.view_calls"] = len(views)
    out["graphs.view_s"] = total_s(views)

    flows = pick(lambda n: n.startswith("flows."))
    out["flows.calls"] = len(flows)
    out["flows.self_s"] = self_s(flows)
    out["flows.call_ms_p50"] = statistics.median(ms(flows)) if flows else 0.0
    short = sum(1 for _, s in flows if s[5] == "InsufficientConnectivity")
    out["flows.shortfall_ratio"] = short / len(flows) if flows else 0.0

    tripod = pick(lambda n: n == "tripod.solve_tripod")
    out["tripod.calls"] = len(tripod)
    out["tripod.self_s"] = self_s(tripod)
    out["tripod.call_ms_p90"] = _p(ms(tripod), 9)
    fails = sum(1 for _, s in tripod if s[5] == "TripodFailure")
    out["tripod.failure_ratio"] = fails / len(tripod) if tripod else 0.0

    built = pick(lambda n: n == "construct.build_structure")
    out["construct.self_s"] = self_s(built)
    for case in CASE_IDS:
        rows = [(i, s) for i, s in built if s[5] == case]
        out[f"construct.{case}.count"] = len(rows)
        out[f"construct.{case}.ms_p50"] = statistics.median(ms(rows)) if rows else 0.0
    fallbacks = out["construct.FallbackGeneric.count"]
    out["construct.fallback_ratio"] = fallbacks / len(built) if built else 0.0

    tri = pick(lambda n: n == "verification.check_tripod")
    om = pick(lambda n: n == "verification.check_omega_path_set")
    out["verification.check_tripod_calls"] = len(tri)
    out["verification.check_tripod_s"] = total_s(tri)
    out["verification.check_omega_calls"] = len(om)
    out["verification.check_omega_s"] = total_s(om)
    out["verification.checks_per_op"] = (len(tri) + len(om)) / ops if ops else 0.0

    pairing = pick(lambda n: n == "pairing.pair_structure")
    out["pairing.calls"] = len(pairing)
    out["pairing.self_s"] = self_s(pairing)

    for short_name, span in (("make_s", "certify.make_certificate"),
                             ("emit_s", "certify.emit"),
                             ("load_s", "certify.load"),
                             ("verify_s", "certify.verify_certificate")):
        out[f"certify.{short_name}"] = total_s(pick(lambda n, s=span: n == s))
    out["cli.main_s"] = total_s(pick(lambda n: n == "cli.main"))
    out["cli.process_s"] = total_s(pick(lambda n: n == "cli.process"))
    return out
