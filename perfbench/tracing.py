"""Tracing for the benchmark's traced run.

kronlab is traced from outside, without source edits: every public
function named in ``LAYER_METRICS`` is replaced, in the namespace of each
kronlab module that binds it, by a wrapper that records a span (name,
start, end, parent span, job id).  Spans stay in memory and are written
out when the process ends.  A layer's self time is its span time minus
the time of the traced calls inside it.

Functions called about 10^5 times or more per run (``AGGREGATED``) get a
call count and a total time instead of one span each; their time is
still subtracted from the self time of the span that called them.

A name that the traced commit does not define is skipped and its metrics
are reported as absent, so a later refactor that deletes or renames a
function does not break the traced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# (metric, unit, better, what it should move)
#
# A metric is <module>.<function>.<quantity>.  Quantities calls, self_s
# and the per-function extras below come from the wrappers; hits, misses
# and hit_ratio come from the memo cache's cache_info().  hit_ratio is 0
# when the cache saw no lookups.
LAYER_METRICS = [
    ("symfunc.multiply.calls", "count", "lower", "kron_products jobs_per_s, job_p90_ms; power_sweep flat"),
    ("symfunc.multiply.self_s", "s", "lower", "kron_products jobs_per_s, job_p90_ms; power_sweep flat"),
    ("symfunc.perp.calls", "count", "lower", "kron_products jobs_per_s, job_p90_ms; power_sweep flat"),
    ("symfunc.perp.self_s", "s", "lower", "kron_products jobs_per_s, job_p90_ms; power_sweep flat"),
    ("symfunc.lr_coefficient.hits", "count", "higher", "kron_products jobs_per_s, job_p90_ms"),
    ("symfunc.lr_coefficient.misses", "count", "lower", "kron_products jobs_per_s, job_p90_ms"),
    ("symfunc.lr_coefficient.hit_ratio", "ratio", "higher", "kron_products jobs_per_s, job_p90_ms"),
    ("symfunc.h_to_schur.misses", "count", "lower", "kron_products jobs_per_s, job_p90_ms"),
    ("kron_ops.build_operator.calls", "count", "lower", "kron_products job_p90_ms"),
    ("kron_ops.build_operator.self_s", "s", "lower", "kron_products job_p90_ms"),
    ("kron_ops.build_operator.hit_ratio", "ratio", "higher", "kron_products job_p90_ms"),
    ("kron_ops.apply.calls", "count", "lower", "kron_products job_p90_ms"),
    ("kron_ops.apply.self_s", "s", "lower", "kron_products job_p90_ms"),
    ("kron_ops.apply.terms", "count", "lower", "kron_products job_p90_ms"),
    ("characters.character_value.calls", "count", "lower", "power_sweep jobs_per_s; kron_products second"),
    ("characters.character_value.self_s", "s", "lower", "power_sweep jobs_per_s; kron_products second"),
    ("characters.kron_power_oracle.self_s", "s", "lower", "power_sweep jobs_per_s"),
    ("characters.kron_product_via_characters.self_s", "s", "lower", "kron_products jobs_per_s"),
    ("characters.character_table.self_s", "s", "lower", "cli_oneshot job_p50_ms"),
    ("partitions.check_partition.calls", "count", "lower", "power_sweep jobs_per_s"),
    ("partitions.check_partition.self_s", "s", "lower", "power_sweep jobs_per_s"),
    ("partitions.partitions_of.misses", "count", "lower", "power_sweep jobs_per_s"),
    ("tableaux.count_kronecker_tableaux.calls", "count", "lower", "power_sweep jobs_per_s"),
    ("tableaux.count_kronecker_tableaux.self_s", "s", "lower", "power_sweep jobs_per_s"),
    ("tableaux.list_kronecker_tableaux.self_s", "s", "lower", "cli_oneshot job_p50_ms"),
    ("tableaux.list_kronecker_tableaux.walks", "count", "lower", "cli_oneshot job_p50_ms"),
    ("tableaux.to_pair.self_s", "s", "lower", "cli_oneshot job_p50_ms"),
    ("tableaux.from_pair.self_s", "s", "lower", "cli_oneshot job_p50_ms"),
    ("tableaux.rsk_insert.calls", "count", "lower", "cli_oneshot job_p50_ms"),
    ("tableaux.rsk_delete.calls", "count", "lower", "cli_oneshot job_p50_ms"),
    ("enumeration.multiplicity_formula.calls", "count", "lower", "cli_oneshot job_p50_ms"),
    ("enumeration.multiplicity_formula.self_s", "s", "lower", "cli_oneshot job_p50_ms"),
    ("enumeration.egf_check.self_s", "s", "lower", "cli_oneshot job_p50_ms"),
    ("enumeration.TruncatedEGF.exp.self_s", "s", "lower", "cli_oneshot job_p50_ms"),
    ("enumeration.p2.misses", "count", "lower", "cli_oneshot job_p50_ms"),
    ("cli.main.self_s", "s", "lower", "cli_oneshot job_p50_ms"),
    ("cli.import_s", "s", "lower", "cli_oneshot job_p50_ms, setup_s"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced wall time of the same jobs"),
]

AGGREGATED = {"characters.character_value", "partitions.check_partition"}

# Extra per-call quantities: name -> (quantity, f(args, result) -> int).
# A quantity that a commit's objects no longer support reads as absent.
EXTRAS = {
    "kron_ops.apply": ("terms", lambda args, result: len(args[0].terms)),
    "tableaux.list_kronecker_tableaux": ("walks", lambda args, result: len(result)),
}

WRAPPER_QUANTITIES = {"calls", "self_s", "terms", "walks"}
CACHE_QUANTITIES = {"hits", "misses", "hit_ratio"}


def split_metric(metric: str) -> tuple[str, str]:
    """``symfunc.lr_coefficient.hits`` -> (``symfunc.lr_coefficient``, ``hits``)."""
    func, _, quantity = metric.rpartition(".")
    return func, quantity


def _targets(quantities: set[str]) -> list[str]:
    out = []
    for metric, *_ in LAYER_METRICS:
        func, quantity = split_metric(metric)
        if quantity in quantities and func not in out:
            out.append(func)
    return out


def _resolve(func: str):
    """(owner, attribute) of ``module.name`` or ``module.Class.method``
    inside kronlab, or None when the commit does not define it."""
    module, *path = func.split(".")
    try:
        owner = importlib.import_module(f"kronlab.{module}")
    except ImportError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    if not hasattr(owner, path[-1]):
        return None
    return owner, path[-1]


class Tracer:
    """Span recorder for one process; install() once, before any job."""

    def __init__(self, wrapped=None, cached=None):
        self.wrapped = _targets(WRAPPER_QUANTITIES) if wrapped is None else wrapped
        self.cached = _targets(CACHE_QUANTITIES) if cached is None else cached
        self.job = None
        self.spans: list[tuple] = []  # (id, name, start, end, parent, job)
        self.stats: dict[str, dict[str, float]] = {}
        self.caches = {}
        self.absent: set[str] = set()
        self._child_time = [0.0]  # one accumulator per open call
        self._open_spans = [None]  # ids of open spans, innermost last
        self._next_id = 0

    def install(self) -> None:
        # Cache objects first: wrapping replaces the names they are bound to.
        for func in self.cached:
            found = _resolve(func)
            obj = getattr(*found) if found else None
            if obj is None or not hasattr(obj, "cache_info"):
                self.absent.add(func)
            else:
                self.caches[func] = obj
        modules = [m for name, m in sys.modules.items()
                   if name == "kronlab" or name.startswith("kronlab.")]
        for func in self.wrapped:
            found = _resolve(func)
            if found is None:
                self.absent.add(func)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            wrapper = self._wrap(func, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def _wrap(self, func: str, original):
        stats = self.stats.setdefault(func, {"calls": 0, "self_s": 0.0})
        extra = EXTRAS.get(func)
        if extra:
            stats[extra[0]] = 0
        return functools.wraps(original)(self._recorder(func, original, stats, extra))

    def _recorder(self, name, original, stats, extra=None):
        child_time, open_spans, spans = self._child_time, self._open_spans, self.spans
        clock = time.perf_counter
        keep_span = name not in AGGREGATED

        def call(*args, **kwargs):
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
                parent = open_spans[-1]
                open_spans.append(span_id)
            child_time.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                inner = child_time.pop()
                child_time[-1] += end - start
                stats["calls"] += 1
                stats["self_s"] += end - start - inner
                if keep_span:
                    open_spans.pop()
                    spans.append((span_id, name, start, end, parent, self.job))
            if extra and stats[extra[0]] is not None:
                try:
                    stats[extra[0]] += extra[1](args, result)
                except (AttributeError, TypeError):  # the commit changed the shape
                    stats[extra[0]] = None
            return result

        return call

    def run_job(self, job_id, fn, *args):
        """Run one benchmark job under a root span named ``job``."""
        self.job = job_id
        stats = self.stats.setdefault("job", {"calls": 0, "self_s": 0.0})
        return self._recorder("job", fn, stats)(*args)

    def snapshot(self) -> dict:
        caches = {}
        for func, obj in self.caches.items():
            info = obj.cache_info()
            caches[func] = {"hits": info.hits, "misses": info.misses}
        return {"fn": self.stats, "cache": caches, "absent": sorted(self.absent)}

    def dump_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of several processes (workers or CLI children)."""
    fn: dict[str, dict[str, float]] = {}
    cache: dict[str, dict[str, int]] = {}
    absent: set[str] = set()
    for snap in snapshots:
        for table, into in ((snap["fn"], fn), (snap["cache"], cache)):
            for func, counts in table.items():
                slot = into.setdefault(func, {})
                for q, v in counts.items():
                    known = slot.get(q, 0)
                    slot[q] = None if v is None or known is None else known + v
        absent.update(snap["absent"])
    return {"fn": fn, "cache": cache, "absent": absent}


def layer_metrics(snapshots: list[dict], import_s: list[float],
                  overhead_ratio: float) -> dict[str, float | None]:
    """Every metric of LAYER_METRICS; None marks a name the commit lacks."""
    merged = merge(snapshots)
    out: dict[str, float | None] = {}
    for metric, *_ in LAYER_METRICS:
        func, quantity = split_metric(metric)
        if metric == "trace.overhead_ratio":
            out[metric] = overhead_ratio
        elif metric == "cli.import_s":
            out[metric] = statistics.median(import_s) if import_s else 0.0
        elif func in merged["absent"]:
            out[metric] = None
        elif quantity in CACHE_QUANTITIES:
            counts = merged["cache"].get(func, {"hits": 0, "misses": 0})
            if quantity == "hit_ratio":
                lookups = counts["hits"] + counts["misses"]
                out[metric] = counts["hits"] / lookups if lookups else 0.0
            else:
                out[metric] = counts[quantity]
        else:
            out[metric] = merged["fn"].get(func, {}).get(quantity, 0)
    return out
