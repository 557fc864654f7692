"""Span recorder for the traced benchmark run.

``Tracer.instrument()`` replaces the public functions and methods that form
each layer's boundary, at module or class attribute level, with wrappers
that record one span per call: name, start, end, thread and parent span.
``restore()`` puts the originals back, so untraced passes run unpatched
code. Spans live in flat arrays in memory; ``layer_metrics()`` derives the
per-layer numbers and ``write()`` dumps the spans when the run ends.

A span opened on a pool thread with no open span of its own gets the
caller's innermost open span as parent: the benchmark is one closed-loop
caller, so that is the tournament or insert that submitted the work.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import threading
import time
from array import array
from pathlib import Path

# Layers in the order the metrics are reported; one per module under
# src/triagerank/ that a workload reaches. A span name is "<layer>.<call>".
LAYERS = ("corpus", "pairs", "prompts", "compare", "gateway", "rank", "metrics", "cli")


def percentile(values: list[float], percentile: int) -> float:
    """The ``percentile``-th percentile of ``values`` (inclusive method)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    if percentile == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[percentile - 1]


def _length(args, result):
    return len(result)


def _returned(args, result):
    return result


def _export_records(args, result):
    return result.records


def _loaded_entries(args, result):
    return len(args[0])


def _tournament_counts(args, result):
    return (result.comparisons_made, result.cache_hits)


def _insert_counts(args, result):
    before = args[0]
    return (
        result.comparisons_made - before.comparisons_made,
        result.cache_hits - before.cache_hits,
    )


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.thread = array("q")
        self.parent = array("i")
        self.values: dict[int, object] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._caller = threading.get_ident()
        self._caller_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def clear(self) -> None:
        for column in (self.name, self.start, self.end, self.thread, self.parent):
            del column[:]
        self.values.clear()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._caller:
            return self._caller_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int) -> tuple[list[int], int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._caller_stack:
            parent = self._caller_stack[-1]
        else:
            parent = -1
        with self._lock:
            index = len(self.start)
            self.name.append(name_id)
            self.thread.append(threading.get_ident())
            self.parent.append(parent)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(index)
        return stack, index

    def wrap(self, owner, attribute: str, span: str, count=None) -> None:
        """Record a span named ``span`` around every call of owner.attribute.

        ``count(args, result)``, when given, stores a value with the span.
        """
        original = owner.__dict__[attribute]
        name_id = self._name_ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack, index = tracer._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end[index] = time.perf_counter()
                stack.pop()
            if count is not None:
                tracer.values[index] = count(args, result)
            return result

        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, original))

    def instrument(self) -> None:
        """Wrap the boundary calls of every measured layer.

        ``cli`` imports the corpus and pairs functions by name, so those are
        wrapped where ``run_pipeline`` looks them up.
        """
        from triagerank import cli, gateway, metrics, prompts, rank
        from triagerank.compare import (
            CachedComparator,
            ComparisonCache,
            LogprobComparator,
            NoisyOracleComparator,
        )

        wrap = self.wrap
        wrap(cli, "run_pipeline", "cli.run_pipeline")
        wrap(cli, "load_corpus", "corpus.load_corpus", _length)
        wrap(cli, "save_corpus", "corpus.save_corpus", _returned)
        wrap(cli, "build_eval_pairs", "pairs.build_eval_pairs", _length)
        wrap(cli, "build_triplets", "pairs.build_triplets", _length)
        wrap(cli, "write_eval_pairs", "pairs.write_eval_pairs", _returned)
        wrap(cli, "write_triplets", "pairs.write_triplets", _returned)
        wrap(cli, "export_sft", "pairs.export_sft", _export_records)
        wrap(cli, "export_reward", "pairs.export_reward", _export_records)
        wrap(cli, "assemble_inbox", "pairs.assemble_inbox", _length)
        wrap(prompts, "render", "prompts.render")
        wrap(NoisyOracleComparator, "score_directed", "compare.oracle_score_directed")
        wrap(LogprobComparator, "score_directed", "compare.logprob_score_directed")
        wrap(CachedComparator, "score_directed", "compare.cached_score_directed")
        wrap(CachedComparator, "has_cached_pair", "compare.cache_probe")
        wrap(ComparisonCache, "get", "compare.cache_get")
        wrap(ComparisonCache, "put", "compare.cache_put")
        wrap(ComparisonCache, "__init__", "compare.cache_load", _loaded_entries)
        wrap(gateway, "complete", "gateway.complete")
        wrap(rank, "run_tournament", "rank.run_tournament", _tournament_counts)
        wrap(rank, "insert_incremental", "rank.insert_incremental", _insert_counts)
        wrap(metrics, "intrinsic_accuracy", "metrics.intrinsic_accuracy")
        wrap(metrics, "expected_t_ndcg", "metrics.expected_t_ndcg")
        wrap(metrics, "ndcg_at_k", "metrics.ndcg_at_k")
        wrap(metrics, "t_ndcg_at_k", "metrics.t_ndcg_at_k")

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        """Dump the recorded spans as gzipped TSV, times relative to the first."""
        origin = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("index\tname\tstart_s\tend_s\tthread\tparent\tvalue\n")
            for index in range(len(self)):
                handle.write(
                    f"{index}\t{self.names[self.name[index]]}\t"
                    f"{self.start[index] - origin:.9f}\t{self.end[index] - origin:.9f}\t"
                    f"{self.thread[index]}\t{self.parent[index]}\t"
                    f"{self.values.get(index, '')}\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer busy times, self times and counts for the recorded spans."""
        names = [self.names[name_id] for name_id in self.name]
        start, end, parent = self.start, self.end, self.parent
        children: dict[int, list[int]] = {}
        for index, parent_index in enumerate(parent):
            if parent_index >= 0:
                children.setdefault(parent_index, []).append(index)

        def self_time(index: int) -> float:
            total = end[index] - start[index]
            kids = children.get(index)
            if not kids:
                return total
            # subtract the union of the children's intervals (pool threads overlap)
            covered = 0.0
            reach = start[index]
            for kid_start, kid_end in sorted((start[k], end[k]) for k in kids):
                kid_start = max(kid_start, reach)
                kid_end = min(kid_end, end[index])
                if kid_end > kid_start:
                    covered += kid_end - kid_start
                    reach = kid_end
            return total - covered

        layer_self = {layer: 0.0 for layer in LAYERS}
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        durations: dict[str, list[float]] = {}
        for index, name in enumerate(names):
            layer_self[name.split(".", 1)[0]] += self_time(index)
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + end[index] - start[index]
            if name == "gateway.complete":
                durations.setdefault(name, []).append(end[index] - start[index])

        def busy_of(*span_names: str) -> float:
            return sum(busy.get(name, 0.0) for name in span_names)

        def values_of(span: str) -> list:
            return [self.values[i] for i, name in enumerate(names) if name == span and i in self.values]

        def parent_name(index: int) -> str:
            return names[parent[index]] if parent[index] >= 0 else ""

        get_outside_probe = sum(
            end[i] - start[i]
            for i, name in enumerate(names)
            if name == "compare.cache_get" and parent_name(i) != "compare.cache_probe"
        )
        ndcg_top_level = sum(
            end[i] - start[i]
            for i, name in enumerate(names)
            if name in ("metrics.ndcg_at_k", "metrics.t_ndcg_at_k")
            and not parent_name(i).startswith("metrics.")
        )
        tournaments = values_of("rank.run_tournament") + values_of("rank.insert_incremental")
        request_ms = [1000.0 * d for d in durations.get("gateway.complete", [])]

        out: dict[str, float] = {
            "corpus.load_s": busy_of("corpus.load_corpus"),
            "corpus.save_s": busy_of("corpus.save_corpus"),
            "corpus.records": sum(values_of("corpus.load_corpus")),
            "pairs.build_eval_pairs_s": busy_of("pairs.build_eval_pairs"),
            "pairs.build_triplets_s": busy_of("pairs.build_triplets"),
            "pairs.export_s": busy_of(
                "pairs.write_eval_pairs", "pairs.write_triplets",
                "pairs.export_sft", "pairs.export_reward",
            ),
            "pairs.assemble_inbox_s": busy_of("pairs.assemble_inbox"),
            "pairs.eval_pairs": sum(values_of("pairs.build_eval_pairs")),
            "pairs.triplets": sum(values_of("pairs.build_triplets")),
            "pairs.export_records": sum(
                sum(values_of(name))
                for name in ("pairs.write_eval_pairs", "pairs.write_triplets",
                             "pairs.export_sft", "pairs.export_reward")
            ),
            "pairs.inbox_messages": sum(values_of("pairs.assemble_inbox")),
            "prompts.render_calls": calls.get("prompts.render", 0),
            "prompts.render_s": busy_of("prompts.render"),
            "compare.score_directed_calls": calls.get("compare.oracle_score_directed", 0)
            + calls.get("compare.logprob_score_directed", 0),
            "compare.score_directed_s": busy_of(
                "compare.oracle_score_directed", "compare.logprob_score_directed"
            ),
            "compare.cache_get_s": get_outside_probe,
            "compare.cache_probe_s": busy_of("compare.cache_probe"),
            "compare.cache_put_s": busy_of("compare.cache_put"),
            "compare.cache_load_s": busy_of("compare.cache_load"),
            "compare.cache_entries": max(values_of("compare.cache_load"), default=0),
            "gateway.requests": calls.get("gateway.complete", 0),
            "gateway.request_s": busy_of("gateway.complete"),
            "gateway.request_p50_ms": percentile(request_ms, 50),
            "gateway.request_p90_ms": percentile(request_ms, 90),
            "rank.tournament_s": busy_of("rank.run_tournament"),
            "rank.insert_s": busy_of("rank.insert_incremental"),
            "rank.pairs_compared": sum(made for made, _ in tournaments),
            "rank.pairs_from_cache": sum(cached for _, cached in tournaments),
            "metrics.expected_t_ndcg_s": busy_of("metrics.expected_t_ndcg"),
            "metrics.intrinsic_s": busy_of("metrics.intrinsic_accuracy"),
            "metrics.ndcg_s": ndcg_top_level,
            "cli.run_pipeline_s": busy_of("cli.run_pipeline"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["trace.spans"] = len(self)
        return out
