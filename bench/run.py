"""Run one triagerank benchmark workload and print its metrics.

    python3 bench/run.py --workload rerank-cached --seed 1 --seconds 30 --trace 0

Run from the repository root. Inputs are generated from ``--seed`` before
timing starts. Passes of the workload repeat until ``--seconds`` is used up;
every pass is checked. The output is one line per metric and check, then a
last line with one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones. With
``--trace 1`` passes alternate between untraced and traced; the metrics are
the per-layer ones from the traced passes plus the tracing overhead, and the
spans of the last traced pass are written to ``.bench_out/``.

End-to-end times are scaled to a reference host speed (see ``clock.py``);
the printed lines give the unscaled medians too.

The exit code is 0 when every operation and check passed, 1 when one
failed, and 2 when the program cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import spans
from clock import Stopwatch

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_REPEATS = 3
# The tail is p90 where at least ten inserts lie beyond it, which the
# timed passes of every full run hold; smaller runs fall back down the ladder.
TAIL_LADDER = (90, 75, 50)
MIN_PASSES = 2


def _import_program() -> Stopwatch:
    """Import triagerank from this checkout's src/; returns the time taken."""
    sys.path.insert(0, str(ROOT / "src"))
    with Stopwatch() as watch:
        import triagerank  # noqa: F401  (timed: the import is part of set-up)
        import workloads  # noqa: F401

    location = Path(triagerank.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise ImportError(f"triagerank was imported from {location}, not from {ROOT / 'src'}")
    return watch


def tail_percentile(count: int) -> int | None:
    """Highest ladder percentile that leaves at least ten samples beyond it."""
    for percentile in TAIL_LADDER:
        if count * (100 - percentile) / 100 >= 10:
            return percentile
    return None


def end_to_end(setup: tuple[float, float], passes: list) -> tuple[dict, list[str]]:
    """End-to-end metrics from the untraced passes, plus human-readable lines.

    ``setup`` is the (scaled, raw) set-up time. Each timing is the median
    (or the tail percentile) over every unit of its kind in the run: passes
    for ``run_s``, tournaments, inserts and re-ranks for their phases.
    """

    def pooled(phase: str, raw: bool = False) -> list[float]:
        return [
            seconds for result in passes
            for seconds in (result.raw_phases if raw else result.phases).get(phase, ())
        ]

    def timing(unit: str, samples: list[float], raw: list[float], what: str,
               percentile: int = 50, scale: float = 1.0) -> tuple[float, str, str]:
        value = scale * spans.percentile(samples, percentile)
        unscaled = scale * spans.percentile(raw, percentile)
        label = "median" if percentile == 50 else f"p{percentile}"
        return value, unit, f"{label} of {len(samples)} {what}; unscaled {unscaled:.6g} {unit}"

    inserts, raw_inserts = pooled("insert_s"), pooled("insert_s", raw=True)
    tail = tail_percentile(len(inserts)) or 50
    values = {
        "setup_s": (setup[0], "s", f"import + median of {SETUP_REPEATS} set-ups; unscaled {setup[1]:.6g} s"),
        "run_s": timing("s", [r.run_s for r in passes], [r.raw_run_s for r in passes], "passes"),
        "rank_cold_s": timing("s", pooled("rank_cold_s"), pooled("rank_cold_s", raw=True), "tournaments"),
        "insert_p50_ms": timing("ms", inserts, raw_inserts, "inserts", scale=1000.0),
        "insert_tail_ms": timing("ms", inserts, raw_inserts, "inserts", tail, scale=1000.0),
        "rerank_warm_s": timing(
            "s", pooled("rerank_warm_s"), pooled("rerank_warm_s", raw=True), "re-ranks"
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "whole process",
        ),
    }
    lines = [f"metric {name} = {value:.6g} {unit} ({how})" for name, (value, unit, how) in values.items()]
    pipeline = pooled("pipeline_s")
    if pipeline:
        _, _, how = timing("s", pipeline, pooled("pipeline_s", raw=True), "run_pipeline calls")
        lines.append(f"info pipeline_s = {statistics.median(pipeline):.6g} s ({how})")
    quality = statistics.median(r.t_ndcg_10 for r in passes)
    lines.append(f"info t_ndcg_10 = {quality:.6g} score (final ranking, median of {len(passes)} passes)")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in values.items()}
    return metrics, lines


def per_layer(traced: list, untraced: list) -> tuple[dict, set[str]]:
    """Per-layer metrics named in BENCHMARK.json: the median over traced passes.

    Also returns the names this workload measured; the others read 0 here
    because the workload never reaches what they count (the mock's counters
    outside ``inbox-remote``, for example).
    """
    rows = []
    for result in traced:
        row = dict(result.layers)
        row.update(result.extra)
        requests = row["gateway.requests"]
        if "gateway.server_requests" in row:
            row["gateway.retries"] = row["gateway.server_requests"] - requests
            row["gateway.client_overhead_ms"] = (
                1000.0 * (row["gateway.request_s"] - row["gateway.server_s"]) / requests
                if requests else 0.0
            )
        if "compare.cache_hits" in row:
            lookups = row["compare.cache_hits"] + row["compare.cache_misses"]
            row["compare.cache_hit_ratio"] = row["compare.cache_hits"] / lookups if lookups else 0.0
        rows.append(row)
    rows[0]["trace.overhead_ratio"] = (
        statistics.median(r.run_s for r in traced) / statistics.median(r.run_s for r in untraced)
    )
    metrics = {}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        values = [row[name] for row in rows if name in row]
        metrics[name] = {"value": statistics.median(values) if values else 0, "unit": metric["unit"]}
    return metrics, {name for row in rows for name in row}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests"
    )
    args = parser.parse_args(argv)
    # a terminated run still stops the mock endpoint and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        imported = _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    kind = workloads.WORKLOADS[args.workload]
    workload = kind(kind.TINY) if args.tiny else kind()
    run_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"

    passes = []
    try:
        setups = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
                shutil.rmtree(run_dir)
            with Stopwatch() as watch:
                run_dir.mkdir(parents=True)
                workload.setup(args.seed, run_dir)
            setups.append(watch)
        setup = (
            imported.scaled + statistics.median(w.scaled for w in setups),
            imported.seconds + statistics.median(w.seconds for w in setups),
        )

        tracer = spans.Tracer() if args.trace else None
        started = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            pass_started = time.perf_counter()
            if traced:
                tracer.clear()
                tracer.instrument()
            try:
                result = workload.run_pass()
            except Exception as exc:  # a failed operation ends the run and is reported
                result = workloads.PassResult(attempted=1, failed=1)
                result.failures.append(f"pass {len(passes)} raised {type(exc).__name__}: {exc}")
                passes.append(result)
                break
            finally:
                if traced:
                    tracer.restore()
            result.traced = traced
            if traced:
                result.layers = tracer.layer_metrics()
            result.t_ndcg_10 = workloads.ranking_quality(result)
            passes.append(result)
            elapsed = time.perf_counter() - started
            if len(passes) >= MIN_PASSES and elapsed + (time.perf_counter() - pass_started) > args.seconds:
                break
    finally:
        workload.teardown()
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    attempted = sum(result.attempted for result in passes)
    failed = sum(result.failed for result in passes)
    checks: dict[str, list[int]] = {}
    for result in passes:
        for name, ok in result.checks.items():
            checks.setdefault(name, [0, 0])[0 if ok else 1] += 1
    for name, (ok, bad) in checks.items():
        print(f"check {name}: {'ok' if not bad else 'FAILED'} ({ok} passed, {bad} failed)")
    defects: dict[str, list[int]] = {}
    for result in passes:
        for name, differing in result.defects.items():
            defects.setdefault(name, []).extend(differing)
    for name, differing in defects.items():
        broken = sum(1 for count in differing if count)
        print(
            f"check {name}: {'ok' if not broken else 'KNOWN DEFECT'} "
            f"({len(differing) - broken} passed, {broken} failed, {sum(differing)} items differ; "
            "known float-summation-order defect in rank, not counted in error_rate)"
        )
    for failure in (f for result in passes for f in result.failures):
        print(f"failure {failure}")
    print(f"metric error_rate = {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")
    correct = failed == 0
    if not correct:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    untraced = [result for result in passes if not result.traced]
    if tracer is None:
        metrics, lines = end_to_end(setup, untraced)
        print("\n".join(lines))
    else:
        traced = [result for result in passes if result.traced]
        metrics, measured = per_layer(traced, untraced)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans_path)
        for name, entry in metrics.items():
            unmeasured = "" if name in measured else " (not reached on this workload)"
            print(f"layer {name} = {entry['value']:.6g} {entry['unit']}{unmeasured}")
        print(f"spans of the last traced pass -> {spans_path.relative_to(ROOT)}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
