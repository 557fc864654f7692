"""The three benchmark workloads, driven through triagerank's public API only.

Every workload is one closed-loop caller: each arrival is inserted only
after the previous re-sort returned. A pass runs the workload's phases once
and returns its timings; the output checks run after the pass, outside the
timed phases.

* pipeline-synth: ``cli.run_pipeline`` on a synthetic corpus with the noisy
  oracle, then small uncached triage sessions on the pipeline's own inbox.
* inbox-remote: ``LogprobComparator`` against the loopback mock endpoint,
  behind ``CachedComparator`` on a fresh disk cache, two workers.
* rerank-cached: the noisy oracle behind ``CachedComparator`` on a fresh
  disk cache, one worker.

The session of every workload is: a cold tournament over the initial inbox,
the arrivals inserted one at a time, then the re-rank of the grown inbox
(for the cached workloads that re-rank first reloads the cache from disk).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from triagerank import cli, gateway, metrics, rank
from triagerank.compare import (
    CachedComparator,
    ComparisonCache,
    LogprobComparator,
    NoisyOracleComparator,
    perfect_oracle,
)
from triagerank.corpus import labels_by_id, load_corpus

import inputs
from clock import Stopwatch

BENCH_DIR = Path(__file__).resolve().parent
FLIP = {1: 0.3, 2: 0.15}
MAX_WORKERS = 2
SCORE_TOLERANCE = 1e-9


@dataclass
class PassResult:
    """Timings, counts and check outcomes of one pass."""

    phases: dict[str, list[float]] = field(default_factory=dict)  # scaled seconds per unit
    raw_phases: dict[str, list[float]] = field(default_factory=dict)  # the same, unscaled
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    defects: dict[str, list[int]] = field(default_factory=dict)
    ranking: tuple[str, ...] = ()
    labels: dict = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    traced: bool = False
    t_ndcg_10: float = math.nan
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def run_s(self) -> float:
        """Scaled time spent in the timed phases of the pass."""
        return sum(map(sum, self.phases.values()))

    @property
    def raw_run_s(self) -> float:
        return sum(map(sum, self.raw_phases.values()))

    def add(self, phase: str, watch: Stopwatch) -> None:
        self.phases.setdefault(phase, []).append(watch.scaled)
        self.raw_phases.setdefault(phase, []).append(watch.seconds)
        self.attempted += 1

    def count(self, name: str, amount: float) -> None:
        self.extra[name] = self.extra.get(name, 0) + amount

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.checks[name] = ok
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    def known_defect(self, name: str, differing: int) -> None:
        """Record a check that a known program defect makes fail.

        ``differing`` counts the items that break it (0 when it holds). It
        does not count in ``error_rate``; every run prints it, so the defect
        stays visible until the program is fixed.
        """
        self.defects.setdefault(name, []).append(differing)


def session(result: PassResult, initial, arrivals, comparator, reload, max_workers: int,
            rerank_repeats: int = 1, before_rerank=None,
            remote: bool = False) -> rank.TournamentResult:
    """Cold tournament, arrivals inserted one at a time, then re-ranks of the grown inbox.

    ``reload()`` gives the comparator for a re-rank; each of the
    ``rerank_repeats`` re-ranks is timed with its reload. Returns the last
    re-rank. With ``remote`` the comparator waits on the mock endpoint, so
    the cold tournament and the inserts keep their raw times.
    """
    with Stopwatch(follows_host=not remote) as watch:
        built = rank.run_tournament(initial, comparator, max_workers)
    result.add("rank_cold_s", watch)
    for message in arrivals:
        with Stopwatch(follows_host=not remote) as watch:
            built = rank.insert_incremental(built, message, comparator, max_workers)
        result.add("insert_s", watch)
    if before_rerank is not None:
        before_rerank()
    for _ in range(rerank_repeats):
        with Stopwatch() as watch:
            warm = rank.run_tournament(list(built.messages), reload(), max_workers)
        result.add("rerank_warm_s", watch)
        _check_rerank(result, built, warm)
    return warm


def _complete(outcome: rank.TournamentResult) -> bool:
    n = len(outcome.messages)
    return outcome.comparisons_made + outcome.cache_hits == n * (n - 1) // 2


def ranking_quality(result: PassResult) -> float:
    """T-NDCG@10 of the final ranking of a pass."""
    return metrics.t_ndcg_at_k(result.ranking, result.labels, k=10)


def same_ranking(first, second, scores) -> bool:
    """Whether two rankings agree position by position up to tied scores.

    Known defect in ``rank``: a message's score is a float sum whose order
    depends on the path that built it (``insert_incremental`` adds terms in
    arrival order, ``run_tournament`` in sorted-pair order). Scores that are
    equal in exact arithmetic then differ in the last bits, and the tie-break
    on id orders those messages differently. This gate treats such positions
    as tied; the exact comparison is reported by ``PassResult.known_defect``.
    """
    if len(first) != len(second) or set(first) != set(second):
        return False
    return all(
        math.isclose(scores[a], scores[b], rel_tol=SCORE_TOLERANCE)
        for a, b in zip(first, second)
    )


def displaced(first, second) -> int:
    """Positions at which two rankings hold different ids."""
    return sum(a != b for a, b in zip(first, second))


def _check_rerank(result: PassResult, built, warm) -> None:
    result.check("insert-built tournament covers every pair", _complete(built))
    result.check("re-rank covers every pair", _complete(warm))
    same_ids = warm.scores.keys() == built.scores.keys()
    result.check(
        f"re-rank scores equal the insert-built scores within {SCORE_TOLERANCE:g}",
        same_ids
        and all(
            math.isclose(warm.scores[k], built.scores[k], rel_tol=SCORE_TOLERANCE)
            for k in warm.scores
        ),
        "scores differ",
    )
    result.check(
        "re-rank ranking equals the insert-built ranking up to tied scores",
        same_ranking(built.ranking, warm.ranking, warm.scores),
        "rankings differ",
    )
    if same_ids:
        result.known_defect(
            "re-rank scores equal the insert-built scores exactly",
            sum(warm.scores[k] != built.scores[k] for k in warm.scores),
        )
    moved = displaced(built.ranking, warm.ranking)
    result.known_defect("re-rank ranking equals the insert-built ranking exactly", moved)
    result.count("rank.tie_order_mismatches", moved)


@dataclass(frozen=True)
class PipelineSizes:
    per_level: int = 200
    sentinels: int = 20
    inbox_per_level: int = 50
    pair_count: int = 200
    session_initial: int = 60
    session_arrivals: int = 40


@dataclass(frozen=True)
class SessionSizes:
    initial: int
    arrivals: int
    rerank_repeats: int = 1


class PipelineSynth:
    """One research run: the full pipeline, then triage sessions on its own inbox."""

    name = "pipeline-synth"
    TINY = PipelineSizes(per_level=12, sentinels=2, inbox_per_level=4, pair_count=20,
                         session_initial=6, session_arrivals=6)

    def __init__(self, sizes: PipelineSizes = PipelineSizes()):
        self.sizes = sizes
        self.hashes: dict[str, str] | None = None

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.corpus_path = inputs.write_jsonl(
            inputs.corpus_records(seed, self.sizes.per_level, self.sizes.sentinels),
            workdir / "corpus.jsonl",
        )
        self.passes = 0

    def teardown(self) -> None:
        pass

    def run_pass(self) -> PassResult:
        result = PassResult()
        out_dir = self.workdir / f"pipeline-{self.passes}"
        self.passes += 1
        config = cli.RunConfig(
            corpus=str(self.corpus_path),
            out_dir=str(out_dir),
            seed=self.seed,
            comparator="oracle",
            flip=dict(FLIP),
            pair_count=self.sizes.pair_count,
            inbox_counts=(self.sizes.inbox_per_level,) * 6,
        )
        with Stopwatch() as watch:
            manifest = cli.run_pipeline(config)
        result.add("pipeline_s", watch)

        # Uncached triage sessions on disjoint slices of the pipeline's inbox:
        # several short sessions give the phase medians more samples.
        inbox = load_corpus(out_dir / "inbox.jsonl")
        messages = [labeled.message for labeled in inbox]
        oracle = NoisyOracleComparator(labels_by_id(inbox), FLIP, seed=self.seed)
        initial, arrivals = self.sizes.session_initial, self.sizes.session_arrivals
        for start in range(0, len(messages) - initial - arrivals + 1, initial + arrivals):
            cut = start + initial
            session(result, messages[start:cut], messages[cut:cut + arrivals],
                    oracle, lambda: oracle, max_workers=1)

        hashes = {name: entry["sha256"] for name, entry in manifest["artifacts"].items()}
        if self.hashes is None:
            self.hashes = hashes
        result.check(
            "manifest artifact hashes identical across runs",
            hashes == self.hashes,
            f"artifacts differ: {sorted(k for k in hashes if hashes[k] != self.hashes.get(k))}",
        )
        extrinsic = json.loads((out_dir / "extrinsic.json").read_text(encoding="utf-8"))
        result.ranking = tuple(extrinsic["ranking"])
        result.labels = labels_by_id(inbox)
        shutil.rmtree(out_dir)
        return result


class _CachedSession:
    """Shared part of the two workloads that rank behind a fresh disk cache."""

    max_workers = 1
    remote = False
    sizes: SessionSizes

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        path = inputs.write_jsonl(
            inputs.inbox_records(seed, self.sizes.initial + self.sizes.arrivals),
            workdir / "inbox.jsonl",
        )
        inbox = load_corpus(path)
        self.labels = labels_by_id(inbox)
        messages = [labeled.message for labeled in inbox]
        self.initial = messages[: self.sizes.initial]
        self.arrivals = messages[self.sizes.initial:]
        self.passes = 0

    def teardown(self) -> None:
        pass

    def inner(self):
        raise NotImplementedError

    def before_rerank(self) -> None:
        pass

    def after_pass(self, result: PassResult, warm: rank.TournamentResult) -> None:
        pass

    def run_pass(self) -> PassResult:
        result = PassResult()
        cache_path = self.workdir / f"cache-{self.passes}.jsonl"
        self.passes += 1
        inner = self.inner()
        comparators = []

        def fresh() -> CachedComparator:
            comparators.append(CachedComparator(inner, ComparisonCache(cache_path)))
            return comparators[-1]

        warm = session(
            result, self.initial, self.arrivals, fresh(), fresh,
            self.max_workers, self.sizes.rerank_repeats, self.before_rerank, self.remote,
        )
        result.count("compare.cache_hits", sum(c.hits for c in comparators))
        result.count("compare.cache_misses", sum(c.misses for c in comparators))
        result.check(
            "re-rank is served from the cache",
            warm.comparisons_made == 0,
            f"{warm.comparisons_made} pairs reached the comparator",
        )
        result.extra["compare.cache_file_bytes"] = cache_path.stat().st_size
        self.after_pass(result, warm)
        result.ranking = warm.ranking
        result.labels = self.labels
        cache_path.unlink()
        return result


class InboxRemote(_CachedSession):
    """One clinician session against a remote model behind the disk cache."""

    name = "inbox-remote"
    max_workers = MAX_WORKERS
    remote = True
    TINY = SessionSizes(initial=6, arrivals=6, rerank_repeats=2)

    def __init__(self, sizes: SessionSizes = SessionSizes(initial=10, arrivals=20, rerank_repeats=10)):
        self.sizes = sizes
        self.mock: MockProcess | None = None

    def setup(self, seed: int, workdir: Path) -> None:
        super().setup(seed, workdir)
        self.mock = MockProcess.start()
        self.config = gateway.EndpointConfig(base_url=self.mock.base_url, model_name="mock")
        # the first request pays lazy imports and connection set-up once
        gateway.complete(self.config, "system", "[triage:1] [triage:2]", want_logprobs=True)
        self.perfect: rank.TournamentResult | None = None

    def teardown(self) -> None:
        if self.mock is not None:
            self.mock.stop()
            self.mock = None

    def inner(self):
        self.mock.reset()  # the endpoint's counters cover one pass
        return LogprobComparator(self.config)

    def before_rerank(self) -> None:
        self.requests_before_rerank = self.mock.stats()["requests"]

    def after_pass(self, result: PassResult, warm: rank.TournamentResult) -> None:
        stats = self.mock.stats()
        result.attempted += stats["requests"]
        result.failed += stats["errors"]
        if stats["errors"]:
            result.failures.append(f"mock endpoint answered {stats['errors']} requests with an error")
        result.check(
            "re-rank sends no request to the endpoint",
            stats["requests"] == self.requests_before_rerank,
            f"{stats['requests'] - self.requests_before_rerank} requests",
        )
        if self.perfect is None:
            self.perfect = rank.run_tournament(list(warm.messages), perfect_oracle(self.labels))
        result.check(
            "ranking equals the perfect-oracle tournament up to tied scores",
            same_ranking(warm.ranking, self.perfect.ranking, self.perfect.scores),
            "rankings differ",
        )
        result.known_defect(
            "ranking equals the perfect-oracle tournament exactly",
            displaced(warm.ranking, self.perfect.ranking),
        )
        result.extra["gateway.server_requests"] = stats["requests"]
        result.extra["gateway.server_s"] = stats["server_s"]
        result.extra["gateway.inflight_peak"] = stats["inflight_peak"]


class RerankCached(_CachedSession):
    """Cold ranking, arrivals and a warm re-rank where the cache is the critical path."""

    name = "rerank-cached"
    TINY = SessionSizes(initial=12, arrivals=10)

    def __init__(self, sizes: SessionSizes = SessionSizes(initial=100, arrivals=50, rerank_repeats=3)):
        self.sizes = sizes
        self.checked_uncached = False

    def inner(self):
        return NoisyOracleComparator(self.labels, FLIP, seed=self.seed)

    def after_pass(self, result: PassResult, warm: rank.TournamentResult) -> None:
        if self.checked_uncached:
            return
        self.checked_uncached = True
        uncached = rank.run_tournament(list(warm.messages), self.inner())
        result.check(
            "ranking equals an uncached tournament",
            uncached.ranking == warm.ranking and uncached.scores == warm.scores,
            "rankings differ",
        )


class MockProcess:
    """The mock endpoint in its own process, so its CPU does not take the GIL."""

    def __init__(self, process: subprocess.Popen, port: int):
        self.process = process
        self.base_url = f"http://127.0.0.1:{port}"

    @classmethod
    def start(cls) -> "MockProcess":
        process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "mock_endpoint.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = process.stdout.readline()
        if not line.startswith("port "):
            process.kill()
            process.wait(timeout=10)
            raise RuntimeError(f"mock endpoint did not start: {line!r}")
        return cls(process, int(line.split()[1]))

    def _call(self, path: str, method: str) -> dict:
        request = urllib.request.Request(
            self.base_url + path, method=method, data=b"" if method == "POST" else None
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())

    def stats(self) -> dict:
        return self._call("/stats", "GET")

    def reset(self) -> None:
        self._call("/reset", "POST")

    def stop(self) -> None:
        self.process.stdin.close()
        self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)
        self.process.stdout.close()


WORKLOADS = {workload.name: workload for workload in (PipelineSynth, InboxRemote, RerankCached)}
