"""Unified command-line entry point.

One subcommand per pipeline stage plus ``pipeline`` for an end-to-end
run. Reports are machine-first JSON; every report embeds the seed, a hash
of the resolved configuration, the comparator identity, and the prompt
catalog version. A tournament writes its outcomes to a JSONL log as it
runs, one line each, and its report names the log by hash. A command
prints its summary once its work is done, so a reader that closes stdout
early does not fail the run. Exit codes: 0 success, 2 config error, 3
data error, 4 backend error, 5 internal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping, Sequence

from . import annotate, gateway, metrics, prompts, rank
from .compare import (
    CachedComparator,
    Comparator,
    ComparisonCache,
    LogprobComparator,
    NoisyOracleComparator,
    ORACLE_MARGIN,
    ReasoningComparator,
    RewardComparator,
)
from .corpus import (
    LabeledMessage,
    UrgencyLabel,
    labels_by_id,
    load_corpus,
    load_messages,
    read_jsonl,
    remove_temporaries,
    save_corpus,
    split_ordinal,
    write_lines,
)
from .errors import (
    ConfigError,
    DataError,
    MalformedRecord,
    TriageRankError,
    exit_code_for,
)
from .pairs import (
    Difficulty,
    InboxSpec,
    build_eval_pairs,
    build_triplets,
    export_reward,
    export_sft,
    assemble_inbox,
    check_pair_count,
    check_triplet_limits,
    read_eval_pairs,
    read_triplets,
    write_eval_pairs,
    write_triplets,
)

_REMOTE_COMPARATORS = {
    "logprob": LogprobComparator,
    "reasoning": ReasoningComparator,
    "reward": RewardComparator,
}
COMPARATOR_CHOICES = ("oracle", *_REMOTE_COMPARATORS)


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sha256_file(path: Path) -> str:
    """The file's sha256, read in 64 KiB blocks: an outcome log grows with the
    square of the inbox, and a whole read would hold a second copy of it.
    Blocks of 1 MiB left a pipeline's peak RSS 1-2 MB higher in some runs
    and not in others, as the allocator placed them."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


# The output paths and the endpoint URL say where a run writes and whom it
# asks, not what it computes, so no config hash covers them.
_UNHASHED = frozenset({"out", "out_dir", "base_url"})


def _write_report(path: Path, envelope: dict, **sections) -> None:
    """Write ``json.dumps({**envelope, **sections}, sort_keys=True, indent=2)`` and a newline."""
    write_lines((json.dumps({**envelope, **sections}, sort_keys=True, indent=2) + "\n",), path)


def _tournament_section(result: rank.TournamentResult, log: Path) -> dict:
    """The report section of a tournament that ``rank.run_tournament`` logged to ``log``.

    The section names the log by its sha256, not its path, so report bytes
    do not depend on where the run writes.
    """
    return {**result.to_record(), "outcomes_sha256": _sha256_file(log)}


def _envelope(seed: int | None, config_hash: str, comparator_identity: str) -> dict:
    return {
        "seed": seed,
        "config_hash": config_hash,
        "comparator": comparator_identity,
        "prompt_catalog_version": prompts.CATALOG_VERSION,
    }


def _write_args_report(args: argparse.Namespace, comparator_identity: str, **sections) -> None:
    """Write a subcommand's report to --out, its config hash taken over its arguments."""
    hashed = {
        key: str(value)
        for key, value in vars(args).items()
        if key != "func" and key not in _UNHASHED
    }
    config_hash = _sha256_text(json.dumps(hashed, sort_keys=True))
    # a command that draws nothing has no --seed, and reports a null seed
    envelope = _envelope(getattr(args, "seed", None), config_hash, comparator_identity)
    _write_report(Path(args.out), envelope, **sections)


def _parse_entries(text: str, what: str, expected: str, key, value) -> dict:
    """Parse a name:value list like '1:0.3,2:0.15'; an empty text is an empty map."""
    entries: dict = {}
    for chunk in text.split(",") if text else ():
        try:
            name, number = chunk.split(":")
            name, number = key(name), value(number)
        except ValueError:
            raise ConfigError(f"bad {what} entry {chunk!r}, expected {expected}") from None
        if name in entries:
            raise ConfigError(f"{what} entry {chunk!r} repeats a name")
        entries[name] = number
    return entries


def _parse_ints(text: str, what: str, example: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list like '10,30'."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"bad {what} {text!r}, expected e.g. {example}") from None


def build_comparator(
    name: str, labeled: Sequence[LabeledMessage], *,
    seed: int, flip: Mapping[int, float], margin: float,
    model: str | None = None, base_url: str | None = None, cache: str | None = None,
) -> Comparator:
    """The comparator a subcommand or the pipeline ranks with.

    ``labeled`` gives the oracle its gold labels; ``cache`` names a cache file.
    """
    if name in _REMOTE_COMPARATORS:
        if not model:
            raise ConfigError(f"comparator {name!r} needs --model")
        if flip or margin != ORACLE_MARGIN:
            raise ConfigError(
                f"--flip and --margin set the oracle's noise; comparator {name!r} takes neither"
            )
        endpoint = gateway.config_from_env(model_name=model, base_url=base_url)
        comparator: Comparator = _REMOTE_COMPARATORS[name](endpoint)
    elif name == "oracle":
        comparator = NoisyOracleComparator(labeled, flip, seed=seed, margin=margin)
    else:
        raise ConfigError(f"unknown comparator {name!r}")
    if cache:
        comparator = CachedComparator(comparator, ComparisonCache(cache))
    return comparator


def _comparator_options(args: argparse.Namespace) -> dict:
    """build_comparator's keywords from a subcommand's comparator flags.

    --seed seeds only the oracle's flips, so a remote comparator rejects
    it. An absent --seed is set to 0 in ``args``, which the report's seed
    and config hash then read.
    """
    if args.seed is None:
        args.seed = 0
    elif args.comparator in _REMOTE_COMPARATORS:
        raise ConfigError(
            f"--seed seeds the oracle's flips; comparator {args.comparator!r} takes none"
        )
    return dict(
        seed=args.seed, margin=args.margin,
        flip=_parse_entries(args.flip, "flip", "gap:prob", int, float),
        model=args.model, base_url=args.base_url, cache=args.cache,
    )


# ----------------------------------------------------------------------
# subcommands


def cmd_load_validate(args: argparse.Namespace) -> str:
    records = load_corpus(args.corpus)
    counts = {label.value: 0 for label in UrgencyLabel}
    for labeled in records:
        counts[labeled.label.value] += 1
    lines = [f"{args.corpus}: {len(records)} records valid"]
    lines += [f"  {token}: {count}" for token, count in counts.items() if count]
    return "\n".join(lines)


def cmd_auto_label(args: argparse.Namespace) -> str:
    messages = load_messages(args.messages)
    labeled = annotate.auto_label_corpus(messages)
    written = save_corpus(labeled, args.out)
    skipped = len(messages) - len(labeled)
    return f"labeled {written} messages -> {args.out} ({skipped} skipped, no response)"


def cmd_build_pairs(args: argparse.Namespace) -> str:
    corpus = load_corpus(args.corpus)
    quotas = _parse_entries(
        args.quotas, "quota", "difficulty:count", lambda name: Difficulty(name.strip()), int
    ) if args.quotas else None
    eval_pairs = build_eval_pairs(corpus, args.count, args.seed, quotas)
    written = write_eval_pairs(eval_pairs, args.out)
    return f"wrote {written} eval pairs -> {args.out}"


def cmd_build_triplets(args: argparse.Namespace) -> str:
    corpus = load_corpus(args.corpus)
    triplets = build_triplets(corpus, args.cap, args.seed, args.count)
    written = write_triplets(triplets, args.out)
    return f"wrote {written} triplets -> {args.out}"


def cmd_export_sft(args: argparse.Namespace) -> str:
    summary = export_sft(read_triplets(args.triplets), args.out)
    return f"wrote {summary.records} SFT records -> {summary.path}"


def cmd_export_reward(args: argparse.Namespace) -> str:
    summary = export_reward(read_triplets(args.triplets), args.out)
    return f"wrote {summary.records} reward records -> {summary.path}"


def cmd_assemble_inbox(args: argparse.Namespace) -> str:
    corpus = load_corpus(args.corpus)
    counts = _parse_ints(args.spec, "counts", "5,5,5,5,5,5")
    spec = InboxSpec(counts, seed=args.seed)
    inbox = assemble_inbox(corpus, spec)
    written = save_corpus(inbox, args.out)
    return f"assembled {written}-message inbox -> {args.out}"


def cmd_rank_inbox(args: argparse.Namespace) -> str:
    # the log sits next to the report under another suffix, so never at --out
    try:
        log = Path(args.out).with_suffix(".outcomes.jsonl")
    except ValueError:
        raise ConfigError(f"--out {args.out!r} names no file") from None
    inbox = load_corpus(args.inbox)
    comparator = build_comparator(args.comparator, inbox, **_comparator_options(args))
    remove_temporaries(args.out)
    remove_temporaries(log)
    result = rank.run_tournament([labeled.message for labeled in inbox], comparator, log=log)
    # a previous report names the log just replaced: a failed write below
    # must not leave it there (a directory is refused by the write)
    report = Path(args.out)
    if not report.is_dir():
        report.unlink(missing_ok=True)
    section = _tournament_section(result, log)
    _write_args_report(args, comparator.cache_identity, tournament=section)
    top = ", ".join(result.ranking[:5])
    return f"ranked {len(inbox)} messages -> {args.out}\n  outcomes -> {log}\n  top of inbox: {top}"


def cmd_evaluate_intrinsic(args: argparse.Namespace) -> str:
    eval_pairs = read_eval_pairs(args.pairs)
    labeled = [pair.a for pair in eval_pairs] + [pair.b for pair in eval_pairs]
    comparator = build_comparator(args.comparator, labeled, **_comparator_options(args))
    report = metrics.intrinsic_accuracy(eval_pairs, comparator)
    _write_args_report(args, comparator.cache_identity, intrinsic=report.to_record())
    summary = f"intrinsic accuracy {report.overall_accuracy:.4f} -> {args.out}"
    return f"{_intrinsic_table(report)}\n{summary}" if args.table else summary


def _intrinsic_table(report: metrics.IntrinsicReport) -> str:
    columns = ["overall"] + [difficulty.value for difficulty in Difficulty]
    values = [f"{report.overall_accuracy:.3f}"]
    for difficulty in Difficulty:
        accuracy, n = report.per_difficulty.get(difficulty, (float("nan"), 0))
        values.append(f"{accuracy:.3f} (n={n})" if n else "-")
    width = max(len(c) for c in columns + values) + 2
    header = "".join(c.ljust(width) for c in columns)
    row = "".join(v.ljust(width) for v in values)
    return f"{header}\n{row}"


def _report_ks(ks: Sequence[int], inbox_size: int) -> list[int]:
    """The cutoffs an inbox is scored at; a k above the inbox is skipped."""
    if any(k < 1 for k in ks):
        raise ConfigError(f"every k must be >= 1, got {list(ks)}")
    return [k for k in ks if k <= inbox_size]


def _extrinsic_sections(
    result: rank.TournamentResult,
    inbox: Sequence[LabeledMessage],
    ks: Sequence[int],
) -> dict:
    """The "extrinsic" and "ranking" report sections."""
    labels = labels_by_id(inbox)
    class_groups = annotate.sextile_classes(result.ranking)
    by_k = {}
    for k in _report_ks(ks, len(inbox)):
        mean, stddev = metrics.expected_t_ndcg(class_groups, labels, k=k)
        by_k[str(k)] = {
            "ndcg": metrics.ndcg_at_k(result.ranking, labels, k=k),
            "t_ndcg": metrics.t_ndcg_at_k(result.ranking, labels, k=k),
            "expected_t_ndcg_sextile": {"mean": mean, "stddev": stddev},
        }
    return {
        "extrinsic": {"at_k": by_k, "ties_encountered": result.ties_encountered},
        "ranking": list(result.ranking),
    }


def _extrinsic_table(extrinsic: dict) -> str:
    lines = ["k       NDCG@k    T-NDCG@k"]
    for k, values in sorted(extrinsic["at_k"].items(), key=lambda kv: int(kv[0])):
        lines.append(f"{k:<8}{values['ndcg']:<10.3f}{values['t_ndcg']:.3f}")
    return "\n".join(lines)


def cmd_evaluate_extrinsic(args: argparse.Namespace) -> str:
    inbox = load_corpus(args.inbox)
    comparator = build_comparator(args.comparator, inbox, **_comparator_options(args))
    result = rank.run_tournament([labeled.message for labeled in inbox], comparator)
    ks = _parse_ints(args.ks, "k list", "10,30")
    sections = _extrinsic_sections(result, inbox, ks)
    _write_args_report(args, comparator.cache_identity, **sections)
    summary = f"extrinsic report -> {args.out}"
    return f"{_extrinsic_table(sections['extrinsic'])}\n{summary}" if args.table else summary


def cmd_bias_report(args: argparse.Namespace) -> str:
    eval_pairs = read_eval_pairs(args.pairs)
    labeled = [pair.a for pair in eval_pairs] + [pair.b for pair in eval_pairs]
    comparator = build_comparator(args.comparator, labeled, **_comparator_options(args))
    report = metrics.bias_strata(eval_pairs, comparator, metrics.BiasScheme(args.scheme))
    _write_args_report(args, comparator.cache_identity, bias=report.to_record())
    return (
        f"{args.scheme}: chi2={report.chi_square:.4f} p={report.p_value:.4f} "
        f"V={report.cramers_v:.4f} -> {args.out}"
    )


def _annotation(record: dict) -> tuple:
    row = (record["pair_id"], record["annotator_id"], record["choice"])
    if any(isinstance(value, (list, dict)) for value in row):
        raise MalformedRecord("pair_id, annotator_id and choice must be scalars")
    return row


def cmd_agreement(args: argparse.Namespace) -> str:
    rows = read_jsonl(args.annotations, _annotation)
    report = metrics.agreement(rows)
    _write_args_report(args, "n/a", agreement=report.to_record())
    return (
        f"agreement {report.percent_agreement:.4f}, "
        f"kappa {report.cohens_kappa:.4f} -> {args.out}"
    )


# ----------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration for one end-to-end pipeline run."""

    corpus: str
    out_dir: str
    seed: int = 0
    comparator: str = "oracle"
    flip: dict[int, float] = field(default_factory=dict)
    margin: float = ORACLE_MARGIN
    pair_count: int = 60
    triplet_cap: int = 4
    inbox_counts: tuple[int, ...] = (5, 5, 5, 5, 5, 5)
    ks: tuple[int, ...] = (10, 30)
    auto_label: bool = False
    model: str | None = None
    base_url: str | None = None

    def canonical(self) -> dict:
        """Every setting the config hash covers, as JSON would hold it."""
        settings = {
            setting.name: getattr(self, setting.name)
            for setting in fields(self)
            if setting.name not in _UNHASHED
        }
        settings["flip"] = {str(gap): p for gap, p in sorted(self.flip.items())}
        return settings

    @property
    def config_hash(self) -> str:
        return _sha256_text(json.dumps(self.canonical(), sort_keys=True))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


# what a config file value must be, for every key
_SETTING_TYPES = {
    "corpus": ("a string", lambda path: isinstance(path, str)),
    "out_dir": ("a string", lambda path: isinstance(path, str)),
    "model": ("a string or null", lambda name: name is None or isinstance(name, str)),
    "base_url": ("a string or null", lambda url: url is None or isinstance(url, str)),
    "seed": ("an integer", _is_int),
    "pair_count": ("an integer", _is_int),
    "triplet_cap": ("an integer", _is_int),
    "margin": ("a number", _is_number),
    "flip": (
        "an object mapping integer gaps to numbers",
        lambda flip: isinstance(flip, dict)
        and all(gap.isdecimal() and _is_number(p) for gap, p in flip.items()),
    ),
    "ks": ("a list of integers", _is_int_list),
    "inbox_counts": ("a list of integers", _is_int_list),
    "auto_label": ("true or false", lambda flag: isinstance(flag, bool)),
    "comparator": (f"one of {COMPARATOR_CHOICES}", lambda name: name in COMPARATOR_CHOICES),
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    settings: dict = {}
    if args.config:
        try:
            settings = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(settings, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, (expected, valid) in _SETTING_TYPES.items():
            if key in settings and not valid(settings[key]):
                raise ConfigError(
                    f"config key {key!r} must be {expected}, got {settings[key]!r}"
                )
        if "flip" in settings:
            flip = {int(k): float(v) for k, v in settings["flip"].items()}
            if len(flip) != len(settings["flip"]):
                raise ConfigError(f"config key 'flip' names a gap twice: {settings['flip']!r}")
            settings["flip"] = flip
        for key in ("inbox_counts", "ks"):
            if key in settings:
                settings[key] = tuple(settings[key])
    names = {setting.name for setting in fields(RunConfig)}
    for name in names:
        flag = getattr(args, name, None)  # None when not given or not a pipeline flag
        if flag is not None:
            settings[name] = flag
    if getattr(args, "flip", None) is not None:
        settings["flip"] = _parse_entries(args.flip, "flip", "gap:prob", int, float)
    unknown = set(settings) - names
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "corpus" not in settings or "out_dir" not in settings:
        raise ConfigError("pipeline needs a corpus path and an output directory")
    return RunConfig(**settings)


class _StageFailure(Exception):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"pipeline failed at stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    """Name the pipeline stage the body runs in any failure it raises."""
    try:
        yield
    except OSError as exc:
        raise _StageFailure(name, DataError(str(exc))) from exc
    except Exception as exc:
        raise _StageFailure(name, exc) from exc


# every artifact run_pipeline writes to out_dir, by manifest name
_ARTIFACTS = {
    "filtered_corpus": "filtered.jsonl",
    "eval_pairs": "eval_pairs.jsonl",
    "triplets": "triplets.jsonl",
    "sft": "sft.jsonl",
    "reward": "reward.jsonl",
    "inbox": "inbox.jsonl",
    "outcomes": "outcomes.jsonl",
    "ranking": "ranking.json",
    "intrinsic": "intrinsic.json",
    "extrinsic": "extrinsic.json",
}


def run_pipeline(config: RunConfig) -> dict:
    """Execute load -> filter -> exports -> inbox -> tournament -> metrics.

    Artifacts land in config.out_dir; the returned manifest links each one
    by content hash. Artifacts of the stages before a failed one are kept;
    those a previous run left in out_dir are removed first.
    """
    def _comparator(labeled: Sequence[LabeledMessage]) -> Comparator:
        return build_comparator(
            config.comparator, labeled, seed=config.seed, flip=config.flip,
            margin=config.margin, model=config.model, base_url=config.base_url,
        )

    # bad settings fail here, before any stage writes an artifact; the
    # oracle gets its labels once the corpus is filtered
    _comparator(())
    spec = InboxSpec(config.inbox_counts, seed=config.seed)
    if spec.total < 6:
        raise ConfigError(
            f"inbox_counts must request >= 6 messages for sextile labeling, got {spec.total}"
        )
    _report_ks(config.ks, spec.total)
    check_pair_count(config.pair_count)
    check_triplet_limits(config.triplet_cap)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = {name: out_dir / file_name for name, file_name in _ARTIFACTS.items()}
    # a reused out_dir must not keep a finished run's files next to this
    # run's: a failed run leaves only the stages it completed, no manifest.
    # A corpus read from a previous run's artifact stays until it is read.
    corpus_path = Path(config.corpus).resolve()
    for stale in (out_dir / "manifest.json", *path.values()):
        if stale.resolve() != corpus_path:
            stale.unlink(missing_ok=True)
        remove_temporaries(stale)

    with _stage("load"):
        raw = load_corpus(config.corpus)
    with _stage("filter"):
        corpus, _ = split_ordinal(raw)
        if config.auto_label:
            relabeled = annotate.auto_label_corpus([labeled.message for labeled in corpus])
            corpus, _ = split_ordinal(relabeled)
        save_corpus(corpus, path["filtered_corpus"])
    with _stage("pairs"):
        eval_pairs = build_eval_pairs(corpus, config.pair_count, config.seed)
        write_eval_pairs(eval_pairs, path["eval_pairs"])
    with _stage("triplets"):
        triplets = build_triplets(corpus, config.triplet_cap, config.seed)
        write_triplets(triplets, path["triplets"])
    with _stage("export_sft"):
        export_sft(triplets, path["sft"])
    with _stage("export_reward"):
        export_reward(triplets, path["reward"])
    with _stage("inbox"):
        inbox = assemble_inbox(corpus, spec)
        save_corpus(inbox, path["inbox"])
    with _stage("comparator"):
        comparator = _comparator(corpus)
    envelope = _envelope(config.seed, config.config_hash, comparator.cache_identity)
    with _stage("tournament"):
        messages = [labeled.message for labeled in inbox]
        result = rank.run_tournament(messages, comparator, log=path["outcomes"])
        section = _tournament_section(result, path["outcomes"])
        _write_report(path["ranking"], envelope, tournament=section)
    with _stage("metrics"):
        intrinsic = metrics.intrinsic_accuracy(eval_pairs, comparator)
        _write_report(path["intrinsic"], envelope, intrinsic=intrinsic.to_record())
        sections = _extrinsic_sections(result, inbox, config.ks)
        _write_report(path["extrinsic"], envelope, **sections)
    with _stage("manifest"):
        manifest = {
            **envelope,
            "config": config.canonical(),
            "artifacts": {
                name: {
                    "path": _ARTIFACTS[name],
                    # the tournament section has hashed the outcome log, the largest artifact
                    "sha256": section["outcomes_sha256"]
                    if name == "outcomes"
                    else _sha256_file(path[name]),
                }
                for name in sorted(_ARTIFACTS)
            },
        }
        _write_report(out_dir / "manifest.json", manifest)
    return manifest


def cmd_pipeline(args: argparse.Namespace) -> str:
    config = _config_from_args(args)
    manifest = run_pipeline(config)
    artifacts = manifest["artifacts"]
    lines = [f"pipeline complete -> {config.out_dir}"]
    lines += [f"  {name}: {artifacts[name]['path']}" for name in sorted(artifacts)]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# parser


def _add_comparator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--comparator", choices=COMPARATOR_CHOICES, default="oracle"
    )
    parser.add_argument("--flip", default="", help="oracle flip map, e.g. 1:0.3,2:0.15")
    parser.add_argument("--margin", type=float, default=ORACLE_MARGIN)
    parser.add_argument("--model", help="endpoint model name (remote comparators)")
    parser.add_argument("--base-url", help="endpoint base URL (remote comparators)")
    parser.add_argument("--cache", help="comparison cache file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triagerank",
        description="Rank patient messages by medical urgency with pairwise comparators.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def _sub(
        name: str, func, seed_default: int | None = 0, *, seeded: bool = True, **kwargs
    ) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, **kwargs)
        sub.set_defaults(func=func)
        if seeded:
            sub.add_argument("--seed", type=int, default=seed_default)
        return sub

    sub = _sub("load-validate", cmd_load_validate, seeded=False, help="validate a corpus file")
    sub.add_argument("--corpus", required=True)

    sub = _sub(
        "auto-label", cmd_auto_label, seeded=False,
        help="label messages from clinician responses",
    )
    sub.add_argument("--messages", required=True)
    sub.add_argument("--out", required=True)

    sub = _sub("build-pairs", cmd_build_pairs, help="sample evaluation pairs")
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--count", type=int, default=100)
    sub.add_argument("--quotas", help="per-difficulty quotas, e.g. easy:10,hard:5")
    sub.add_argument("--out", required=True)

    sub = _sub("build-triplets", cmd_build_triplets, help="sample training triplets")
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--cap", type=int, default=4)
    sub.add_argument("--count", type=int)
    sub.add_argument("--out", required=True)

    for name, func in (("export-sft", cmd_export_sft), ("export-reward", cmd_export_reward)):
        sub = _sub(
            name, func, seeded=False, help=f"write the {name.split('-')[1]} training export"
        )
        sub.add_argument("--triplets", required=True, help="triplets file from build-triplets")
        sub.add_argument("--out", required=True)

    sub = _sub("assemble-inbox", cmd_assemble_inbox, help="draw a per-level inbox sample")
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--spec", default="5,5,5,5,5,5", help="counts for L1..L6")
    sub.add_argument("--out", required=True)

    sub = _sub(
        "rank-inbox", cmd_rank_inbox, seed_default=None, help="run the pairwise tournament"
    )
    sub.add_argument("--inbox", required=True)
    sub.add_argument("--out", required=True)
    _add_comparator_flags(sub)

    sub = _sub(
        "evaluate-intrinsic", cmd_evaluate_intrinsic, seed_default=None, help="pairwise accuracy"
    )
    sub.add_argument("--pairs", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--table", action="store_true")
    _add_comparator_flags(sub)

    sub = _sub(
        "evaluate-extrinsic", cmd_evaluate_extrinsic, seed_default=None,
        help="inbox sorting quality",
    )
    sub.add_argument("--inbox", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--ks", default="10,30")
    sub.add_argument("--table", action="store_true")
    _add_comparator_flags(sub)

    sub = _sub(
        "bias-report", cmd_bias_report, seed_default=None,
        help="demographic stratification",
    )
    sub.add_argument("--pairs", required=True)
    sub.add_argument(
        "--scheme",
        choices=[scheme.value for scheme in metrics.BiasScheme],
        default=metrics.BiasScheme.AGE_ORDERING.value,
    )
    sub.add_argument("--out", required=True)
    _add_comparator_flags(sub)

    sub = _sub("agreement", cmd_agreement, seeded=False, help="inter-annotator agreement")
    sub.add_argument("--annotations", required=True)
    sub.add_argument("--out", required=True)

    sub = _sub("pipeline", cmd_pipeline, seed_default=None, help="run every stage end to end")
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--corpus")
    sub.add_argument("--out-dir")
    sub.add_argument("--comparator", choices=COMPARATOR_CHOICES)
    sub.add_argument("--flip", help="oracle flip map, e.g. 1:0.3,2:0.15")
    sub.add_argument("--margin", type=float)
    sub.add_argument("--model")
    sub.add_argument("--base-url")
    sub.add_argument("--auto-label", action="store_true", default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        summary = args.func(args)
    except _StageFailure as failure:
        print(failure, file=sys.stderr)
        return exit_code_for(failure.cause)
    except TriageRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    try:
        print(summary, flush=True)
    except BrokenPipeError:
        # The reader of stdout left, but the run is done and its files are
        # written. What print left buffered goes to the null device, so the
        # flush at interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
