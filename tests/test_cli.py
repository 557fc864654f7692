from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from triagerank import cli
from triagerank.compare import (
    ComparisonCache,
    DirectionScore,
    NoisyOracleComparator,
    ScoreKind,
    compare,
)
from triagerank.corpus import EhrRecord, Gender, fixture_corpus_path, load_corpus, save_corpus
from triagerank.errors import ComparisonFailed
from triagerank.pairs import EvalPair, build_triplets, write_eval_pairs
from triagerank.rank import run_tournament

from .conftest import level_corpus, make_labeled
from .mock_gateway import answer_by_new_message, new_slot
from .test_compare import _answer_by_urgency

FIXTURE = str(fixture_corpus_path())


def run_cli(*argv) -> int:
    return cli.main([str(arg) for arg in argv])


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _readme_commands() -> list[list[str]]:
    """The triagerank lines of README's "Command line" block, as argv lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line.replace("$FIXTURE", shlex.quote(FIXTURE)))[1:]
        for line in block.splitlines()
        if line.startswith("triagerank ")
    ]


def test_readme_command_lines_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 11
    for argv in commands:
        assert cli.main(argv) == 0, argv


def test_load_validate_ok(capsys):
    assert run_cli("load-validate", "--corpus", FIXTURE) == 0
    out = capsys.readouterr().out
    assert "30 records valid" in out
    assert "L1: 5" in out


def test_load_validate_missing_file():
    assert run_cli("load-validate", "--corpus", "/nonexistent/corpus.jsonl") == 3


def test_load_validate_bad_label(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "hi", "label": "L9"}\n')
    assert run_cli("load-validate", "--corpus", path) == 3
    assert "L9" in capsys.readouterr().err


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        run_cli("load-validate", "--nope")
    assert excinfo.value.code == 2


@pytest.mark.parametrize("command, flag", [("load-validate", "--corpus"), ("auto-label", "--messages")])
def test_commands_that_draw_nothing_take_no_seed(tmp_path, command, flag):
    out = tmp_path / "labeled.jsonl"
    argv = [command, flag, FIXTURE] + (["--out", out] if command == "auto-label" else [])
    assert run_cli(*argv) == 0
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv, "--seed", 0)
    assert excinfo.value.code == 2


def test_auto_label_round_trip(tmp_path, capsys):
    out = tmp_path / "labeled.jsonl"
    assert run_cli("auto-label", "--messages", FIXTURE, "--out", out) == 0
    relabeled = load_corpus(out)
    original = load_corpus(FIXTURE)
    assert [labeled.label for labeled in relabeled] == [
        labeled.label for labeled in original
    ]


def test_build_pairs_and_evaluate_intrinsic(tmp_path, capsys):
    pairs_path = tmp_path / "pairs.jsonl"
    report_path = tmp_path / "intrinsic.json"
    assert (
        run_cli(
            "build-pairs", "--corpus", FIXTURE, "--count", 40, "--seed", 3,
            "--out", pairs_path,
        )
        == 0
    )
    assert (
        run_cli(
            "evaluate-intrinsic", "--pairs", pairs_path, "--comparator", "oracle",
            "--out", report_path, "--table",
        )
        == 0
    )
    report = read_json(report_path)
    assert report["intrinsic"]["overall_accuracy"] == 1.0
    assert report["prompt_catalog_version"]
    assert "config_hash" in report and "seed" in report and "comparator" in report
    out = capsys.readouterr().out
    assert "overall" in out


def test_build_triplets_and_exports(tmp_path):
    triplets_path = tmp_path / "triplets.jsonl"
    assert (
        run_cli(
            "build-triplets", "--corpus", FIXTURE, "--cap", 4, "--seed", 1,
            "--out", triplets_path,
        )
        == 0
    )
    triplet_count = len(triplets_path.read_text().splitlines())
    sft_path = tmp_path / "sft.jsonl"
    reward_path = tmp_path / "reward.jsonl"
    assert run_cli("export-sft", "--triplets", triplets_path, "--out", sft_path) == 0
    assert run_cli("export-reward", "--triplets", triplets_path, "--out", reward_path) == 0
    assert len(sft_path.read_text().splitlines()) == 4 * triplet_count
    assert len(reward_path.read_text().splitlines()) == 2 * triplet_count


def test_export_sft_reads_triplets_only(tmp_path):
    """Exports take a triplets file; drawing triplets is build-triplets' work."""
    triplets_path = tmp_path / "triplets.jsonl"
    assert run_cli(
        "build-triplets", "--corpus", FIXTURE, "--cap", 2, "--seed", 5, "--count", 6,
        "--out", triplets_path,
    ) == 0
    sft_path = tmp_path / "sft.jsonl"
    for command in ("export-sft", "export-reward"):
        # the old route, and each of its flags beside --triplets, where it did nothing
        for argv in (
            ("--corpus", FIXTURE, "--cap", 2, "--seed", 5, "--count", 6),
            ("--triplets", triplets_path, "--corpus", FIXTURE),
            ("--triplets", triplets_path, "--cap", 2),
            ("--triplets", triplets_path, "--seed", 5),
            ("--triplets", triplets_path, "--count", 6),
        ):
            with pytest.raises(SystemExit) as excinfo:
                run_cli(command, *argv, "--out", sft_path)
            assert excinfo.value.code == 2, (command, argv)
    assert not sft_path.exists()
    assert run_cli("export-sft", "--triplets", triplets_path, "--out", sft_path) == 0
    assert len(sft_path.read_text().splitlines()) == 24


def test_assemble_inbox_spec(tmp_path):
    out = tmp_path / "inbox.jsonl"
    assert (
        run_cli(
            "assemble-inbox", "--corpus", FIXTURE, "--spec", "5,5,5,5,5,5",
            "--seed", 2, "--out", out,
        )
        == 0
    )
    assert len(load_corpus(out)) == 30
    assert (
        run_cli(
            "assemble-inbox", "--corpus", FIXTURE, "--spec", "5,3,5,7,7,4",
            "--seed", 2, "--out", out,
        )
        == 3  # fixture has only 5 per level, 7 are requested
    )


def test_rank_inbox_with_cache(tmp_path):
    report_path = tmp_path / "rank.json"
    cache_path = tmp_path / "cache.jsonl"
    assert (
        run_cli(
            "rank-inbox", "--inbox", FIXTURE, "--comparator", "oracle",
            "--cache", cache_path, "--out", report_path,
        )
        == 0
    )
    first = read_json(report_path)
    assert first["tournament"]["comparisons_made"] == 435
    assert first["tournament"]["cache_hits"] == 0
    assert (
        run_cli(
            "rank-inbox", "--inbox", FIXTURE, "--comparator", "oracle",
            "--cache", cache_path, "--out", report_path,
        )
        == 0
    )
    second = read_json(report_path)
    assert second["tournament"]["cache_hits"] == 435
    assert second["tournament"]["comparisons_made"] == 0
    assert second["tournament"]["ranking"] == first["tournament"]["ranking"]
    # the outcomes served from the cache are the computed ones, byte for byte
    assert second["tournament"]["outcomes_sha256"] == first["tournament"]["outcomes_sha256"]


def test_evaluate_extrinsic_table(tmp_path, capsys):
    report_path = tmp_path / "extrinsic.json"
    assert (
        run_cli(
            "evaluate-extrinsic", "--inbox", FIXTURE, "--comparator", "oracle",
            "--ks", "10,30", "--out", report_path, "--table",
        )
        == 0
    )
    report = read_json(report_path)
    assert set(report["extrinsic"]["at_k"]) == {"10", "30"}
    assert report["extrinsic"]["at_k"]["30"]["ndcg"] == pytest.approx(1.0)
    out = capsys.readouterr().out
    assert "T-NDCG@k" in out


def test_bias_report_cli(tmp_path):
    pairs_path = tmp_path / "pairs.jsonl"
    report_path = tmp_path / "bias.json"
    run_cli("build-pairs", "--corpus", FIXTURE, "--count", 60, "--seed", 4,
            "--out", pairs_path)
    assert (
        run_cli(
            "bias-report", "--pairs", pairs_path, "--scheme", "age_ordering",
            "--flip", "1:0.4,2:0.2", "--out", report_path,
        )
        == 0
    )
    report = read_json(report_path)
    assert 0.0 <= report["bias"]["cramers_v"] <= 1.0


def _bias_pair(index, more_level, less_level, more_age=None, less_age=None):
    """An eval pair of messages whose text names their urgency, with an EHR where an age is given."""

    def labeled(side, level, age):
        message_id = f"{side}{index}"
        ehr = None if age is None else EhrRecord(age=age, gender=Gender.FEMALE)
        text = f"urgency {level}: note {message_id}"
        return make_labeled(message_id, level, text=text, ehr=ehr)

    return EvalPair(labeled("more", more_level, more_age), labeled("less", less_level, less_age))


def test_remote_bias_report_asks_only_about_stratifiable_pairs(tmp_path, mock_endpoint):
    mock_endpoint.answer = _answer_by_urgency
    pairs = [
        _bias_pair(0, 1, 4, 70, 30),
        _bias_pair(1, 2, 5, 20, 60),
        _bias_pair(2, 1, 3, 50, None),  # one side has no EHR
        _bias_pair(3, 2, 6),  # neither side has one
        _bias_pair(4, 3, 6, 40, 40),  # equal ages: no ordering
        _bias_pair(5, 1, 4, 80, 35),
    ]
    write_eval_pairs(pairs, tmp_path / "pairs.jsonl")
    out = tmp_path / "bias.json"
    assert run_cli(
        "bias-report", "--pairs", tmp_path / "pairs.jsonl", "--scheme", "age_ordering",
        "--comparator", "logprob", "--model", "mock", "--base-url", mock_endpoint.base_url,
        "--out", out,
    ) == 0
    # two directed requests for each of the three stratifiable pairs, none for the rest
    assert len(mock_endpoint.requests) == 2 * 3
    asked = {
        re.search(r"note (\w+)", new_slot(request["body"])).group(1)
        for request in mock_endpoint.requests
    }
    assert asked == {"more0", "less0", "more1", "less1", "more5", "less5"}
    bias = read_json(out)["bias"]
    assert bias["skipped"] == 3
    assert bias["strata"] == {
        "older_less_urgent": {"correct": 1, "incorrect": 0},
        "older_more_urgent": {"correct": 2, "incorrect": 0},
    }


def test_remote_bias_report_over_pairs_without_ehr_sends_nothing(
    tmp_path, mock_endpoint, capsys
):
    mock_endpoint.answer = _answer_by_urgency
    write_eval_pairs([_bias_pair(0, 1, 4), _bias_pair(1, 2, 6)], tmp_path / "pairs.jsonl")
    out = tmp_path / "bias.json"
    assert run_cli(
        "bias-report", "--pairs", tmp_path / "pairs.jsonl", "--comparator", "logprob",
        "--model", "mock", "--base-url", mock_endpoint.base_url, "--out", out,
    ) == 3
    assert "no pair is usable" in capsys.readouterr().err
    assert mock_endpoint.requests == []
    assert not out.exists()


def test_agreement_cli(tmp_path):
    annotations = tmp_path / "annotations.jsonl"
    rows = []
    for index in range(6):
        rows.append({"pair_id": f"p{index}", "annotator_id": "a1", "choice": "A"})
        rows.append({"pair_id": f"p{index}", "annotator_id": "a2", "choice": "A"})
    annotations.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
    report_path = tmp_path / "agreement.json"
    argv = ("agreement", "--annotations", annotations, "--out", report_path)
    assert run_cli(*argv) == 0
    report = read_json(report_path)
    assert report["agreement"]["cohens_kappa"] == 1.0
    # agreement draws nothing, so it has no seed to take or report
    assert report["seed"] is None
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv, "--seed", 1)
    assert excinfo.value.code == 2


@pytest.mark.parametrize("field", ["pair_id", "choice"])
def test_agreement_rejects_non_scalar_field(tmp_path, capsys, field):
    row = {"pair_id": "p0", "annotator_id": "a1", "choice": "A"}
    annotations = tmp_path / "annotations.jsonl"
    annotations.write_text(json.dumps(row) + "\n" + json.dumps({**row, field: ["A"]}) + "\n")
    out = tmp_path / "agreement.json"
    assert run_cli("agreement", "--annotations", annotations, "--out", out) == 3
    assert "line 2" in capsys.readouterr().err


def test_pipeline_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert (
        run_cli("pipeline", "--corpus", FIXTURE, "--out-dir", out_dir, "--seed", 0) == 0
    )
    manifest = read_json(out_dir / "manifest.json")
    assert set(manifest["artifacts"]) == {
        "filtered_corpus", "eval_pairs", "triplets", "sft", "reward",
        "inbox", "outcomes", "ranking", "intrinsic", "extrinsic",
    }
    intrinsic = read_json(out_dir / "intrinsic.json")
    assert intrinsic["intrinsic"]["overall_accuracy"] == 1.0
    extrinsic = read_json(out_dir / "extrinsic.json")
    assert "30" in extrinsic["extrinsic"]["at_k"]
    for name, entry in manifest["artifacts"].items():
        artifact = out_dir / entry["path"]
        assert artifact.exists(), name
        assert len(entry["sha256"]) == 64


def test_pipeline_deterministic(tmp_path):
    dir_1 = tmp_path / "run1"
    dir_2 = tmp_path / "run2"
    for out_dir in (dir_1, dir_2):
        assert (
            run_cli("pipeline", "--corpus", FIXTURE, "--out-dir", out_dir, "--seed", 7)
            == 0
        )
    for artifact in sorted(dir_1.iterdir()):
        assert (dir_2 / artifact.name).read_bytes() == artifact.read_bytes(), artifact.name


# sha256 of every artifact of the fixture pipeline below. A change that
# moves any of them changes artifact bytes and must say so in CHANGES.md.
# Every report float is computed in pure Python with correctly rounded
# sums, so the hashes hold on Python 3.10 to 3.13 and need no numerical
# library version.
GOLDEN_ARTIFACT_SHA256 = {
    "eval_pairs": "5c3bde0ea814ee3e8e73348219d404425e6593c420d32ffed554f4f82d320527",
    "extrinsic": "544fde2e929283230a15fd286c2a6192a6e1ec389d463d3871d529f426706faa",
    "filtered_corpus": "166cf60d8f9daa1b17ac2d3aff55dacb809091b3c3c168f7dedc7059c3ac1000",
    "inbox": "5bed1fb4c22391388ce61a68db847b809f80880cfacddfec53f65b52db78f48a",
    "intrinsic": "0026bab88734b7d1ad6c4f479cb47506e1984b986998fa98332d2e919bdd5307",
    "outcomes": "1d4f48dde0c1d5d388dbb0a9826e6e31878d7ce6d680fc4a0d66ac372bd5b60d",
    "ranking": "cca65f63795fad2c3ad2cf39ff0bf8ee92af50a3f8947f9fd98b01bafdcd2c30",
    "reward": "089a268b7e3e42f65c617295158f486b7e6d36a15e295e01d7d124e6a4f05988",
    "sft": "1b7a795fd0fad9fa3e4c272fca0d15a2c79f657b6dae22f90b84be8ce724bc9c",
    "triplets": "590d1c06a421cad4e82bc15df86ed1bae512c0e6fab55f2ae361e15aab2eac7d",
}


def test_pipeline_artifact_hashes_golden(tmp_path, monkeypatch):
    # the corpus path is part of the config hash in every report, so the
    # run uses a relative one
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.jsonl").write_bytes(Path(FIXTURE).read_bytes())
    manifest = cli.run_pipeline(
        cli.RunConfig(
            corpus="corpus.jsonl", out_dir="run", seed=3, comparator="oracle",
            flip={1: 0.3, 2: 0.15},
        )
    )
    hashes = {name: entry["sha256"] for name, entry in manifest["artifacts"].items()}
    assert hashes == GOLDEN_ARTIFACT_SHA256


def test_pipeline_hashes_the_outcome_log_once(tmp_path, monkeypatch):
    hashed = []
    sha256_file = cli._sha256_file

    def spy(path):
        hashed.append(Path(path).name)
        return sha256_file(path)

    monkeypatch.setattr(cli, "_sha256_file", spy)
    out_dir = tmp_path / "run"
    manifest = cli.run_pipeline(cli.RunConfig(corpus=FIXTURE, out_dir=str(out_dir), seed=3))
    assert hashed.count("outcomes.jsonl") == 1
    assert sorted(hashed) == sorted(cli._ARTIFACTS.values())
    digest = hashlib.sha256((out_dir / "outcomes.jsonl").read_bytes()).hexdigest()
    ranking = read_json(out_dir / "ranking.json")
    assert manifest["artifacts"]["outcomes"]["sha256"] == digest
    assert ranking["tournament"]["outcomes_sha256"] == digest


def test_pipeline_missing_corpus_signals_load_stage(tmp_path, capsys):
    code = run_cli(
        "pipeline", "--corpus", tmp_path / "absent.jsonl", "--out-dir", tmp_path / "o"
    )
    assert code == 3
    assert "stage 'load'" in capsys.readouterr().err


def _raise_comparison_failed(*args, **kwargs):
    raise ComparisonFailed("backend gave no answer")


_BEFORE_INBOX = [
    "filtered.jsonl", "eval_pairs.jsonl", "triplets.jsonl", "sft.jsonl", "reward.jsonl",
]
# a file in --out-dir that no pipeline run writes
_OWN_FILE = "notes.txt"


@pytest.mark.parametrize(
    "stage, settings, broken, code, written",
    [
        ("load", {"corpus": "absent.jsonl"}, None, 3, []),
        # the fixture holds five messages per level, six are asked for
        ("inbox", {"inbox_counts": [6, 5, 5, 5, 5, 5]}, None, 3, _BEFORE_INBOX),
        ("tournament", {}, (cli.rank, "run_tournament"), 4, _BEFORE_INBOX + ["inbox.jsonl"]),
        (
            "metrics", {}, (cli.metrics, "intrinsic_accuracy"), 4,
            _BEFORE_INBOX + ["inbox.jsonl", "outcomes.jsonl", "ranking.json"],
        ),
        pytest.param(
            "tournament", {}, (cli.rank, "run_tournament"), 4,
            _BEFORE_INBOX + ["inbox.jsonl", _OWN_FILE],
            id="reused-directory",
        ),
    ],
)
def test_pipeline_stage_failure_keeps_earlier_artifacts(
    tmp_path, capsys, monkeypatch, stage, settings, broken, code, written
):
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "run"
    if _OWN_FILE in written:
        # the directory already holds a finished run and a file of the user's
        assert run_cli("pipeline", "--corpus", FIXTURE, "--out-dir", out_dir) == 0
        (out_dir / _OWN_FILE).write_text("kept\n")
    if broken:
        monkeypatch.setattr(*broken, _raise_comparison_failed)
    config_path.write_text(
        json.dumps({"corpus": FIXTURE, "out_dir": str(out_dir), **settings})
    )
    monkeypatch.chdir(tmp_path)
    assert run_cli("pipeline", "--config", config_path) == code
    assert f"pipeline failed at stage {stage!r}" in capsys.readouterr().err
    assert sorted(path.name for path in out_dir.iterdir()) == sorted(written)


def test_pipeline_reads_its_corpus_from_a_previous_run_in_the_same_out_dir(tmp_path):
    out_dir = tmp_path / "run"
    assert run_cli("pipeline", "--corpus", FIXTURE, "--out-dir", out_dir) == 0
    filtered = out_dir / "filtered.jsonl"
    first = filtered.read_bytes()
    assert run_cli("pipeline", "--corpus", filtered, "--out-dir", out_dir) == 0
    assert filtered.read_bytes() == first


def test_pipeline_auto_label_writes_the_records_of_a_plain_run(tmp_path):
    # the keyword classifier reproduces every fixture label
    for name, extra in (("plain", ()), ("auto", ("--auto-label",))):
        argv = ("pipeline", "--corpus", FIXTURE, "--out-dir", tmp_path / name, *extra)
        assert run_cli(*argv) == 0
    for file_name in _BEFORE_INBOX + ["inbox.jsonl"]:
        auto = (tmp_path / "auto" / file_name).read_bytes()
        assert auto == (tmp_path / "plain" / file_name).read_bytes(), file_name


def test_pipeline_config_file_with_overrides(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "corpus": FIXTURE,
                "out_dir": str(tmp_path / "from_config"),
                "seed": 3,
                "pair_count": 20,
            }
        )
    )
    assert run_cli("pipeline", "--config", config_path) == 0
    manifest = read_json(tmp_path / "from_config" / "manifest.json")
    assert manifest["seed"] == 3
    # flag override beats the file
    assert (
        run_cli(
            "pipeline", "--config", config_path, "--seed", 9,
            "--out-dir", tmp_path / "override",
        )
        == 0
    )
    assert read_json(tmp_path / "override" / "manifest.json")["seed"] == 9


@pytest.mark.parametrize(
    "flags, settings",
    [
        (["--flip", "1:0.3,2:0.15"], {"flip": {"1": 0.3, "2": 0.15}}),
        (["--margin", "0.35", "--flip", "1:0.2"], {"margin": 0.35, "flip": {"1": 0.2}}),
    ],
    ids=["flip", "margin"],
)
def test_pipeline_noise_flags_equal_the_config_file(tmp_path, monkeypatch, flags, settings):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.jsonl").write_bytes(Path(FIXTURE).read_bytes())
    Path("noise.json").write_text(json.dumps(settings))
    common = ["--corpus", "corpus.jsonl", "--seed", "3"]
    assert run_cli("pipeline", "--config", "noise.json", *common, "--out-dir", "file") == 0
    assert run_cli("pipeline", *flags, *common, "--out-dir", "flags") == 0
    from_file = read_json(Path("file/manifest.json"))
    from_flags = read_json(Path("flags/manifest.json"))
    assert from_flags["config_hash"] == from_file["config_hash"]
    hashes = {name: entry["sha256"] for name, entry in from_flags["artifacts"].items()}
    assert hashes == {name: entry["sha256"] for name, entry in from_file["artifacts"].items()}
    if flags[0] == "--flip":
        assert hashes == GOLDEN_ARTIFACT_SHA256
    # a flag beats the file, as every pipeline flag does
    assert run_cli("pipeline", "--config", "noise.json", *common, "--flip", "", "--out-dir", "none") == 0
    unflipped = cli.RunConfig("corpus.jsonl", "none", seed=3, **{**settings, "flip": {}})
    assert read_json(Path("none/manifest.json"))["config_hash"] == unflipped.config_hash


def test_pipeline_bad_flip_flag_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert run_cli("pipeline", "--corpus", FIXTURE, "--flip", "1:x", "--out-dir", out_dir) == 2
    assert "bad flip entry '1:x'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_pipeline_unknown_config_key(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"corpus": FIXTURE, "out_dir": "x", "nope": 1}))
    assert run_cli("pipeline", "--config", config_path) == 2


# sha256 of the reports the comparator subcommands write for the fixture
# (oracle, seed 3, flip 1:0.3,2:0.15, relative paths). Every report embeds
# a hash of its arguments but --out and --base-url, so a change to how a
# subcommand builds its comparator or its report moves these.
GOLDEN_REPORT_SHA256 = {
    "bias": "a9dec6b414e296337d49668bdbb066980898424b53e85ec407085696fb044c2a",
    "extrinsic": "c25c9b333addf29868971af11b40634d5f09cdaf7877d4a85a526010acd6a2a8",
    "intrinsic": "027659cbf0c071106851b3e01c91f7b161199a28de847091f2cf2552862644c0",
    "rank": "a21ce74e36c03e7583acf91e3ed48b9ab2b30347a2fe7f2d8bcc065dc9fc0999",
    "rank_cold": "484cb7efa42525f3a87010336d763161270d17145b6034d57b23af2917b7adff",
    "rank_warm": "b640485bc24f064e2d1cb319cdc47b6ac6b58a67af051357866c663e756937e6",
}


def test_subcommand_report_hashes_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.jsonl").write_bytes(Path(FIXTURE).read_bytes())
    assert run_cli(
        "build-pairs", "--corpus", "corpus.jsonl", "--count", 40, "--seed", 3,
        "--out", "pairs.jsonl",
    ) == 0
    oracle = ("--comparator", "oracle", "--seed", 3, "--flip", "1:0.3,2:0.15")
    runs = {
        "rank": ("rank-inbox", "--inbox", "corpus.jsonl"),
        "rank_cold": ("rank-inbox", "--inbox", "corpus.jsonl", "--cache", "cache.jsonl"),
        "rank_warm": ("rank-inbox", "--inbox", "corpus.jsonl", "--cache", "cache.jsonl"),
        "intrinsic": ("evaluate-intrinsic", "--pairs", "pairs.jsonl"),
        "extrinsic": ("evaluate-extrinsic", "--inbox", "corpus.jsonl"),
        "bias": ("bias-report", "--pairs", "pairs.jsonl"),
    }
    hashes = {}
    for name, argv in runs.items():
        assert run_cli(*argv, *oracle, "--out", f"{name}.json") == 0, name
        hashes[name] = hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest()
    assert hashes == GOLDEN_REPORT_SHA256


def test_report_does_not_depend_on_output_path(tmp_path):
    for name in ("a.json", "b.json"):
        assert run_cli(
            "rank-inbox", "--inbox", FIXTURE, "--base-url", f"http://localhost/{name}",
            "--out", tmp_path / name,
        ) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    log = (tmp_path / "a.outcomes.jsonl").read_bytes()
    assert log == (tmp_path / "b.outcomes.jsonl").read_bytes()
    assert len(log.splitlines()) == 30 * 29 // 2


@pytest.mark.parametrize(
    "out, log",
    [("rank.json", "rank.outcomes.jsonl"), ("rank", "rank.outcomes.jsonl"),
     ("rank.outcomes.jsonl", "rank.outcomes.outcomes.jsonl")],
)
def test_outcome_log_sits_next_to_the_report(tmp_path, monkeypatch, out, log):
    monkeypatch.chdir(tmp_path)
    assert run_cli("rank-inbox", "--inbox", FIXTURE, "--out", out) == 0
    report = read_json(tmp_path / out)
    written = (tmp_path / log).read_bytes()
    assert report["tournament"]["outcomes_sha256"] == hashlib.sha256(written).hexdigest()
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted({out, log})


@pytest.mark.parametrize("out", ["", "/"])
def test_out_that_names_no_file_exits_two(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    assert run_cli("rank-inbox", "--inbox", FIXTURE, "--out", out) == 2
    assert "names no file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _fail_outcome_log_on_fourth_line(monkeypatch):
    """Make the fourth line written to an outcome log raise, as a full disk would.

    The hook matches the temporary file beside the log, which is where
    ``write_lines`` writes before it renames the file into place.
    """

    class FailingHandle:
        def __init__(self, handle):
            self.handle, self.writes = handle, 0

        def write(self, text):
            self.writes += 1
            if self.writes == 4:
                raise OSError(28, "No space left on device")
            return self.handle.write(text)

        def __getattr__(self, name):
            return getattr(self.handle, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

    open_path = Path.open

    def failing_open(path, mode="r", *args, **kwargs):
        handle = open_path(path, mode, *args, **kwargs)
        writes_log = mode == "w" and fnmatch.fnmatch(path.name, "*.outcomes.jsonl.*.tmp")
        return FailingHandle(handle) if writes_log else handle

    monkeypatch.setattr(Path, "open", failing_open)


def test_failed_outcome_log_write_exits_three_and_writes_no_report(
    tmp_path, monkeypatch, capsys
):
    _fail_outcome_log_on_fourth_line(monkeypatch)
    assert run_cli("rank-inbox", "--inbox", FIXTURE, "--out", tmp_path / "rank.json") == 3
    assert "cannot write" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_failed_rerun_keeps_previous_report_and_outcome_log(tmp_path, monkeypatch, capsys):
    report, log = tmp_path / "rank.json", tmp_path / "rank.outcomes.jsonl"
    assert run_cli("rank-inbox", "--inbox", FIXTURE, "--out", report) == 0
    before = report.read_bytes(), log.read_bytes()
    _fail_outcome_log_on_fourth_line(monkeypatch)
    assert run_cli("rank-inbox", "--inbox", FIXTURE, "--out", report) == 3
    assert "cannot write" in capsys.readouterr().err
    assert (report.read_bytes(), log.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [report.name, log.name]
    sha = json.loads(report.read_text())["tournament"]["outcomes_sha256"]
    assert sha == hashlib.sha256(log.read_bytes()).hexdigest()


def test_failed_report_write_after_the_new_log_leaves_no_stale_report(
    tmp_path, monkeypatch, capsys
):
    report, log = tmp_path / "rank.json", tmp_path / "rank.outcomes.jsonl"
    argv = ("rank-inbox", "--inbox", FIXTURE, "--flip", "1:0.3", "--out", report)
    assert run_cli(*argv, "--seed", 1) == 0
    first_log = log.read_bytes()
    open_path = Path.open

    def failing_report_open(path, mode="r", *args, **kwargs):
        if mode == "w" and fnmatch.fnmatch(path.name, "rank.json.*.tmp"):
            raise OSError(28, "No space left on device")
        return open_path(path, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", failing_report_open)
    assert run_cli(*argv, "--seed", 2) == 3
    assert "cannot write" in capsys.readouterr().err
    # the rerun's log is in place, and no report names another log
    assert log.read_bytes() != first_log
    assert sorted(p.name for p in tmp_path.iterdir()) == [log.name]


# Kills its own process at the 10th outcome-log line, then runs the CLI on its argv.
# ``triagerank.compare`` as an attribute is the compare function, so the module
# comes from sys.modules.
_KILLED_AT_TENTH_LOG_LINE = """\
import os, signal, sys
from triagerank import cli
outcome_type = sys.modules["triagerank.compare"].ComparisonOutcome
to_line, lines = outcome_type.to_line, []
def to_line_until_killed(outcome):
    lines.append(outcome)
    if len(lines) == 10:
        os.kill(os.getpid(), signal.SIGKILL)
    return to_line(outcome)
outcome_type.to_line = to_line_until_killed
sys.exit(cli.main(sys.argv[1:]))
"""


def test_rerun_after_a_kill_removes_the_orphan_temporary_file(tmp_path):
    """A real SIGKILL mid-tournament leaves the log's temporary file; the rerun removes it.

    Power loss (an unsynced directory, a torn page) cannot be simulated in a
    test, so only the kill is checked.
    """
    clean, run = tmp_path / "clean", tmp_path / "run"
    clean.mkdir()
    run.mkdir()
    (run / "notes.tmp").write_text("a file of the user's\n")
    assert run_cli("rank-inbox", "--inbox", FIXTURE, "--out", clean / "rank.json") == 0
    argv = ["rank-inbox", "--inbox", FIXTURE, "--out", str(run / "rank.json")]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-c", _KILLED_AT_TENTH_LOG_LINE, *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    assert child.wait(timeout=120) == -signal.SIGKILL
    orphan = f"rank.outcomes.jsonl.{child.pid}.tmp"
    assert sorted(path.name for path in run.iterdir()) == ["notes.tmp", orphan]
    # a report's temporary file, as a kill during the report write would leave
    (run / "rank.json.1.tmp").write_text("{\n")
    assert run_cli(*argv) == 0
    assert sorted(path.name for path in run.iterdir()) == [
        "notes.tmp", "rank.json", "rank.outcomes.jsonl",
    ]
    for name in ("rank.json", "rank.outcomes.jsonl"):
        assert (run / name).read_bytes() == (clean / name).read_bytes(), name


# Kills its own process at the k-th cache put (argv[1]), before that pair's line is
# written; with argv[2] "torn" it first appends half of the line, as a kill in the
# middle of the write would leave it. The CLI gets the rest of the argv.
_KILLED_AT_KTH_CACHE_PUT = """\
import os, signal, sys
from triagerank import cli
store_type = sys.modules["triagerank.compare"].ComparisonCache
put, kill_at, torn = store_type.put, int(sys.argv[1]), sys.argv[2] == "torn"
puts = []
def put_until_killed(store, key, first, second):
    puts.append(key)
    if len(puts) == kill_at:
        if torn:
            line = store._format_line(key, first.kind, first.value, second.value).encode("ascii")
            with open(store._path, "ab") as handle:
                handle.write(line[: len(line) // 2])
        os.kill(os.getpid(), signal.SIGKILL)
    put(store, key, first, second)
store_type.put = put_until_killed
sys.exit(cli.main(sys.argv[3:]))
"""


@pytest.mark.parametrize(
    "kill_at, torn", [(1, False), (1, True), (218, False), (218, True), (435, True)]
)
def test_rerun_after_a_kill_at_a_cache_put_equals_a_clean_run(
    tmp_path, monkeypatch, kill_at, torn
):
    """A real SIGKILL at the k-th cache append of a cached rank-inbox; the rerun completes it.

    The rerun exits 0 and its ranking, scores, outcome log and cache file
    equal a clean run's byte for byte; the killed run's cache reloads with
    at most one line dropped, the torn one, and no temporary file is left.
    Power loss (an unsynced directory, a torn page) cannot be simulated in a
    test, so only the kill is checked.
    """
    clean, run = tmp_path / "clean", tmp_path / "run"
    clean.mkdir()
    run.mkdir()
    # the same relative paths in both runs, so that their config hashes agree
    argv = [
        "rank-inbox", "--inbox", FIXTURE, "--comparator", "oracle", "--flip", "1:0.3,2:0.15",
        "--cache", "cache.jsonl", "--out", "rank.json",
    ]
    monkeypatch.chdir(clean)
    assert run_cli(*argv) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-c", _KILLED_AT_KTH_CACHE_PUT, str(kill_at),
         "torn" if torn else "whole", *argv],
        cwd=run, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    assert child.wait(timeout=120) == -signal.SIGKILL
    assert not (run / "rank.json").exists()
    # the append handle opens at the first put, so a kill before it leaves no file
    cache = run / "cache.jsonl"
    killed_cache = cache.read_bytes() if cache.exists() else b""
    whole = kill_at - 1
    assert killed_cache.count(b"\n") == whole
    assert len(killed_cache.splitlines()) == whole + torn
    # a reload of a copy drops at most the torn line and keeps every whole one
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(killed_cache)
    reloaded = ComparisonCache(copy)
    assert len(reloaded) == whole
    reloaded.close()

    monkeypatch.chdir(run)
    assert run_cli(*argv) == 0
    assert not list(run.glob("*.tmp"))
    for name in ("rank.outcomes.jsonl", "cache.jsonl"):
        assert (run / name).read_bytes() == (clean / name).read_bytes(), name
    rerun = json.loads((run / "rank.json").read_text())
    reference = json.loads((clean / "rank.json").read_text())
    # the report differs from the clean run's only in what the cache served
    assert reference["tournament"].pop("cache_hits") == 0
    pairs = reference["tournament"].pop("comparisons_made")
    assert rerun["tournament"].pop("cache_hits") == whole
    assert rerun["tournament"].pop("comparisons_made") == pairs - whole
    assert rerun == reference


# Kills its own process on entering cli.export_sft, after the triplets stage and
# before the export_sft stage writes anything, then runs the CLI on its argv.
_KILLED_ENTERING_EXPORT_SFT = """\
import os, signal, sys
from triagerank import cli
def export_sft_killed(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)
cli.export_sft = export_sft_killed
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "script, written, orphan",
    [
        (
            _KILLED_ENTERING_EXPORT_SFT,
            ["filtered.jsonl", "eval_pairs.jsonl", "triplets.jsonl"], None,
        ),
        (_KILLED_AT_TENTH_LOG_LINE, _BEFORE_INBOX + ["inbox.jsonl"], "outcomes.jsonl"),
    ],
    ids=["entering-export-sft", "tenth-outcome-line"],
)
def test_pipeline_rerun_after_a_kill_equals_a_clean_run(tmp_path, script, written, orphan):
    """A real SIGKILL between two pipeline stages or mid-tournament; the rerun completes it.

    The killed run leaves the artifacts of the stages before the kill, the
    temporary file of the artifact it was writing, and no manifest. The
    rerun exits 0, leaves no temporary file, and writes every artifact and
    the manifest byte for byte as a clean run does. Power loss (an unsynced
    directory, a torn page) cannot be simulated in a test, so only the kill
    is checked.
    """
    clean, run = tmp_path / "clean", tmp_path / "run"
    argv = ["pipeline", "--corpus", FIXTURE, "--seed", "3"]
    assert run_cli(*argv, "--out-dir", clean) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-c", script, *argv, "--out-dir", str(run)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    assert child.wait(timeout=120) == -signal.SIGKILL
    orphans = [f"{orphan}.{child.pid}.tmp"] if orphan else []
    assert sorted(path.name for path in run.iterdir()) == sorted(written + orphans)
    assert run_cli(*argv, "--out-dir", run) == 0
    assert not list(run.glob("*.tmp"))
    names = sorted(path.name for path in clean.iterdir())
    assert sorted(path.name for path in run.iterdir()) == names
    assert "manifest.json" in names
    for name in names:
        assert (run / name).read_bytes() == (clean / name).read_bytes(), name


# Kills its own process when the m-th line (argv[2]) of the export named by argv[1]
# is pulled from the export's stream, before it is written, then runs the CLI on
# the rest of its argv. The exports look write_lines up in triagerank.pairs, so it
# is patched there.
_KILLED_AT_MTH_EXPORT_LINE = """\
import os, signal, sys
from triagerank import cli, pairs
write_lines, target, kill_at = pairs.write_lines, sys.argv[1], int(sys.argv[2])
def write_lines_until_killed(lines, path):
    if os.path.basename(path) != target:
        return write_lines(lines, path)
    def until_killed():
        for number, line in enumerate(lines, start=1):
            if number == kill_at:
                os.kill(os.getpid(), signal.SIGKILL)
            yield line
    return write_lines(until_killed(), path)
pairs.write_lines = write_lines_until_killed
sys.exit(cli.main(sys.argv[3:]))
"""
# the fixture run below writes 20 triplets, then four SFT lines and two reward
# lines per triplet; a kill leaves the artifacts of the stages before the export
_EXPORTS = {
    "triplets.jsonl": (20, ["filtered.jsonl", "eval_pairs.jsonl"]),
    "sft.jsonl": (80, ["filtered.jsonl", "eval_pairs.jsonl", "triplets.jsonl"]),
    "reward.jsonl": (40, ["filtered.jsonl", "eval_pairs.jsonl", "triplets.jsonl", "sft.jsonl"]),
}


@pytest.mark.parametrize(
    "target, kill_at",
    [
        ("triplets.jsonl", 1), ("triplets.jsonl", 20),
        ("sft.jsonl", 1), ("sft.jsonl", 40), ("sft.jsonl", 80),
        ("reward.jsonl", 1), ("reward.jsonl", 40),
    ],
    ids=[
        "triplets-first", "triplets-last", "sft-first", "sft-middle", "sft-last",
        "reward-first", "reward-last",
    ],
)
def test_pipeline_rerun_after_a_kill_mid_export_writes_the_goldens(
    tmp_path, monkeypatch, target, kill_at
):
    """A real SIGKILL while an export streams; the rerun writes every golden artifact.

    The killed run leaves the artifacts before the export, the export's
    temporary file, holding a prefix of the finished file, and neither the
    export nor a manifest. Power loss (an unsynced directory, a torn page)
    cannot be simulated in a test, so only the kill is checked.
    """
    lines, before = _EXPORTS[target]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.jsonl").write_bytes(Path(FIXTURE).read_bytes())
    # the relative paths and the flips of the golden run
    argv = [
        "pipeline", "--corpus", "corpus.jsonl", "--out-dir", "run", "--seed", "3",
        "--flip", "1:0.3,2:0.15",
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    child = subprocess.Popen(
        [sys.executable, "-c", _KILLED_AT_MTH_EXPORT_LINE, target, str(kill_at), *argv],
        cwd=tmp_path, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    assert child.wait(timeout=120) == -signal.SIGKILL
    run = tmp_path / "run"
    orphan = f"{target}.{child.pid}.tmp"
    assert sorted(path.name for path in run.iterdir()) == sorted([*before, orphan])
    streamed = (run / orphan).read_bytes()

    assert run_cli(*argv) == 0
    assert not list(run.glob("*.tmp"))
    written = (run / target).read_bytes()
    assert written.count(b"\n") == lines
    # what reached the disk before the kill is the start of the finished file
    assert written.startswith(streamed) and streamed.count(b"\n") < kill_at
    manifest = read_json(run / "manifest.json")
    hashes = {
        name: hashlib.sha256((run / entry["path"]).read_bytes()).hexdigest()
        for name, entry in manifest["artifacts"].items()
    }
    assert hashes == GOLDEN_ARTIFACT_SHA256


def test_pipeline_removes_temporary_files_of_its_artifacts(tmp_path):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    orphans = ["outcomes.jsonl.4242.tmp", "manifest.json.7.tmp", "filtered.jsonl.99.tmp"]
    kept = ["notes.tmp", "outcomes.jsonl.tmp"]
    for name in orphans + kept:
        (out_dir / name).write_text("x\n")
    assert run_cli("pipeline", "--corpus", FIXTURE, "--out-dir", out_dir) == 0
    left = {path.name for path in out_dir.iterdir()}
    assert left == {*cli._ARTIFACTS.values(), "manifest.json", *kept}


class ScriptedReward:
    """Reward comparator whose directed scores come from a table."""

    cache_identity = 'reward(m "outcomes": [)'

    def __init__(self, values):
        self.values = values

    def score_pair(self, a, b):
        values = self.values
        return (
            DirectionScore(values[a.id, b.id], ScoreKind.REWARD),
            DirectionScore(values[b.id, a.id], ScoreKind.REWARD),
        )


def _oracle_case(labeled, flip=None, seed=0):
    return [item.message for item in labeled], NoisyOracleComparator(labeled, flip, seed=seed)


def _reward_case():
    values = [5e-324, 1e-07, 1e16, -1e16, -2.5, -0.0, 0.0, -5e-324, 1e-07, 3.0, 0.1, 1 / 3]
    messages = [make_labeled(f"r{index}", 1).message for index in range(4)]
    # one value per directed pair: four messages give twelve
    directed = [(a.id, b.id) for a in messages for b in messages if a is not b]
    return messages, ScriptedReward(dict(zip(directed, values, strict=True)))


class StrSubclass(str):
    pass


# (messages, comparator) of a tournament whose log and report are checked
WRITER_CASES = {
    "escaped-ids": lambda: _oracle_case([
        make_labeled('say "hi"', 1), make_labeled("back\\slash", 2),
        make_labeled("na\u00efve \u6025 \U0001f691", 3), make_labeled("tab\tline\nnul\x00\x1f", 4),
        make_labeled("sep\u2028\x7f", 5),
    ], {1: 0.5}, seed=1),
    "marker-ids": lambda: _oracle_case([
        make_labeled("outcomes", 1), make_labeled('"outcomes": [', 2),
        make_labeled("tournament", 2), make_labeled("\n    ]", 3),
    ]),
    "reward-values": _reward_case,
    "ties": lambda: _oracle_case([make_labeled(f"t{index}", 4) for index in range(6)]),
    "str-subclass-ids": lambda: _oracle_case([
        make_labeled(StrSubclass(f"s{index}"), level)
        for index, level in enumerate((1, 2, 2, 5))
    ]),
    "seeded-300": lambda: _oracle_case(
        level_corpus({level: 50 for level in range(1, 7)}), {1: 0.3, 2: 0.15}, seed=31
    ),
}


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_tournament_report_equals_indented_dump(tmp_path, case):
    messages, comparator = WRITER_CASES[case]()
    log = tmp_path / "outcomes.jsonl"
    result = run_tournament(messages, comparator, log=log)
    section = cli._tournament_section(result, log)
    lines = log.read_text(encoding="ascii").splitlines(keepends=True)
    # the log holds every pair's outcome in the tournament's sorted-id order
    ordered = sorted(messages, key=lambda message: message.id)
    outcomes = [compare(comparator, a, b) for a, b in combinations(ordered, 2)]
    assert len(lines) == len(outcomes)
    for line, outcome in zip(lines, outcomes):
        record = {
            "a_id": outcome.a_id, "b_id": outcome.b_id, "eta": outcome.eta,
            "kind": outcome.s_ab.kind.value, "s_ab": outcome.s_ab.value,
            "s_ba": outcome.s_ba.value, "winner": outcome.winner.value,
        }
        assert line == outcome.to_line() == json.dumps(record, sort_keys=True) + "\n"
    assert section == {
        **result.to_record(), "outcomes_sha256": hashlib.sha256(log.read_bytes()).hexdigest()
    }
    for identity in ("oracle(seed=0)", ScriptedReward.cache_identity, "outcomes\u00e9\n"):
        envelope = cli._envelope(3, "config-hash", identity)
        cli._write_report(tmp_path / "report.json", envelope, tournament=section)
        expected = json.dumps(
            {**envelope, "tournament": section}, sort_keys=True, indent=2
        ) + "\n"
        assert (tmp_path / "report.json").read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_after_finished_run_exits_zero(tmp_path, unbuffered):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader leaves before the summary is printed
    try:
        completed = subprocess.run(
            [
                sys.executable, "-X", "dev", "-m", "triagerank.cli", "pipeline",
                "--corpus", FIXTURE, "--out-dir", str(tmp_path / "run"),
            ],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert completed.returncode == 0, completed.stderr
    assert completed.stderr == b""
    assert (tmp_path / "run" / "manifest.json").exists()


@pytest.mark.parametrize(
    "kind, responses",
    [
        ("logprob", ["logprob_top2", "logprob_complement"]),
        ("reasoning", ["completion_reason_yes", "completion_reason_no"]),
        ("reward", ["reward_high", "reward_low"]),
    ],
)
def test_rank_inbox_remote_comparator(tmp_path, mock_endpoint, kind, responses):
    inbox = tmp_path / "inbox.jsonl"
    records = load_corpus(FIXTURE)[:2]
    save_corpus(records, inbox)
    texts = [record.message.text for record in reversed(records)]
    mock_endpoint.answer = answer_by_new_message(dict(zip(texts, responses, strict=True)))
    argv = (
        "rank-inbox", "--inbox", inbox, "--comparator", kind, "--model", "mock",
        "--base-url", mock_endpoint.base_url, "--cache", tmp_path / "cache.jsonl",
    )
    assert run_cli(*argv, "--out", tmp_path / "cold.json") == 0
    cold = read_json(tmp_path / "cold.json")
    assert cold["comparator"] == f"{kind}(mock)"
    assert cold["tournament"]["comparisons_made"] == 1
    assert len(mock_endpoint.requests) == 2
    for request in mock_endpoint.requests:
        assert ("logprobs" in request["body"]) == (kind == "logprob")
    # a rerun on the same cache sends nothing
    assert run_cli(*argv, "--out", tmp_path / "warm.json") == 0
    warm = read_json(tmp_path / "warm.json")
    assert len(mock_endpoint.requests) == 2
    assert warm["tournament"]["cache_hits"] == 1
    assert warm["tournament"]["ranking"] == cold["tournament"]["ranking"]


def test_cached_rank_inbox_over_arrivals_departures_and_an_edit_equals_a_cold_run(
    tmp_path, mock_endpoint
):
    mock_endpoint.answer = _answer_by_urgency

    def inbox(name, levels):
        path = tmp_path / f"{name}.jsonl"
        records = [
            make_labeled(message_id, level, text=f"urgency {level}: note {message_id}")
            for message_id, level in levels.items()
        ]
        save_corpus(records, path)
        return path

    def rank(inbox_path, name, *cache):
        (tmp_path / name).mkdir()
        argv = (
            "rank-inbox", "--inbox", inbox_path, "--comparator", "logprob", "--model", "mock",
            "--base-url", mock_endpoint.base_url, *cache, "--out", tmp_path / name / "rank.json",
        )
        assert run_cli(*argv) == 0
        return read_json(tmp_path / name / "rank.json")["tournament"]

    levels_a = dict(zip((f"a{index}" for index in range(8)), (3, 5, 2, 4, 6, 3, 1, 5)))
    levels_b = {key: level for key, level in levels_a.items() if key not in ("a1", "a4")}
    levels_b["a3"] = 1  # an edit: its text, and so its prompts, change
    levels_b.update(n0=2, n1=6, n2=4)
    cache = ("--cache", tmp_path / "cache.jsonl")
    rank(inbox("a", levels_a), "a", *cache)
    assert len(mock_endpoint.requests) == 2 * 28
    inbox_b = inbox("b", levels_b)
    warm = rank(inbox_b, "warm", *cache)
    # the pairs with an arrival (36 in all, 15 among the six kept) and the edited message's five
    changed = (36 - 15) + 5
    assert len(mock_endpoint.requests) == 2 * 28 + 2 * changed
    assert (warm["comparisons_made"], warm["cache_hits"]) == (changed, 36 - changed)
    cold = rank(inbox_b, "cold")
    for field in ("ranking", "scores", "outcomes_sha256"):
        assert json.dumps(warm[field]) == json.dumps(cold[field]), field
    log = "rank.outcomes.jsonl"
    assert (tmp_path / "warm" / log).read_bytes() == (tmp_path / "cold" / log).read_bytes()
    assert warm["ranking"][0] == "a3"


def test_single_worker_rank_inbox_sends_a_pairs_two_requests_together(tmp_path, mock_endpoint):
    def slow_answer(body):
        time.sleep(0.005)  # long enough for a pair's two requests to overlap at the server
        return _answer_by_urgency(body)

    mock_endpoint.answer = slow_answer
    levels = (3, 5, 2, 4, 6)
    records = [
        make_labeled(f"m{index}", level, text=f"urgency {level}: note m{index}")
        for index, level in enumerate(levels)
    ]
    save_corpus(records, tmp_path / "inbox.jsonl")
    assert run_cli(
        "rank-inbox", "--inbox", tmp_path / "inbox.jsonl", "--comparator", "logprob",
        "--model", "mock", "--base-url", mock_endpoint.base_url, "--out", tmp_path / "rank.json",
    ) == 0
    n = len(levels)
    assert len(mock_endpoint.requests) == n * (n - 1)
    assert mock_endpoint.inflight_peak == 2
    assert read_json(tmp_path / "rank.json")["tournament"]["ranking"][0] == "m2"


def test_remote_comparator_without_model_exits_two(tmp_path, capsys):
    assert run_cli(
        "rank-inbox", "--inbox", FIXTURE, "--comparator", "reward",
        "--out", tmp_path / "rank.json",
    ) == 2
    assert "--model" in capsys.readouterr().err
    assert run_cli(
        "pipeline", "--corpus", FIXTURE, "--out-dir", tmp_path / "run",
        "--comparator", "logprob",
    ) == 2
    assert "--model" in capsys.readouterr().err


@pytest.mark.parametrize("base_url", ["localhost:9", "ftp://127.0.0.1:9", "http://:9"])
def test_remote_comparator_with_unusable_base_url_exits_two(tmp_path, capsys, base_url):
    out = tmp_path / "rank.json"
    assert run_cli(
        "rank-inbox", "--inbox", FIXTURE, "--comparator", "logprob", "--model", "m",
        "--base-url", base_url, "--out", out,
    ) == 2
    assert "base_url" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [("--flip", "1:0.3"), ("--margin", "0.3"), ("--flip", "0:0.5", "--margin", "0.9")],
    ids=["flip", "margin", "invalid-flip-and-margin"],
)
def test_remote_comparator_rejects_oracle_flags(tmp_path, mock_endpoint, capsys, flags):
    out = tmp_path / "rank.json"
    assert run_cli(
        "rank-inbox", "--inbox", FIXTURE, "--comparator", "reward", "--model", "m",
        "--base-url", mock_endpoint.base_url, *flags, "--out", out,
    ) == 2
    assert "--flip and --margin" in capsys.readouterr().err
    assert mock_endpoint.requests == []
    assert not out.exists()


@pytest.mark.parametrize(
    "command, inputs",
    [
        ("rank-inbox", "--inbox"), ("evaluate-intrinsic", "--pairs"),
        ("evaluate-extrinsic", "--inbox"), ("bias-report", "--pairs"),
    ],
)
def test_remote_comparator_rejects_seed(tmp_path, mock_endpoint, capsys, command, inputs):
    pairs = tmp_path / "pairs.jsonl"
    assert run_cli("build-pairs", "--corpus", FIXTURE, "--count", 10, "--out", pairs) == 0
    out = tmp_path / "report.json"
    source = pairs if inputs == "--pairs" else FIXTURE
    for seed in (0, 3):
        assert run_cli(
            command, inputs, source, "--comparator", "reward", "--model", "m",
            "--base-url", mock_endpoint.base_url, "--seed", seed, "--out", out,
        ) == 2
        assert "--seed" in capsys.readouterr().err
    assert mock_endpoint.requests == []
    assert not out.exists()


def test_absent_seed_reads_as_zero_in_reports(tmp_path, mock_endpoint, monkeypatch):
    monkeypatch.chdir(tmp_path)
    records = load_corpus(FIXTURE)[:2]
    save_corpus(records, tmp_path / "inbox.jsonl")
    oracle = ("rank-inbox", "--inbox", "inbox.jsonl", "--flip", "1:0.3")
    assert run_cli(*oracle, "--out", "absent.json") == 0
    assert run_cli(*oracle, "--seed", 0, "--out", "zero.json") == 0
    assert (tmp_path / "absent.json").read_bytes() == (tmp_path / "zero.json").read_bytes()
    texts = [record.message.text for record in reversed(records)]
    mock_endpoint.answer = answer_by_new_message(dict(zip(texts, ("reward_high", "reward_low"))))
    assert run_cli(
        "rank-inbox", "--inbox", "inbox.jsonl", "--comparator", "reward", "--model", "mock",
        "--base-url", mock_endpoint.base_url, "--out", "remote.json",
    ) == 0
    report = read_json(tmp_path / "remote.json")
    # the seed and config hash this invocation wrote while --seed defaulted to 0
    assert report["seed"] == 0
    assert report["config_hash"] == (
        "53730a71693c2da0188f54ee61f363c308135d22c7be05606413afe118f97d13"
    )


@pytest.mark.parametrize(
    "argv",
    [
        # no two levels are 0 or 7 apart, so these flips would never apply
        ("rank-inbox", "--inbox", FIXTURE, "--flip", "0:0.5"),
        ("rank-inbox", "--inbox", FIXTURE, "--flip", "7:0.9"),
        # a repeated name would silently keep only its last value
        ("rank-inbox", "--inbox", FIXTURE, "--flip", "1:0.3,1:0.0"),
        ("build-pairs", "--corpus", FIXTURE, "--quotas", "easy:3,easy:5"),
    ],
    ids=["flip-gap-0", "flip-gap-7", "flip-repeated", "quota-repeated"],
)
def test_entry_that_does_nothing_exits_two(tmp_path, argv):
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--out", out) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("flip", {"x": 0.3}),
        ("flip", [1, 2]),
        ("flip", {"1": "0.3"}),
        ("ks", 10),
        ("ks", [10, "30"]),
        ("inbox_counts", [5, 5, 5, 5, 5, 5.0]),
        ("pair_count", "5"),
        ("seed", "3"),
        ("seed", True),
        ("triplet_cap", None),
        ("shuffles", 1.5),
        ("margin", "0.4"),
        ("auto_label", 1),
        ("comparator", "bogus"),
        ("corpus", 5),
        ("out_dir", None),
        ("model", 3),
        ("base_url", ["http://localhost"]),
    ],
)
def test_pipeline_config_rejects_malformed_value(tmp_path, capsys, key, value):
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "run"
    config_path.write_text(
        json.dumps({"corpus": FIXTURE, "out_dir": str(out_dir), key: value})
    )
    assert run_cli("pipeline", "--config", config_path) == 2
    assert repr(key) in capsys.readouterr().err
    # rejected before any stage writes an artifact
    assert not out_dir.exists()


# a loopback port nothing listens on: a check that let the run through
# would fail at its first request, not pass
REMOTE = ["--comparator", "logprob", "--model", "m", "--base-url", "http://127.0.0.1:9"]


@pytest.mark.parametrize(
    "flags, settings",
    [
        (["--comparator", "logprob"], {}), ([], {"margin": 0.9}), ([], {"flip": {"1": 1.5}}),
        # the oracle's noise settings given to a remote comparator
        (REMOTE, {"flip": {"1": 0.3}}), (REMOTE, {"margin": 0.3}),
        (REMOTE[:-1] + ["localhost:9"], {}),
        ([], {"flip": {"0": 0.5}}), ([], {"flip": {"1": 0.3, "01": 0.0}}),
        # out of range for the stage that uses them, checked before stage load
        ([], {"ks": [0]}), ([], {"inbox_counts": [5, 5, -1, 5, 5, 5]}),
        ([], {"triplet_cap": 0}), ([], {"pair_count": -1}),
        # too few messages to cut into sextiles at stage metrics
        ([], {"inbox_counts": [1, 1, 1, 1, 0, 0]}),
    ],
    ids=[
        "logprob-without-model", "margin", "flip", "remote-flip", "remote-margin",
        "base-url-without-scheme",
        "flip-gap", "flip-repeated",
        "ks", "inbox_counts", "triplet_cap", "pair_count", "inbox_below_six",
    ],
)
def test_pipeline_bad_comparator_settings_write_nothing(tmp_path, flags, settings):
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "run"
    config_path.write_text(
        json.dumps({"corpus": FIXTURE, "out_dir": str(out_dir), **settings})
    )
    assert run_cli("pipeline", "--config", config_path, *flags) == 2
    assert not out_dir.exists()


def test_shuffle_count_setting_is_gone(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"corpus": FIXTURE, "out_dir": str(tmp_path / "run"), "shuffles": 1000})
    )
    assert run_cli("pipeline", "--config", config_path) == 2
    assert "unknown config keys: ['shuffles']" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        run_cli(
            "evaluate-extrinsic", "--inbox", FIXTURE, "--shuffles", 50,
            "--out", tmp_path / "extrinsic.json",
        )
    assert exit_info.value.code == 2


def test_import_loads_no_third_party_module():
    """The package and its CLI import only the standard library."""
    script = (
        "import sys\n"
        "before = {name.partition('.')[0] for name in sys.modules}\n"
        "import triagerank, triagerank.cli\n"
        "added = {name.partition('.')[0] for name in sys.modules} - before\n"
        "print(sorted(added - set(sys.stdlib_module_names)))\n"
    )
    source_root = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(source_root)}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "['triagerank']"


@pytest.mark.parametrize("corrupt", ["{not json", "[1, 2]"], ids=["json", "array"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("evaluate-intrinsic", "--pairs"),
        ("export-sft", "--triplets"),
        ("agreement", "--annotations"),
    ],
)
def test_corrupt_record_file_exits_three_naming_the_line(
    tmp_path, capsys, command, flag, corrupt
):
    corpus = load_corpus(FIXTURE)
    other = next(labeled for labeled in corpus if labeled.level != corpus[0].level)
    valid = {
        "--pairs": EvalPair(corpus[0], other).to_record(),
        "--triplets": build_triplets(corpus, 4, seed=0, count=1)[0].to_record(),
        "--annotations": {"pair_id": "p0", "annotator_id": "a1", "choice": "A"},
    }[flag]
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(valid) + "\n" + corrupt + "\n")
    assert run_cli(command, flag, path, "--out", tmp_path / "out.json") == 3
    assert "line 2" in capsys.readouterr().err


def test_lone_surrogate_in_inbox_exits_three_before_any_report(tmp_path, capsys):
    records = [labeled.to_record() for labeled in load_corpus(FIXTURE)[:6]]
    records[1]["id"] = "\ud800"
    inbox = tmp_path / "inbox.jsonl"
    inbox.write_text("".join(json.dumps(record) + "\n" for record in records))
    report = tmp_path / "ranking.json"
    assert run_cli("rank-inbox", "--inbox", inbox, "--out", report) == 3
    assert "line 2: lone surrogate" in capsys.readouterr().err
    assert not report.exists()
    assert not (tmp_path / "ranking.outcomes.jsonl").exists()
