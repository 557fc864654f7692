from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from triagerank import cli
from triagerank.compare import (
    ComparisonOutcome,
    DirectionScore,
    NoisyOracleComparator,
    ScoreKind,
    Winner,
)
from triagerank.corpus import fixture_corpus_path, load_corpus, save_corpus
from triagerank.errors import ComparisonFailed
from triagerank.pairs import EvalPair, build_triplets
from triagerank.rank import run_tournament

from .conftest import level_corpus, make_labeled

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


def test_export_from_corpus_directly(tmp_path):
    sft_path = tmp_path / "sft.jsonl"
    assert (
        run_cli(
            "export-sft", "--corpus", FIXTURE, "--cap", 2, "--seed", 5,
            "--count", 6, "--out", sft_path,
        )
        == 0
    )
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


def test_agreement_cli(tmp_path):
    annotations = tmp_path / "annotations.jsonl"
    rows = []
    for index in range(6):
        rows.append({"pair_id": f"p{index}", "annotator_id": "a1", "choice": "A"})
        rows.append({"pair_id": f"p{index}", "annotator_id": "a2", "choice": "A"})
    annotations.write_text("\n".join(json.dumps(row) for row in rows) + "\n")
    report_path = tmp_path / "agreement.json"
    assert run_cli("agreement", "--annotations", annotations, "--out", report_path) == 0
    report = read_json(report_path)
    assert report["agreement"]["cohens_kappa"] == 1.0


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
        "inbox", "ranking", "intrinsic", "extrinsic",
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
    "extrinsic": "d0909ea914212bc0d13b27169280783f2b6cab70164200a02b3b619f8254205f",
    "filtered_corpus": "166cf60d8f9daa1b17ac2d3aff55dacb809091b3c3c168f7dedc7059c3ac1000",
    "inbox": "5bed1fb4c22391388ce61a68db847b809f80880cfacddfec53f65b52db78f48a",
    "intrinsic": "9c8c4784058cd350260061c893655179e87d04378ec7737dd2b005d939cbe3af",
    "ranking": "2550c9d0191b07c73ff3b473778816093abcd9dd38c933710c47051cc1ea1068",
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


@pytest.mark.parametrize(
    "stage, settings, broken, code, written",
    [
        ("load", {"corpus": "absent.jsonl"}, None, 3, []),
        # the fixture holds five messages per level, six are asked for
        ("inbox", {"inbox_counts": [6, 5, 5, 5, 5, 5]}, None, 3, _BEFORE_INBOX),
        ("tournament", {}, (cli.rank, "run_tournament"), 4, _BEFORE_INBOX + ["inbox.jsonl"]),
        (
            "metrics", {}, (cli.metrics, "intrinsic_accuracy"), 4,
            _BEFORE_INBOX + ["inbox.jsonl", "ranking.json"],
        ),
    ],
)
def test_pipeline_stage_failure_keeps_earlier_artifacts(
    tmp_path, capsys, monkeypatch, stage, settings, broken, code, written
):
    if broken:
        monkeypatch.setattr(*broken, _raise_comparison_failed)
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "run"
    config_path.write_text(
        json.dumps({"corpus": FIXTURE, "out_dir": str(out_dir), **settings})
    )
    monkeypatch.chdir(tmp_path)
    assert run_cli("pipeline", "--config", config_path) == code
    assert f"pipeline failed at stage {stage!r}" in capsys.readouterr().err
    assert sorted(path.name for path in out_dir.iterdir()) == sorted(written)


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


def test_pipeline_unknown_config_key(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"corpus": FIXTURE, "out_dir": "x", "nope": 1}))
    assert run_cli("pipeline", "--config", config_path) == 2


# sha256 of the reports the comparator subcommands write for the fixture
# (oracle, seed 3, flip 1:0.3,2:0.15, relative paths). Every report embeds
# a hash of its arguments but --out and --base-url, so a change to how a
# subcommand builds its comparator or its report moves these.
GOLDEN_REPORT_SHA256 = {
    "bias": "ff568e256731251c9005f90f5ecde3920f2e2da7b30e3711bc0d806eaf4d7af7",
    "extrinsic": "1480c8281cb57c82cc35254c66178aad226444b60e62db8d64e609696013136b",
    "intrinsic": "cc0aba8330913a0d2b121fdeb60c5b6b42c9c2d21b2e7d8cf614219460fce1a9",
    "rank": "a47bc8f920824f4334f1299406739818a2d1f4c94d0b4db9e4809b0d6e99aedc",
    "rank_cold": "ae5fd878fe1c2c294dfc2bce93185c8521565d1ccecd4e36db049a39c413ebc5",
    "rank_warm": "739359bd28dad9f767e3a18596fa2a7f1009f1ed9416ed93dfa4f654c0c2762e",
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


class ScriptedReward:
    """Reward comparator whose directed scores come from a table."""

    cache_identity = 'reward(m "outcomes": [)'

    def __init__(self, values):
        self.values = values

    def score_directed(self, existing, new):
        return DirectionScore(self.values[existing.id, new.id], ScoreKind.REWARD)


def _oracle_tournament(labeled, flip=None, seed=0):
    oracle = NoisyOracleComparator(labeled, flip, seed=seed)
    return run_tournament([item.message for item in labeled], oracle)


def _reward_tournament():
    values = [5e-324, 1e-07, 1e16, -1e16, -2.5, -0.0, 0.0, -5e-324, 1e-07, 3.0, 0.1, 1 / 3]
    messages = [make_labeled(f"r{index}", 1).message for index in range(4)]
    # one value per directed pair: four messages give twelve
    directed = [(a.id, b.id) for a in messages for b in messages if a is not b]
    return run_tournament(messages, ScriptedReward(dict(zip(directed, values, strict=True))))


class FloatWithRepr(float):
    def __repr__(self):
        return "not json"


class StrSubclass(str):
    pass


def _odd_value_tournament():
    """Outcomes with values json.dumps must write: ints, bools, subclasses, non-finite."""
    result = _oracle_tournament([make_labeled("a", 1), make_labeled("b", 2)])
    plain = result.outcomes[0]
    score = DirectionScore(0.9, ScoreKind.PROBABILITY)
    odd = [
        plain,
        ComparisonOutcome("a", "b", score, score, float("nan"), Winner.TIE),
        ComparisonOutcome("a", "b", score, score, float("-inf"), Winner.A),
        ComparisonOutcome("a", "b", score, score, FloatWithRepr(0.5), Winner.B),
        ComparisonOutcome("a", "b", score, score, True, Winner.B),
        ComparisonOutcome(7, StrSubclass("b"), score, score, 1, Winner.B),
        ComparisonOutcome("a", 8, score, score, 0.5, Winner.B),
        ComparisonOutcome("a", "b", DirectionScore(1, ScoreKind.REWARD), score, 0.0, Winner.TIE),
        ComparisonOutcome(
            "a", "b", score, DirectionScore(FloatWithRepr(0.25), ScoreKind.PROBABILITY),
            0.0, Winner.TIE,
        ),
        plain,
    ]
    return replace(result, outcomes=tuple(odd))


WRITER_CASES = {
    "escaped-ids": lambda: _oracle_tournament([
        make_labeled('say "hi"', 1), make_labeled("back\\slash", 2),
        make_labeled("na\u00efve \u6025 \U0001f691", 3), make_labeled("tab\tline\nnul\x00\x1f", 4),
        make_labeled("sep\u2028\x7f", 5),
    ], {1: 0.5}, seed=1),
    "marker-ids": lambda: _oracle_tournament([
        make_labeled("outcomes", 1), make_labeled('"outcomes": [', 2),
        make_labeled("tournament", 2), make_labeled("\n    ]", 3),
    ]),
    "reward-values": _reward_tournament,
    "ties": lambda: _oracle_tournament([make_labeled(f"t{index}", 4) for index in range(6)]),
    "odd-values": _odd_value_tournament,
    "seeded-300": lambda: _oracle_tournament(
        level_corpus({level: 50 for level in range(1, 7)}), {1: 0.3, 2: 0.15}, seed=31
    ),
}


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_tournament_report_equals_indented_dump(tmp_path, case):
    result = WRITER_CASES[case]()
    for identity in ("oracle(seed=0)", ScriptedReward.cache_identity, "outcomes\u00e9\n"):
        envelope = cli._envelope(3, "config-hash", identity)
        cli._write_report(tmp_path / "report.json", envelope, tournament=result)
        expected = json.dumps(
            {**envelope, "tournament": result.to_record()}, sort_keys=True, indent=2
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
    save_corpus(load_corpus(FIXTURE)[:2], inbox)
    for name in responses:
        mock_endpoint.enqueue_fixture(name)
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
        ([], {"flip": {"0": 0.5}}), ([], {"flip": {"1": 0.3, "01": 0.0}}),
        # out of range for the stage that uses them, checked before stage load
        ([], {"ks": [0]}), ([], {"inbox_counts": [5, 5, -1, 5, 5, 5]}),
        ([], {"triplet_cap": 0}), ([], {"pair_count": -1}),
        # too few messages to cut into sextiles at stage metrics
        ([], {"inbox_counts": [1, 1, 1, 1, 0, 0]}),
    ],
    ids=[
        "logprob-without-model", "margin", "flip", "remote-flip", "remote-margin",
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


def test_import_loads_no_third_party_module_but_requests():
    """The package and its CLI import only the standard library and requests."""
    script = (
        "import sys\n"
        "import requests\n"
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
