import json
import math

import pytest

from irvuln.cli import run


def invoke(*argv):
    return run(list(argv))


SMALL_MODEL_FLAGS = [
    "--embed-dim", "6", "--hidden-dim", "5", "--classifier-width", "4",
    "--line-classifier-width", "4", "--stage1-epochs", "2",
    "--stage2-epochs", "2",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full pipeline once on a tiny corpus and share the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    raw = root / "raw.jsonl"
    prepared = root / "prepared.jsonl"
    vocab = root / "vocab.txt"
    model = root / "model.bin"

    assert invoke("gen-synth", "--out", str(raw), "--seed", "9",
                  "--programs", "30", "--vulnerable-fraction", "0.4",
                  "--lines-min", "4", "--lines-max", "8",
                  "--token-pool", "25", "--motif-span", "2") == 0
    assert invoke("prepare", "--in", str(raw), "--out", str(prepared)) == 0
    assert invoke("build-vocab", "--in", str(prepared),
                  "--out", str(vocab)) == 0
    assert invoke("train", "--in", str(prepared), "--vocab", str(vocab),
                  "--out-model", str(model), "--seed", "17",
                  *SMALL_MODEL_FLAGS) == 0
    return root, raw, prepared, vocab, model


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        root, raw, prepared, vocab, model = pipeline
        for path in (raw, prepared, vocab, model):
            assert path.exists() and path.stat().st_size > 0

    def test_predict_output_schema(self, pipeline):
        root, _, prepared, _, model = pipeline
        out = root / "pred.jsonl"
        assert invoke("predict", "--model", str(model), "--in", str(prepared),
                      "--out", str(out)) == 0
        records = [json.loads(line) for line in
                   out.read_text().strip().split("\n")]
        assert len(records) == 30
        for rec in records:
            assert set(rec) == {"id", "code_vulnerable", "code_probability",
                                "line_flags", "line_probabilities"}
            assert len(rec["line_flags"]) == len(rec["line_probabilities"])
            if not rec["code_vulnerable"]:
                assert not any(rec["line_flags"])

    def test_predict_with_matching_vocab_check(self, pipeline):
        root, _, prepared, vocab, model = pipeline
        out = root / "pred2.jsonl"
        assert invoke("predict", "--model", str(model), "--in", str(prepared),
                      "--out", str(out), "--vocab", str(vocab)) == 0

    def test_predict_vocab_digest_mismatch_is_data_error(self, pipeline):
        root, _, prepared, vocab, model = pipeline
        other = root / "other_vocab.txt"
        other.write_text(vocab.read_text() + "zzz_unseen\n")
        assert invoke("predict", "--model", str(model), "--in", str(prepared),
                      "--out", str(root / "x.jsonl"),
                      "--vocab", str(other)) == 2

    def test_evaluate_writes_csv(self, pipeline):
        root, _, prepared, _, _ = pipeline
        csv = root / "report.csv"
        assert invoke("evaluate", "--in", str(prepared), "--out-csv",
                      str(csv), "--repeats", "2", "--seed", "5",
                      *SMALL_MODEL_FLAGS) == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0].startswith("run,split,")
        assert len(lines) == 1 + 2 * 2

    def test_train_loss_log(self, pipeline, tmp_path):
        root, _, prepared, vocab, _ = pipeline
        log = tmp_path / "loss.csv"
        assert invoke("train", "--in", str(prepared), "--vocab", str(vocab),
                      "--out-model", str(tmp_path / "m.bin"),
                      "--loss-log", str(log), "--seed", "17",
                      *SMALL_MODEL_FLAGS) == 0
        rows = log.read_text().strip().split("\n")
        assert sum(r.startswith("stage1,") for r in rows) == 2
        assert sum(r.startswith("stage2,") for r in rows) == 2
        for row in rows:
            assert math.isfinite(float(row.split(",")[2])), row


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert invoke("no-such-command") == 1

    def test_missing_required_flag_is_1(self):
        assert invoke("gen-synth") == 1

    def test_missing_input_file_is_2(self, tmp_path):
        assert invoke("build-vocab", "--in", str(tmp_path / "nope.jsonl"),
                      "--out", str(tmp_path / "v.txt")) == 2

    def test_malformed_corpus_is_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert invoke("prepare", "--in", str(bad),
                      "--out", str(tmp_path / "o.jsonl")) == 2

    def test_infeasible_synth_config_is_2(self, tmp_path):
        assert invoke("gen-synth", "--out", str(tmp_path / "c.jsonl"),
                      "--lines-min", "3", "--motif-span", "9") == 2

    def test_grad_check_is_0(self, capsys):
        assert invoke("grad-check", "--seed", "3") == 0
        out = capsys.readouterr().out
        assert "passed" in out

    def test_help_exits_cleanly(self):
        assert invoke("--help") == 0


GOOD_RECORD = b'{"id": "p", "lines": ["store i32 %1"], "label": 0, ' \
    b'"vulnerable_lines": []}\n'


class TestBadText:
    """Input text that is not valid Unicode is a data error naming the line."""

    @pytest.mark.parametrize("command", ["prepare", "build-vocab", "evaluate"])
    def test_corpus_not_utf8_is_2(self, tmp_path, capsys, command):
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(GOOD_RECORD + GOOD_RECORD.replace(b"%1", b"%\xff"))
        out = ["--out-csv"] if command == "evaluate" else ["--out"]
        assert invoke(command, "--in", str(corpus), *out,
                      str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"{corpus}:2: not valid UTF-8" in err
        assert "Traceback" not in err

    def test_vocab_not_utf8_is_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(GOOD_RECORD)
        vocab = tmp_path / "v.txt"
        vocab.write_bytes(b"store\ni32\n%\xff1\n")
        assert invoke("train", "--in", str(corpus), "--vocab", str(vocab),
                      "--out-model", str(tmp_path / "m.bin")) == 2
        assert f"{vocab}:3: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["build-vocab", "train", "evaluate"])
    def test_corpus_lone_surrogate_is_2(self, tmp_path, capsys, command):
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(GOOD_RECORD.replace(b"store", b"store \\ud800"))
        out = {"build-vocab": ["--out", str(tmp_path / "v.txt")],
               "train": ["--vocab", str(tmp_path / "v.txt"),
                         "--out-model", str(tmp_path / "m.bin")],
               "evaluate": ["--out-csv", str(tmp_path / "r.csv")]}[command]
        assert invoke(command, "--in", str(corpus), *out) == 2
        err = capsys.readouterr().err
        assert f"{corpus}:1: lone surrogate" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["prepare", "--in", "{dir}", "--out", "{tmp}/o.jsonl"],
    ["build-vocab", "--in", "{dir}", "--out", "{tmp}/v.txt"],
    ["train", "--in", "{dir}", "--vocab", "{vocab}", "--out-model",
     "{tmp}/m.bin"],
    ["evaluate", "--in", "{dir}", "--out-csv", "{tmp}/r.csv"],
    ["predict", "--model", "{model}", "--in", "{dir}", "--out",
     "{tmp}/p.jsonl"],
    ["predict", "--model", "{dir}", "--in", "{prepared}", "--out",
     "{tmp}/p.jsonl"],
], ids=["prepare", "build-vocab", "train", "evaluate", "predict-in",
        "predict-model"])
def test_directory_as_file_is_2(pipeline, tmp_path, capsys, argv):
    _, _, prepared, vocab, model = pipeline
    names = dict(dir=tmp_path / "d", tmp=tmp_path, vocab=vocab, model=model,
                 prepared=prepared)
    names["dir"].mkdir()
    assert invoke(*[a.format(**names) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
