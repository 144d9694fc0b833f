"""Tests of the benchmark itself: each check passes on the program's real
output and fails on a perturbed one; the span recorder's arithmetic; the
failure paths when a call fails and when the program is missing.

    python3 -m pytest benchmarks/test_bench.py
"""
import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from run import MODEL, _read_predictions  # noqa: E402
from spans import Recorder  # noqa: E402

from irvuln import SynthConfig, generate_corpus, save_corpus  # noqa: E402
from irvuln import cli, detector  # noqa: E402


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """The committed model's real predictions on short programs."""
    tmp = tmp_path_factory.mktemp("scored")
    corpus = generate_corpus(SynthConfig(program_count=24, lines_min=8,
                                         lines_max=16, seed=5))
    save_corpus(corpus, tmp / "in.jsonl")
    assert cli.run(["predict", "--model", str(MODEL), "--in",
                    str(tmp / "in.jsonl"), "--out", str(tmp / "out.jsonl")]) == 0
    return corpus.programs, _read_predictions(tmp / "out.jsonl")


@pytest.fixture(scope="module")
def model():
    return reference.read_model(MODEL)


def _expect(check, fn, *args):
    with pytest.raises(checks.CheckFailed) as info:
        fn(*args)
    assert info.value.check == check


def test_real_output_passes_every_check(scored, model):
    programs, preds = scored
    checks.valid_values(preds, programs)
    checks.gating(preds)
    checks.planted_f1(preds, programs, 0.9, 0.9)
    checks.ungated_line_f1(preds, programs, model.threshold, 0.9)
    checks.matches_reference(preds, programs, model)


@pytest.mark.parametrize("tensor", ["s1/W0", "s1/blstm0/bwd/W", "s1/W3",
                                    "s2/W4", "s2/W5"])
def test_reference_fails_on_a_scaled_weight(scored, model, tensor):
    programs, preds = scored
    scaled = copy.deepcopy(model)
    scaled.tensors[tensor] = scaled.tensors[tensor] * 1.001
    _expect("reference", checks.matches_reference, preds, programs, scaled)


def test_reference_fails_on_a_flipped_flag(scored, model):
    programs, preds = scored
    preds = copy.deepcopy(preds)
    vulnerable = next(p for p in programs if preds[p.id]["code_vulnerable"])
    flags = preds[vulnerable.id]["line_flags"]
    flags[0] = not flags[0]
    _expect("reference", checks.matches_reference, preds, [vulnerable], model)


def test_gating_fails_on_a_flipped_verdict(scored):
    _, preds = scored
    preds = copy.deepcopy(preds)
    flagged = next(r for r in preds.values() if any(r["line_flags"]))
    flagged["code_vulnerable"] = False
    _expect("gating", checks.gating, preds)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, 1.5])
def test_valid_values_fail_on_a_bad_probability(scored, bad):
    programs, preds = scored
    preds = copy.deepcopy(preds)
    preds[programs[3].id]["line_probabilities"][1] = bad
    _expect("valid_values", checks.valid_values, preds, programs)


def test_valid_values_fail_on_a_missing_line(scored):
    programs, preds = scored
    preds = copy.deepcopy(preds)
    preds[programs[0].id]["line_probabilities"].pop()
    _expect("valid_values", checks.valid_values, preds, programs)


def test_planted_f1_fails_on_flipped_verdicts(scored):
    programs, preds = scored
    preds = copy.deepcopy(preds)
    for rec in preds.values():
        rec["code_vulnerable"] = not rec["code_vulnerable"]
        rec["line_flags"] = [False] * len(rec["line_flags"])
    _expect("planted_f1", checks.planted_f1, preds, programs, 0.5, 0.0)


def test_planted_f1_fails_on_flipped_line_flags(scored):
    programs, preds = scored
    preds = copy.deepcopy(preds)
    for rec in preds.values():
        rec["line_flags"] = [rec["code_vulnerable"] and not f
                             for f in rec["line_flags"]]
    _expect("planted_f1", checks.planted_f1, preds, programs, 0.0, 0.5)


def test_ungated_line_f1_fails_on_inverted_probabilities(scored, model):
    programs, preds = scored
    preds = copy.deepcopy(preds)
    for rec in preds.values():
        rec["line_probabilities"] = [1.0 - p for p in rec["line_probabilities"]]
    _expect("ungated_line_f1", checks.ungated_line_f1, preds, programs,
            model.threshold, 0.5)


def _write_log(path, stage1, stage2):
    rows = [f"stage1,{e},{v!r}" for e, v in enumerate(stage1)]
    rows += [f"stage2,{e},{v!r}" for e, v in enumerate(stage2)]
    path.write_text("\n".join(rows) + "\n")
    return path


def test_loss_log_checks(tmp_path):
    good = _write_log(tmp_path / "good.csv", [0.7], [0.6, 0.2, 0.1])
    assert checks.loss_log(good, 1, 3) == 0
    repr_form = tmp_path / "repr.csv"
    repr_form.write_text("stage1,0,np.float64(0.7)\nstage2,0,0.6\n"
                         "stage2,1,np.float64(0.2)\n")
    assert checks.loss_log(repr_form, 1, 2) == 2
    _expect("loss_log", checks.loss_log,
            _write_log(tmp_path / "nan.csv", [math.nan], [0.6, 0.2, 0.1]), 1, 3)
    _expect("loss_log", checks.loss_log, good, 2, 3)
    _expect("stage2_learning", checks.loss_log,
            _write_log(tmp_path / "flat.csv", [0.7], [0.3, 0.4, 0.3]), 1, 3)


def test_self_time_subtracts_direct_children():
    rec = Recorder()
    rec.spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 1.0, 4.0, 0, 5],
                 ["leaf", 2.0, 3.0, 1, 0], ["inner", 5.0, 7.0, 0, 6]]
    totals = rec.totals()
    assert totals["outer"]["self_s"] == pytest.approx(5.0)
    assert totals["inner"] == {"calls": 2, "total_s": pytest.approx(5.0),
                               "self_s": pytest.approx(4.0), "size": 11}


def test_recorder_sees_calls_between_modules_and_restores(tmp_path, scored):
    original = detector.predict
    rec = Recorder()
    rec.install([("irvuln.detector", "predict", None),
                 ("irvuln.vocab", "fnv1a64", lambda args: len(args[0])),
                 ("irvuln.detector", "gone", None),
                 ("irvuln.removed", "run", None)])
    try:
        assert cli.predict is not original  # the name cli imported is wrapped
        rec.active = True
        save_corpus(generate_corpus(SynthConfig(
            program_count=3, lines_min=8, lines_max=9, seed=1)),
            tmp_path / "in.jsonl")
        assert cli.run(["predict", "--model", str(MODEL), "--in",
                        str(tmp_path / "in.jsonl"),
                        "--out", str(tmp_path / "out.jsonl")]) == 0
    finally:
        rec.uninstall()
    assert detector.predict is original and cli.predict is original
    assert rec.absent == ["detector.gone", "removed.run"]
    names = [s[0] for s in rec.spans]
    assert names.count("detector.predict") == 3
    # the digest `predict` takes of the vocabulary is a child span
    parents = {names[s[3]] for s in rec.spans if s[0] == "vocab.fnv1a64"
               and s[3] >= 0}
    assert parents == {"detector.predict"}


def test_a_failing_call_fails_the_run(tmp_path, monkeypatch, capsys):
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(MODEL.read_bytes()[:16])
    monkeypatch.setattr(run, "MODEL", truncated)
    assert run.run_workload("scan-short", 1, 0.01, False) == 1
    out, err = capsys.readouterr()
    assert out.strip() == ""
    assert err.strip().splitlines()[-2] == (
        "benchmark failed: workload scan-short, check exit_code")


def _copy_without_program(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for name in ("run.py", "checks.py", "reference.py", "spans.py"):
        shutil.copy(HERE / name, bench / name)


def test_all_stops_at_the_first_failing_workload(tmp_path):
    _copy_without_program(tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert proc.stderr.strip().splitlines()[-2] == (
        "benchmark failed: workload train, check program")


def test_fails_at_once_without_the_program(tmp_path):
    _copy_without_program(tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "scan-short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "workload scan-short, check program" in proc.stderr


def test_traced_run_reports_every_layer_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "scan-short",
         "--seed", "3", "--seconds", "0.01", "--trace", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert result["metrics"]["detector.load_model_s"]["value"] > 0
