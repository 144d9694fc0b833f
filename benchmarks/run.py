"""Benchmark of irvuln training, bulk prediction and per-call scans.

    python3 benchmarks/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: it repeats whole rounds of
the same `irvuln` CLI calls (through `irvuln.cli.run`) until the measured
time reaches --seconds, and checks the outputs of every round with the
benchmark's own code (see checks.py). The last line of standard output is
one JSON object: correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 every public function the
benchmark times (see spans.py) is wrapped, and the metrics are per layer.
`--workload all` runs each workload in its own fresh process.

Any failure exits non-zero and names the workload and the check on the
last lines of standard error. See README.md for the workloads and metrics.
"""
import time

_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, fixed before numpy loads: the program's products are
# 64-wide, and threads only add run-to-run spread on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODEL = HERE / "model" / "desk_v1.bin"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import reference  # noqa: E402
from spans import Recorder  # noqa: E402


def _read_predictions(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {rec["id"]: rec for rec in map(json.loads, fh)}


def _sample(programs, per_class: int = 2) -> list:
    """The first programs of each class, for the reference forward pass."""
    clean = [p for p in programs if p.label == 0][:per_class]
    vulnerable = [p for p in programs if p.label == 1][:per_class]
    return clean + vulnerable


class Train:
    """One `irvuln train` on the 80% training split of a desk-scale corpus.

    The epoch counts give both stages a material share of the call; stage 1
    need not converge in one epoch, and stage 2 needs two to show learning.
    """

    STAGE1_EPOCHS = 1
    STAGE2_EPOCHS = 3
    UNGATED_LINE_F1_FLOOR = 0.9

    def __init__(self, irvuln, tmp: Path, seed: int):
        import numpy as np
        corpus = irvuln.prepare_corpus(irvuln.generate_corpus(
            irvuln.SynthConfig(seed=seed)))
        train, test = irvuln.evaluate.split_corpus(
            corpus, 0.2, np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(seed))))
        irvuln.save_corpus(train, tmp / "train.jsonl")
        irvuln.save_vocabulary(irvuln.build_vocabulary(train), tmp / "vocab.txt")
        self.heldout = [p for p in test if p.label == 1]
        irvuln.save_corpus(irvuln.Corpus(self.heldout), tmp / "heldout.jsonl")
        self.tmp = tmp
        self.lines = sum(len(p.lines) for p in train)
        self.calls = [[
            "train", "--in", str(tmp / "train.jsonl"),
            "--vocab", str(tmp / "vocab.txt"),
            "--out-model", str(tmp / "model.bin"),
            "--loss-log", str(tmp / "loss.csv"), "--seed", str(seed),
            "--stage1-epochs", str(self.STAGE1_EPOCHS),
            "--stage2-epochs", str(self.STAGE2_EPOCHS)]]

    def check(self, cli) -> None:
        # rows in the program's `np.float64(x)` form, shown on the info line
        # so the allowance in checks.loss_log can go once the program logs
        # plain numbers
        self.info = {"loss_log_repr_rows": checks.loss_log(
            self.tmp / "loss.csv", self.STAGE1_EPOCHS, self.STAGE2_EPOCHS)}
        pred_path = self.tmp / "heldout-pred.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["predict", "--model", str(self.tmp / "model.bin"),
                            "--in", str(self.tmp / "heldout.jsonl"),
                            "--out", str(pred_path)])
        if code != 0:
            raise checks.CheckFailed("heldout_predict", f"exit code {code}")
        preds = _read_predictions(pred_path)
        model = reference.read_model(self.tmp / "model.bin")
        checks.valid_values(preds, self.heldout)
        checks.gating(preds)
        checks.ungated_line_f1(preds, self.heldout, model.threshold,
                               self.UNGATED_LINE_F1_FLOOR)
        checks.matches_reference(preds, self.heldout[:4], model)


class _CommittedModelWorkload:
    """Predict calls with the committed model; subclasses set `programs`,
    `pred_paths`, `calls`, `lines` and the two F1 floors."""

    def check(self, cli) -> None:
        preds = {}
        for path in self.pred_paths:
            preds.update(_read_predictions(path))
        checks.valid_values(preds, self.programs)
        checks.gating(preds)
        checks.planted_f1(preds, self.programs, self.CODE_F1_FLOOR,
                          self.LINE_F1_FLOOR)
        checks.matches_reference(preds, _sample(self.programs),
                                 reference.read_model(MODEL))


class PredictLong(_CommittedModelWorkload):
    """One bulk `irvuln predict` with the committed model over long programs."""

    PROGRAMS = 120
    CODE_F1_FLOOR = 0.8
    LINE_F1_FLOOR = 0.6

    def __init__(self, irvuln, tmp: Path, seed: int):
        corpus = irvuln.generate_corpus(irvuln.SynthConfig(
            program_count=self.PROGRAMS, lines_min=200, lines_max=264,
            seed=seed))
        irvuln.save_corpus(corpus, tmp / "long.jsonl")
        self.programs = corpus.programs
        self.pred_paths = [tmp / "long-pred.jsonl"]
        self.lines = sum(len(p.lines) for p in corpus)
        self.calls = [["predict", "--model", str(MODEL),
                       "--in", str(tmp / "long.jsonl"),
                       "--out", str(self.pred_paths[0])]]


class ScanShort(_CommittedModelWorkload):
    """Many `irvuln predict` calls, each loading the committed model and
    scoring a handful of short programs, as a pre-commit hook would."""

    CALLS = 25
    PROGRAMS_PER_CALL = 4
    CODE_F1_FLOOR = 0.9
    LINE_F1_FLOOR = 0.9

    def __init__(self, irvuln, tmp: Path, seed: int):
        corpus = irvuln.generate_corpus(irvuln.SynthConfig(
            program_count=self.CALLS * self.PROGRAMS_PER_CALL,
            lines_min=8, lines_max=16, seed=seed))
        self.programs = corpus.programs
        self.pred_paths = []
        self.calls = []
        k = self.PROGRAMS_PER_CALL
        for c in range(self.CALLS):
            inp, out = tmp / f"scan{c}.jsonl", tmp / f"scan{c}-pred.jsonl"
            irvuln.save_corpus(irvuln.Corpus(self.programs[c * k:(c + 1) * k]),
                               inp)
            self.pred_paths.append(out)
            self.calls.append(["predict", "--model", str(MODEL),
                               "--in", str(inp), "--out", str(out)])
        self.lines = sum(len(p.lines) for p in corpus)


WORKLOADS = {"train": Train, "predict-long": PredictLong,
             "scan-short": ScanShort}


def _import_program():
    if not (SRC / "irvuln" / "__init__.py").is_file():
        raise checks.CheckFailed("program", f"no irvuln package under {SRC}; "
                                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import irvuln
    import irvuln.cli
    import irvuln.evaluate
    return irvuln


def _layer_metrics(recorder: Recorder, rounds: int) -> dict:
    """Per-layer figures from the spans of the measured rounds.

    `_s`, `_calls`, `_steps` and `_mb` figures are per round; `_us` figures
    are per call, and `_us_per_<unit>` figures per unit of work.
    """
    totals = recorder.totals()

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    fwd, bwd = "nncore.lstm_sequence_forward", "nncore.lstm_sequence_backward"
    sgd, fnv = "nncore.sgd_step", "vocab.fnv1a64"
    s1f, s2f = "detector.stage1_forward", "detector.stage2_forward"
    vec, pred = "vocab.vectorize_program", "detector.predict"
    figures = {
        "nncore.lstm_fwd_steps": (ratio(get(fwd, "size"), rounds), "count"),
        "nncore.lstm_fwd_us_per_step": (
            ratio(get(fwd, "total_s"), get(fwd, "size"), 1e6), "us/step"),
        "nncore.lstm_bwd_steps": (ratio(get(bwd, "size"), rounds), "count"),
        "nncore.lstm_bwd_us_per_step": (
            ratio(get(bwd, "total_s"), get(bwd, "size"), 1e6), "us/step"),
        "nncore.sgd_step_calls": (ratio(get(sgd, "calls"), rounds), "count"),
        "nncore.sgd_step_us": (
            ratio(get(sgd, "total_s"), get(sgd, "calls"), 1e6), "us"),
        "nncore.sgd_bytes_per_step": (
            ratio(get(sgd, "size"), get(sgd, "calls")), "B"),
        "detector.train_stage1_self_s": (
            ratio(get("detector.train_stage1", "self_s"), rounds), "s"),
        "detector.train_stage2_self_s": (
            ratio(get("detector.train_stage2", "self_s"), rounds), "s"),
        "detector.stage1_forward_us_per_line": (
            ratio(get(s1f, "total_s"), get(s1f, "size"), 1e6), "us/line"),
        "detector.stage2_forward_calls": (
            ratio(get(s2f, "calls"), rounds), "count"),
        "detector.stage2_forward_us_per_line": (
            ratio(get(s2f, "total_s"), get(s2f, "calls"), 1e6), "us/line"),
        "detector.load_model_s": (
            ratio(get("detector.load_model", "total_s"), rounds), "s"),
        "detector.save_model_s": (
            ratio(get("detector.save_model", "total_s"), rounds), "s"),
        "vocab.fnv1a64_calls": (ratio(get(fnv, "calls"), rounds), "count"),
        "vocab.fnv1a64_mb": (ratio(get(fnv, "size"), rounds, 1e-6), "MB"),
        "vocab.fnv1a64_s": (ratio(get(fnv, "total_s"), rounds), "s"),
        "vocab.vectorize_us_per_line": (
            ratio(get(vec, "total_s"), get(vec, "size"), 1e6), "us/line"),
        "detector.predict_self_us_per_program": (
            ratio(get(pred, "self_s"), get(pred, "calls"), 1e6), "us/program"),
        "corpus.load_corpus_s": (
            ratio(get("corpus.load_corpus", "total_s"), rounds), "s"),
        "cli.self_s": (ratio(get("cli.run", "self_s"), rounds), "s"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in figures.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    tmp = None
    try:
        irvuln = _import_program()
        if name != "train" and not MODEL.is_file():
            raise checks.CheckFailed("model", f"committed model {MODEL} is missing")
        OUT.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT))
        workload = WORKLOADS[name](irvuln, tmp, seed)
        setup_s = time.perf_counter() - _START

        recorder = Recorder()
        if trace:
            recorder.install()
        cli = irvuln.cli
        call_s, round_s = [], []
        while sum(round_s) < seconds:
            recorder.active = trace
            round_start = time.perf_counter()
            for argv in workload.calls:
                call_start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.run(argv)
                call_s.append(time.perf_counter() - call_start)
                if code != 0:
                    # cli.run returns 2 on a DataError, 3 on a NumericError
                    raise checks.CheckFailed(
                        "exit_code", f"`irvuln {argv[0]}` exited {code}")
            round_s.append(time.perf_counter() - round_start)
            recorder.active = False
            workload.check(cli)

        e2e = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "call_s_p50": {"value": statistics.median(call_s), "unit": "s"},
            "lines_per_s": {"value": workload.lines / statistics.median(round_s),
                            "unit": "lines/s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        info = {"rounds": len(round_s), "calls": len(call_s),
                "round_s_median": statistics.median(round_s)}
        info.update(getattr(workload, "info", {}))
        if len(call_s) >= 100:
            info["call_s_p90"] = statistics.quantiles(call_s, n=10)[-1]
        if trace:
            recorder.uninstall()
            recorder.write(OUT / f"trace-{name}.jsonl")
            metrics = _layer_metrics(recorder, len(round_s))
            info["traced_end_to_end"] = {k: v["value"] for k, v in e2e.items()}
            if recorder.absent:
                info["absent"] = recorder.absent
        else:
            metrics = e2e
        print("info: " + json.dumps(info))
        # every call is checked and any failure ends the run, so none fails
        print(json.dumps({"correct": True, "attempted": len(call_s),
                          "failed": 0, "metrics": metrics}))
        return 0
    except checks.CheckFailed as exc:
        _report_failure(name, exc.check, str(exc))
    except Exception as exc:  # noqa: BLE001 -- report, never a bare traceback
        traceback.print_exc()
        _report_failure(name, "exception", f"{type(exc).__name__}: {exc}")
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    return 1


def _report_failure(workload: str, check: str, detail: str) -> None:
    print(f"benchmark failed: workload {workload}, check {check}",
          file=sys.stderr)
    print(f"  {detail}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined result.

    Stops at the first workload that fails, so the failing workload's own
    `benchmark failed: workload ..., check ...` lines are the last ones.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        try:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600, check=False)
        except subprocess.TimeoutExpired:
            _report_failure(name, "timeout", "no result within 600 s")
            return 1
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            if "benchmark failed:" not in proc.stderr:
                _report_failure(name, "exit_code",
                                f"exited {proc.returncode} without a result")
            return 1
        result = json.loads(lines[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
