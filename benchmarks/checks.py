"""Checks on the program's outputs, made without the program's own code.

Each check raises CheckFailed naming itself. Predictions are the records
`irvuln predict` writes, keyed by program id; programs are the generator's
records, whose labels and vulnerable lines were planted.
"""
from __future__ import annotations

import math

import reference

# A change in summation order moves a probability by far less than this;
# any change to what is computed moves it by far more.
REFERENCE_TOLERANCE = 1e-9


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def f1(pairs) -> float:
    """F1 of (predicted, actual) booleans with the vulnerable class positive."""
    tp = fp = fn = 0
    for predicted, actual in pairs:
        tp += predicted and actual
        fp += predicted and not actual
        fn += actual and not predicted
    return 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0


def valid_values(preds: dict, programs) -> None:
    """One record per program, one value per line, probabilities finite in [0, 1]."""
    if set(preds) != {p.id for p in programs}:
        raise CheckFailed("valid_values", "predicted ids differ from the input ids")
    for p in programs:
        rec = preds[p.id]
        if not (len(rec["line_probabilities"]) == len(rec["line_flags"])
                == len(p.lines)):
            raise CheckFailed("valid_values", f"{p.id}: line count differs")
        for v in [rec["code_probability"], *rec["line_probabilities"]]:
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not (math.isfinite(v) and 0.0 <= v <= 1.0)):
                raise CheckFailed("valid_values", f"{p.id}: probability {v!r}")


def gating(preds: dict) -> None:
    """No line is flagged in a program judged clean."""
    for pid, rec in preds.items():
        if not rec["code_vulnerable"] and any(rec["line_flags"]):
            raise CheckFailed("gating", f"{pid}: line flagged in a clean verdict")


def planted_f1(preds: dict, programs, code_floor: float, line_floor: float) -> tuple:
    """Code F1 over all programs and gated line F1 over the lines of the
    planted-vulnerable programs, each at or above its floor."""
    code = f1((preds[p.id]["code_vulnerable"], p.label == 1) for p in programs)
    line = f1((flag, t in p.vulnerable_lines)
              for p in programs if p.label == 1
              for t, flag in enumerate(preds[p.id]["line_flags"]))
    if code < code_floor:
        raise CheckFailed("planted_f1", f"code F1 {code:.4f} < {code_floor}")
    if line < line_floor:
        raise CheckFailed("planted_f1", f"line F1 {line:.4f} < {line_floor}")
    return code, line


def ungated_line_f1(preds: dict, programs, threshold: float, floor: float) -> float:
    """Stage-2 line F1, before gating, over planted-vulnerable programs."""
    line = f1((prob >= threshold, t in p.vulnerable_lines)
              for p in programs if p.label == 1
              for t, prob in enumerate(preds[p.id]["line_probabilities"]))
    if line < floor:
        raise CheckFailed("ungated_line_f1", f"line F1 {line:.4f} < {floor}")
    return line


def matches_reference(preds: dict, programs, model: reference.RefModel) -> None:
    """The benchmark's own forward pass gives the same probabilities and flags."""
    for p in programs:
        rec = preds[p.id]
        code_p, line_p, verdict, flags = reference.forward(model, p.lines)
        got = [rec["code_probability"], *rec["line_probabilities"]]
        worst = max(abs(a - b) for a, b in zip(got, [code_p, *line_p]))
        if not worst <= REFERENCE_TOLERANCE:  # a NaN fails too
            raise CheckFailed("reference", f"{p.id}: probabilities differ "
                                           f"by {worst:.3e}")
        # a verdict may differ only where the probability sits on the threshold
        near = abs(code_p - model.threshold) <= REFERENCE_TOLERANCE
        if rec["code_vulnerable"] != verdict and not near:
            raise CheckFailed("reference", f"{p.id}: code verdict differs")
        for t, (a, b) in enumerate(zip(rec["line_flags"], flags)):
            if a != b and not (near or abs(line_p[t] - model.threshold)
                               <= REFERENCE_TOLERANCE):
                raise CheckFailed("reference", f"{p.id}: line {t} flag differs")


def loss_log(path, stage1_epochs: int, stage2_epochs: int) -> int:
    """Every logged loss is finite, every epoch is logged, and the last
    stage-2 epoch's loss is below the first.

    Returns the number of rows whose value is in the `np.float64(x)` form.
    `cli._cmd_train` writes `f"{loss!r}"`, which gives that form under
    numpy >= 2 (a FOUND line in CHANGES.md). The check reads it so the
    benchmark runs on today's program; drop the allowance once the program
    writes plain numbers, and the count shows when that is.
    """
    losses = {"stage1": [], "stage2": []}
    repr_rows = 0
    with open(path, encoding="utf-8") as fh:
        for row in fh:
            try:
                stage, epoch, value = row.strip().split(",")
                if value.startswith("np.float64(") and value.endswith(")"):
                    value = value[len("np.float64("):-1]
                    repr_rows += 1
                value = float(value)
                losses[stage].append(value)
            except (KeyError, ValueError) as exc:
                raise CheckFailed("loss_log", f"unreadable row {row!r}") from exc
            if not math.isfinite(value):
                raise CheckFailed("loss_log", f"{stage} epoch {epoch}: {value}")
    if (len(losses["stage1"]), len(losses["stage2"])) != (stage1_epochs,
                                                          stage2_epochs):
        raise CheckFailed("loss_log", "epoch count differs from the request")
    if not losses["stage2"][-1] < losses["stage2"][0]:
        raise CheckFailed("stage2_learning",
                          f"last stage-2 loss {losses['stage2'][-1]:.6f} is not "
                          f"below the first {losses['stage2'][0]:.6f}")
    return repr_rows
