"""Loading and preprocessing of labeled IR-slice datasets.

A dataset is UTF-8 JSON Lines, one object per program with exactly the
fields ``id``, ``lines``, ``label`` and ``vulnerable_lines``.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError

log = logging.getLogger(__name__)

MAX_LINES_DEFAULT = 265

_RECORD_FIELDS = {"id", "lines", "label", "vulnerable_lines"}


@dataclass
class Program:
    """One code slice: ordered IR lines plus whole-code and per-line labels."""

    id: str
    lines: list[str]
    label: int
    vulnerable_lines: tuple[int, ...] = ()

    def __post_init__(self):
        self.vulnerable_lines = tuple(sorted(set(self.vulnerable_lines)))
        self.validate()

    def validate(self):
        if not self.lines:
            raise DataError(f"program {self.id!r}: must have at least one line")
        if self.label not in (0, 1):
            raise DataError(f"program {self.id!r}: label must be 0 or 1")
        for t in self.vulnerable_lines:
            if not (0 <= t < len(self.lines)):
                raise DataError(
                    f"program {self.id!r}: vulnerable line index {t} out of range"
                )
        if self.label == 0 and self.vulnerable_lines:
            raise DataError(f"program {self.id!r}: inconsistent labels "
                            "(label 0 with vulnerable lines)")
        if self.label == 1 and not self.vulnerable_lines:
            raise DataError(f"program {self.id!r}: inconsistent labels "
                            "(label 1 without vulnerable lines)")


@dataclass
class Corpus:
    """Ordered collection of programs with unique ids."""

    programs: list[Program]
    provenance: str = ""

    def __post_init__(self):
        seen = set()
        for p in self.programs:
            if p.id in seen:
                raise DataError(f"duplicate program id {p.id!r}")
            seen.add(p.id)

    def __len__(self):
        return len(self.programs)

    def __iter__(self):
        return iter(self.programs)


def load_corpus(path) -> Corpus:
    """Parse a JSONL dataset file into a Corpus; preprocessing is NOT applied."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    programs = []
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}:{lineno}: not valid UTF-8") from exc
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise DataError(f"{path}:{lineno}: record must be an object")
            unknown = set(rec) - _RECORD_FIELDS
            if unknown:
                raise DataError(f"{path}:{lineno}: unknown fields {sorted(unknown)}")
            missing = _RECORD_FIELDS - set(rec)
            if missing:
                raise DataError(f"{path}:{lineno}: missing fields {sorted(missing)}")
            if not isinstance(rec["id"], str):
                raise DataError(f"{path}:{lineno}: id must be a string")
            if (not isinstance(rec["lines"], list)
                    or not all(isinstance(l, str) for l in rec["lines"])):
                raise DataError(f"{path}:{lineno}: lines must be an array of strings")
            if not isinstance(rec["label"], int) or isinstance(rec["label"], bool):
                raise DataError(f"{path}:{lineno}: label must be an integer")
            if (not isinstance(rec["vulnerable_lines"], list)
                    or not all(isinstance(t, int) and not isinstance(t, bool)
                               for t in rec["vulnerable_lines"])):
                raise DataError(
                    f"{path}:{lineno}: vulnerable_lines must be an array of integers")
            try:
                "".join([rec["id"], *rec["lines"]]).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise DataError(f"{path}:{lineno}: lone surrogate") from exc
            try:
                programs.append(Program(rec["id"], rec["lines"], rec["label"],
                                        tuple(rec["vulnerable_lines"])))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not programs:
        raise DataError(f"{path}: dataset contains no records")
    return Corpus(programs, provenance=str(path))


def save_corpus(corpus: Corpus, path) -> None:
    """Write a Corpus back out in the JSONL dataset format."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for p in corpus:
            fh.write(json.dumps({
                "id": p.id,
                "lines": p.lines,
                "label": p.label,
                "vulnerable_lines": list(p.vulnerable_lines),
            }) + "\n")


def _first_token(line: str) -> str:
    for tok in line.split(" "):
        if tok:
            return tok
    return ""


def _is_call_line(line: str) -> bool:
    # Token-level match; substrings like "recalled" must not fire.
    return "call" in [t for t in line.split(" ") if t]


def _strip_indices(lines) -> list[int]:
    """One scan: drop every call line immediately followed by a define line.

    Returns the original indices of surviving lines.
    """
    keep = []
    i = 0
    n = len(lines)
    while i < n:
        if (i + 1 < n and _is_call_line(lines[i])
                and _first_token(lines[i + 1]) == "define"):
            i += 2
        else:
            keep.append(i)
            i += 1
    return keep


def strip_user_functions(lines):
    """Remove user-defined function call/define line pairs, keeping bodies."""
    return [lines[i] for i in _strip_indices(lines)]


def filter_by_length(program: Program, max_lines: int = MAX_LINES_DEFAULT):
    """Keep the program only if it has fewer than max_lines lines."""
    return program if len(program.lines) < max_lines else None


def _strip_program(program: Program):
    """Strip call/define pairs to a fixpoint and remap vulnerable line indices.

    Returns (program, dropped_vulnerable_count) or (None, n) if the program
    lost all its lines or all its vulnerable lines.
    """
    surviving = list(range(len(program.lines)))
    while True:
        current = [program.lines[i] for i in surviving]
        kept = _strip_indices(current)
        if len(kept) == len(surviving):
            break
        surviving = [surviving[j] for j in kept]
    if not surviving:
        return None, len(program.vulnerable_lines)
    new_pos = {orig: new for new, orig in enumerate(surviving)}
    remapped = [new_pos[t] for t in program.vulnerable_lines if t in new_pos]
    dropped = len(program.vulnerable_lines) - len(remapped)
    if program.label == 1 and not remapped:
        return None, dropped
    stripped = Program(program.id, [program.lines[i] for i in surviving],
                       program.label, tuple(remapped))
    return stripped, dropped


def prepare_corpus(corpus: Corpus, max_lines: int = MAX_LINES_DEFAULT) -> Corpus:
    """Apply call/define stripping and the line-count filter to every program.

    Vulnerable-line indices are remapped to post-stripping positions; programs
    whose vulnerable lines were all removed (or that became empty) are dropped
    with a warning.
    """
    out = []
    dropped_programs = 0
    dropped_vuln_lines = 0
    for program in corpus:
        stripped, dropped = _strip_program(program)
        dropped_vuln_lines += dropped
        if stripped is None:
            dropped_programs += 1
            continue
        filtered = filter_by_length(stripped, max_lines)
        if filtered is not None:
            out.append(filtered)
    if dropped_vuln_lines:
        log.warning("stripping removed %d vulnerable line(s); %d program(s) dropped",
                    dropped_vuln_lines, dropped_programs)
    if not out:
        raise DataError("empty corpus after preprocessing")
    return Corpus(out, provenance=corpus.provenance)
