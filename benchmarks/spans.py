"""In-memory span recorder that times calls into the irvuln modules from outside.

`Recorder.install` replaces each named public function with a timing
wrapper, in its own module and in every irvuln module that imported it by
name, so calls between modules are seen too. No program code changes. A
span is (name, start, end, parent, size): `size` is the amount of work the
call was given (steps, lines, bytes), read from its arguments after the
clock stops. Spans are kept in memory and written out by `write`.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, public function, size of the work a call is given)
TARGETS = [
    ("irvuln.cli", "run", None),
    ("irvuln.corpus", "load_corpus", None),
    ("irvuln.vocab", "fnv1a64", lambda args: len(args[0])),
    ("irvuln.vocab", "vectorize_program", lambda args: len(args[1].lines)),
    ("irvuln.nncore", "lstm_sequence_forward", lambda args: args[1].shape[0]),
    ("irvuln.nncore", "lstm_sequence_backward", lambda args: args[2].shape[0]),
    ("irvuln.nncore", "sgd_step",
     lambda args: sum(g.nbytes for g in args[1].values())),
    ("irvuln.detector", "train_stage1", None),
    ("irvuln.detector", "train_stage2", None),
    ("irvuln.detector", "stage1_forward", lambda args: len(args[1])),
    ("irvuln.detector", "stage2_forward", None),
    ("irvuln.detector", "predict", None),
    ("irvuln.detector", "load_model", None),
    ("irvuln.detector", "save_model", None),
]


class Recorder:
    """Collects spans while `active`; one thread, so parents form a stack."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, size]
        self.active = False
        self.absent = []     # "module.function" names not found
        self._stack = []
        self._restore = []   # (module, attribute, original)

    def _wrap(self, name, fn, size_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if size_of is not None:
                    try:
                        span[4] = size_of(args)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        pass  # a changed signature leaves the size at 0
        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target that exists; record the missing ones as absent."""
        for module_name, attr, size_of in targets:
            name = f"{module_name.split('.')[-1]}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, size_of)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "irvuln"
                                       or mod_name.startswith("irvuln.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def totals(self) -> dict:
        """Per span name: calls, total seconds, self seconds, summed size.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _, size) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "size": 0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[k]
            entry["size"] += size
        return out

    def write(self, path) -> None:
        """One JSON object per line: name, start, end, parent, size."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, size in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "size": size}) + "\n")
