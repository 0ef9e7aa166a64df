"""In-memory span tracer that wraps public functions from outside the program.

`Tracer.wrap(owner, attr, name)` replaces `owner.attr` with a wrapper that
records one span per call: name, start, end, the span open when it was called
(its parent) and the tracer's current run id. Callers must look the function
up on `owner` at call time for the span to be seen, which is why harness
names are wrapped on `driftsim.harness` rather than on their defining module.
`restore()` puts every original back. Nothing is written until `dump`.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []       # [name, start, end, parent index or None, run id]
        self.run_id = None
        self._open = []       # indices of spans whose call has not returned
        self._patched = []    # (owner, attr, original), in patch order

    def wrap(self, owner, attr: str, name: str, results: list | None = None):
        """Trace calls to `owner.attr`; append each return value to `results`."""
        original = getattr(owner, attr)
        spans, open_ = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else None, self.run_id])
            open_.append(index)
            start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[index][1:3] = (start, end)
            if results is not None:
                results.append(out)
            return out

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> list:
        """Per span: duration minus the time its direct children cover.

        Calls run on one thread, so children of one span never overlap and
        their durations can simply be summed.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def summary(self, stage_of: dict) -> dict:
        """Totals keyed by (stage, span name): calls, inclusive and self seconds.

        A span's stage is the `stage_of` value of its nearest ancestor (or
        itself) whose name is a key of `stage_of`; spans outside every stage
        get stage None.
        """
        stages = []
        for name, _, _, parent, _ in self.spans:
            stages.append(stage_of.get(name, stages[parent] if parent is not None else None))
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), stage, own in zip(self.spans, stages, self.self_times()):
            row = totals[stage, name]
            row[0] += 1
            row[1] += end - start
            row[2] += own
        return totals

    def dump(self, path, header: dict):
        """Write a header line, then one JSON line per span, times from the first."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "parent": parent, "run": run,
                                    "start_s": start - base, "end_s": end - base}) + "\n")
