"""Spans and counters recorded around calls into tautrr's public functions.

Nothing in ``src/`` is changed: the tracer replaces a public function with a
wrapper in every tautrr module whose globals hold it (modules import names
directly, so a name must be wrapped where it is looked up), and replaces
engine methods on the class.  ``uninstall`` puts every original back.

Each wrapped call keeps a frame on a stack.  When it returns, its duration
is added to the parent frame's child time, so a call's self time is its
duration minus the time its wrapped children cover.  Calls into the engine
are too frequent to keep one span each (hundreds of thousands per pass), so
they only feed the per-name totals; every other call is also kept as a span
``(id, name, start, end, parent, op)`` in memory and written out at the end.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

#: spans kept in memory; later ones only feed the totals
SPAN_LIMIT = 200_000

#: (module, public name) -> stat name; module-level functions
FUNCTIONS = {
    ("tautrr.universal", "psi_eval"): "universal.psi_eval",
    ("tautrr.strata", "enumerate_tests"): "strata.enumerate_tests",
    ("tautrr.strata", "pair_with_test"): "strata.pair_with_test",
    ("tautrr.relations", "verify"): "relations.verify",
    ("tautrr.relations", "verify_vyt"): "relations.verify",
    ("tautrr.relations", "verify_xi_witness"): "relations.verify",
    ("tautrr.relations", "build_bbt"): "relations.build",
    ("tautrr.relations", "build_variation"): "relations.build",
    ("tautrr.relations", "build_fqq"): "relations.build",
    ("tautrr.relations", "build_vpe"): "relations.build",
    ("tautrr.relations", "build_xi"): "relations.build",
    ("tautrr.cache", "cache_load"): "cache.load",
    ("tautrr.cache", "cache_save"): "cache.save",
    ("tautrr.cli", "render_reports_json"): "cli.render",
    ("tautrr.cli", "render_reports_csv"): "cli.render",
    ("tautrr.cli", "render_reports_text"): "cli.render",
}

#: public CorrelatorEngine methods; hot, so totals only
ENGINE_METHODS = ("correlator", "psi_integral", "psi_kappa_integral")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def replace_everywhere(original, replacement, patches: list) -> None:
    """Rebind every tautrr module global that is ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "tautrr" or name.startswith("tautrr.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, value))
                setattr(module, attr, replacement)


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        # name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.memo_entries = 0
        self._engines: set = set()
        self._stack: list[list] = []  # frames: [child seconds, span id]
        self._next_id = 1
        self._op = 0
        self._patches: list = []
        self._op_call = self._wrap("op", lambda fn, *args: fn(*args), True)

    # -- recording -----------------------------------------------------

    def run_op(self, fn, *args):
        """Run one benchmark op as a root span; its spans share its op id.

        Afterwards, record the largest memo table of the engines it used.
        """
        self._op += 1
        try:
            return self._op_call(fn, *args)
        finally:
            self.flush_engines()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, stat: str, fn, keep_span: bool, before=None, after=None):
        stack = self._stack
        stats = self.stats.setdefault(stat, [0, 0.0, 0.0])
        spans = self.spans
        clock = self.clock

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1][1] if stack else 0
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if keep_span:
                    if len(spans) < SPAN_LIMIT:
                        spans.append((span_id, stat, start, end, parent, self._op))
                    else:
                        self.dropped_spans += 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        from tautrr import engine

        for (module_name, attr), stat in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            replace_everywhere(original, self._wrap(stat, original, True,
                                                    *self._hooks(stat)), self._patches)
        cls = engine.CorrelatorEngine
        for method in ENGINE_METHODS:
            original = cls.__dict__[method]
            before = self._gate if method == "correlator" else self._note_engine
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(f"engine.{method}", original, False, before))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _hooks(self, stat: str):
        if stat == "cache.load":
            return (lambda args: self.count("cache.bytes_read", _file_size(args[0])), None)
        if stat == "cache.save":
            return (None, lambda args, _: self.count("cache.bytes_written", _file_size(args[1])))
        if stat == "cli.render":
            from workloads import normalize_report

            return (None, lambda args, text: self.count(
                "cli.report_bytes", len(normalize_report(text).encode("utf-8"))))
        if stat == "strata.enumerate_tests":
            return (None, lambda args, tests: self.count("strata.tests_enumerated", len(tests)))
        return (None, None)

    def _note_engine(self, args) -> None:
        self._engines.add(args[0])

    def _gate(self, args) -> None:
        # classify from the arguments the way the engine's dimension gate does
        engine, g, levels = args[0], args[1], args[2]
        self._engines.add(engine)
        n = len(levels)
        if g < 0 or 2 * g - 2 + n <= 0 or min(levels, default=0) < 0 \
                or sum(levels) != 3 * g - 3 + n:
            self.count("engine.correlator.gate_rejects")

    def flush_engines(self) -> None:
        """Record the largest memo table seen, then drop the engine references."""
        for engine in self._engines:
            self.memo_entries = max(self.memo_entries, len(engine.entries()))
        self._engines.clear()

    # -- results -------------------------------------------------------

    def total(self, stat: str, field: int) -> float:
        return self.stats.get(stat, [0, 0.0, 0.0])[field]

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(header, dropped_spans=self.dropped_spans)) + "\n")
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op}) + "\n")
