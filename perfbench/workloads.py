"""The benchmark's four workloads and the exact checks on their outputs.

Each workload is built once (its set-up) from a seeded random generator that
only permutes the order of independent operations, then run in passes.  A
pass performs every operation once, so every seed does the same work and
the figures of two seeds differ only by order.  Every output is checked
against an exact expected value; a mismatch or an exception counts as a
failed operation and never aborts the run.

Workloads drive tautrr only through stable entry points: ``cli.main`` argv,
``universal.psi_eval``, the public ``CorrelatorEngine`` methods and the
public functions of ``tautrr.cache``.  ``--jobs`` is never passed.
"""

from __future__ import annotations

import gc
import io
import itertools
import json
import re
import statistics
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from array import array
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

MISMATCH_WARNING = "disagreed with recomputation"


def normalize_report(text: str) -> str:
    """Report bytes with the wall-clock ``millis`` fields zeroed."""
    return re.sub(r'"millis": \d+', '"millis": 0', text)


def load_golden(name: str):
    with open(GOLDEN / name, encoding="utf-8") as handle:
        return json.load(handle)


def report_golden_path(argv_key: str) -> Path:
    return GOLDEN / "reports" / f"{argv_key}.json"


class Recorder:
    """Latencies, attempts, failures and warning counts of one run.

    Times are read from ``clock`` (a HostClock, or ``perf_counter``).
    Latencies are kept per pass, in op order, in flat arrays, so that their
    memory barely depends on how many passes a run makes.
    """

    def __init__(self, clock):
        self.clock = clock
        self.passes: list[array] = []
        self.latencies = array("d")
        self.attempted = 0
        self.failed = 0
        self.mismatch_warnings = 0
        self.failures: list[str] = []

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(why)
            print(f"failed: {why}", file=sys.stderr)

    def start_pass(self) -> None:
        self.latencies = array("d")
        self.passes.append(self.latencies)

    def op_latencies(self) -> list[float]:
        """One latency per op: its median over the run's passes.

        Every pass runs the same ops in the same order, so the per-op
        median removes most of the host's noise and ranks the ops alike in
        every run; with a fixed op set, a percentile of pooled samples
        jumps between ops of very different cost.  If ops failed and the
        passes differ in length, the pooled samples are used.
        """
        if len({len(p) for p in self.passes}) != 1:
            return [x for p in self.passes for x in p]
        return [statistics.median(op) for op in zip(*self.passes)]

    def time_op(self, run_op, fn, *args):
        """Run one op through ``run_op``; record its latency if it returns."""
        start = self.clock()
        result = run_op(fn, *args)
        self.latencies.append(self.clock() - start)
        return result


def call_cli(lib, argv, run_op, rec: Recorder):
    """Run ``tautrr`` in process; returns (exit code, stdout, mismatch warnings).

    ``run_op(fn, *args)`` runs ``cli.main``; pass ``rec.time_op``-style
    runners to time the call.  A user runs each command in a new process,
    so the cyclic collector starts each call empty, as it would there;
    otherwise garbage from earlier calls decides which call pays for a
    collection, and that changes with the seed's order.
    """
    gc.collect()
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        code = run_op(lib.cli.main, argv)
    mismatches = sum(MISMATCH_WARNING in str(w.message) for w in caught)
    rec.mismatch_warnings += mismatches
    return code, out.getvalue(), mismatches


def _compositions(total: int, parts: int, cap: int):
    """Non-increasing tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, cap), -1, -1):
        for tail in _compositions(total - first, parts - 1, first):
            yield (first,) + tail


def top_two_point(g: int):
    """Sorted exponent pairs (a, b) with a + b = 3g - 1."""
    return [(a, 3 * g - 1 - a) for a in range((3 * g - 1) // 2 + 1)]


# ----------------------------------------------------------------------
# pointtarget: universal.psi_eval over the criterion-7 grid
# ----------------------------------------------------------------------


class PointTarget:
    """Every (g, m, r, s, slot multiset) of the point-target grid.

    Checks: the golden value, zero at or above the conjC threshold
    2g + r + s - 3, and the slot-swap symmetry psi(r,s;W,V) =
    (-1)^m psi(s,r;V,W) against the mirrored op of the same pass.
    """

    name = "pointtarget"
    SIZES = {"full": (4, 2, 3), "tiny": (1, 1, 2)}  # max genus, max level, max slots

    def __init__(self, lib, rng, size, tmp, golden=None):
        self.lib = lib
        max_g, max_level, max_slots = self.SIZES[size]
        fields = {x: lib.universal.tau(x) for x in range(max_level + 1)}
        slots = [list(itertools.combinations_with_replacement(range(max_level + 1), k))
                 for k in range(max_slots + 1)]
        self.ops = [
            ((r, s, g, m, w, v), [fields[x] for x in w], [fields[x] for x in v])
            for g in range(max_g + 1)
            for m in range(3 * g + 4)
            for r in range(max_slots + 1)
            for s in range(max_slots + 1)
            for w in slots[r]
            for v in slots[s]
        ]
        rng.shuffle(self.ops)
        if golden is None:
            golden = load_golden("pointtarget.json")
        self.expected = {self.parse_key(k): Fraction(v) for k, v in golden.items()}

    @staticmethod
    def format_key(key) -> str:
        r, s, g, m, w, v = key
        return f"{r},{s},{g},{m}|{','.join(map(str, w))}|{','.join(map(str, v))}"

    @staticmethod
    def parse_key(text: str):
        head, w, v = text.split("|")
        r, s, g, m = (int(x) for x in head.split(","))
        as_tuple = lambda part: tuple(int(x) for x in part.split(",") if x)
        return (r, s, g, m, as_tuple(w), as_tuple(v))

    def run_pass(self, rec: Recorder, run_op):
        engine = self.lib.engine.CorrelatorEngine()
        universal = self.lib.universal
        values = {}
        bad = set()
        for key, W, V in self.ops:
            r, s, g, m = key[:4]
            try:
                value = rec.time_op(run_op, universal.psi_eval, r, s, g, m, W, V, engine)
            except Exception as exc:  # counted, never aborts the run
                bad.add(key)
                rec.fail(0, f"psi_eval{key}: {exc!r}")
                continue
            values[key] = value
            if value != self.expected.get(key, 0):
                bad.add(key)
            elif m >= 2 * g + r + s - 3 and value != 0:
                bad.add(key)
        for key, value in values.items():
            r, s, g, m, w, v = key
            mirror = values.get((s, r, g, m, v, w))
            if mirror is None or value != (-1) ** m * mirror:
                bad.add(key)
        rec.attempted += len(self.ops)
        if bad:
            rec.fail(len(bad), f"pointtarget: {len(bad)} evals wrong, e.g. "
                               f"{self.format_key(sorted(bad)[0])}")


# ----------------------------------------------------------------------
# ladder: cold DVV recursion, top correlators in ascending genus
# ----------------------------------------------------------------------


class Ladder:
    """A cold engine asked for top correlators in ascending genus.

    Genus 0: every n-point correlator for n <= max_n, checked against
    ``genus0_closed_form``.  Genus g >= 1: the one-point top correlator,
    checked against ``one_point_value``, and every two-point top
    correlator, checked against the golden table.  The seed permutes the
    genus-0 block only.  Above genus 0 the first correlator asked for pays
    for most of its genus, so permuting there moved the median op latency
    by up to half between seeds; those correlators keep ascending order.
    """

    name = "ladder"
    SIZES = {"full": (11, 8), "tiny": (4, 6)}  # max genus, max n in genus 0

    def __init__(self, lib, rng, size, tmp, golden=None):
        self.lib = lib
        max_g, max_n = self.SIZES[size]
        engine = lib.engine
        if golden is None:
            golden = load_golden("ladder.json")
        two_point = {tuple(int(x) for x in re.split("[|,]", k)): Fraction(v)
                     for k, v in golden.items()}
        block = [(0, d, engine.genus0_closed_form(d))
                 for n in range(3, max_n + 1) for d in _compositions(n - 3, n, n - 3)]
        rng.shuffle(block)
        self.ops = block
        for g in range(1, max_g + 1):
            block = [(g, (3 * g - 2,), engine.one_point_value(g))]
            block += [(g, (a, b), two_point[(g, a, b)]) for a, b in top_two_point(g)]
            self.ops += block

    def run_pass(self, rec: Recorder, run_op):
        engine = self.lib.engine.CorrelatorEngine()
        for g, d, expected in self.ops:
            try:
                value = rec.time_op(run_op, engine.psi_integral, g, d)
            except Exception as exc:  # counted, never aborts the run
                rec.fail(1, f"psi_integral({g}, {d}): {exc!r}")
                continue
            if value != expected:
                rec.fail(1, f"psi_integral({g}, {d}) = {value}, expected {expected}")
        rec.attempted += len(self.ops)


# ----------------------------------------------------------------------
# pairing: cold-engine `tautrr verify --format json --force` sweeps
# ----------------------------------------------------------------------


class Pairing:
    """One cold-engine CLI sweep per relation; an op is one relation tuple.

    Checks: exit code 0 and report bytes equal to the golden report with
    ``millis`` zeroed.  A mismatching report fails every tuple in it.
    """

    name = "pairing"
    SWEEPS = {
        "full": [("bbt", "1..7"), ("variation", "0..5"), ("fqq", "1..6"),
                 ("vyt", "1..6"), ("vpe", "1..6"), ("xi-witness", "2..8")],
        "tiny": [("variation", "0..5"), ("xi-witness", "2..8")],
    }
    VERIFIERS = ("verify", "verify_vyt", "verify_xi_witness")
    BUILDERS = ("build_bbt", "build_variation", "build_fqq", "build_vpe")

    def __init__(self, lib, rng, size, tmp, golden=None):
        self.lib = lib
        self.out = tmp / "report.json"
        self.sweeps = []
        for relation, genus in self.SWEEPS[size]:
            key = f"verify-{relation}-g{genus}"
            expected = golden[key] if golden is not None else \
                report_golden_path(key).read_text(encoding="utf-8")
            argv = ["verify", relation, "--g", genus, "--format", "json", "--force",
                    "--out", str(self.out)]
            self.sweeps.append((key, argv, expected, len(json.loads(expected))))
        rng.shuffle(self.sweeps)
        self._time_tuples()

    def _time_tuples(self):
        """Time each tuple as its builder call plus its verifier call.

        The wrappers replace the names in every tautrr module, ``cli``
        included, and stay for the whole run.
        """
        from tracer import replace_everywhere

        relations = self.lib.relations
        self.rec = None
        pending = [0.0]

        def builder(fn):
            def timed(*args, **kwargs):
                start = self.rec.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    pending[0] += self.rec.clock() - start
            return timed

        def verifier(fn):
            def timed(*args, **kwargs):
                start = self.rec.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.rec.latencies.append(pending[0] + self.rec.clock() - start)
                    pending[0] = 0.0
            return timed

        patches: list = []
        for name in self.BUILDERS:
            replace_everywhere(getattr(relations, name), builder(getattr(relations, name)),
                               patches)
        for name in self.VERIFIERS:
            replace_everywhere(getattr(relations, name), verifier(getattr(relations, name)),
                               patches)

    def run_pass(self, rec: Recorder, run_op):
        self.rec = rec
        for key, argv, expected, tuples in self.sweeps:
            rec.attempted += tuples
            try:
                code, _, _ = call_cli(self.lib, argv, run_op, rec)
                text = normalize_report(self.out.read_text(encoding="utf-8"))
                self.out.unlink()
            except Exception as exc:  # counted, never aborts the run
                rec.fail(tuples, f"{key}: {exc!r}")
                continue
            if code != 0 or text != expected:
                rec.fail(tuples, f"{key}: exit {code}, report "
                                 f"{'matches' if text == expected else 'differs from'} golden")


# ----------------------------------------------------------------------
# warmcache: CLI calls against a warm cache file
# ----------------------------------------------------------------------


class WarmCache:
    """A seeded mix of cache-backed CLI calls; an op is one call.

    Set-up computes a seed cache (one- and two-point top correlators up to
    genus ``SEED_GENUS``, then a ``verify bbt --cache`` run so that the bbt
    sweep hits too), a read-only copy for ``cache stats``, and a copy
    with a mismatched version header and one wrong value at POISON_KEY.
    Each pass restores the cache files, so every pass does the same work.

    * hit: ``integral -g G -d a,b --cache`` of a cached key; the file is
      rewritten.  Checked against ``one_point_value`` or the golden table.
    * miss: ``integral -g 10 -d 1,a,b`` of an uncached three-point key
      one dilaton step from the cached two-point one; adds one line.
      Checked against 2g times the golden two-point value (the dilaton
      equation).
    * verify: ``verify bbt --cache --format json``; golden report bytes.
    * stats: ``cache stats`` on the read-only copy; golden summary line.
    * stale: ``integral`` of a one-point correlator against the quarantined
      copy, which revalidates every entry it uses; checked against
      ``one_point_value`` and the golden count of mismatch warnings.
    """

    name = "warmcache"
    SEED_GENUS = 10
    POISON_KEY = "2;4;;"
    STALE_GENERA = (2, 3, 4, 5)
    # calls per pass: hit, miss, verify, stats, stale; 100 calls give the
    # 90th percentile ten calls beyond it
    MIX = {"full": (66, 10, 8, 8, 8), "tiny": (4, 1, 1, 1, 1)}

    def __init__(self, lib, rng, size, tmp, golden=None):
        self.lib = lib
        self.work = tmp / "cache.txt"
        self.stats_copy = tmp / "stats.txt"
        self.stale = tmp / "stale.txt"
        self.out = tmp / "bbt.json"
        if golden is None:
            golden = load_golden("warmcache.json")
            golden["bbt"] = report_golden_path("verify-bbt-default").read_text(encoding="utf-8")
        two_point = {tuple(int(x) for x in re.split("[|,]", k)): Fraction(v)
                     for k, v in (golden.get("ladder") or load_golden("ladder.json")).items()}

        seed_engine = lib.engine.CorrelatorEngine()
        for g in range(1, self.SEED_GENUS + 1):
            seed_engine.psi_integral(g, (3 * g - 2,))
            for pair in top_two_point(g):
                seed_engine.psi_integral(g, pair)
        lib.cache.save_engine_cache(seed_engine, self.work)
        self._quiet_cli(["verify", "bbt", "--cache", str(self.work), "--format", "json",
                         "--out", str(self.out)])
        self.pristine = self.work.read_bytes()
        self.stats_copy.write_bytes(self.pristine)
        lines = self.pristine.decode("utf-8").splitlines(keepends=True)
        lines[0] = "#taut-rr-cache v0\n"
        poisoned = [i for i, line in enumerate(lines) if line.startswith(self.POISON_KEY)]
        if len(poisoned) != 1:
            raise RuntimeError(f"seed cache has no single entry {self.POISON_KEY!r}")
        value = Fraction(lines[poisoned[0]].rsplit(";", 1)[1])
        lines[poisoned[0]] = f"{self.POISON_KEY}{value + 1}\n"
        self.stale_bytes = "".join(lines).encode("utf-8")

        hits_n, miss_n, verify_n, stats_n, stale_n = self.MIX[size]
        one_point = lib.engine.one_point_value
        cache = str(self.work)

        def integral(g, d, path=cache):
            return ["integral", "-g", str(g), "-d", ",".join(map(str, d)), "--cache", path]

        pairs = [(g, a, b) for g in range(1, self.SEED_GENUS + 1) for a, b in top_two_point(g)]
        hits = [(integral(g, (3 * g - 2,)), one_point(g)) for g in range(1, self.SEED_GENUS + 1)]
        spread = max(0, hits_n - len(hits))  # two-point hits, spread over the genera
        hits += [(integral(g, (a, b)), two_point[(g, a, b)])
                 for g, a, b in (pairs[i * len(pairs) // spread] for i in range(spread))]
        # three-point keys at the top genus are never needed by the seed
        # computation, so these miss whatever the engine memoizes on the way
        g = self.SEED_GENUS
        misses = [(integral(g, (1, a, b)), 2 * g * two_point[(g, a, b)])
                  for a, b in top_two_point(g)[1:]]
        ops = [("hit", argv, str(v) + "\n", 0) for argv, v in hits[:hits_n]]
        ops += [("miss", argv, str(v) + "\n", 0) for argv, v in misses[:miss_n]]
        ops += [("verify", ["verify", "bbt", "--cache", cache, "--format", "json",
                            "--out", str(self.out)], golden["bbt"], 0)] * verify_n
        ops += [("stats", ["cache", "stats", str(self.stats_copy)], golden["stats"], 0)] * stats_n
        ops += [("stale", integral(g, (3 * g - 2,), str(self.stale)), str(one_point(g)) + "\n",
                 golden["stale_mismatches"][str(g)])
                for g in (self.STALE_GENERA * stale_n)[:stale_n]]
        if len(ops) != sum(self.MIX[size]):
            raise RuntimeError("warmcache op mix is short of keys")
        rng.shuffle(ops)
        self.ops = ops

    def _quiet_cli(self, argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return self.lib.cli.main(argv)

    def run_pass(self, rec: Recorder, run_op):
        self.work.write_bytes(self.pristine)
        for kind, argv, expected, expected_mismatches in self.ops:
            if kind == "stale":
                self.stale.write_bytes(self.stale_bytes)
            rec.attempted += 1
            try:
                code, text, mismatches = call_cli(
                    self.lib, argv, lambda fn, *args: rec.time_op(run_op, fn, *args), rec)
                if kind == "verify":
                    text = normalize_report(self.out.read_text(encoding="utf-8"))
                    self.out.unlink()
            except Exception as exc:  # counted, never aborts the run
                rec.fail(1, f"{' '.join(argv)}: {exc!r}")
                continue
            if code != 0 or text != expected or mismatches != expected_mismatches:
                rec.fail(1, f"{kind} {' '.join(argv[:5])}: exit {code}, output {text[:60]!r}, "
                            f"{mismatches} mismatch warnings")


WORKLOADS = {cls.name: cls for cls in (PointTarget, Pairing, Ladder, WarmCache)}
