"""One workload in one fresh process: set up, then measure in passes.

Run by ``run.py``; prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --size full|tiny --tmp DIR [--setup-only]

Set-up time runs from before ``import tautrr`` to the end of the workload's
set-up.  Untraced, passes repeat until ``--seconds`` have passed (at least
MIN_PASSES).  Traced, untraced and traced passes alternate, so the traced
run also measures its own overhead.  Every reported time is read from a
HostClock, which scales time to a reference host speed (see hostclock.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_PASSES = 3


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1, round(share * len(ordered) + 0.5) - 1))
    return ordered[index]


def import_tautrr():
    sys.path.insert(0, str(ROOT / "src"))
    import tautrr.cache
    import tautrr.cli
    import tautrr.engine
    import tautrr.relations
    import tautrr.strata
    import tautrr.universal

    return SimpleNamespace(cache=tautrr.cache, cli=tautrr.cli, engine=tautrr.engine,
                           relations=tautrr.relations, strata=tautrr.strata,
                           universal=tautrr.universal)


def direct(fn, *args):
    return fn(*args)


def run_passes(workload, rec, seconds: float, run_op_for):
    """Run passes until ``seconds`` of real time have passed; returns each
    pass's time on the recorder's clock.

    ``run_op_for(i)`` gives a context whose value is the op runner for
    pass ``i``; the traced one installs and removes the tracer around it.
    """
    times = []
    start = perf_counter()
    while len(times) < MIN_PASSES or perf_counter() - start < seconds:
        gc.collect()
        rec.clock.calibrate()
        rec.start_pass()
        with run_op_for(len(times)) as run_op:
            begin = rec.clock()
            workload.run_pass(rec, run_op)
            times.append(rec.clock() - begin)
    return times


class Traced:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.tracer.install()
        return self.tracer.run_op

    def __exit__(self, *exc):
        self.tracer.uninstall()
        return False


def end_to_end(times, rec, setup_s):
    wall = statistics.median(times)
    latencies = rec.op_latencies()
    return {
        "wall_s": (wall, "s"),
        "ops_per_s": (rec.attempted / len(times) / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_p90_ms": (percentile(latencies, 0.9) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer, traced, untraced, rec, passes):
    n = len(traced)
    calls = lambda stat: tracer.total(stat, 0) / n
    self_s = lambda stat: tracer.total(stat, 2) / n
    total_s = lambda stat: tracer.total(stat, 1) / n
    counted = lambda name: tracer.counts.get(name, 0) / n
    correlator_calls = tracer.total("engine.correlator", 0)
    traced_wall = statistics.median(traced)
    untraced_wall = statistics.median(untraced)
    return {
        "engine.correlator.calls": (calls("engine.correlator"), "count"),
        "engine.correlator.gate_reject_ratio": (
            tracer.counts.get("engine.correlator.gate_rejects", 0) / correlator_calls
            if correlator_calls else 0.0, "ratio"),
        "engine.self_s": (sum(self_s(f"engine.{m}") for m in
                              ("correlator", "psi_integral", "psi_kappa_integral")), "s"),
        "engine.psi_kappa_integral.calls": (calls("engine.psi_kappa_integral"), "count"),
        "engine.memo_entries": (tracer.memo_entries, "count"),
        "universal.psi_eval.calls": (calls("universal.psi_eval"), "count"),
        "universal.psi_eval.self_s": (self_s("universal.psi_eval"), "s"),
        "strata.enumerate_tests.self_s": (self_s("strata.enumerate_tests"), "s"),
        "strata.tests_enumerated": (counted("strata.tests_enumerated"), "count"),
        "strata.pair_with_test.calls": (calls("strata.pair_with_test"), "count"),
        "strata.pair_with_test.self_s": (self_s("strata.pair_with_test"), "s"),
        "relations.verify.calls": (calls("relations.verify"), "count"),
        "relations.verify.self_s": (self_s("relations.verify"), "s"),
        "relations.build.self_s": (self_s("relations.build"), "s"),
        "cache.load_s": (total_s("cache.load"), "s"),
        "cache.save_s": (total_s("cache.save"), "s"),
        "cache.bytes_read": (counted("cache.bytes_read"), "bytes"),
        "cache.bytes_written": (counted("cache.bytes_written"), "bytes"),
        "cache.quarantine_mismatches": (rec.mismatch_warnings / passes, "count"),
        "cli.render_s": (total_s("cli.render"), "s"),
        "cli.report_bytes": (counted("cli.report_bytes"), "bytes"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.overhead_ratio": ((traced_wall - untraced_wall) / untraced_wall, "ratio"),
        "host.speed": (statistics.median(rec.clock.factors), "ratio"),
    }


def main(argv=None) -> int:
    clock = HostClock()
    started = clock()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--tmp", required=True, help="directory for cache and report files")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    lib = import_tautrr()
    from workloads import WORKLOADS, Recorder

    workload = WORKLOADS[args.workload](lib, random.Random(args.seed), args.size,
                                        Path(args.tmp))
    setup_s = clock() - started
    result = {"setup_s": setup_s}
    if not args.setup_only:
        rec = Recorder(clock)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(clock)
            traced_ctx = Traced(tracer)
            times = run_passes(workload, rec, args.seconds,
                               lambda i: traced_ctx if i % 2 else nullcontext(direct))
            untraced, traced = times[0::2], times[1::2]
            metrics = per_layer(tracer, traced, untraced, rec, len(times))
            if args.spans:
                tracer.write_spans(args.spans, {"workload": args.workload, "seed": args.seed})
        else:
            times = run_passes(workload, rec, args.seconds, lambda i: nullcontext(direct))
            metrics = end_to_end(times, rec, setup_s)
        result.update(passes=len(times), attempted=rec.attempted, failed=rec.failed,
                      failures=rec.failures,
                      metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    clock.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
