"""Regenerate the golden values and reports under ``perfbench/golden/``.

    python3 perfbench/make_golden.py

Goldens record what the code computes at the commit that wrote them, each
from a fresh engine and without a cache, so the benchmark can tell when a
later change alters a value or a report byte.  Regenerate them only for a
change that is meant to alter outputs, and say so in that change.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench"
sys.path.insert(0, str(HERE))

from worker import direct, import_tautrr  # noqa: E402

lib = import_tautrr()

from workloads import (  # noqa: E402
    GOLDEN, Ladder, Pairing, PointTarget, Recorder, WarmCache, call_cli,
    normalize_report, report_golden_path, top_two_point,
)


def write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def report(argv, out: Path) -> str:
    code, _, _ = call_cli(lib, argv + ["--out", str(out)], direct, Recorder(perf_counter))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return normalize_report(out.read_text(encoding="utf-8"))


def main() -> None:
    (GOLDEN / "reports").mkdir(parents=True, exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="golden-", dir=OUT_DIR))
    try:
        engine = lib.engine.CorrelatorEngine()
        ladder = {f"{g}|{a},{b}": str(engine.psi_integral(g, (a, b)))
                  for g in range(1, Ladder.SIZES["full"][0] + 1) for a, b in top_two_point(g)}
        write_json(GOLDEN / "ladder.json", ladder)

        grid = PointTarget(lib, random.Random(0), "full", tmp, golden={})
        engine = lib.engine.CorrelatorEngine()
        nonzero = {}
        for key, W, V in grid.ops:
            value = lib.universal.psi_eval(*key[:4], W, V, engine)
            if value != 0:
                nonzero[PointTarget.format_key(key)] = str(value)
        write_json(GOLDEN / "pointtarget.json", nonzero)

        for relation, genus in Pairing.SWEEPS["full"]:
            argv = ["verify", relation, "--g", genus, "--format", "json", "--force"]
            report_golden_path(f"verify-{relation}-g{genus}").write_text(
                report(argv, tmp / "report.json"), encoding="utf-8")
        bbt = report(["verify", "bbt", "--format", "json"], tmp / "report.json")
        report_golden_path("verify-bbt-default").write_text(bbt, encoding="utf-8")

        placeholder = {"bbt": bbt, "stats": "", "ladder": ladder,
                       "stale_mismatches": {str(g): 0 for g in WarmCache.STALE_GENERA}}
        warm = WarmCache(lib, random.Random(0), "full", tmp, golden=placeholder)
        _, stats, _ = call_cli(lib, ["cache", "stats", str(warm.stats_copy)], direct, Recorder(perf_counter))
        stale = {}
        for g in WarmCache.STALE_GENERA:
            warm.stale.write_bytes(warm.stale_bytes)
            argv = ["integral", "-g", str(g), "-d", str(3 * g - 2), "--cache", str(warm.stale)]
            _, _, stale[str(g)] = call_cli(lib, argv, direct, Recorder(perf_counter))
        write_json(GOLDEN / "warmcache.json", {"stats": stats, "stale_mismatches": stale})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"wrote goldens under {GOLDEN}")


if __name__ == "__main__":
    main()
