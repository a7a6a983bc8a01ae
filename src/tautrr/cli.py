"""Command-line front end: exact integrals, relation sweeps, cache management.

Report schema (JSON): objects with
``{relation, params, tests: [{monomial, value}], pass, trivial, millis, caveat}``
where every value is rendered as an exact ``num/den`` string (never a
float).  Identical invocations produce byte-identical reports apart from
the ``millis`` field.

Exit codes: 0 if every check in the run passed, 1 on verification or data
failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .cache import (
    CacheFormatError,
    CacheStore,
    cache_load,
    cache_save,
    format_rational,
    load_engine_cache,
    save_engine_cache,
)
from .engine import CorrelatorEngine, UnstableModuliError
from .relations import (
    VerificationReport,
    build_bbt,
    build_fqq,
    build_variation,
    build_vpe,
    verify,
    verify_vyt,
    verify_xi_witness,
)
from .universal import (
    conjc_sweep_report,
    conjc_threshold,
    sreduce_sweep_report,
    symmetry_sweep_report,
)

CACHE_ENV_VAR = "TAUTRR_CACHE"

RELATIONS = (
    "bbt", "variation", "fqq", "vyt", "vpe", "xi-witness",
    "conjC", "sreduce", "symmetry",
)

#: desk-scale ceilings; anything larger needs --force
FORCE_LIMITS = {
    "g": 6,
    "r": 6,
    "s": 4,
    "levels": 8,
    "n1": 4,
    "n2": 4,
}


def parse_range(text: str) -> list[int]:
    """Accept '3', '2..5', or '1,3,5'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    if "," in text:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    return [int(text)]


def _parse_int_list(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(piece) for piece in text.split(",") if piece.strip() != "")


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "relation": report.relation,
        "params": {k: (v if isinstance(v, (int, str)) else str(v))
                   for k, v in report.params.items()},
        "tests": [
            {"monomial": label, "value": format_rational(value)}
            for label, value in report.pairings
        ],
        "pass": report.passed,
        "trivial": report.trivial,
        "millis": report.millis,
        "caveat": report.caveat,
    }


def render_reports_json(reports) -> str:
    return json.dumps([report_to_dict(r) for r in reports], sort_keys=True, indent=2) + "\n"


def render_reports_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["relation", "params", "monomial", "value", "pass", "trivial", "millis"])
    for r in reports:
        params = ";".join(f"{k}={v}" for k, v in r.params.items())
        rows = r.pairings or [("-", None)]
        for label, value in rows:
            writer.writerow([
                r.relation, params, label,
                "" if value is None else format_rational(value),
                "pass" if r.passed else "FAIL",
                "trivial" if r.trivial else "",
                r.millis,
            ])
    return buf.getvalue()


def render_reports_text(reports) -> str:
    lines = []
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in r.params.items())
        status = "PASS" if r.passed else "FAIL"
        suffix = " (trivial: degree exceeds dimension)" if r.trivial else ""
        nonzero = r.nonzero()
        lines.append(
            f"{r.relation} {params}: {status} "
            f"({len(r.pairings)} pairings, {len(nonzero)} nonzero, {r.millis} ms){suffix}"
        )
        if not r.passed:
            for label, value in nonzero:
                lines.append(f"    {label} -> {format_rational(value)}")
    failed = sum(1 for r in reports if not r.passed)
    if failed:
        lines.append(f"{failed} of {len(reports)} checks FAILED")
    else:
        lines.append(f"all {len(reports)} checks passed")
    lines.append(f"note: {reports[0].caveat}" if reports else "note: no checks selected")
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _check_limits(args, values: dict[str, list[int]]) -> str | None:
    for name, vals in values.items():
        limit = FORCE_LIMITS.get(name)
        if limit is not None and vals and max(vals) > limit:
            if not args.force:
                return (
                    f"--{name} {max(vals)} exceeds the desk-scale default ({limit}); "
                    "pass --force to unlock larger sweeps"
                )
            print(
                f"warning: --{name} {max(vals)} is beyond desk scale; "
                "expect combinatorial growth",
                file=sys.stderr,
            )
    return None


def _run_relation(params, engine):
    kind = params[0]
    if kind == "bbt":
        _, g, r = params
        return verify(build_bbt(g, r), "bbt", {"g": g, "r": r}, engine)
    if kind == "variation":
        _, g, n1, n2, r = params
        return verify(build_variation(g, n1, n2, r), "variation",
                      {"g": g, "n1": n1, "n2": n2, "r": r}, engine)
    if kind == "fqq":
        _, g, r = params
        return verify(build_fqq(g, r), "fqq", {"g": g, "r": r}, engine)
    if kind == "vyt":
        _, g, r = params
        return verify_vyt(g, r, engine)
    if kind == "vpe":
        _, g, r = params
        return verify(build_vpe(g, r), "vpe", {"g": g, "r": r}, engine)
    if kind == "xi-witness":
        _, g, r = params
        return verify_xi_witness(g, r, engine)
    if kind == "conjC":
        _, g, r, s, m, levels = params
        return conjc_sweep_report(g, r, s, m, levels, engine)
    if kind == "symmetry":
        _, g, r, s, m, levels = params
        return symmetry_sweep_report(g, r, s, m, levels, engine)
    if kind == "sreduce":
        _, g, r, s, m, levels = params
        return sreduce_sweep_report(g, r, s, m, levels, engine)
    raise ValueError(f"unknown relation {kind!r}")


def _build_param_tuples(args) -> list[tuple]:
    relation = args.relation
    gs = parse_range(args.g) if args.g else None
    rs = parse_range(args.r) if args.r else None
    ss = parse_range(args.s) if args.s else None
    ms = parse_range(args.m) if args.m else None
    levels = parse_range(args.levels) if args.levels else None

    tuples: list[tuple] = []
    if relation == "bbt":
        for g in gs or range(1, 6):
            for r in rs if rs is not None else range(0, max(g - 1, 1)):
                tuples.append(("bbt", g, r))
    elif relation == "variation":
        for g in gs or range(0, 4):
            for r in rs if rs is not None else range(0, 2):
                tuples.append(("variation", g, args.n1, args.n2, r))
    elif relation == "fqq":
        for g in gs or range(1, 5):
            for r in rs if rs is not None else range(0, 3):
                tuples.append(("fqq", g, r))
    elif relation == "vyt":
        for g in gs or range(1, 5):
            for r in rs if rs is not None else range(1, max(g, 2)):
                tuples.append(("vyt", g, r))
    elif relation == "vpe":
        for g in gs or range(1, 4):
            for r in rs if rs is not None else (1, 3):
                tuples.append(("vpe", g, r))
    elif relation == "xi-witness":
        for g in gs or range(2, 6):
            for r in rs if rs is not None else range(0, g - 1):
                tuples.append(("xi-witness", g, r))
    else:
        lv = levels or list(range(0, 4))
        for g in gs or range(0, 3):
            r_range = rs if rs is not None else range(0, 3)
            s_range = ss if ss is not None else range(0, 3)
            for r in r_range:
                if relation == "sreduce" and r < 1:
                    continue
                for s in s_range:
                    lo = max(0, conjc_threshold(g, r, s))
                    if relation in ("sreduce", "symmetry"):
                        lo = 1 if relation == "sreduce" else 0
                    m_range = ms if ms is not None else range(lo, 3 * g + 4)
                    for m in m_range:
                        if relation == "conjC" and m < conjc_threshold(g, r, s):
                            continue
                        if relation == "sreduce" and m < 1:
                            continue
                        tuples.append((relation, g, r, s, m, tuple(lv)))
    return tuples


def _write_error(path, exc: OSError) -> int:
    print(f"error: {path}: {exc.strerror or exc}", file=sys.stderr)
    return 1


def _run_cached(body, args) -> int:
    """Run ``body(args, engine)`` on an engine warmed from the ``--cache`` file.

    The file (``--cache`` or ``$TAUTRR_CACHE``) is loaded first, if it
    exists.  After the body it is written back only when that changes it:
    the file did not exist, it was loaded quarantined (version mismatch),
    or the engine now holds an entry the file did not.  A usage error
    (exit 2) writes nothing.
    """
    engine = CorrelatorEngine()
    path = args.cache or os.environ.get(CACHE_ENV_VAR)
    loaded = None
    if path and os.path.exists(path):
        try:
            loaded = load_engine_cache(engine, path)
        except (OSError, ValueError) as exc:
            print(f"error: cache {path}: {exc}", file=sys.stderr)
            return 1
    code = body(args, engine)
    if path and code != 2 and (loaded is None or not loaded.trusted
                               or len(engine.entries()) > len(loaded.entries)):
        try:
            save_engine_cache(engine, path)
        except OSError as exc:
            return _write_error(path, exc)
    return code


def cmd_integral(args) -> int:
    return _run_cached(_integral, args)


def _integral(args, engine) -> int:
    try:
        d = _parse_int_list(args.d)
        b = _parse_int_list(args.kappa)
        if b:
            value = engine.psi_kappa_integral(args.g, d, b)
        else:
            value = engine.psi_integral(args.g, d)
    except (UnstableModuliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_rational(value))
    return 0


def cmd_verify(args) -> int:
    return _run_cached(_verify, args)


def _verify(args, engine) -> int:
    try:
        tuples = _build_param_tuples(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not tuples:
        print("error: empty parameter range", file=sys.stderr)
        return 2

    ranges: dict[str, list[int]] = {}
    for t in tuples:
        if t[0] in ("conjC", "sreduce", "symmetry"):
            ranges.setdefault("g", []).append(t[1])
            ranges.setdefault("r", []).append(t[2])
            ranges.setdefault("s", []).append(t[3])
            ranges.setdefault("levels", []).extend(t[5])
        elif t[0] == "variation":
            ranges.setdefault("g", []).append(t[1])
            ranges.setdefault("n1", []).append(t[2])
            ranges.setdefault("n2", []).append(t[3])
        else:
            ranges.setdefault("g", []).append(t[1])
    message = _check_limits(args, ranges)
    if message:
        print(f"error: {message}", file=sys.stderr)
        return 2

    try:
        reports = [_run_relation(t, engine) for t in tuples]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        text = render_reports_json(reports)
    elif args.format == "csv":
        text = render_reports_csv(reports)
    else:
        text = render_reports_text(reports)
    try:
        _emit(text, args.out)
    except OSError as exc:
        return _write_error(args.out, exc)
    return 0 if all(r.passed for r in reports) else 1


def cmd_cache(args) -> int:
    if args.action == "save":
        try:
            cache_save(CacheStore(), args.path)
        except OSError as exc:
            return _write_error(args.path, exc)
        print(f"wrote empty cache to {args.path}")
        return 0
    try:
        store = cache_load(args.path)
    except FileNotFoundError:
        print(f"error: no such cache file: {args.path}", file=sys.stderr)
        return 1
    except CacheFormatError as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: cache {args.path}: {exc}", file=sys.stderr)
        return 1
    if args.action == "stats":
        print(f"{len(store.entries)} entries, max genus {store.max_genus()}")
    else:
        print(f"loaded {len(store.entries)} entries (version {store.version})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tautrr",
        description="Exact psi/kappa intersection numbers and relation certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integral", help="evaluate one exact integral")
    p_int.add_argument("-g", type=int, required=True, help="genus")
    p_int.add_argument("-d", default="", help="comma-separated psi exponents, e.g. 2,0")
    p_int.add_argument("--kappa", default="", help="comma-separated kappa indices")
    p_int.add_argument("--cache", default=None, help="cache file to load and update")
    p_int.set_defaults(func=cmd_integral)

    p_ver = sub.add_parser("verify", help="run a relation sweep and report")
    p_ver.add_argument("relation", choices=RELATIONS)
    p_ver.add_argument("--g", default=None, help="genus range, e.g. 2..5")
    p_ver.add_argument("--r", default=None, help="r range")
    p_ver.add_argument("--s", default=None, help="s range")
    p_ver.add_argument("--m", default=None, help="m range (conjC/sreduce/symmetry)")
    p_ver.add_argument("--levels", default=None, help="descendent level range, e.g. 0..6")
    p_ver.add_argument("--n1", type=int, default=2, help="markings on the first factor")
    p_ver.add_argument("--n2", type=int, default=2, help="markings on the second factor")
    p_ver.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_ver.add_argument("--out", default=None, help="write the report to this file")
    p_ver.add_argument("--cache", default=None, help="cache file to load and update")
    p_ver.add_argument("--force", action="store_true",
                       help="allow ranges beyond the desk-scale defaults")
    p_ver.set_defaults(func=cmd_verify)

    p_cache = sub.add_parser("cache", help="inspect or initialize cache files")
    p_cache.add_argument("action", choices=("save", "load", "stats"))
    p_cache.add_argument("path")
    p_cache.set_defaults(func=cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return args.func(args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
