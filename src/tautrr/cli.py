"""Command-line front end: exact integrals, relation sweeps, cache management.

Report schema (JSON): objects with
``{relation, params, tests: [{monomial, value}], pass, trivial, millis, caveat}``
where every value is rendered as an exact ``num/den`` string (never a
float).  Identical invocations produce byte-identical reports apart from
the ``millis`` field.

Exit codes: 0 if every check in the run passed, 1 on verification or data
failure, 2 on usage errors.

``verify`` sweeps come from one table, :data:`SWEEPS`: per relation the
default ranges, the parameters held to :data:`FORCE_LIMITS` and a runner
making one verifier call per parameter tuple.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import sys
from typing import Callable, Iterable, NamedTuple

from .cache import (
    CacheFormatError,
    CacheStore,
    cache_load,
    cache_save,
    format_rational,
    load_engine_cache,
    save_engine_cache,
)
from .engine import CorrelatorEngine, ImpossibleEntryError, UnstableModuliError
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
from .universal import is_stated, sweep_report

CACHE_ENV_VAR = "TAUTRR_CACHE"

#: desk-scale ceilings; anything larger needs --force
FORCE_LIMITS = {
    "g": 6,
    "r": 6,
    "s": 4,
    "levels": 8,
    "n1": 4,
    "n2": 4,
}

#: most --levels values, and most parameter tuples stated or not, that one
#: verify run expands in memory, --force or not
MAX_SPAN = 100_000


def parse_range(text: str) -> range | list[int]:
    """Accept '3', '2..5', or '1,3,5'; '2..5' gives ``range(2, 6)``, so a
    wide range costs nothing until it is iterated."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return range(lo, hi + 1)
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


class Sweep(NamedTuple):
    """How ``verify`` sweeps one relation, one report per parameter tuple.

    ``r_values(g)`` is the default --r at genus g, or None for a
    point-target identity, whose tuples run over --r, --s and --m and keep
    those the identity is stated at.  ``limited`` lists the parameters held
    to FORCE_LIMITS in the order the gate checks them; ``options`` are
    passed to every tuple between g and r.  ``run(relation, params,
    engine)`` makes one verifier call.
    """

    genera: range  # default --g
    r_values: Callable[[int], Iterable[int]] | None
    limited: tuple[str, ...]
    run: Callable
    options: tuple[str, ...] = ()


# Runners name the verifiers and builders in their bodies, so these are
# looked up as module globals at call time and a wrapper bound onto this
# module sees every call.
_POINT_TARGET = Sweep(range(0, 3), None, ("g", "r", "s", "levels"),
                      lambda rel, p, e: sweep_report(rel, engine=e, **p))

#: relation -> its sweep, in the order ``verify --help`` lists them
SWEEPS = {
    "bbt": Sweep(range(1, 6), lambda g: range(0, max(g - 1, 1)), ("g",),
                 lambda rel, p, e: verify(build_bbt(**p), rel, p, e)),
    "variation": Sweep(range(0, 4), lambda g: range(0, 2), ("g", "n1", "n2"),
                       lambda rel, p, e: verify(build_variation(**p), rel, p, e),
                       options=("n1", "n2")),
    "fqq": Sweep(range(1, 5), lambda g: range(0, 3), ("g",),
                 lambda rel, p, e: verify(build_fqq(**p), rel, p, e)),
    "vyt": Sweep(range(1, 5), lambda g: range(1, max(g, 2)), ("g",),
                 lambda rel, p, e: verify_vyt(**p, engine=e)),
    "vpe": Sweep(range(1, 4), lambda g: (1, 3), ("g",),
                 lambda rel, p, e: verify(build_vpe(**p), rel, p, e)),
    "xi-witness": Sweep(range(2, 6), lambda g: range(0, g - 1), ("g",),
                        lambda rel, p, e: verify_xi_witness(**p, engine=e)),
    "conjC": _POINT_TARGET,
    "sreduce": _POINT_TARGET,
    "symmetry": _POINT_TARGET,
}


def _param_tuples(args, sweep: Sweep) -> list[dict]:
    """The parameter tuples of one verify run, in report order; the limits
    are checked on the values given, before anything is expanded."""
    given = {name: getattr(args, name) for name in ("g", "r", "s", "m", "levels")}
    given = {name: parse_range(text) if text else None for name, text in given.items()}
    _check_limits(args, sweep, given)
    spanned = list(itertools.islice(_span(args, sweep, *given.values()), MAX_SPAN + 1))
    if len(spanned) > MAX_SPAN:
        raise ValueError(f"the ranges span more than {MAX_SPAN} parameter tuples")
    tuples = [p for p in spanned if p is not None]
    if not tuples:
        raise ValueError("empty parameter range")
    return tuples


def _span(args, sweep: Sweep, gs, rs, ss, ms, levels):
    """Every parameter tuple the ranges span, in report order; None for one
    that a point-target identity is not stated at."""
    options = {name: getattr(args, name) for name in sweep.options}
    if sweep.r_values is None:
        levels = levels or range(0, 4)
        if len(levels) > MAX_SPAN:
            raise ValueError(f"--levels lists more than {MAX_SPAN} values")
        levels = tuple(dict.fromkeys(levels))  # a repeated level counts once
    for g in gs if gs is not None else sweep.genera:
        if sweep.r_values is not None:
            for r in rs if rs is not None else sweep.r_values(g):
                yield {"g": g, **options, "r": r}
            continue
        for r in rs if rs is not None else range(0, 3):
            for s in ss if ss is not None else range(0, 3):
                for m in ms if ms is not None else range(0, 3 * g + 4):
                    yield ({"g": g, "r": r, "s": s, "m": m, "levels": levels}
                           if is_stated(args.relation, g, r, s, m) else None)


def _check_limits(args, sweep: Sweep, given: dict) -> None:
    """Raise at the first value given beyond FORCE_LIMITS (the defaults are
    within them); with --force, warn about each of them instead."""
    for name in sweep.limited:
        values = (getattr(args, name),) if name in sweep.options else given[name]
        if not values:
            continue
        # a range ascends, and max() would iterate it
        top = values[-1] if isinstance(values, range) else max(values)
        limit = FORCE_LIMITS[name]
        if top > limit and not args.force:
            raise ValueError(f"--{name} {top} exceeds the desk-scale default ({limit}); "
                             "pass --force to unlock larger sweeps")
        if top > limit:
            print(f"warning: --{name} {top} is beyond desk scale; "
                  "expect combinatorial growth", file=sys.stderr)


def _write_error(path, exc: OSError) -> int:
    print(f"error: {path}: {exc.strerror or exc}", file=sys.stderr)
    return 1


def _run_cached(body, args) -> int:
    """Run ``body(args, engine)`` on an engine warmed from the ``--cache`` file.

    The file (``--cache`` or ``$TAUTRR_CACHE``) is loaded first, if it
    exists.  After the body it is written back only when that changes it:
    the file did not exist, it was loaded quarantined (version mismatch),
    or the run computed an entry, which it does only for a key the file
    lacks.  The engine is listed only for that save.  A usage error
    (exit 2) writes nothing, and neither does a file holding a value no
    integral can take (exit 1).  A quarantined file is rewritten only once
    every entry in it has been revalidated; otherwise it is left as it is,
    because the rewrite would drop the entries the run never checked.
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
    try:
        code = body(args, engine)
    except ImpossibleEntryError as exc:
        print(f"error: cache {path}: {exc}", file=sys.stderr)
        return 1
    if path and code != 2 and not engine.quarantined() and (
            loaded is None or not loaded.trusted or engine.computed):
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
    sweep = SWEEPS[args.relation]
    try:
        tuples = _param_tuples(args, sweep)
        reports = [sweep.run(args.relation, p, engine) for p in tuples]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = {"json": render_reports_json, "csv": render_reports_csv,
            "text": render_reports_text}[args.format](reports)
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

    p_ver = sub.add_parser("verify", help="run a relation sweep and report")
    p_ver.add_argument("relation", choices=list(SWEEPS))
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

    p_cache = sub.add_parser("cache", help="inspect or initialize cache files")
    p_cache.add_argument("action", choices=("save", "load", "stats"))
    p_cache.add_argument("path")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every main call uses, built on the first one; parsing
    leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # looked up at call time, so a wrapper bound onto this module sees the call
    command = {"integral": cmd_integral, "verify": cmd_verify, "cache": cmd_cache}
    return command[args.command](args)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
