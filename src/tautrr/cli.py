"""Command-line front end: exact integrals, relation sweeps, cache management.

Report schema (JSON): objects with
``{relation, params, tests: [{monomial, value}], pass, trivial, millis, caveat}``
where every value is rendered as an exact ``num/den`` string (never a
float).  Identical invocations produce byte-identical reports apart from
the ``millis`` field.

Exit codes: 0 if every check in the run passed, 1 on verification or data
failure, 2 on usage errors and on inputs whose recursion overruns the stack.

``verify`` sweeps come from one table, :data:`SWEEPS`: per relation the
default ranges, the parameters held to :data:`FORCE_LIMITS`, the test
space a tuple pairs against and a runner making one verifier call per
parameter tuple.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

from .cache import (
    CacheFormatError,
    CacheStore,
    cache_load,
    cache_save,
    format_rational,
    load_engine_cache,
    revalidate,
)
from .engine import CorrelatorEngine, ImpossibleEntryError
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
from .strata import count_tests
from .universal import IDENTITIES, is_stated, sweep_report

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

#: most test monomials, xi-witness terms or point-target slot assignments
#: one parameter tuple pairs against, --force or not
MAX_TESTS = 10_000


def parse_range(text: str) -> range | list[int]:
    """Accept '3', '2..5', '1,3,5', or '' and ',' (empty); '2..5' gives
    ``range(2, 6)``, so a wide range costs nothing until it is iterated."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return range(lo, hi + 1)
    if "," in text or not text:
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


#: a report_to_dict object, and one of its tests, as json.dumps(sort_keys=True,
#: indent=2) lays them out inside the report array
_JSON_REPORT = ('  {\n    "caveat": %s,\n    "millis": %s,\n    "params": %s,\n    "pass": %s,\n'
                '    "relation": %s,\n    "tests": %s,\n    "trivial": %s\n  }')
_JSON_TEST = '      {\n        "monomial": %s,\n        "value": %s\n      }'
_json_str = json.encoder.encode_basestring_ascii


def _json_scalar(value) -> str:
    """A bool, int or str as json.dumps writes it."""
    if value is True or value is False:
        return "true" if value else "false"
    return int.__repr__(value) if isinstance(value, int) else _json_str(value)


def render_reports_json(reports) -> str:
    """The text of ``json.dumps([report_to_dict(r) for r in reports],
    sort_keys=True, indent=2) + "\\n"``, byte for byte.  Any indent makes
    json encode in pure Python, so the text is laid out here from fixed
    templates and each string is escaped by json's C escaper."""
    blocks = []
    for d in map(report_to_dict, reports):
        params = ",\n".join([f"      {_json_str(k)}: {_json_scalar(v)}"
                             for k, v in sorted(d["params"].items())])
        tests = ",\n".join([_JSON_TEST % (_json_str(t["monomial"]), _json_str(t["value"]))
                            for t in d["tests"]])
        blocks.append(_JSON_REPORT % (
            _json_str(d["caveat"]), _json_scalar(d["millis"]),
            f"{{\n{params}\n    }}" if params else "{}", _json_scalar(d["pass"]),
            _json_str(d["relation"]), f"[\n{tests}\n    ]" if tests else "[]",
            _json_scalar(d["trivial"])))
    return "[\n" + ",\n".join(blocks) + "\n]\n" if blocks else "[]\n"


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


class Sweep(NamedTuple):
    """How ``verify`` sweeps one relation, one report per parameter tuple.

    ``defaults`` maps every parameter the relation takes, g first and in
    the order of a tuple's fields, to its default values, or to a function
    of g giving them; ``verify`` refuses any other option.  A point-target
    identity takes --levels as one value, the level tuple, and
    ``stated(relation, *values)`` keeps the tuples it is stated at.
    ``limited`` lists the parameters held to FORCE_LIMITS in the order the
    gate checks them.
    ``tests(relation, params)`` counts what one tuple pairs against,
    stopping past MAX_TESTS at a number above it, and ``unit`` names what
    it counts.
    ``run(relation, params, engine)`` makes one verifier call.
    """

    defaults: dict
    limited: tuple[str, ...]
    run: Callable
    tests: Callable[[str, dict], int]
    stated: Callable[..., bool] = lambda relation, *values: True
    unit: str = "test monomials"


def _slot_assignments(relation: str, p: dict) -> int:
    """How many ways the levels fill a point-target tuple's free slots:
    multisets of r' levels for the free W slots times multisets of s."""
    free, s, levels = p["r"] - len(IDENTITIES[relation][1]), p["s"], len(p["levels"])
    if min(free, s) < 0:
        return 0  # sweep_report names the negative value
    return math.comb(levels + free - 1, free) * math.comb(levels + s - 1, s)


# Runners name the verifiers and builders in their bodies, so these are
# looked up as module globals at call time and a wrapper bound onto this
# module sees every call.
_POINT_TARGET = Sweep({"g": range(0, 3), "r": range(0, 3), "s": range(0, 3),
                       "m": lambda g: range(0, 3 * g + 4), "levels": ((0, 1, 2, 3),)},
                      ("g", "r", "s", "levels"),
                      lambda rel, p, e: sweep_report(rel, engine=e, **p), _slot_assignments,
                      lambda rel, g, r, s, m, levels: is_stated(rel, g, r, s, m),
                      unit="slot assignments")

#: relation -> its sweep, in the order ``verify --help`` lists them
SWEEPS = {
    "bbt": Sweep({"g": range(1, 6), "r": lambda g: range(0, max(g - 1, 1))}, ("g",),
                 lambda rel, p, e: verify(build_bbt(**p), rel, p, e),
                 lambda rel, p: count_tests(1, p["g"] - 2 - p["r"], MAX_TESTS)),
    "variation": Sweep({"g": range(0, 4), "n1": (2,), "n2": (2,), "r": range(0, 2)},
                       ("g", "n1", "n2"),
                       lambda rel, p, e: verify(build_variation(**p), rel, p, e),
                       lambda rel, p: count_tests(p["n1"] + p["n2"], p["g"] - 1 - p["r"],
                                                  MAX_TESTS)),
    "fqq": Sweep({"g": range(1, 5), "r": range(0, 3)}, ("g",),
                 lambda rel, p, e: verify(build_fqq(**p), rel, p, e),
                 lambda rel, p: count_tests(2, p["g"] - 1 - p["r"], MAX_TESTS)),
    "vyt": Sweep({"g": range(1, 5), "r": lambda g: range(1, max(g, 2))}, ("g",),
                 lambda rel, p, e: verify_vyt(**p, engine=e),
                 lambda rel, p: count_tests(0, p["g"] - 1 - p["r"], MAX_TESTS)),
    "vpe": Sweep({"g": range(1, 4), "r": (1, 3)}, ("g",),
                 lambda rel, p, e: verify(build_vpe(**p), rel, p, e),
                 lambda rel, p: count_tests(0, p["g"] - p["r"], MAX_TESTS)),
    "xi-witness": Sweep({"g": range(2, 6), "r": lambda g: range(0, g - 1)}, ("g",),
                        lambda rel, p, e: verify_xi_witness(**p, engine=e),
                        lambda rel, p: 2 * p["g"] + p["r"] + 1, unit="witness terms"),
    "conjC": _POINT_TARGET,
    "sreduce": _POINT_TARGET,
    "symmetry": _POINT_TARGET,
}


def _param_tuples(args, sweep: Sweep) -> list[dict]:
    """The parameter tuples of one verify run, in report order.  The limits
    are checked on the values given, and the span (stated or not) is counted
    from the range lengths, over at most MAX_SPAN genera, before any tuple
    is built; what each tuple pairs against (``Sweep.tests``) is counted
    before any tuple runs."""
    given = {name: parse_range(getattr(args, name)) for name in ("g", "r", "s", "m", "levels")
             if getattr(args, name) is not None}
    given.update({name: (getattr(args, name),) for name in ("n1", "n2")
                  if getattr(args, name) is not None})
    for name in given:
        if name not in sweep.defaults:
            raise ValueError(f"{args.relation} takes no --{name}")
    _check_limits(args, sweep, given)
    levels = given.get("levels")
    if levels is not None:
        if len(levels) > MAX_SPAN:
            raise ValueError(f"--levels lists more than {MAX_SPAN} values")
        # one value, in which a repeated level counts once
        given["levels"] = [tuple(dict.fromkeys(levels))] if levels else []
    axes = {name: given.get(name, values) for name, values in sweep.defaults.items()}
    genera = axes.pop("g")
    grid = lambda g: [values(g) if callable(values) else values for values in axes.values()]
    count = 0
    for walked, g in enumerate(genera):
        if walked == MAX_SPAN:
            raise ValueError(f"--g lists more than {MAX_SPAN} values")
        count += math.prod(map(len, grid(g)))
        if count > MAX_SPAN:
            raise ValueError(f"the ranges span more than {MAX_SPAN} parameter tuples")
    names, stated, relation = tuple(sweep.defaults), sweep.stated, args.relation
    tuples = [dict(zip(names, values))
              for g in genera for values in itertools.product((g,), *grid(g))
              if stated(relation, *values)]
    if not tuples:
        raise ValueError("empty parameter range")
    for p in tuples:
        if sweep.tests(args.relation, p) > MAX_TESTS:
            named = " ".join(f"--{name} {value}" for name, value in p.items() if name != "levels")
            raise ValueError(f"{named} pairs against more than {MAX_TESTS} {sweep.unit}")
    return tuples


def _check_limits(args, sweep: Sweep, given: dict) -> None:
    """Raise at the first value given beyond FORCE_LIMITS (the defaults are
    within them); with --force, warn about each of them instead."""
    for name in sweep.limited:
        values = given.get(name)
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


def _error(message, code: int = 1) -> int:
    """Write the one ``error: MESSAGE`` line of a failed run; return ``code``."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _file_error(where: str, exc: Exception) -> int:
    """``_error`` of ``WHERE: REASON``: an OSError's strerror alone, else the message."""
    return _error(f"{where}: {getattr(exc, 'strerror', None) or exc}")


def _run_cached(body, args) -> int:
    """Run ``body(args, engine)`` on an engine warmed from the ``--cache`` file.

    The file (``--cache`` or ``$TAUTRR_CACHE``) is loaded first, if it
    exists; a quarantined one (another version, or a checksum that is
    missing or does not match) warms nothing and is compared with what the
    run computed (:func:`revalidate`).  After the body the file is written
    back only when that changes it: the file did not exist, it was
    quarantined, or the run computed an entry, which it does only for a
    key the file lacks.  A usage error (exit 2) writes nothing, nor does an
    input whose recursion overruns the stack (exit 2).  A quarantined file
    is rewritten only once the run has computed every entry in it;
    otherwise it is left as it is, because the rewrite would drop the
    entries the run never checked.  A cache fault writes nothing and exits 1
    with one line: ``error: PATH: STRERROR`` if the OS refuses a save, else
    ``error: cache PATH: REASON`` (unreadable file, bad line, impossible value).
    """
    engine = CorrelatorEngine()
    path = args.cache or os.environ.get(CACHE_ENV_VAR)
    loaded = None
    if path and os.path.exists(path):
        try:
            loaded = load_engine_cache(engine, path)
        except (OSError, ValueError) as exc:
            return _file_error(f"cache {path}", exc)
    try:
        code = body(args, engine)
    except ImpossibleEntryError as exc:
        return _file_error(f"cache {path}", exc)
    except RecursionError:
        code = _error("the recursion for this input runs deeper than the Python stack allows", 2)
    # a quarantined file is checked against the listing that replaces it,
    # so the engine divides its values for one listing, not two
    quarantined = loaded is not None and not loaded.trusted
    listing = engine.entries() if quarantined else None
    unchecked = revalidate(loaded, listing) if quarantined else 0
    if path and code != 2 and not unchecked and (
            loaded is None or quarantined or engine.computed):
        try:
            cache_save(CacheStore(engine.entries() if listing is None else listing), path)
        except CacheFormatError as exc:
            return _file_error(f"cache {path}", exc)
        except OSError as exc:
            return _file_error(path, exc)
    return code


def _integral(args, engine) -> int:
    try:
        value = engine.psi_kappa_integral(args.g, _parse_int_list(args.d),
                                          _parse_int_list(args.kappa))
    except ValueError as exc:
        return _error(exc, 2)
    print(format_rational(value))
    return 0


def _verify(args, engine) -> int:
    sweep = SWEEPS[args.relation]
    try:
        tuples = _param_tuples(args, sweep)
        reports = [sweep.run(args.relation, p, engine) for p in tuples]
    except ValueError as exc:
        return _error(exc, 2)
    text = {"json": render_reports_json, "csv": render_reports_csv,
            "text": render_reports_text}[args.format](reports)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        return _file_error(args.out, exc)
    return 0 if all(r.passed for r in reports) else 1


def cmd_cache(args) -> int:
    if args.action == "save":
        try:
            cache_save(CacheStore(), args.path)
        except OSError as exc:
            return _file_error(args.path, exc)
        print(f"wrote empty cache to {args.path}")
        return 0
    try:
        store = cache_load(args.path)
        quarantined = "" if store.trusted else ", quarantined"
        summary = (f"{len(store.entries)} entries, max genus {store.max_genus()}"
                   if args.action == "stats" else
                   f"loaded {len(store.entries)} entries (version {store.version}{quarantined})")
    except FileNotFoundError:
        return _error(f"no such cache file: {args.path}")
    except (OSError, ValueError) as exc:
        return _file_error(f"cache {args.path}", exc)
    print(summary)
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
    p_ver.add_argument("--n1", type=int, help="first-factor markings (variation; 2 if unset)")
    p_ver.add_argument("--n2", type=int, help="second-factor markings (variation; 2 if unset)")
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
    if args.command == "cache":
        return cmd_cache(args)
    return _run_cached(_integral if args.command == "integral" else _verify, args)


def console_main() -> None:
    sys.exit(main())
