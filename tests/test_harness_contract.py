"""The names the benchmark harness wraps or calls must exist in tautrr.

``perfbench/tracer.py`` and ``perfbench/workloads.py`` wrap tautrr
functions by name, and call others without wrapping them.  A name that no
longer exists fails only when the benchmark runs, and a renamed wrapped
function would drop out of its per-layer figures, so the names are
checked here.  Both files are loaded read-only from their paths.
"""

import importlib
import importlib.util
import json
import sys
import time
import types
from pathlib import Path

import pytest

from tautrr import relations
from tautrr.engine import CorrelatorEngine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("module, name", list(tracer.FUNCTIONS))
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("method", tracer.ENGINE_METHODS)
def test_traced_engine_method_resolves(method):
    # the tracer replaces the method on the class itself
    assert callable(CorrelatorEngine.__dict__[method])


@pytest.mark.parametrize("name", workloads.Pairing.VERIFIERS + workloads.Pairing.BUILDERS)
def test_timed_relation_function_resolves(name):
    assert callable(getattr(relations, name))


@pytest.mark.parametrize("module, name", [
    ("tautrr.cache", "save_engine_cache"),
    ("tautrr.engine", "one_point_value"),
    ("tautrr.engine", "genus0_closed_form"),
    ("tautrr.universal", "tau"),
    ("tautrr.cli", "main"),
])
def test_called_function_resolves(module, name):
    # workloads.py calls these through the module it was handed
    assert callable(getattr(importlib.import_module(module), name))


def test_engine_listing_has_a_length():
    # tracer.flush_engines records len(engine.entries()) as engine.memo_entries
    engine = CorrelatorEngine()
    engine.psi_integral(2, [4])
    assert len(engine.entries()) > 0


def test_cli_reads_a_cache_file_through_the_traced_name(tmp_path, capsys):
    # tracer.py times the cache.load layer by wrapping cache_load wherever a
    # tautrr module holds it; one integral --cache call must read through it
    from tautrr import cache, cli

    path = str(tmp_path / "cache.txt")
    argv = ["integral", "-g", "2", "-d", "4", "--cache", path]
    assert cli.main(argv) == 0
    calls = []
    original = cache.cache_load

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    patches = []
    tracer.replace_everywhere(original, counting, patches)
    try:
        assert cli.main(argv) == 0
    finally:
        for module, attr, value in patches:
            setattr(module, attr, value)
    assert calls == [(path,)]
    assert capsys.readouterr().out == "1/1152\n1/1152\n"


#: a small genus range per relation of the pairing workload
SMALL_PAIRING_SWEEPS = {"bbt": "1..3", "variation": "0..1", "fqq": "1..2", "vyt": "1..3",
                        "vpe": "1..2", "xi-witness": "2..3"}


def _tautrr_globals():
    return {(module, attr): value for name, module in list(sys.modules.items())
            if module is not None and (name == "tautrr" or name.startswith("tautrr."))
            for attr, value in vars(module).items()}


def test_pairing_times_one_verifier_call_per_report_tuple(capsys, monkeypatch):
    # workloads.Pairing records one latency per verifier call (its builder
    # calls folded in) and counts one op per report tuple; the two must agree
    # for every relation it sweeps, or its op count and latencies go wrong
    from tautrr import cli

    assert {rel for rel, _ in workloads.Pairing.SWEEPS["full"]} == set(SMALL_PAIRING_SWEEPS)
    monkeypatch.delenv("TAUTRR_CACHE", raising=False)
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    before = _tautrr_globals()
    pairing = object.__new__(workloads.Pairing)
    pairing.lib = types.SimpleNamespace(relations=relations)
    try:
        pairing._time_tuples()  # installs the wrappers through tracer.replace_everywhere
        assert cli.verify is not before[cli, "verify"]
        pairing.rec = workloads.Recorder(time.perf_counter)
        for relation, genus in SMALL_PAIRING_SWEEPS.items():
            pairing.rec.start_pass()
            code = cli.main(["verify", relation, "--g", genus, "--format", "json", "--force"])
            report = json.loads(capsys.readouterr().out)
            assert code == 0 and len(pairing.rec.latencies) == len(report) > 1, relation
    finally:
        for (module, attr), value in before.items():
            if vars(module).get(attr) is not value:
                setattr(module, attr, value)
    assert _tautrr_globals() == before
