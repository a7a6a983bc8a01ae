"""Mutated argv for every subcommand: ``main`` never lets an exception out.

Each base command line is mutated a few times (a value replaced, an option
added, a token inserted, deleted or swapped) from a fixed ``random.Random``
seed.  Every result must come back from ``cli.main`` with exit code 0, 1 or
2, and its stderr must be argparse usage, or any ``warning:`` lines followed
by at most one ``error:`` line.  An exit code of 2 always names its error.

Numbers in the token pool stay small, and large values appear only as ranges
wide enough to be refused before any work, so that ``--force`` can be
fuzzed too without starting a desk-scale computation.  The point-target
relations get ``--s``, ``--m`` and ``--levels`` pinned ahead of the mutated
part; a mutated option given again overrides its pin.
"""

import random
import zlib

import pytest

from tautrr import cli
from tautrr.cli import main

RANGES = ["0", "1", "2", "-1", "0..2", "1..2", "2..1", "0,2", "1,1", ",", "", "x", "..",
          "1..", "-1..1", "0..1000000000000", "-1000000000000..0"]
INTS = ["0", "1", "2", "3", "-1", "x", ""]
PATHS = ["c.txt", "bad.txt", "key.txt", "d", "missing/x.txt", "new.txt", ""]
#: option -> the values a mutation gives it; the rest take RANGES
VALUES = {"-g": INTS, "--n1": INTS, "--n2": INTS, "--cache": PATHS, "--out": PATHS,
          "--format": ["text", "json", "csv", "x"]}
#: options of each subcommand; ``--force`` is the one that takes no value
OPTIONS = {
    "integral": ["-g", "-d", "--kappa", "--cache"],
    "verify": ["--g", "--r", "--s", "--m", "--levels", "--n1", "--n2", "--format", "--out",
               "--cache", "--force"],
    "cache": [],
}
ACTIONS = ["save", "load", "stats"]
WORDS = ["integral", "verify", "cache", "json", "csv", "text", *ACTIONS, *cli.SWEEPS]
#: tokens for structural mutations
POOL = RANGES + PATHS + WORDS + OPTIONS["integral"] + OPTIONS["verify"] + [
    "-h", "--bogus", "-", "--"]

POINT_TARGET_PINS = ["--s", "0", "--m", "0..3", "--levels", "0..1"]
SMALL_GENUS = {"bbt": "1..2", "variation": "0", "fqq": "1", "vyt": "1..2", "vpe": "1",
               "xi-witness": "2", "conjC": "0..1", "sreduce": "1", "symmetry": "0..1"}

#: subcommand -> [(fixed prefix, mutated part)]
BASES = {
    "integral": [
        (["integral"], ["-g", "2", "-d", "1,1", "--kappa", "1"]),
        (["integral"], ["-g", "1", "-d", "1", "--cache", "c.txt"]),
    ],
    "verify": [
        (["verify"] + (POINT_TARGET_PINS if "levels" in cli.SWEEPS[rel].defaults else []),
         [rel, "--g", SMALL_GENUS[rel], "--format", fmt])
        for rel, fmt in zip(cli.SWEEPS, ["text", "json", "csv"] * 3)
    ],
    "cache": [
        (["cache"], ["stats", "c.txt"]),
        (["cache"], ["load", "bad.txt"]),
        (["cache"], ["save", "new.txt"]),
    ],
}
SEEDS = {"integral": 101, "verify": 202, "cache": 303}
RUNS = 400


def _mutate(rng: random.Random, command: str, tokens: list[str]) -> list[str]:
    """One to three mutations: mostly a value replaced or an option (the
    cache action) changed, so that most command lines get past argparse;
    otherwise a token inserted, deleted or swapped."""
    tokens = list(tokens)
    options = OPTIONS[command]
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        spots = [i for i in range(1, len(tokens))
                 if command == "cache" or tokens[i - 1] in options]
        if roll < 0.5 and spots:
            i = rng.choice(spots)
            tokens[i] = rng.choice(PATHS if command == "cache" else
                                   VALUES.get(tokens[i - 1], RANGES))
        elif roll < 0.85 and command == "cache":
            tokens[0] = rng.choice(ACTIONS)
        elif roll < 0.85:
            opt = rng.choice(options)
            tokens += [opt] if opt == "--force" else [opt, rng.choice(VALUES.get(opt, RANGES))]
        elif roll < 0.9:
            tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(POOL))
        elif roll < 0.95 and len(tokens) > 1:
            del tokens[rng.randrange(len(tokens))]
        else:
            i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return tokens


def _check_stderr(code: int, err: str, argv) -> None:
    lines = err.splitlines()
    if err.startswith("usage: "):
        assert code == 2 and ": error: " in lines[-1], (argv, err)
        return
    warnings = 0
    while warnings < len(lines) and lines[warnings].startswith("warning: "):
        warnings += 1
    rest = lines[warnings:]
    assert len(rest) <= 1 and all(line.startswith("error: ") for line in rest), (argv, err)
    assert code != 2 or rest, (argv, err)


@pytest.mark.parametrize("command", list(BASES))
def test_mutated_argv_never_escapes_main(command, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("TAUTRR_CACHE", raising=False)
    assert main(["cache", "save", "c.txt"]) == 0
    (tmp_path / "bad.txt").write_text("#taut-rr-cache v1\nnot a line\n", encoding="utf-8")
    # checksum-matched, so trusted, with a malformed key on its last line
    matched = "#taut-rr-cache v2\n1;1;;1/24\nx;4;;1/1152\n"
    (tmp_path / "key.txt").write_text(f"{matched}#crc32 {zlib.crc32(matched.encode()):08x}\n",
                                      encoding="utf-8")
    (tmp_path / "d").mkdir()
    capsys.readouterr()
    rng = random.Random(SEEDS[command])
    codes = set()
    for _ in range(RUNS):
        prefix, body = rng.choice(BASES[command])
        argv = prefix + _mutate(rng, command, body)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, code)
        _check_stderr(code, err, argv)
        codes.add(code)
    # the mutations reach both the usage errors and the commands themselves
    assert 2 in codes and 0 in codes
