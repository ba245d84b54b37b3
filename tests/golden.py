"""Every pinned output of the arr4 command line and the demos, checked by one runner.

From the repository root,

    PYTHONPATH=src python tests/golden.py

checks each entry of `PINS` against the `arr4` package on the path, prints
one `ok` or `DIFF` line per entry and exits 1 if any entry differs or fails.
Tier-1 (`tests/test_golden.py`) runs the entries that carry no timeout.

An entry is a command, the sha256 of what it prints and, for the slow ones,
a timeout in seconds for the whole entry, its input included.  A command is
- `arr4 ARGS`: `python -m arr4 ARGS`.  In `arr4 analyze NAME ...`, NAME
  names an input file: a built-in label, whose file is the output of
  `arr4 generate LABEL` (run once), or a key of `INPUTS`;
- `input NAME`: the text of the input file NAME itself, as
  `emit_arrangement` writes it;
- `f2 NAME`: f2 by the restriction route against f2 by the vertex tallies
  on the arrangement NAME of `INPUTS`, in process; nothing is hashed;
- `demos/NAME.py`: the demo script under `-W error`.
Each command must exit 0, and its stdout is hashed.  The error-surface
entries instead run verbatim under COLUMNS=80 (argparse's wrapping width),
a leading `VAR=value` word setting the environment, and their hash covers
the exit code, stdout and stderr.  Every child runs from the repository root
with ARR4_THREADS removed from its environment.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from functools import cache
from itertools import product
from typing import Callable, NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

import arr4  # noqa: E402
from arr4 import TAU, Arrangement, Field, emit_arrangement, f_vector  # noqa: E402
from arr4.linalg import KERNELS  # noqa: E402
from inputs import near_generic, random_files  # noqa: E402


class Failure(Exception):
    """An entry that could not be hashed or whose check failed."""


class Pin(NamedTuple):
    command: str
    #: sha256 of the output; None for a command that hashes nothing
    digest: str | None
    timeout: int | None = None
    #: run verbatim and hash exit code, stdout and stderr
    surface: bool = False
    #: output -> raises `Failure` if a relation between its numbers fails
    check: Callable[[bytes], None] | None = None


# -- inputs ------------------------------------------------------------------------


@cache
def _tau_classes():
    """The 272 projective classes of {0, +-1, +-tau}^4: key -> first vector."""
    kernel = KERNELS[Field.QUADRATIC_TAU]
    classes = {}
    for vec in product((0, 1, -1, TAU, -TAU), repeat=4):
        if any(vec):
            classes.setdefault(kernel.canonical(kernel.ints(vec)), vec)
    if len(classes) != 272:
        raise Failure(f"{len(classes)} projective classes of {{0, +-1, +-tau}}^4, not 272")
    return classes


def _tau_sample(k):
    """k of the 272 classes drawn by `random.Random(k)`: Q(tau) vertex keys,
    and facets with more than three tight corners on a non-simplicial input."""
    classes = _tau_classes()
    keys = random.Random(k).sample(sorted(classes), k)
    return Arrangement([classes[key] for key in keys], Field.QUADRATIC_TAU)


_random_files = cache(random_files)

#: name -> the input's file text or arrangement, built on first use
INPUTS = {
    "boolean": lambda: "field: rational\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",
    # neither simplicial nor real-rooted, so its report carries skipped checks
    "six-plane": lambda: (
        "field: rational\n-2 0 -2 1\n1 1 1 -1\n-2 1 -2 1\n"
        "1 2 -2 1\n0 -1 2 -2\n0 -2 -2 -2\n"
    ),
    **{
        f"{name}-seed{seed}": lambda seed=seed, index=index: _random_files(seed)[index][1]
        for seed in (1, 2, 3)
        for index, name in enumerate(("generic20", "generic40", "degenerate48"))
    },
    "n=80": lambda: near_generic(random.Random(80), 80, 9),
    "n=120": lambda: near_generic(random.Random(120), 120, 9),
    "tau80": lambda: _tau_sample(80),
    "tau24": lambda: _tau_sample(24),
}


@cache
def _input(name):
    return INPUTS[name]()


@cache
def _text(name) -> bytes:
    """The input file NAME: a key of `INPUTS`, or the output of `arr4 generate NAME`."""
    if name not in INPUTS:
        return _stdout([sys.executable, "-m", "arr4", "generate", name])
    value = _input(name)
    return (value if isinstance(value, str) else emit_arrangement(value)).encode()


# -- running -----------------------------------------------------------------------


def _env(**extra):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arr4.__file__)))
    env.pop("ARR4_THREADS", None)
    env.update(extra)
    return env


def _stdout(argv) -> bytes:
    done = subprocess.run(argv, capture_output=True, cwd=ROOT, env=_env())
    if done.returncode:
        raise Failure(f"exited {done.returncode}: {done.stderr.decode()[-2000:]}")
    return done.stdout


def _surface(command) -> bytes:
    if os.path.exists(os.path.join(ROOT, "missing-dir")):
        raise Failure("missing-dir must not exist for the -o write errors")
    words = command.split()
    extra = dict(COLUMNS="80")
    while "=" in words[0]:
        key, value = words.pop(0).split("=", 1)
        extra[key] = value
    argv = [sys.executable, "-m", "arr4", *words[1:]]
    done = subprocess.run(argv, capture_output=True, cwd=ROOT, env=_env(**extra))
    return f"{done.returncode}\n".encode() + done.stdout + b"\n--\n" + done.stderr


def _f2_routes(name):
    arr = _input(name)
    f2 = sum(c for _, c in arr.restriction_counts())
    if f2 != f_vector(arr)[2]:
        raise Failure(f"f2 = {f2} by restrictions, but f = {f_vector(arr)}")


def _output(pin, tmp) -> bytes:
    if pin.surface:
        return _surface(pin.command)
    head, *words = pin.command.split()
    if head.startswith("demos/"):
        return _stdout([sys.executable, "-W", "error", head])
    if head == "input":
        return _text(words[0])
    if head == "f2":
        _f2_routes(words[0])
        return b""
    if words[:1] == ["generate"] and len(words) == 2:
        return _text(words[1])
    if words[:1] == ["analyze"]:
        path = os.path.join(tmp, "input.arr")
        with open(path, "wb") as handle:
            handle.write(_text(words[1]))
        words[1] = path
    return _stdout([sys.executable, "-m", "arr4", *words])


@contextmanager
def _deadline(seconds):
    """Raise `Failure` in the block once it has run `seconds`; a running
    child is killed as `subprocess.run` unwinds."""
    if seconds is None:
        yield
        return

    def expire(signum, frame):
        raise Failure(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run(pins, out=print) -> int:
    """Check each pin, printing one `ok`/`DIFF` line each; the number that failed."""
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for pin in pins:
            try:
                with _deadline(pin.timeout):
                    output = _output(pin, tmp)
                    if pin.check:
                        pin.check(output)
            except Failure as exc:
                ok, note = False, str(exc)
            else:
                digest = hashlib.sha256(output).hexdigest()
                ok = pin.digest in (None, digest)
                note = "" if ok else f"sha256 {digest}"
            out(f"{'ok  ' if ok else 'DIFF'} {pin.command}" + (f": {note}" if note else ""))
            failed += not ok
    return failed


# -- the table ---------------------------------------------------------------------


def _euler(output):
    f0, f1, f2, f3 = json.loads(output)["f_vector"]
    if f0 - f1 + f2 - f3:
        raise Failure(f"Euler relation fails: f = {(f0, f1, f2, f3)}")


def _reference():
    """The digests of benchmarks/reference.json: each name is an arr4 command
    line, and `analyze LABEL ...` runs on the output of `generate LABEL`."""
    with open(os.path.join(ROOT, "benchmarks", "reference.json"), encoding="utf-8") as handle:
        digests = json.load(handle)["digests"]
    return tuple(Pin(f"arr4 {name}", digest) for name, digest in digests.items())


#: exit code, stdout and stderr of usage errors, help texts, unknown labels,
#: the ARR4_THREADS check and -o into a missing directory, as commit ba416b8
#: prints them
_SURFACE = {
    "arr4": "e4ef31e88553467fefd45ec9f074db27f0684f69b75bd537f8ac868ed628a325",
    "arr4 bogus": "827d8f5b3dd4c798aea4b44a3acdd2673f1844db9c9699af8dfcd8a91ff24837",
    "arr4 catalogue": "9066f87f0d00b7583a23f9515b9d5bd5c7739b8e74ec62c2c435ca4ac177e1b0",
    "arr4 --help": "d65cae05e2ec1dc89427564baa838f6d78bc3f5d5da780ae61ac13d09f63188c",
    "arr4 catalogue verify --help":
        "35bd170d40adb3c6435c9fcf3815ff6a6e9abec43b6cb66054186512debc796f",
    "arr4 catalogue verify A4 --all":
        "0c7c62725eaefc6982409683886385e37bb2034a6dba44511ae699050687c679",
    "arr4 generate nope": "0c5a06a2105a2ccbbd0d1696968c65b126cac25cdf1f436fafe7ae683dd08f8e",
    "arr4 analyze missing.arr --max-chambers 0":
        "44394a2c6faa0ea658e1290be2c29e131d5c2d9e6092015a835b07656970201f",
    "arr4 analyze missing.arr --chambers --no-chambers":
        "1cbefbbda7f8aa3314ed3b99baaed26be1d21d3ea1ea00f13e0741a9f0ce40ac",
    "ARR4_THREADS=zero arr4 catalogue list":
        "8f7b26a6248d0e940702310926853a69a4fece6601c01302a0cec71e6aac62cd",
    "arr4 generate A4 -o missing-dir/a4.arr":
        "9b4c31ba87f7a5e26e23699c412b14ba2d76abe7038c19bce3190020e9926f68",
    "arr4 catalogue export -o missing-dir/catalogue.json":
        "bec43704e8731e2b0dfc27d158c35c32b81783c18e002931a4b57840fc06cf9f",
}

#: `analyze --json` on random_files(1) at commit 2bfcdd6 and on
#: random_files(2) and random_files(3) at commit 84dbb0f
_RANDOM = {
    "generic20-seed1": "573d651d1ca7ba7a42ad00514f289c9037deda78fb0b41ff56e39a2392b4e36e",
    "generic40-seed1": "5caac45b2bfc701508df3b07e6a6334685fc087172a5667af59faa4cbc0559c0",
    "degenerate48-seed1": "5b59adbc4a4df63ee809b9a0ac9ae02ca509c8d592668f20904dc79e64bdba7b",
    "generic20-seed2": "f9add9a3c42f6b058f33ed93660b3ce5f9f80c3a47f6426f7ce8dd4f2d452ac6",
    "generic40-seed2": "d5d1797d278185ca190fccf2e66b0cf53a78c0b854b1cb669e54ec81cb2f71d7",
    "degenerate48-seed2": "ce2e5052281c20fd3c96568501b16ee89fbd851b6417517924821b07284dab65",
    "generic20-seed3": "83c30dd8b13aaf4fefb1584d29089187fb0e9c647958d688ad962153afbf5765",
    "generic40-seed3": "2939298678e3eccead933cc3442983d1c06cf37357bfba9bb884dd00d09f6d31",
    "degenerate48-seed3": "b7764a13bca08c2154087d1142944f5ef2bc97ba70616225aa184eeeb3d9f5f7",
}

PINS = (
    # the stdout of each demo at commit 382dbbd
    Pin("demos/01_boolean_tour.py",
        "21549be761e30162d0610118a85a3af977a5fcb8c1879e7abb32a7af5b3a58fa"),
    Pin("demos/02_reflection_arrangements.py",
        "28f77d0d5ebfa2d2d403ecef0afe09af1e95b649634b67dd704d3414f37022ef"),
    Pin("demos/03_real_rootedness.py",
        "b38e0b8e242a20512d2a316a357dd402429136101c1c0fbe18cf825add46f2a9"),
    Pin("demos/04_golden_ratio_pair.py",
        "34b48d273266ab18c4cfd58bb118b0d7d109f6c9dc327bed3f0acdcdf9dc87c7"),
    Pin("demos/05_chamber_geometry.py",
        "acc23bd2fcb8d54abb73b54988a3b8cc9348f9d8c03d095fb371205dfe6f1f45"),
    *_reference(),
    # the text-mode verify report as commit 1d1965a prints it, and the
    # catalogue export as commit fc683be prints it
    Pin("arr4 catalogue verify --all",
        "ad9b4fd2fc8c97ac49aea94796121ddfb81d65b7375402a83abb02d2465d4a30"),
    Pin("arr4 catalogue export",
        "86b51b8418493384de118496359e2cdd87514b70ac5bd96eac1b9e048b3a33ad"),
    # at commit bc3cdac: simplicial and reducible; non-simplicial
    Pin("arr4 analyze boolean --json --chambers",
        "03e469c9eb354b317e719f622de23a0a9ce5b9c08dcf771c2c1a120644a8a71e"),
    Pin("arr4 analyze six-plane --json --chambers",
        "fb025997f3331c6d8d468850ec7ffd7b2b5c38ff74a73cc79ee785d6140154dd"),
    *(Pin(command, digest, surface=True) for command, digest in _SURFACE.items()),
    # H4, which benchmarks/reference.json does not hold, at commit 3139919
    Pin("arr4 generate H4",
        "0bd4502bd60eeab7d2b74dda83688b25a1176f3a7e9ce113434684d6ec5e4b86", 60),
    Pin("arr4 analyze H4 --json --chambers",
        "1d2c86bcc0abe9345f6a5b6d1799e165d709756497eba93b075b6f84d1841798", 60),
    *(Pin(f"arr4 analyze {name} --json", digest, 60) for name, digest in _RANDOM.items()),
    # the scale guard: the input files as commit 1898a0f writes them, and
    # the whole reports, where the vertex pass changes most
    Pin("input n=120",
        "198db0e3bfa7d9f3d03c458226848760f69cdfcde05708b455dc6406ada33722", 60),
    Pin("arr4 analyze n=120 --json --no-chambers",
        "93f4ebdc967654c9cec7f7e1a1755e7dc28f7a1000f8f56413e8366d7475df3c", 60, check=_euler),
    Pin("f2 n=80", None, 60),
    Pin("f2 tau80", None, 60),
    Pin("input tau80",
        "46742b35d6271113663810c2cb24b23c520368e22bd4dc26d12f1e1ad50d9a6c", 60),
    # as commit 792131d prints it
    Pin("arr4 analyze tau80 --json --no-chambers",
        "54035c9be9b9e3d8e3c2efe155db60ecdb339c662295115c2e9dc539f8f1442a", 60),
    Pin("input tau24",
        "b6731603dd19c882c0e49b289959e8922bddc6496ed783dca5dcde61e12580ef", 60),
    # as commit f2df532 prints it
    Pin("arr4 analyze tau24 --json --chambers",
        "4510714fa81b26a0b2ac513d90ffb96ee8ee967fae8e36f6b1c692094b2a9292", 60),
)


def main(pins=PINS):
    failed = run(pins)
    if failed:
        sys.exit(f"{failed} of {len(pins)} pinned outputs differ or failed")


if __name__ == "__main__":
    main()
