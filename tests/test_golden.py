"""The pinned outputs of `golden.PINS` that carry no timeout, and the runner itself."""

import glob
import hashlib
import json
import os
import time

import pytest

import golden
from golden import Pin

_UNTIMED = [pin for pin in golden.PINS if pin.timeout is None]


@pytest.mark.parametrize("pin", _UNTIMED, ids=[pin.command for pin in _UNTIMED])
def test_pinned_output(pin):
    lines = []
    assert golden.run([pin], lines.append) == 0, lines


def test_every_demo_is_pinned():
    demos = sorted(
        os.path.relpath(path, golden.ROOT)
        for path in glob.glob(os.path.join(golden.ROOT, "demos", "*.py"))
    )
    assert demos == [pin.command for pin in golden.PINS if pin.command.startswith("demos/")]


def test_reference_digests_are_pinned():
    with open(os.path.join(golden.ROOT, "benchmarks", "reference.json")) as handle:
        digests = json.load(handle)["digests"]
    pinned = {pin.command: pin.digest for pin in golden.PINS}
    assert len(digests) == 14
    assert all(pinned[f"arr4 {name}"] == digest for name, digest in digests.items())


def test_runner_reports_a_wrong_digest(capsys):
    pins = [Pin("input boolean", "0" * 64), Pin("arr4 catalogue list", "0" * 64)]
    with pytest.raises(SystemExit) as exc:
        golden.main(pins)
    assert exc.value.code == "2 of 2 pinned outputs differ or failed"
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "DIFF input boolean", "DIFF arr4 catalogue list"
    ]


def test_runner_fails_a_command_that_exits_nonzero():
    """The empty stdout of a failed verify matches its digest, yet fails."""
    lines = []
    pin = Pin("arr4 catalogue verify nope", hashlib.sha256(b"").hexdigest())
    assert golden.run([pin], lines.append) == 1
    assert lines[0].startswith("DIFF arr4 catalogue verify nope: exited 4: ")


def test_runner_stops_an_entry_at_its_timeout(monkeypatch):
    monkeypatch.setitem(golden.INPUTS, "slow", lambda: time.sleep(10))
    lines = []
    start = time.monotonic()
    assert golden.run([Pin("input slow", None, timeout=1)], lines.append) == 1
    assert time.monotonic() - start < 5
    assert lines == ["DIFF input slow: over 1 s"]
