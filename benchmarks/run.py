"""End-to-end benchmark of the arr4 command line, with a traced per-layer pass.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload catalogue --seed 1 --seconds 30 --trace 0

Each workload runs as a closed loop with one client: one `python -m arr4 ...`
child at a time, `ARR4_THREADS` unset.  A pass runs every op of the workload
once; passes repeat while the next one is expected to end within
`--seconds`.  Every output is checked; an op fails on a nonzero exit or a
failed check, and a failed op is counted, never fatal.

`--trace 0` prints the end-to-end metrics; their timings are in reference
seconds, wall or CPU time rescaled by the speed probe of speed.py, because
the speed of this kind of shared virtual CPU drifts by up to a factor of two.
`--trace 1` runs one untraced
pass, then traced in-process passes (see traced.py) and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `correct` is false when an
op that exited 0 gave a wrong or non-repeatable answer, or when a traced
pass found a wrong result or changed size counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from speed import POLL_S, SpeedProbe

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

#: the whole run ends within this many seconds; a child still running is killed,
#: in a traced run at half of it, which leaves the rest to the traced pass
HARD_LIMIT_S = 170.0
#: timed `catalogue list` runs behind setup_s, after one untimed warm-up
SETUP_SAMPLES = 15
#: built-ins analysed with --chambers, written at setup by `arr4 generate`
CHAMBER_INPUTS = ("A4", "D4", "B4", "F4", "A^3_1(27)", "A^3_1(28)")
#: built-ins the traced catalogue pass parses instead of closing under reflections
PARSED_ROWS = ("A^3_1(27)", "A^3_1(28)")

END_TO_END = (
    ("pass_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("setup_s", "s"),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class ChildRun:
    wall: float
    cpu: float
    #: mean speed of the child's CPU relative to the reference, from the probe
    speed: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


@dataclass
class Op:
    name: str
    args: list
    check: Callable[[bytes], str | None]


class Runner:
    """Runs `python -m arr4` children one at a time inside a work directory."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "ARR4_THREADS"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.probe = SpeedProbe()

    def run(self, args) -> ChildRun:
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        probe = self.probe
        probe.start()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "arr4", *args],
                cwd=ROOT, env=self.env, stdout=out, stderr=err,
            )
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                timed_out = False
                while True:
                    remaining = self.deadline - time.perf_counter()
                    if remaining <= 0:
                        timed_out = True
                        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                        break
                    if poller.poll(min(POLL_S, remaining) * 1000):
                        break
                    probe.sample(proc.pid)
                # wait4, unlike Popen.wait, returns the child's resource usage
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                with contextlib.suppress(ProcessLookupError):
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                os.close(pidfd)
                probe.release()
            wall = time.perf_counter() - start
        if probe.speed() is None:
            probe.sample()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildRun(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            speed=probe.speed(),
            rss_mb=usage.ru_maxrss / 1024,
            code=proc.returncode,
            stdout=out_path.read_bytes(),
            stderr=err_path.read_bytes(),
            timed_out=timed_out,
        )


# -- output checks: each returns None or what is wrong ------------------------------


def digest_check(key: str):
    expected = REFERENCE["digests"][key]

    def check(out: bytes):
        if sha256(out) != expected:
            return f"{key}: output differs from the seed commit's"
        return None

    return check


def check_verify(out: bytes):
    failures = json.loads(out)["failures"]
    if failures != 0:
        return f"catalogue verify reports {failures} failures"
    return digest_check("catalogue verify --all --json")(out)


def check_random(out: bytes):
    doc = json.loads(out)
    f0, f1, f2, f3 = (int(x) for x in doc["f_vector"])
    if f0 - f1 + f2 - f3 != 0:
        return f"f-vector {doc['f_vector']} breaks f0 - f1 + f2 - f3 = 0"
    chambers = doc["chambers"]
    if chambers is not None and chambers["complete"] and chambers["count"] != f3:
        return f"{chambers['count']} chambers but f3 = {f3}"
    return None


# -- workloads ----------------------------------------------------------------------


def write_manifest(workdir: Path, entries):
    """Record next to the inputs why each one is there."""
    (workdir / "inputs.json").write_text(json.dumps(entries, indent=2) + "\n")
    for entry in entries:
        print(f"input {entry['file']}: {entry['why']}")


def generate(runner: Runner, label: str, problems: list) -> Path:
    path = runner.workdir / (label.replace("^", "").replace("(", "_").strip(")") + ".arr")
    run = runner.run(["generate", label, "-o", str(path)])
    if run.code != 0:
        raise RuntimeError(f"arr4 generate {label} exited {run.code}: {run.stderr!r}")
    message = digest_check(f"generate {label}")(path.read_bytes())
    if message:
        problems.append(message)
    return path


def setup_workload(workload: str, seed: int, runner: Runner, trace: bool, problems):
    """The workload's ops, plus the file texts its traced pass reads."""
    workdir = runner.workdir
    if workload == "catalogue":
        ops = [Op("verify-all", ["catalogue", "verify", "--all", "--json"], check_verify)]
        files = {}
        if trace:
            for label in PARSED_ROWS:
                files[label] = generate(runner, label, problems).read_text()
        return ops, files
    if workload == "chambers":
        ops, files, manifest = [], {}, []
        for label in CHAMBER_INPUTS:
            path = generate(runner, label, problems)
            files[label] = path.read_text()
            ops.append(Op(label, ["analyze", str(path), "--json", "--chambers"],
                          digest_check(f"analyze {label} --json --chambers")))
            manifest.append({"file": path.name, "why": f"built-in {label}, "
                             "simplicial chambers over its field"})
        write_manifest(workdir, manifest)
        return ops, files
    from inputs import random_files

    ops, files, manifest = [], {}, []
    for name, text, why in random_files(seed):
        path = workdir / f"{name}.arr"
        path.write_text(text)
        files[name] = text
        ops.append(Op(name, ["analyze", str(path), "--json"], check_random))
        manifest.append({"file": path.name, "seed": seed, "why": why})
    write_manifest(workdir, manifest)
    return ops, files


# -- measurement ----------------------------------------------------------------------


def run_passes(runner: Runner, ops, seconds: float, started: float):
    """Closed loop: whole passes while the next is expected to end in time."""
    passes = []
    while True:
        runs = []
        for op in ops:
            runs.append(runner.run(op.args))
            if runs[-1].timed_out:
                return passes + [runs]
        passes.append(runs)
        longest = max(sum(r.wall for r in p) for p in passes)
        now = time.perf_counter()
        if now - started + longest > seconds or now + longest > runner.deadline:
            return passes


def evaluate(ops, passes, problems):
    """Count attempted and failed ops; wrong answers go to `problems`."""
    attempted = failed = 0
    notes = set()
    for runs in passes:
        for op, run in zip(ops, runs):
            attempted += 1
            if run.timed_out:
                failed += 1
                notes.add(f"{op.name}: killed at the time limit")
            elif run.code != 0:
                failed += 1
                last = (run.stderr.decode(errors="replace").strip().splitlines() or [""])[-1]
                notes.add(f"{op.name}: exit {run.code}: {last}")
            else:
                try:
                    message = op.check(run.stdout)
                except (ValueError, KeyError, TypeError) as exc:
                    message = f"unreadable output: {exc!r}"
                if message:
                    failed += 1
                    problems.append(f"{op.name}: {message}")
    for index, op in enumerate(ops):
        outputs = {(p[index].code, sha256(p[index].stdout)) for p in passes if len(p) > index}
        if len(outputs) > 1:
            problems.append(f"{op.name}: passes gave different outputs")
    for note in sorted(notes):
        print(f"failed op: {note}")
    return attempted, failed


def measure_setup(runner: Runner, problems) -> list:
    samples = []
    check = digest_check("catalogue list")
    for i in range(SETUP_SAMPLES + 1):
        run = runner.run(["catalogue", "list"])
        message = f"exit {run.code}" if run.code else check(run.stdout)
        if message:
            problems.append(f"catalogue list: {message}")
        if i:
            samples.append(run)
    return samples


def describe(name: str, values, unit: str) -> str:
    if unit == "count":
        return f"{name:<32} {values[0]} {unit}"
    if len(values) == 1:
        return f"{name:<32} {values[0]:.4f} {unit} (1 sample)"
    return (f"{name:<32} {statistics.median(values):.4f} {unit} "
            f"(median of {len(values)}, min {min(values):.4f}, max {max(values):.4f})")


def end_to_end(runner, ops, seconds, problems):
    setup = measure_setup(runner, problems)
    passes = run_passes(runner, ops, seconds, time.perf_counter())
    attempted, failed = evaluate(ops, passes, problems)
    for index, op in enumerate(ops):
        runs = [p[index] for p in passes if len(p) > index]
        print(describe(f"op {op.name} time", [r.wall * r.speed for r in runs], "s")
              + f" exit {sorted({r.code for r in runs})}")
    print(describe("(raw wall pass_s)", [sum(r.wall for r in p) for p in passes], "s"))
    print(describe("(raw wall setup_s)", [r.wall for r in setup], "s"))
    print(describe("(probe speed)", [r.speed for p in passes for r in p], "x"))
    series = {
        "pass_s": [sum(r.wall * r.speed for r in p) for p in passes],
        "cpu_s": [sum(r.cpu * r.speed for r in p) for p in passes],
        "peak_rss_mb": [max(r.rss_mb for r in p) for p in passes],
        "setup_s": [r.wall * r.speed for r in setup],
    }
    metrics = {}
    for name, unit in END_TO_END:
        if name == "ok_frac":
            value = (attempted - failed) / attempted
            print(f"{name:<32} {value:.4f} {unit} ({attempted - failed} of "
                  f"{attempted} ops; failed_frac {failed / attempted:.4f})")
        else:
            value = statistics.median(series[name])
            print(describe(name, series[name], unit))
        metrics[name] = {"value": value, "unit": unit}
    return attempted, failed, metrics


def per_layer(runner, ops, files, workload, seconds, problems):
    from traced import LAYER_METRICS, traced_pass

    begin = time.perf_counter()
    untraced = run_passes(runner, ops, 0, begin)
    attempted, failed = evaluate(ops, untraced, problems)
    untraced_s = sum(r.wall for r in untraced[0])
    tracers, walls = [], []
    while True:
        tr = traced_pass(workload, files)
        tracers.append(tr)
        _, start, end, _ = tr.spans[0]
        walls.append(end - start)
        now = time.perf_counter()
        if now - begin + max(walls) > seconds or now + max(walls) > runner.deadline:
            break
    for tr in tracers:
        problems.extend(tr.problems)
    counts = tracers[0].counts
    if any(tr.counts != counts for tr in tracers[1:]):
        problems.append("size counts differ between traced passes")
    expected = REFERENCE["counts"].get(workload)
    if expected is not None:
        drift = {k: (expected.get(k, 0), counts.get(k, 0))
                 for k in set(expected) | set(counts)
                 if expected.get(k, 0) != counts.get(k, 0)}
        for key, (old, new) in sorted(drift.items()):
            problems.append(f"changed work: {key} was {old} at the seed commit, now {new}")
    self_times = [tr.self_times() for tr in tracers]
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.pass_s":
            values = walls
        elif name == "trace.overhead_frac":
            values = [w / untraced_s - 1 for w in walls]
        elif unit == "s":
            values = [st.get(name[:-2], 0.0) for st in self_times]
        else:
            values = [counts.get(name, 0)]
        print(describe(name, values, unit))
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    glue = statistics.median(st["op"] + st["pass"] for st in self_times)
    print(f"{'(untraced pass_s)':<32} {untraced_s:.4f} s")
    print(f"{'(self time outside layers)':<32} {glue:.4f} s")
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("catalogue", "chambers", "random"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "arr4" / "__main__.py").is_file():
        print("run.py: no arr4 package under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    try:
        limit = HARD_LIMIT_S / 2 if args.trace else HARD_LIMIT_S
        runner = Runner(workdir, started + limit)
        problems = []
        ops, files = setup_workload(args.workload, args.seed, runner, args.trace == 1, problems)
        if args.trace:
            attempted, failed, metrics = per_layer(
                runner, ops, files, args.workload, args.seconds, problems)
        else:
            attempted, failed, metrics = end_to_end(runner, ops, args.seconds, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in problems:
        print(f"WRONG: {message}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
