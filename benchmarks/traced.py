"""The traced in-process pass: one span around each call into a layer.

Spans are recorded by this file, around public functions of the `arr4`
modules; the package itself is not instrumented.  Each span keeps its name,
start, end and parent.  A layer's time is the sum of its spans' self time
(duration minus the time covered by child spans), and each layer time sits
next to a size count computed from public outputs, so a change in the work
done shows as a changed count rather than as a speed-up.

Every arrangement is built fresh (reflection closure or parsing), because
`arr4.builtin` caches its results for the life of the process.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from arr4 import (
    ArrangementData,
    char_poly_moebius,
    coxeter_diagram,
    enumerate_chambers,
    f_vector,
    is_irreducible_diagrams,
    is_simply_laced,
    parse_arrangement,
    reflection_closure,
    walls,
)
from arr4.catalogue import REFLECTION_SPECS, catalogue_entry, catalogue_rows
from arr4.cli import DEFAULT_CHAMBER_LIMIT_N
from arr4.invariants import run_data_checks
from arr4.report import build_report, to_json

#: reflection types built by closure in the catalogue workload, with their rows
REFLECTION_ROWS = (
    ("A4", "A^3_1(10)"),
    ("D4", "A^3_1(12)"),
    ("B4", "A^3_1(16)"),
    ("F4", "A^3_1(24)"),
    ("H4", "A^3_1(60)"),
)

#: chambers per input, first in canonical order, that also get Fourier-Motzkin walls
FM_SAMPLE = 3

#: per-layer metrics, in report order: (name, unit)
LAYER_METRICS = (
    ("catalogue.closure_s", "s"),
    ("catalogue.root_lines", "count"),
    ("fileformat.parse_s", "s"),
    ("arrangement.lines_s", "s"),
    ("arrangement.lines", "count"),
    ("arrangement.vertices_s", "s"),
    ("arrangement.vertices", "count"),
    ("arrangement.vertex_candidates", "count"),
    ("invariants.moebius_s", "s"),
    ("invariants.incidence_tests", "count"),
    ("invariants.f_vector_s", "s"),
    ("arrangement.restriction_points", "count"),
    ("arrangement.restrictions_s", "s"),
    ("invariants.checks_s", "s"),
    ("arrangement.reducible_s", "s"),
    ("chambers.bfs_s", "s"),
    ("chambers.count", "count"),
    ("chambers.walls", "count"),
    ("chambers.corner_scans", "count"),
    ("chambers.diagrams_s", "s"),
    ("chambers.fm_walls_s", "s"),
    ("chambers.fm_chambers", "count"),
    ("report.build_s", "s"),
    ("report.json_s", "s"),
    ("report.bytes", "count"),
    ("trace.pass_s", "s"),
    ("trace.overhead_frac", "frac"),
)


class Tracer:
    """In-memory spans (name, start, end, parent index) and size counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.problems = []
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> Counter:
        """Seconds per span name, each span's children subtracted."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out


def _lattice(tr: Tracer, arr) -> ArrangementData:
    """Lines, vertices, Moebius and f-vector, each on a warm predecessor."""
    with tr.span("arrangement.lines"):
        lines = arr.lines()
    with tr.span("arrangement.vertices"):
        vertices = arr.vertices()
    with tr.span("invariants.moebius"):
        char_poly_moebius(arr)
    with tr.span("invariants.f_vector"):
        f = f_vector(arr)
    tr.counts["arrangement.lines"] += len(lines)
    tr.counts["arrangement.vertex_candidates"] += sum(arr.n - ln.weight for ln in lines)
    tr.counts["arrangement.vertices"] += len(vertices)
    tr.counts["invariants.incidence_tests"] += len(vertices) * len(lines)
    tr.counts["arrangement.restriction_points"] += sum(v.weight for v in vertices)
    return ArrangementData(arr.n, arr.h_vector(), arr.t_vector(), f)


def _checks(tr: Tracer, arr, data: ArrangementData):
    with tr.span("arrangement.reducible"):
        partition = arr.reducible_partition()
    with tr.span("invariants.checks"):
        run_data_checks(
            data,
            simplicial=data.f[2] == 2 * data.f[3],
            irreducible=partition is None,
        )


def _chambers(tr: Tracer, name: str, arr, f3: int, fm_sample: int):
    with tr.span("chambers.bfs"):
        chambers = enumerate_chambers(arr)
    with tr.span("chambers.diagrams"):
        for ch in chambers:
            coxeter_diagram(arr, ch).canonical_key()
        is_simply_laced(arr)
        is_irreducible_diagrams(arr)
    fm = []
    if fm_sample:
        with tr.span("chambers.fm_walls"):
            fm = [walls(arr, ch.signs) for ch in chambers[:fm_sample]]
    tr.counts["chambers.count"] += len(chambers)
    tr.counts["chambers.walls"] += sum(len(ch.walls) for ch in chambers)
    tr.counts["chambers.corner_scans"] += len(chambers) * len(arr.corner_flats())
    tr.counts["chambers.fm_chambers"] += len(fm)
    if len(chambers) != f3:
        tr.problems.append(f"{name}: {len(chambers)} chambers but f3 = {f3}")
    if any(w != ch.walls for w, ch in zip(fm, chambers)):
        tr.problems.append(f"{name}: Fourier-Motzkin and corner walls disagree")


def _report(tr: Tracer, arr):
    with tr.span("report.build"):
        report = build_report(arr, with_chambers=False)
    with tr.span("report.json"):
        text = to_json(report)
    tr.counts["report.bytes"] += len(text.encode())


def _parse(tr: Tracer, text: str):
    with tr.span("fileformat.parse"):
        return parse_arrangement(text)


def _catalogue_op(tr: Tracer, label: str, spec: str | None, text: str | None):
    if spec is not None:
        with tr.span("catalogue.closure"):
            arr = reflection_closure(REFLECTION_SPECS[spec])
        tr.counts["catalogue.root_lines"] += arr.n
    else:
        arr = _parse(tr, text)
    data = _lattice(tr, arr)
    with tr.span("arrangement.restrictions"):
        restricted = sum(arr.restriction(h).n for h in range(arr.n))
    entry = catalogue_entry(label)
    if (data.h, data.t, data.f) != (dict(entry.h), dict(entry.t), entry.f):
        tr.problems.append(f"{label}: lattice differs from the catalogue row")
    if restricted - data.g1 != data.h_total:
        tr.problems.append(f"{label}: restriction sum identity fails")
    _checks(tr, arr, data)
    _report(tr, arr)


def traced_pass(workload: str, files: dict) -> Tracer:
    """Run one workload's layers in process under a fresh tracer.

    `files` maps input names to file text: for `catalogue` the generated
    A^3_1(27) and A^3_1(28) files, otherwise every input of the workload.
    """
    tr = Tracer()
    with tr.span("pass"):
        if workload == "catalogue":
            for spec, label in REFLECTION_ROWS:
                with tr.span("op"):
                    _catalogue_op(tr, label, spec, None)
            for label, text in files.items():
                with tr.span("op"):
                    _catalogue_op(tr, label, None, text)
            with tr.span("invariants.checks"):
                for row in catalogue_rows():
                    run_data_checks(row.data(), simplicial=True, irreducible=True)
        else:
            for name, text in files.items():
                with tr.span("op"):
                    arr = _parse(tr, text)
                    data = _lattice(tr, arr)
                    _checks(tr, arr, data)
                    if workload == "chambers" or arr.n <= DEFAULT_CHAMBER_LIMIT_N:
                        sample = FM_SAMPLE if workload == "chambers" else 0
                        _chambers(tr, name, arr, data.f[3], sample)
                    _report(tr, arr)
    return tr
