"""Span recording for traced benchmark passes, and the per-layer metrics.

A traced pass rebinds the names each consumer module imported (for example
``isofractal.variety.kernel_basis`` or ``BinaryMatrix.submatrix``) to wrappers
that record one span per call: name, start, end and the span open at call
time as parent.  Spans stay in memory and are written when the pass ends.
Nothing under ``src/`` is changed; the wrappers live only in the traced child
interpreter.

A span's self time is its duration minus the durations of its direct children
(one thread, so children never overlap).  A ``*_s`` metric is the inclusive
time of the named span, counting only calls not nested in a call of the same
name, so recursive builders are not counted twice.
"""

from __future__ import annotations

import functools
import re
import time
from dataclasses import dataclass, field

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

OP_SPAN = "bench.op"

CLI_COMMANDS = ("points", "decompose", "verify", "fractal", "plucker", "incidence")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str, **attrs) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, parent, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._open.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._open.pop() != span.id:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped to record a span; ``count(args, result)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.attrs.update(count(args, result))
                return result
            finally:
                self.end(span)

        return traced


def _points(args, result) -> dict:
    return {"examined": result.examined, "points": result.count}


def _witness(args, result) -> dict:
    return {"found": result is not None, "identity": bool(result and result.is_identity)}


def _written(args, result) -> dict:
    return {"bytes": len(args[1].encode())}


def install(tracer: Tracer) -> dict:
    """Rebind every traced name; returns the unwrapped fractal builders."""
    from isofractal import bitmatrix, cli, fractal, gf, incidence, plucker, variety

    originals = {
        "fractal_matrix": fractal.fractal_matrix,
        "fractal_matrix_blockwise": fractal.fractal_matrix_blockwise,
    }

    def patch(owner, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))

    for command in CLI_COMMANDS:
        patch(cli, f"_cmd_{command}", f"cli.{command}", lambda a, r: {"rc": r})
    patch(cli, "_write_text", "cli.write_text", _written)
    patch(cli, "serialize", "bitmatrix.serialize")
    patch(cli, "rational_points", "variety.rational_points", _points)
    patch(cli, "oracle_points", "variety.oracle_points", _points)
    patch(cli, "decompose", "plucker.decompose", lambda a, r: {"blocks": len(r.blocks)})
    patch(cli, "contraction", "plucker.contraction")
    patch(cli, "verify_fractal", "fractal.verify_fractal")
    patch(cli, "verify_configuration", "incidence.verify_configuration")
    patch(cli, "verify_incidence_fractal_match", "incidence.fractal_match")
    patch(variety, "quadratic_relations", "variety.quadratic_relations",
          lambda a, r: {"relations": len(r)})
    for owner in (variety, gf):
        patch(owner, "kernel_basis", "gf.kernel_basis", lambda a, r: {"dim": len(r)})
    for owner in (cli, variety, plucker):
        patch(owner, "plucker_matrix", "plucker.plucker_matrix")
    patch(plucker.PluckerMatrix, "field_matrix", "plucker.field_matrix")
    patch(plucker, "row_partition", "combinat.row_partition")
    patch(plucker, "bipartite_components", "bitmatrix.bipartite_components")
    for owner in (plucker, incidence):
        patch(owner, "permutation_equivalent", "bitmatrix.permutation_equivalent", _witness)
    patch(bitmatrix.BinaryMatrix, "submatrix", "bitmatrix.submatrix",
          lambda a, r: {"kept": r.weight, "scanned": a[0].weight})
    for owner in (cli, fractal, plucker, incidence):
        patch(owner, "fractal_matrix", "fractal.fractal_matrix")
    patch(fractal, "fractal_matrix_blockwise", "fractal.fractal_matrix_blockwise")
    for owner in (cli, incidence):
        patch(owner, "incidence_matrix", "incidence.incidence_matrix")
    return originals


def fractal_cache_counts(originals: dict) -> dict:
    """Hits and misses summed over both memoized fractal builders."""
    infos = [originals[name].cache_info() for name in sorted(originals)]
    return {"hits": sum(i.hits for i in infos), "misses": sum(i.misses for i in infos)}


# --- analysis -----------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def inclusive(spans: list[Span], name: str) -> float:
    """Time in calls named ``name`` that are not nested in a call of that name."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        parent = s.parent
        while parent is not None and spans[parent].name != name:
            parent = spans[parent].parent
        if parent is None:
            total += s.duration
    return total


def self_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def _attr_sum(spans: list[Span], name: str, key: str) -> int:
    return sum(int(s.attrs.get(key, 0)) for s in spans if s.name == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric -> the span whose inclusive time it reports
INCLUSIVE_METRICS = {
    "variety.oracle_points_s": "variety.oracle_points",
    "gf.kernel_basis_s": "gf.kernel_basis",
    "plucker.field_matrix_s": "plucker.field_matrix",
    "plucker.plucker_matrix_s": "plucker.plucker_matrix",
    "combinat.row_partition_s": "combinat.row_partition",
    "plucker.contraction_s": "plucker.contraction",
    "bitmatrix.submatrix_s": "bitmatrix.submatrix",
    "bitmatrix.bipartite_components_s": "bitmatrix.bipartite_components",
    "bitmatrix.permutation_equivalent_s": "bitmatrix.permutation_equivalent",
    "bitmatrix.serialize_s": "bitmatrix.serialize",
    "fractal.fractal_matrix_s": "fractal.fractal_matrix",
    "fractal.fractal_matrix_blockwise_s": "fractal.fractal_matrix_blockwise",
    "fractal.verify_fractal_s": "fractal.verify_fractal",
    "incidence.verify_configuration_s": "incidence.verify_configuration",
    "incidence.fractal_match_s": "incidence.fractal_match",
    "incidence.incidence_matrix_s": "incidence.incidence_matrix",
    **{f"cli.{c}_s": f"cli.{c}" for c in CLI_COMMANDS},
}

# Every per-layer metric the traced run prints, with its unit.  The last two
# are filled in by the runner from several passes, not from one pass's spans.
LAYER_UNITS = {
    "variety.rational_points.self_s": "s",
    "variety.classes_examined": "count",
    "variety.points_found": "count",
    "variety.survivor_ratio": "ratio",
    "variety.classes_per_s": "1/s",
    "variety.oracle_subspaces_examined": "count",
    "variety.oracle_isotropic_ratio": "ratio",
    "variety.relations": "count",
    "gf.kernel_dim": "count",
    "plucker.decompose.self_s": "s",
    "plucker.blocks": "count",
    "bitmatrix.submatrix_calls": "count",
    "bitmatrix.submatrix_scan_ratio": "ratio",
    "bitmatrix.permutation_equivalent_calls": "count",
    "bitmatrix.identity_witness_ratio": "ratio",
    "cli.bytes_written": "count",
    "fractal.cache_hits": "count",
    "fractal.cache_misses": "count",
    "cli.exit_nonzero": "count",
    **{name: "s" for name in INCLUSIVE_METRICS},
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}


def pass_metrics(spans: list[Span], cache: dict, exit_nonzero: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but the two run-level ones)."""
    m = {name: inclusive(spans, span) for name, span in INCLUSIVE_METRICS.items()}
    own = self_by_name(spans)
    rp_self = own.get("variety.rational_points", 0.0)
    classes = _attr_sum(spans, "variety.rational_points", "examined")
    found = _attr_sum(spans, "variety.rational_points", "points")
    subspaces = _attr_sum(spans, "variety.oracle_points", "examined")
    isotropic = _attr_sum(spans, "variety.oracle_points", "points")
    sub_calls = sum(1 for s in spans if s.name == "bitmatrix.submatrix")
    pe_calls = sum(1 for s in spans if s.name == "bitmatrix.permutation_equivalent")
    m.update({
        "variety.rational_points.self_s": rp_self,
        "variety.classes_examined": classes,
        "variety.points_found": found,
        "variety.survivor_ratio": _ratio(found, classes),
        "variety.classes_per_s": _ratio(classes, rp_self),
        "variety.oracle_subspaces_examined": subspaces,
        # each isotropic subspace gives exactly one point, so points = subspaces kept
        "variety.oracle_isotropic_ratio": _ratio(isotropic, subspaces),
        "variety.relations": _attr_sum(spans, "variety.quadratic_relations", "relations"),
        "gf.kernel_dim": _attr_sum(spans, "gf.kernel_basis", "dim"),
        "plucker.decompose.self_s": own.get("plucker.decompose", 0.0),
        "plucker.blocks": _attr_sum(spans, "plucker.decompose", "blocks"),
        "bitmatrix.submatrix_calls": sub_calls,
        # computed from sizes: ones kept / ones of the parent matrix scanned
        "bitmatrix.submatrix_scan_ratio": _ratio(
            _attr_sum(spans, "bitmatrix.submatrix", "kept"),
            _attr_sum(spans, "bitmatrix.submatrix", "scanned"),
        ),
        "bitmatrix.permutation_equivalent_calls": pe_calls,
        "bitmatrix.identity_witness_ratio": _ratio(
            _attr_sum(spans, "bitmatrix.permutation_equivalent", "identity"), pe_calls
        ),
        "cli.bytes_written": _attr_sum(spans, "cli.write_text", "bytes"),
        "fractal.cache_hits": cache["hits"],
        "fractal.cache_misses": cache["misses"],
        "cli.exit_nonzero": exit_nonzero,
    })
    return m


def to_json(spans: list[Span]) -> list[dict]:
    return [
        {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start,
         "end": s.end, "attrs": s.attrs}
        for s in spans
    ]


def from_json(records: list[dict]) -> list[Span]:
    return [
        Span(r["id"], r["name"], r["parent"], r["start"], r["end"], r["attrs"])
        for r in records
    ]


def tree_errors(spans: list[Span]) -> list[str]:
    """Problems with the parent links: each must point at an earlier span whose
    interval contains the child, which makes the links a forest."""
    errors = []
    for i, s in enumerate(spans):
        if s.id != i:
            errors.append(f"span {i} has id {s.id}")
        if s.end < s.start:
            errors.append(f"span {i} ({s.name}) ends before it starts")
        if s.parent is None:
            if s.name != OP_SPAN:
                errors.append(f"span {i} ({s.name}) has no parent")
            continue
        if not 0 <= s.parent < i:
            errors.append(f"span {i} ({s.name}) has parent {s.parent}, not an earlier span")
            continue
        p = spans[s.parent]
        if not p.start <= s.start <= s.end <= p.end:
            errors.append(f"span {i} ({s.name}) lies outside its parent {p.name}")
    return errors
