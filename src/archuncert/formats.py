"""Concrete text formats: architecture documents, calibration CSV, sweep CSV.

The architecture document is a YAML subset with a fixed schema. Parsing
goes through the YAML node tree (not plain safe_load) so every schema
violation can point at a line and column. The tree is composed by libyaml,
so PyYAML must be built with it.

Serialization is hand-rolled: fixed key order, declaration-order lists,
shortest-round-trip floats, all strings double-quoted as JSON —
parse(serialize(a)) == a structurally and serialize is canonical
(serialize(parse(s)) is a fixed point).
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass

import yaml

from .analysis import ComparisonResult, SweepResult
from .arch import (AnnotatedArchitecture, Component, UncertaintyAnnotation,
                   validate_architecture)
from .bn import BINARY_STATES, Cpt, row_keys
from .calibration import CalibrationRecord
from .errors import (ArchUncertError, DataError, InvalidArchitectureError,
                     ParseError, UsageError)

_LINE_BREAK = re.compile("\r\n|[\r\n\x85\u2028\u2029]")  # as YAML counts lines
# libyaml's composer recurses in C, once per level; each level opens with
# one of _OPENERS, so a text with at most MAX_DEPTH of them needs no check
MAX_DEPTH = 10_000
_OPENERS = "[{-?:"

DOCUMENT_HEADER = (
    '# Annotated architecture document.\n'
    '# CPT row keys are parent states "L"/"H" joined by commas in the\n'
    '# declared parent order; the empty key "" is the single row of a root.\n'
)


# ---------------------------------------------------------------------------
# Architecture document parsing

def _loc(node):
    return node.start_mark.line, node.start_mark.column


def _error_position(text, mark):
    """(line, column) of a YAML error mark, kept inside the text. libyaml
    closes the input with an implicit line break, so an error at the end of
    input lands on a line past the text; it belongs at the end of the text,
    where a byte order mark counts as no column, as libyaml counts none for
    the one that opens a text."""
    line, start = 0, 0
    for line, brk in enumerate(_LINE_BREAK.finditer(text), start=1):
        start = brk.end()
    end = (line, len(text) - start - text.count("\ufeff", start))
    return min((mark.line, mark.column), end)


def _check_depth(text):
    """Refuse nesting deeper than MAX_DEPTH before libyaml composes it,
    counting over the events of its parser, which does not recurse. A YAML
    error ends the scan: the composer reports it, or an earlier one, before
    it nests deeper."""
    if sum(map(text.count, _OPENERS)) <= MAX_DEPTH:
        return
    depth = 0
    try:
        for event in yaml.parse(text, Loader=_untagged_loader):
            if isinstance(event, yaml.CollectionStartEvent):
                depth += 1
                if depth > MAX_DEPTH:
                    raise ParseError(f"nesting deeper than {MAX_DEPTH} levels",
                                     *_loc(event))
            elif isinstance(event, yaml.CollectionEndEvent):
                depth -= 1
    except yaml.YAMLError:
        pass


def _untagged_loader(stream):
    """libyaml's base loader, which resolves no implicit tag: the schema walk
    reads every scalar as text, so none is needed."""
    if not hasattr(yaml, "CBaseLoader"):
        raise ArchUncertError("cannot read .arch documents: PyYAML is built "
                              "without libyaml")
    return yaml.CBaseLoader(stream)


def _as_mapping(node, what):
    if not isinstance(node, yaml.MappingNode):
        raise ParseError(f"expected a mapping for {what}", *_loc(node))
    items = []
    seen = set()
    for key_node, value_node in node.value:
        if not isinstance(key_node, yaml.ScalarNode):
            raise ParseError(f"non-scalar key in {what}", *_loc(key_node))
        key = key_node.value
        if key in seen:
            raise ParseError(f"duplicate key {key!r} in {what}", *_loc(key_node))
        seen.add(key)
        items.append((key, key_node, value_node))
    return items


def _as_sequence(node, what):
    if not isinstance(node, yaml.SequenceNode):
        raise ParseError(f"expected a list for {what}", *_loc(node))
    return node.value


def _as_string(node, what):
    if not isinstance(node, yaml.ScalarNode):
        raise ParseError(f"expected a string for {what}", *_loc(node))
    return node.value


def _as_float(node, what):
    raw = _as_string(node, what)
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"expected a number for {what}, got {raw!r}",
                         *_loc(node)) from None


def _fields(node, what, required, optional=()):
    items = _as_mapping(node, what)
    by_key = {}
    for key, key_node, value_node in items:
        if key not in required and key not in optional:
            raise ParseError(f"unknown key {key!r} in {what}", *_loc(key_node))
        by_key[key] = value_node
    for key in required:
        if key not in by_key:
            raise ParseError(f"missing key {key!r} in {what}", *_loc(node))
    return by_key


def parse_architecture_document(text: str) -> AnnotatedArchitecture:
    """Syntax and schema only; semantic checks live in validate_architecture."""
    _check_depth(text)
    try:
        root = yaml.compose(text, Loader=_untagged_loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ParseError(str(getattr(exc, "problem", exc)),
                             *_error_position(text, mark)) from exc
        raise ParseError(str(exc)) from exc
    if root is None:
        raise ParseError("empty document", 0, 0)

    top = _fields(root, "architecture document", required=("name", "components"),
                  optional=("edges", "uncertainties", "cpts"))

    name = _as_string(top["name"], "name")

    components = []
    for item in _as_sequence(top["components"], "components"):
        f = _fields(item, "component", required=("id", "kind"),
                    optional=("label",))
        components.append(Component(
            id=_as_string(f["id"], "component id"),
            kind=_as_string(f["kind"], "component kind"),
            label=_as_string(f["label"], "component label") if "label" in f else ""))

    edges = []
    if "edges" in top:
        for item in _as_sequence(top["edges"], "edges"):
            f = _fields(item, "edge", required=("from", "to"))
            edges.append((_as_string(f["from"], "edge source"),
                          _as_string(f["to"], "edge target")))

    annotations = []
    if "uncertainties" in top:
        for item in _as_sequence(top["uncertainties"], "uncertainties"):
            f = _fields(item, "uncertainty", required=("id", "kind", "attaches_to"))
            attached = tuple(
                _as_string(n, "attaches_to entry")
                for n in _as_sequence(f["attaches_to"], "attaches_to"))
            annotations.append(UncertaintyAnnotation(
                id=_as_string(f["id"], "uncertainty id"),
                kind=_as_string(f["kind"], "uncertainty kind"),
                attaches_to=attached))

    cpts = {}
    if "cpts" in top:
        for var_id, _key_node, value_node in _as_mapping(top["cpts"], "cpts"):
            f = _fields(value_node, f"cpt {var_id!r}", required=("parents", "rows"))
            parents = tuple(
                _as_string(n, "parent id")
                for n in _as_sequence(f["parents"], "parents"))
            rows = {}
            for key, _kn, vn in _as_mapping(f["rows"], f"cpt {var_id!r} rows"):
                rows[key] = _as_float(vn, f"cpt {var_id!r} row {key!r}")
            cpts[var_id] = Cpt(var_id, parents, rows)

    return AnnotatedArchitecture(name, tuple(components), tuple(edges),
                                 tuple(annotations), cpts)


def parse_architecture(text: str) -> AnnotatedArchitecture:
    """Parse and fully validate an architecture document."""
    arch = parse_architecture_document(text)
    validate_architecture(arch).raise_unless_ok(InvalidArchitectureError)
    return arch


# ---------------------------------------------------------------------------
# Architecture document serialization

def _q(value):
    return json.dumps(value)


def _num(value):
    return repr(float(value))


def _flow_mapping(pairs):
    return "{" + ", ".join(f"{_q(k)}: {_q(v)}" for k, v in pairs) + "}"


def _cpt_order(arch):
    order = [a.id for a in arch.annotations if a.id in arch.cpts]
    order += [c.id for c in arch.components if c.id in arch.cpts]
    known = set(order)
    order += sorted(set(arch.cpts) - known)
    return order


def serialize_architecture(arch: AnnotatedArchitecture) -> str:
    out = [DOCUMENT_HEADER]
    out.append(f"name: {_q(arch.name)}\n")

    out.append("components:\n")
    for c in arch.components:
        out.append("- " + _flow_mapping(
            [("id", c.id), ("kind", c.kind), ("label", c.label)]) + "\n")

    out.append("edges:\n" if arch.edges else "edges: []\n")
    for src, dst in arch.edges:
        out.append("- " + _flow_mapping([("from", src), ("to", dst)]) + "\n")

    out.append("uncertainties:\n" if arch.annotations else "uncertainties: []\n")
    for a in arch.annotations:
        attached = "[" + ", ".join(_q(x) for x in a.attaches_to) + "]"
        out.append(f'- {{"id": {_q(a.id)}, "kind": {_q(a.kind)}, '
                   f'"attaches_to": {attached}}}\n')

    out.append(serialize_cpts({v: arch.cpts[v] for v in _cpt_order(arch)}))
    return "".join(out)


def serialize_cpts(cpts: dict[str, Cpt]) -> str:
    """The ``cpts:`` block of an architecture document: CPTs in mapping
    order, rows in canonical order."""
    out = ["cpts:\n" if cpts else "cpts: {}\n"]
    for var_id, cpt in cpts.items():
        parents = "[" + ", ".join(_q(p) for p in cpt.parents) + "]"
        out.append(f"  {_q(var_id)}:\n")
        out.append(f"    parents: {parents}\n")
        out.append("    rows:\n")
        for key in _row_order(cpt):
            out.append(f"      {_q(key)}: {_num(cpt.rows[key])}\n")
    return "".join(out)


def _row_order(cpt):
    canonical = [k for k in row_keys(cpt.parents) if k in cpt.rows]
    stray = sorted(set(cpt.rows) - set(canonical))
    return canonical + stray


# ---------------------------------------------------------------------------
# Calibration CSV

@dataclass(frozen=True)
class CalibrationRecordSet:
    records: tuple[CalibrationRecord, ...]
    parent_ids: tuple[str, ...]


def _csv_rows(reader):
    """The non-blank rows of ``reader``; a csv.Error is a DataError at its
    line, without Python's hint on how to open files."""
    try:
        yield from filter(None, reader)
    except csv.Error as exc:
        raise DataError(f"row {reader.line_num}: "
                        f"{str(exc).partition(' - ')[0]}") from None


def parse_calibration_csv(text: str) -> CalibrationRecordSet:
    reader = csv.reader(io.StringIO(text))
    rows = _csv_rows(reader)
    header = [h.strip() for h in next(rows, ())]
    if not header:
        raise DataError("calibration CSV: missing header row")
    if header[:3] != ["sample_id", "uncertainty", "correct"]:
        raise DataError(
            "calibration CSV: header must start with "
            "'sample_id,uncertainty,correct', got "
            + ",".join(header))
    parent_ids = tuple(header[3:])
    if "" in parent_ids or len(set(parent_ids)) < len(parent_ids):
        raise DataError(
            "calibration CSV: parent columns need distinct non-empty "
            "names, got " + ",".join(parent_ids))

    records = []
    for row in rows:
        lineno = reader.line_num
        if len(row) != len(header):
            raise DataError(
                f"row {lineno}: expected {len(header)} fields, got {len(row)}")
        sample_id = row[0].strip()
        try:
            uncertainty = float(row[1])
        except ValueError:
            raise DataError(
                f"row {lineno}, column 'uncertainty': not a number: "
                f"{row[1]!r}") from None
        if not uncertainty >= 0.0:
            raise DataError(
                f"row {lineno}, column 'uncertainty': must be >= 0, "
                f"got {row[1]!r}")
        flag = row[2].strip().lower()
        if flag not in ("true", "false"):
            raise DataError(
                f"row {lineno}, column 'correct': expected true/false, "
                f"got {row[2]!r}")
        parent_states = None
        if parent_ids:
            parent_states = {}
            for pid, value in zip(parent_ids, row[3:]):
                state = value.strip()
                if state not in BINARY_STATES:
                    raise DataError(
                        f"row {lineno}, column {pid!r}: expected L or H, "
                        f"got {value!r}")
                parent_states[pid] = state
        records.append(CalibrationRecord(sample_id, uncertainty,
                                         flag == "true", parent_states))
    return CalibrationRecordSet(tuple(records), parent_ids)


# ---------------------------------------------------------------------------
# Sweep CSV

def write_sweep_csv(result) -> str:
    """Render a SweepResult or ComparisonResult as deterministic CSV."""
    if isinstance(result, SweepResult):
        if not result.points:
            raise UsageError("cannot write an empty sweep")
        lines = ["t,p_high"]
        for t, p in result.points:
            lines.append(f"{_num(t)},{_num(p)}")
        return "\n".join(lines) + "\n"

    if isinstance(result, ComparisonResult):
        lines = ["t,p_high_a,p_high_b,delta"]
        for (t, pa), (_, pb), delta in zip(result.sweep_a.points,
                                           result.sweep_b.points,
                                           result.deltas):
            lines.append(f"{_num(t)},{_num(pa)},{_num(pb)},{_num(delta)}")
        if result.crossings:
            for c in result.crossings:
                lines.append(
                    f"# crossing t~{_num(c.estimate)} in "
                    f"[{_num(c.t_low)},{_num(c.t_high)}] ({c.direction})")
        else:
            lines.append("# no crossings")
        return "\n".join(lines) + "\n"

    raise UsageError(f"cannot serialize {type(result).__name__} as sweep CSV")
