"""Command-line interface.

Exit codes: 0 success, 1 data/validation errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, arch as arch_mod, calibration, formats, patterns
from .bn import Cpt
from .errors import ArchUncertError, DataError, UsageError


def _read_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text "
                        f"(byte {exc.start}: {exc.reason})") from exc


def _compile(path):
    """Read an architecture and compile it; ``to_network`` validates."""
    architecture = formats.parse_architecture_document(_read_file(path))
    return architecture, arch_mod.to_network(architecture)


def _parse_evidence(pairs):
    evidence = {}
    for item in pairs or []:
        var, sep, state = item.partition("=")
        if not sep or state not in ("L", "H"):
            raise UsageError(
                f"--evidence {item!r}: expected <id>=<L|H>")
        if var in evidence:
            raise UsageError(f"--evidence {item!r}: duplicate variable")
        evidence[var] = state
    return evidence


def _parse_vary(items):
    targets = []
    for item in items:
        var, sep, row = item.partition("@")
        if not var:
            raise UsageError(f"--vary {item!r}: missing variable id")
        if not sep or row == "all":
            targets.append((var, analysis.ALL_ROWS))
        else:
            targets.append((var, row))
    return tuple(targets)


def _write_output(text, path):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _finding_json(finding):
    return {"kind": finding.kind, "variable": finding.variable,
            "detail": finding.detail, "path": list(finding.path)}


def cmd_validate(args):
    text = _read_file(args.arch_file)
    try:
        document = formats.parse_architecture_document(text)
    except ArchUncertError as exc:
        if args.format == "json":
            print(json.dumps({"ok": False, "error": str(exc)}))
        else:
            print(f"parse error: {exc}")
        return 1
    report = arch_mod.validate_architecture(document)
    if args.format == "json":
        print(json.dumps({"ok": report.ok, "findings": [
            _finding_json(f) for f in report.findings]}))
    else:
        print(report)
    return 0 if report.ok else 1


def cmd_eval(args):
    _, net = _compile(args.arch_file)
    evidence = _parse_evidence(args.evidence)
    print(repr(analysis.evaluate(net, args.target, evidence)))
    return 0


def _sweep_spec(args):
    return analysis.SweepSpec(
        targets=_parse_vary(args.vary),
        query=args.target,
        evidence=_parse_evidence(args.evidence),
        start=args.start, stop=args.stop, step=args.step)


def cmd_sweep(args):
    architecture, net = _compile(args.arch_file)
    result = analysis.sweep(net, _sweep_spec(args), architecture.name)
    _write_output(formats.write_sweep_csv(result), args.output)
    return 0


def cmd_compare(args):
    arch_a, net_a = _compile(args.arch_file_a)
    arch_b, net_b = _compile(args.arch_file_b)
    result = analysis.compare(net_a, net_b, _sweep_spec(args),
                              arch_a.name, arch_b.name)
    _write_output(formats.write_sweep_csv(result), args.output)
    return 0


def cmd_apply_pattern(args):
    architecture = formats.parse_architecture(_read_file(args.arch_file))
    spec = patterns.NVersionSpec(
        target=args.component,
        monitor_id=args.monitor,
        monitor_p_high=args.monitor_p_high,
        weight=args.weight,
        monitor_label=args.monitor_label,
        voter_id=args.voter)
    transformed = patterns.apply_n_version(architecture, spec)
    _write_output(formats.serialize_architecture(transformed), args.output)
    return 0


def cmd_calibrate(args):
    record_set = formats.parse_calibration_csv(_read_file(args.records_file))
    records = record_set.records
    parents = record_set.parent_ids
    if args.parents is not None:
        parents = tuple(args.parents.split(","))

    # every estimate before any output, so that an error prints nothing
    threshold = calibration.compute_threshold(records)
    prior = calibration.estimate_prior(records, threshold.value)
    rows = None
    if parents:
        rows = calibration.estimate_conditional(records, threshold.value,
                                                parents)

    if threshold.no_incorrect:
        print("threshold: +inf (no misclassified samples)")
    else:
        print(f"threshold: {threshold.value!r}")
    print(f"p_high: {prior.p_high!r} ({prior.n_high}/{prior.n_total})")
    for key in sorted(rows or (), key=lambda k: k.split(",")):
        row = rows[key]
        suffix = "" if row.estimated else "  [unestimated, defaulted]"
        print(f"p_high[{key}]: {row.p_high!r} "
              f"({row.n_high}/{row.n_total}){suffix}")

    if args.emit_cpt:
        _print_cpt_block(args.emit_cpt, parents, prior, rows)
    return 0


def _print_cpt_block(var_id, parents, prior, rows):
    if rows is None:
        cpt = Cpt(var_id, (), {"": prior.p_high})
        unestimated = []
    else:
        cpt = Cpt(var_id, parents,
                  {key: row.p_high for key, row in rows.items()})
        unestimated = [key for key, row in rows.items() if not row.estimated]
    sys.stdout.write(formats.serialize_cpts({var_id: cpt}))
    if unestimated:
        print("# unestimated rows defaulted to 0.5: "
              + ", ".join(json.dumps(k) for k in unestimated))


def cmd_impact(args):
    architecture = formats.parse_architecture(_read_file(args.arch_file))
    for comp in arch_mod.change_impact(architecture, args.change):
        print(comp)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="archuncert",
        description="Evaluate uncertainty propagation in software "
                    "architectures with ML components.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an architecture file")
    p.add_argument("arch_file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="evaluate P(target=H | evidence)")
    p.add_argument("arch_file")
    p.add_argument("--target", required=True)
    p.add_argument("--evidence", action="append", metavar="ID=L|H")
    p.set_defaults(func=cmd_eval)

    def add_sweep_flags(p):
        p.add_argument("--target", required=True, help="query variable")
        p.add_argument("--vary", action="append", required=True,
                       metavar="VAR[@ROW|@all]")
        p.add_argument("--evidence", action="append", metavar="ID=L|H")
        p.add_argument("--from", dest="start", type=float, default=0.0)
        p.add_argument("--to", dest="stop", type=float, default=1.0)
        p.add_argument("--step", type=float, default=0.01)
        p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("sweep", help="sensitivity sweep over CPT rows")
    p.add_argument("arch_file")
    add_sweep_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="sweep two architectures and "
                                       "locate crossings")
    p.add_argument("arch_file_a")
    p.add_argument("arch_file_b")
    add_sweep_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("apply-pattern", help="apply an architectural pattern")
    p.add_argument("pattern", choices=("n-version",))
    p.add_argument("arch_file")
    p.add_argument("--component", required=True, help="target ml component")
    p.add_argument("--monitor", required=True, help="new monitor component id")
    p.add_argument("--monitor-p-high", type=float, required=True)
    p.add_argument("--weight", type=float, required=True,
                   help="monitor vote share in [0,1]")
    p.add_argument("--monitor-label", default="")
    p.add_argument("--voter", default=None, help="voter component id "
                   "(default: voter_<component>)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_apply_pattern)

    p = sub.add_parser("calibrate", help="estimate threshold and CPT rows "
                                         "from test records")
    p.add_argument("records_file")
    p.add_argument("--parents", default=None, metavar="ID,ID,...")
    p.add_argument("--emit-cpt", default=None, metavar="VAR_ID")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("impact", help="downstream change-impact set")
    p.add_argument("arch_file")
    p.add_argument("--change", required=True)
    p.set_defaults(func=cmd_impact)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArchUncertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
