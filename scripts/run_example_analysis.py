#!/usr/bin/env python3
"""Run the full evaluation workflow on the bundled example architectures.

Reproduces the experiment shapes from the autonomous-driving case study
(with the bundled placeholder CPTs): the influence of high stochastic
depth-estimation uncertainty on planning, the end-to-end vs
component-based comparison, and the effect of the n-version voting
pattern. Writes plot-ready CSVs.
"""

import argparse
import pathlib

from archuncert import (NVersionSpec, SweepSpec, ALL_ROWS, apply_n_version,
                        compare, evaluate, example_path,
                        parse_architecture_document, serialize_architecture,
                        to_network, write_sweep_csv)


def load(name):
    text = example_path(name).read_text(encoding="utf-8")
    return parse_architecture_document(text)  # to_network validates


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="analysis-out",
                        help="output directory (default: analysis-out)")
    args = parser.parse_args()
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    end_to_end = load("end-to-end.arch")
    component_based = load("component-based.arch")
    nets = {a.name: to_network(a) for a in (end_to_end, component_based)}

    print("P(Planning=H | SU_DE=H):")
    for name, net in nets.items():
        print(f"  {name:16s} {evaluate(net, 'Planning', {'SU_DE': 'H'})!r}")

    # vary the depth-estimation CPT under high stochastic uncertainty
    spec = SweepSpec(targets=(("DE", ALL_ROWS),), query="Planning",
                     evidence={"SU_DE": "H"}, step=0.01)
    result = compare(nets["end-to-end"], nets["component-based"], spec,
                     "end-to-end", "component-based")
    (out / "planning-vs-depth-uncertainty.csv").write_text(
        write_sweep_csv(result))
    for c in result.crossings:
        print(f"crossing at t~{c.estimate!r} in "
              f"[{c.t_low!r}, {c.t_high!r}] ({c.direction})")
    if not result.crossings:
        print("no crossings on this grid")

    # n-version pattern: LIDAR monitor with 90% vote share on depth estimation
    pattern = NVersionSpec(target="DE", monitor_id="lidar",
                           monitor_p_high=0.1, weight=0.9,
                           monitor_label="LIDAR range monitor")
    with_voter = {}
    for arch in (end_to_end, component_based):
        transformed = apply_n_version(arch, pattern)
        (out / f"{arch.name}-nversion.arch").write_text(
            serialize_architecture(transformed))
        with_voter[arch.name] = to_network(transformed)

    result = compare(with_voter["end-to-end"], with_voter["component-based"],
                     spec, "end-to-end+nversion", "component-based+nversion")
    (out / "planning-vs-depth-uncertainty-nversion.csv").write_text(
        write_sweep_csv(result))

    print("\nP(Planning=H | SU_DE=H) after the n-version pattern:")
    for name, net in with_voter.items():
        print(f"  {name:16s} {evaluate(net, 'Planning', {'SU_DE': 'H'})!r}")
    print(f"\nwrote CSVs and transformed architectures to {out}/")


if __name__ == "__main__":
    main()
