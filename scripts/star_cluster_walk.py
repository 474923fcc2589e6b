"""Walk through the layered star cluster of an interior facet.

Shows the layer sizes, the agreeing counts and the h-vector against the
weighted-table formula (sc_shelling_and_h raises when they disagree or the
order is not a shelling):
    python3 scripts/star_cluster_walk.py --kmax 5
"""

import argparse

from edgewise.starcluster import (
    base_facet_code,
    sc_h_formula,
    sc_layers,
    sc_shelling_and_h,
)


def run(args: argparse.Namespace) -> None:
    for k in range(2, args.kmax + 1):
        q = k + 3
        report = sc_shelling_and_h(base_facet_code(k, q), q)
        print(f"k={k} q={q} base {report.base_code}")
        print(f"  layers: {' + '.join(map(str, report.layer_sizes))}"
              f" = {report.count_enumerated}")
        print(f"  counts: enumerated {report.count_enumerated},"
              f" inclusion-exclusion {report.count_inclusion_exclusion},"
              f" partition formula {report.count_partition_formula},"
              f" X value {report.x_value}")
        print(f"  h = {report.h[:-1]}  formula {sc_h_formula(k)}")
        if args.show_layers:
            for layer, label, chain in sc_layers(report.base_code, q):
                print(f"    layer {layer} label {label} chain {chain}")
        print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=5)
    parser.add_argument("--show-layers", action="store_true")
    run(parser.parse_args())


if __name__ == "__main__":
    main()
