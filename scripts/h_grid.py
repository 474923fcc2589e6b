"""Print h-vectors of the subdivision over a (k, q) grid.

Every cell is computed by all available routes and they must agree:
    python3 scripts/h_grid.py --kmax 6 --qmax 5
"""

import argparse

from edgewise.shelling import h_vector_checked
from edgewise.subdivision import MAX_FACETS


def run(args: argparse.Namespace) -> None:
    for k in range(2, args.kmax + 1):
        for q in range(1, args.qmax + 1):
            h = h_vector_checked(k, q, args.max_facets)
            total = sum(h)
            print(f"k={k} q={q}: h = {h[:-1]}  (sum {total} = {q}^{k - 1})")
        print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kmax", type=int, default=6)
    parser.add_argument("--qmax", type=int, default=5)
    parser.add_argument("--max-facets", type=int, default=MAX_FACETS)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
