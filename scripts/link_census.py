"""Census of face links in one subdivision, checked against the formulas.

Enumerates every face of T_{k,q}, classifies its link by combinatorial
type, and compares the distinct-type counts per dimension with the closed
counting formulas:
    python3 scripts/link_census.py -k 4 -q 3
"""

import argparse
from collections import Counter

from edgewise.subdivision import (
    build_complex,
    count_link_types,
    count_link_types_of_faces,
    link_of_face,
    vertex_partition,
)


def run(args: argparse.Namespace) -> None:
    k, q = args.k, args.q
    K = build_complex(k, q)
    print(f"T_{{{k},{q}}}: {len(K.vertices)} vertices, {K.num_facets} facets")

    by_partition = Counter(vertex_partition(v, q) for v in K.vertices)
    print("\nvertices by link type:")
    for lam, n in sorted(by_partition.items()):
        print(f"  {lam}: {n}")
    formula = count_link_types(k, q)
    marker = "" if formula == len(by_partition) else f"  MISMATCH formula {formula}"
    print(f"  distinct types: {len(by_partition)}{marker}")

    print("\ndistinct link types by face size:")
    for t in range(1, k + 1):
        keys = {
            link_of_face(face, q).link_class.iso_key
            for face in K.faces()
            if len(face) == t
        }
        formula = count_link_types_of_faces(k, q, t)
        marker = "" if formula == len(keys) else f"  MISMATCH formula {formula}"
        print(f"  size {t}: {len(keys)} types{marker}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-k", type=int, required=True)
    parser.add_argument("-q", type=int, required=True)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
