"""Regular and weakly regular block subgroups K = SO(n_1) x ... x SO(n_s) of SO(n).

Decides ``is_regular`` and ``is_weakly_regular`` for every proper partition
of n (every partition but ``(n)`` itself) and checks the table two ways:

* regularity against a rank count that shares no code with
  ``subspaces.rank_estimate``: K is regular iff
  ``sum_{n_i >= 2} floor(n_i / 2) + floor(m_1 / 2) == floor(n / 2)``, m_1 the
  number of parts equal to 1;
* weak regularity against :data:`NOT_WEAKLY_REGULAR`, the partitions with
  n <= 12 whose subgroup is not weakly regular.  The list is pinned as
  computed, not derived from a rule.  Every regular row must also be weakly
  regular.

``tests/test_subspaces.py`` runs the table for 3 <= n <= 10.  Larger n run
from the command line; this prints the rows' totals and the wall time, and
exits 1 on any disagreement:

    PYTHONPATH=src python tests/partition_table.py 11 12
"""

import sys
import time

from goverify import reps, subspaces
from goverify.lie import build_classical, embed_so_partition

NOT_WEAKLY_REGULAR = frozenset([
    (3, 1), (3, 2, 1), (3, 3, 1), (4, 3, 1), (3, 2, 2, 1), (5, 3, 1), (3, 3, 2, 1),
    (6, 3, 1), (4, 3, 2, 1), (3, 3, 3, 1), (3, 2, 2, 2, 1),
    (7, 3, 1), (5, 3, 2, 1), (4, 3, 3, 1), (3, 3, 2, 2, 1),
    (8, 3, 1), (6, 3, 2, 1), (5, 3, 3, 1), (4, 4, 3, 1), (4, 3, 2, 2, 1), (3, 3, 3, 2, 1),
    (3, 2, 2, 2, 2, 1),
])


def proper_partitions(n: int, largest: int | None = None):
    """Partitions of n into non-increasing parts of at most ``largest``
    (``n - 1`` by default, which leaves out ``(n)``)."""
    largest = n - 1 if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in proper_partitions(n - first, first):
            yield (first,) + rest


def regular_by_rank_count(partition) -> bool:
    ones = partition.count(1)
    return sum(p // 2 for p in partition if p >= 2) + ones // 2 == sum(partition) // 2


def table(n: int) -> list[tuple[tuple[int, ...], bool, bool]]:
    """``(partition, regular, weakly regular)`` for every proper partition of n."""
    algebra = build_classical("so", n)
    rows = []
    for partition in proper_partitions(n):
        k = embed_so_partition(algebra, partition).subalgebra
        rows.append((partition, bool(subspaces.is_regular(k)), bool(reps.is_weakly_regular(k))))
    return rows


def disagreements(rows) -> list[str]:
    """Every row that contradicts the rank count, the pinned list or
    regular => weakly regular."""
    out = []
    for partition, regular, weak in rows:
        if regular != regular_by_rank_count(partition):
            out.append(f"{partition}: is_regular={regular} disagrees with the rank count")
        if weak != (partition not in NOT_WEAKLY_REGULAR):
            out.append(f"{partition}: is_weakly_regular={weak} disagrees with the pinned list")
        if regular and not weak:
            out.append(f"{partition}: regular but not weakly regular")
    return out


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    rows = [row for n in map(int, argv) for row in table(n)]
    wall = time.perf_counter() - start
    failures = disagreements(rows)
    for line in failures:
        print(f"error: {line}")
    print(f"partition table n={','.join(argv)}: {len(rows)} subgroups, "
          f"{sum(r for _, r, _ in rows)} regular, {sum(not w for _, _, w in rows)} not weakly "
          f"regular, {len(failures)} disagreements, {wall:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
