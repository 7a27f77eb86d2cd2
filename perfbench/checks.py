"""The correctness gate: the paper's invariants on every returned row,
and bitwise agreement with in-process oracles (the scalar Eq. (2) sweep
on a fixed sample of rows; the workloads add whole-batch comparisons).

A wrong answer raises :class:`WrongAnswer`, which fails the command; it
is never counted as a failed request.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

#: Largest accepted ``|sum(pi) - 1|``.
SUM_TOL = 1e-9
#: Every ``SAMPLE_STRIDE``-th row of a request body is compared with
#: the oracle bit for bit.
SAMPLE_STRIDE = 97


class WrongAnswer(AssertionError):
    """The program returned an answer that breaks the correctness gate."""


def check_quantify_row(row: Dict[int, float], nn: Sequence[int],
                       where: str) -> None:
    """Sum of pi is 1, pi_i > 0 implies i in NN!=0, NN!=0 non-empty."""
    if not nn:
        raise WrongAnswer(f"{where}: NN!=0 is empty")
    total = math.fsum(row.values())
    if abs(total - 1.0) > SUM_TOL:
        raise WrongAnswer(f"{where}: sum of pi is {total!r}")
    members = set(nn)
    for i, p in row.items():
        if p > 0.0 and i not in members:
            raise WrongAnswer(f"{where}: pi_{i} = {p!r} > 0 but {i} is "
                              f"not in NN!=0 {sorted(members)}")


def check_quantify_rows(rows: Iterable[Dict[int, float]],
                        nns: Sequence[Sequence[int]], where: str) -> None:
    count = 0
    for j, (row, nn) in enumerate(zip(rows, nns)):
        check_quantify_row(row, nn, f"{where} row {j}")
        count += 1
    if count != len(nns):
        raise WrongAnswer(f"{where}: {count} rows returned, "
                          f"{len(nns)} expected")


def sample_rows(m: int) -> List[int]:
    """The fixed oracle sample of an ``m``-row body."""
    return list(range(0, m, SAMPLE_STRIDE))


def check_equal(got: object, want: object, where: str) -> None:
    """Bitwise agreement: floats compare with ``==``, which is exact."""
    if got != want:
        raise WrongAnswer(f"{where}: got {got!r}, oracle {want!r}")
