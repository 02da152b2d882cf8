import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from monoindex.partitions import set_partitions_with_blocks


def bell(n: int) -> int:
    # Bell triangle; Bell(n) is the last entry of row n
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1] if n else 1


def stirling2(n: int, k: int) -> int:
    if k == 0:
        return 1 if n == 0 else 0
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, k + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def is_rgs(a) -> bool:
    mx = -1
    for x in a:
        if x > mx + 1:
            return False
        mx = max(mx, x)
    return not a or a[0] == 0


def all_streams(n: int) -> list[tuple[int, ...]]:
    """The streams for blocks = 1..n, concatenated."""
    return [p for k in range(1, n + 1) for p in set_partitions_with_blocks(n, k)]


@given(st.integers(1, 8))
def test_counts_match_bell(n):
    parts = all_streams(n)
    assert len(set(parts)) == len(parts) == bell(n)


@given(st.integers(1, 8))
def test_exact_block_counts_match_stirling(n):
    for k in range(1, n + 1):
        parts = list(set_partitions_with_blocks(n, k))
        assert len(parts) == stirling2(n, k)
        assert all(max(p) + 1 == k for p in parts)


def test_all_are_valid_rgs_and_unique():
    parts = all_streams(6)
    assert all(is_rgs(p) for p in parts)
    assert len(set(parts)) == len(parts)


def test_restricted_stream_is_a_subsequence():
    # independent reference: every RGS of length 6, filtered from all tuples
    whole = [p for p in itertools.product(range(6), repeat=6) if is_rgs(p)]
    for k in range(1, 7):
        sub = list(set_partitions_with_blocks(6, k))
        assert all(a < b for a, b in zip(sub, sub[1:]))  # strictly lexicographic
        assert sub == [p for p in whole if max(p) + 1 == k]


def test_errors():
    with pytest.raises(ValueError):
        list(set_partitions_with_blocks(0, 1))
    with pytest.raises(ValueError):
        list(set_partitions_with_blocks(3, 0))
    with pytest.raises(ValueError):
        list(set_partitions_with_blocks(3, 4))
