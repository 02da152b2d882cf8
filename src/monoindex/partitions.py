"""Set-partition streams encoded as restricted growth strings.

A partition of range(n) is emitted as a tuple a of length n where a[i] is
the block of element i and blocks are numbered by first appearance
(a[0] = 0, a[i] <= max(a[:i]) + 1). This avoids relabeling duplicates and
doubles as the dense color tuple the coloring types use, so the search
loops consume these streams directly.
"""

from __future__ import annotations


def set_partitions_with_blocks(n: int, blocks: int):
    """Set partitions of range(n) with exactly ``blocks`` blocks.

    Lexicographic RGS order; there are S(n, blocks) of them.
    """
    if n < 1 or not 1 <= blocks <= n:
        raise ValueError(f"need 1 <= blocks <= n, got n={n} blocks={blocks}")
    a = [0] * n

    def rec(i: int, mx: int):
        # every remaining position may open at most one new block
        if mx + 1 + (n - i) < blocks:
            return
        if i == n:
            # the bound above forces mx + 1 >= blocks and the id cap below
            # keeps it <= blocks, so exactly `blocks` blocks are in use
            yield tuple(a)
            return
        top = min(mx + 1, blocks - 1)
        for b in range(top + 1):
            a[i] = b
            yield from rec(i + 1, mx if b <= mx else b)

    yield from rec(1, 0)
