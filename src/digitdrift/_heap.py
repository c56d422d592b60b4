"""Priming glibc's heap before a burst of large allocations.

glibc serves a block past its mmap threshold (128 KB at start) from fresh
pages, which the kernel faults in zeroed on first touch, and returns it to
the kernel when freed. It raises the threshold only to the size of such a
block once that block is freed, and never past 32 MB. So a run of arrays or
integers of a few hundred KB to a few MB pays page faults on every one of
them until one large enough has come and gone. Freeing one block first
lifts the threshold past all that follow: they are then carved from the
heap and reuse its pages. `bytes(n)` asks calloc for the block, which
mmap hands out already zeroed, so priming touches no page.
"""

# the most one priming frees: glibc lifts its threshold only to a freed
# block of at most 32 MB
_PRIMED_BYTES = 2**24


def prime_heap(nbytes: int) -> None:
    """Allocate and free one block of nbytes (at most _PRIMED_BYTES)."""
    bytes(min(nbytes, _PRIMED_BYTES))
