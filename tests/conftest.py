import sys
from functools import lru_cache
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from boxops import graphs


@lru_cache(maxsize=None)
def family_members(tag: str, n: int, k: int, lo: int = 1):
    """Session-cached family enumeration, key-ascending."""
    return tuple(graphs.enumerate_family(graphs.Family(tag, lo), n, k))


def row_subposet(poset, row: int, within=None):
    """The sub-poset on the elements in a row mask (an up row for the poset
    under an element, a down row for the one over it), optionally only
    those in within."""
    return poset.subposet(
        e for j, e in enumerate(poset.elements)
        if row >> j & 1 and (within is None or e in within)
    )
