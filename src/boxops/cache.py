"""Enumeration caches: sorted packed keys under a versioned header."""

from __future__ import annotations

from pathlib import Path

from .graphs import Family

FORMAT_VERSION = "boxops-cache-v1"


class CacheVersionError(ValueError):
    """The cache file was written by an incompatible format version, or is
    malformed."""


def cache_filename(fam: Family, n: int, k: int) -> str:
    lo = f"-lo{fam.lo}" if fam.lo > 1 else ""
    return f"{fam.tag}{lo}-n{n}-k{k}.keys"


def write_cache(directory, fam: Family, n: int, k: int, keys) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / cache_filename(fam, n, k)
    keys = list(keys)
    lines = [
        FORMAT_VERSION,
        f"tag={fam.tag} lo={fam.lo} n={n} k={k} count={len(keys)}",
    ]
    lines.extend(str(key) for key in keys)
    path.write_text("\n".join(lines) + "\n")
    return path


def read_cache(path) -> tuple[dict, list[int]]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != FORMAT_VERSION:
        raise CacheVersionError(
            f"{path} does not start with {FORMAT_VERSION}; refusing to reuse"
        )
    try:
        meta = {}
        for item in lines[1].split():
            key, value = item.split("=")
            meta[key] = value if key == "tag" else int(value)
        keys = [int(line) for line in lines[2:] if line]
        count = meta["count"]
    except (IndexError, KeyError, ValueError) as exc:
        raise CacheVersionError(f"{path} is malformed; refusing to reuse") from exc
    if len(keys) != count:
        raise CacheVersionError(f"{path} count header disagrees with body")
    return meta, keys
