"""The player registry of an engine state: its ids, in registration order.

A registry loaded from a snapshot keeps the ids as the snapshot stores
them, a UTF-8 blob and each id's end offset, and holds only the ids
registered since as ``str``.  Only a reader of ids (``EngineState.ids``
and ``players``, ``==``, export, an error message) decodes the blob, and
a save writes it back as is: resuming to rate one round costs that
round's ids, not the registry's.

Lookups go through a 64-bit hash of each id's bytes.  The blob's hashes
are computed and sorted once, with whole-array numpy; a round's ids are
hashed, found by binary search and confirmed byte for byte.  Ids that
share a hash (a collision, or a repeat, which ``check`` refuses) are
looked up by their bytes in a dict instead, so a collision costs time and
never a wrong lookup.
"""

from __future__ import annotations

from itertools import count
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError

# Odd, so the hash's powers of it never reach 0 mod 2**64.
_MULTIPLIER = np.uint64(0x100000001B3)


def first_repeat(ids: Sequence[str]) -> str:
    """The earliest id of ``ids`` that repeats one before it, in one pass."""
    first: dict[str, int] = {}
    return next(p for k, p in enumerate(ids) if first.setdefault(p, k) < k)


def _hash_ids(codes: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """The uint64 hash of each id ``codes[bounds[k]:bounds[k + 1]]`` of the
    bytes ``codes`` (``bounds`` runs from 0 to ``codes.size``): the sum of
    ``(byte + 1) * _MULTIPLIER ** (j + 1)`` over its bytes ``j``, mod 2**64,
    XOR its length."""
    starts, lengths = bounds[:-1], np.diff(bounds)
    hashes = lengths.astype(np.uint64)
    filled = np.flatnonzero(lengths)
    if filled.size:
        powers = np.multiply.accumulate(np.full(lengths.max(), _MULTIPLIER))
        terms = np.add(codes, 1, dtype=np.uint64)
        terms *= powers[np.arange(codes.size) - np.repeat(starts, lengths)]
        # an empty id adds no bytes, so each filled id's sum runs to the next one's start
        hashes[filled] ^= np.add.reduceat(terms, starts[filled])
    return hashes


def _same_bytes(a: np.ndarray, a_starts: np.ndarray, b: np.ndarray,
                b_starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Whether the ``lengths[k]`` bytes of ``a`` from ``a_starts[k]`` equal
    those of ``b`` from ``b_starts[k]``, for each ``k``."""
    pair = np.repeat(np.arange(lengths.size), lengths)
    within = np.arange(pair.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    same = np.ones(lengths.size, bool)
    same[pair[a[a_starts[pair] + within] != b[b_starts[pair] + within]]] = False
    return same


def _encoded(ids: Sequence[str], errors: str = "strict") -> tuple[np.ndarray, bytes]:
    """The end offset of each of ``ids`` in their UTF-8 blob, and the blob."""
    raw = [p.encode("utf-8", errors) for p in ids]
    return np.cumsum(np.fromiter(map(len, raw), np.int64, len(raw))), b"".join(raw)


class Registry:
    """Distinct ``str`` ids: position ``k`` is the ``k``-th id registered.

    ``Registry(ids)`` holds ``ids`` as ``str``; ``from_blob`` holds a
    snapshot's blob.  ``EngineState`` calls ``check`` once, after its other
    checks, before any lookup; ``append`` then adds ids past the others.
    """

    def __init__(self, ids: Iterable[str] = ()):
        self._blob = b""
        self._codes = np.empty(0, np.uint8)
        self._bounds = np.zeros(1, np.int64)   # blob id k: bounds[k]:bounds[k + 1]
        self._added = list(ids)   # registered as str, after the blob's ids
        if not all(issubclass(t, str) for t in set(map(type, self._added))):
            bad = next(p for p in self._added if not isinstance(p, str))
            raise InputError(f"player id {bad!r} is not a string")

    @classmethod
    def from_blob(cls, blob: bytes, ends: np.ndarray) -> "Registry":
        """The ids ``blob[ends[k - 1]:ends[k]]`` (from 0 for the first), as a
        snapshot stores them: ``ends`` ascends to ``len(blob)``.  Refused
        unless every id is UTF-8."""
        registry = cls()
        registry._blob, registry._codes = blob, np.frombuffer(blob, np.uint8)
        registry._bounds = np.concatenate(([0], ends.astype(np.int64)))
        try:
            blob.decode("utf-8")
        except UnicodeDecodeError:
            whole = False
        else:   # whole characters, so an id is UTF-8 unless it starts at a 10xxxxxx byte
            starts = registry._bounds[:-1]
            whole = not ((registry._codes[starts[starts < len(blob)]] & 0xC0) == 0x80).any()
        if not whole:
            raise InputError("player id is not valid UTF-8")
        return registry

    def check(self) -> None:
        """Refuse a repeated id, naming the earliest repeat, and index every id
        for ``find``: the blob's hashes sorted, the bytes of blob ids that share
        a hash in a dict, and the ``str`` ids in a dict."""
        hashes = _hash_ids(self._codes, self._bounds)
        order = np.argsort(hashes)
        hashes = hashes[order]
        equal = hashes[1:] == hashes[:-1]
        shared = np.zeros(hashes.size, bool)
        shared[1:] = equal
        shared[:-1] |= equal
        self._hashes, self._positions = hashes[~shared], order[~shared]
        self._shared: dict[bytes, int] = {}
        for k in np.sort(order[shared]).tolist():   # so the first repeat met is the earliest
            if self._shared.setdefault(self._blob[self._bounds[k]:self._bounds[k + 1]], k) < k:
                raise InputError(f"ids must be distinct: duplicate player {self[k]!r}")
        self._index = dict(zip(self._added, count(len(self._bounds) - 1)))
        if len(self._index) < len(self._added):
            raise InputError(f"ids must be distinct: duplicate player "
                             f"{first_repeat(self._added)!r}")

    def __len__(self) -> int:
        return len(self._bounds) - 1 + len(self._added)

    def __getitem__(self, k: int) -> str:
        """The id at position ``k``, decoded alone."""
        kept = len(self._bounds) - 1
        if 0 <= k < kept:
            return self._blob[self._bounds[k]:self._bounds[k + 1]].decode("utf-8")
        return self._added[k - kept]

    def tolist(self) -> list[str]:
        """Every id, in registration order: decodes the whole blob."""
        bounds = self._bounds.tolist()
        return [self._blob[a:b].decode("utf-8")
                for a, b in zip(bounds, bounds[1:])] + self._added

    def append(self, ids: Sequence[str]) -> None:
        """Register ``ids``, none of them registered yet, past the others."""
        self._added += ids

    def find(self, ids: Sequence[str]) -> np.ndarray:
        """The position of each of ``ids``, or -1 for an id not registered."""
        found = np.full(len(ids), -1, np.int64)
        kept = len(self._bounds) - 1
        if kept and ids:
            # a lone surrogate gets bytes that no UTF-8 blob holds, so it is not found
            ends, blob = _encoded(ids, "surrogatepass")
            codes, bounds = np.frombuffer(blob, np.uint8), np.concatenate(([0], ends))
            if self._hashes.size:
                hashes = _hash_ids(codes, bounds)
                at = np.searchsorted(self._hashes, hashes).clip(max=self._hashes.size - 1)
                hit = np.flatnonzero(self._hashes[at] == hashes)
                k = self._positions[at[hit]]
                lengths = np.diff(bounds)[hit]
                fits = self._bounds[k + 1] - self._bounds[k] == lengths
                hit, k, lengths = hit[fits], k[fits], lengths[fits]
                same = _same_bytes(codes, bounds[hit], self._codes, self._bounds[k], lengths)
                found[hit[same]] = k[same]
            if self._shared:
                for q in np.flatnonzero(found < 0).tolist():
                    found[q] = self._shared.get(blob[bounds[q]:bounds[q + 1]], -1)
        if self._added:
            index, indexed = self._index, len(self._index)
            if indexed < len(self._added):   # ids appended since the last lookup
                index.update(zip(self._added[indexed:], count(kept + indexed)))
            missing = np.flatnonzero(found < 0)
            found[missing] = [index.get(ids[q], -1) for q in missing.tolist()]
        return found

    def encoded(self) -> tuple[np.ndarray, bytes]:
        """Every id's end offset and the UTF-8 blob of all ids, as a snapshot
        stores them: the kept blob as is, then the ``str`` ids encoded (a
        ``UnicodeEncodeError`` for one that is not UTF-8)."""
        ends, blob = _encoded(self._added)
        return (np.concatenate((self._bounds[1:], ends + len(self._blob))),
                self._blob + blob)
