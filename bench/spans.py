"""In-memory call spans around the public functions of ``rankelo``.

A ``Tracer`` replaces each traced function with a wrapper in every loaded
``rankelo`` module that binds it, so a function imported by name
(``from .rating import division_ranks``) is traced on every call path.
Spans are kept in parallel lists and written out once, by ``dump``.
Functions too small to span (a dict lookup per entry) are only counted.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _size(first, *args, **kwargs) -> int:
    """Entries of a division, or the length of an array of scores."""
    return len(getattr(first, "entries", first))


# (home module, function, span size from the call's arguments or None).
# The attribute ``rankelo.replay`` is the function, not the module, so every
# home is looked up in ``sys.modules`` by its full name.
SPANNED = (
    ("rankelo.cli", "run", None),
    ("rankelo.store", "parse_rounds", None),
    ("rankelo.store", "load_snapshot", None),
    ("rankelo.store", "save_snapshot", None),
    ("rankelo.replay", "replay", None),
    ("rankelo.replay", "write_replay_log", None),
    ("rankelo.rating", "rate_round", None),
    ("rankelo.rating", "rate_division", _size),
    ("rankelo.rating", "division_ranks", _size),
    ("rankelo.metrics", "evaluate_replay", None),
    ("rankelo.metrics", "kendall_tau", None),
    ("rankelo.metrics", "spearman_rho", None),
    ("rankelo.metrics", "compare_systems", None),
    ("rankelo.sweep", "run_sweep", None),
)
COUNTED = (
    ("rankelo.rating", "get_or_create_player"),
)


def span_name(module: str, function: str) -> str:
    return f"{module.rpartition('.')[2]}.{function}"


class Tracer:
    """Spans (name, start, end, parent, size) plus call counts."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.sizes: list[int] = []
        self._cells: dict[str, list[int]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, fn, name: str, size):
        names, starts, ends = self.names, self.starts, self.ends
        parents, sizes, stack = self.parents, self.sizes, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            sizes.append(size(*args, **kwargs) if size else 0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
        return wrapper

    def _count(self, fn, name: str):
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    @property
    def counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._cells.items()}

    def install(self) -> list[str]:
        """Wrap every traced function wherever a rankelo module binds it.

        Returns the traced names whose home module lacks the function.
        """
        missing = []
        wrappers = {}
        targets = [(m, f, size, True) for m, f, size in SPANNED]
        targets += [(m, f, None, False) for m, f in COUNTED]
        for module_name, function, size, spanned in targets:
            name = span_name(module_name, function)
            original = getattr(sys.modules.get(module_name), function, None)
            if original is None:
                missing.append(name)
                continue
            wrappers[id(original)] = (original, self._span(original, name, size)
                                      if spanned else self._count(original, name))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "rankelo"
                                      or module_name.startswith("rankelo.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, fh) -> None:
        """Write every span as one JSON line: name, start, end, parent, size."""
        for i, name in enumerate(self.names):
            fh.write(json.dumps([name, self.starts[i], self.ends[i],
                                 self.parents[i], self.sizes[i]]) + "\n")
        fh.write(json.dumps({"counts": self.counts}) + "\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are merged as intervals and clipped to the parent, so
    overlapping or overhanging children are not subtracted twice.
    """
    children: dict[int, list[int]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def has_ancestor(index: int, parents, names, wanted: str) -> bool:
    parent = parents[index]
    while parent >= 0:
        if names[parent] == wanted:
            return True
        parent = parents[parent]
    return False
