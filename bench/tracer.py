"""Spans at cycolor's module boundaries, taken from outside the package.

A Tracer temporarily replaces public names in cycolor's modules with timing
wrappers, so `src/` stays untouched. A wrapper records calls, total time and
the part of that time covered by nested wrapped calls (its children), which
gives self time. A name that a later version of the package no longer has is
reported as absent and never as zero, and every replaced name is put back by
`remove()`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    """`module.path` to wrap and the span name it is recorded under.

    A path `Cls.member` swaps `module.Cls` for a stand-in whose `member` is
    wrapped, so only the calls made from that module are seen.
    """

    span: str
    module: str
    path: str


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.s - self.child_s


class _Proxy:
    """Stands in for a class in one module's namespace; one member is wrapped."""

    def __init__(self, cls, member: str, wrapped) -> None:
        self._cls = cls
        setattr(self, member, wrapped)

    def __getattr__(self, name):
        return getattr(self._cls, name)

    def __call__(self, *args, **kwargs):
        return self._cls(*args, **kwargs)


class Tracer:
    def __init__(self, targets) -> None:
        self.targets = tuple(targets)
        self.stats: dict[str, Stat] = {}
        self.absent: set[str] = set()
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.calls, stat.s, stat.child_s = 0, 0.0, 0.0

    def _wrap(self, span: str, fn):
        stat = self.stats.setdefault(span, Stat())
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stat.calls += 1
                stat.s += took
                stat.child_s += stack.pop()
                if stack:
                    stack[-1] += took

        return wrapper

    def _replace(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every target that exists; a span none of whose targets exist is absent."""
        present = set()
        for target in self.targets:
            try:
                owner = importlib.import_module(target.module)
            except ImportError:
                continue
            head, _, member = target.path.partition(".")
            obj = getattr(owner, head, None)
            if obj is None or (member and not hasattr(obj, member)):
                continue
            present.add(target.span)
            if member:
                wrapped = self._wrap(target.span, getattr(obj, member))
                self._replace(owner, head, _Proxy(obj, member, wrapped))
            else:
                self._replace(owner, head, self._wrap(target.span, obj))
        self.absent = {target.span for target in self.targets} - present

    def remove(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
