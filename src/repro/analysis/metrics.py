"""Ordering statistics for the restrictiveness/validity benchmarks.

Section 5.1's third requirement — *least restrictedness* — is an
order-containment claim; empirically it shows up as the fraction of
random timestamp pairs an ordering can decide.  These helpers compute
that fraction and count irreflexivity/transitivity violations for any
candidate ordering predicate, so the benchmarks can tabulate all five
candidates plus the baseline side by side.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

T = TypeVar("T")
Ordering = Callable[[T, T], bool]


def multiset_diff(
    expected: Iterable[T], actual: Iterable[T]
) -> tuple[list[T], list[T]]:
    """Multiset difference: (missing from actual, extra in actual).

    The primitive under :func:`detection_mismatch`: two runs' detections
    are compared as multisets of canonical timestamp strings, and the
    two sorted remainder lists name exactly which occurrences diverged.
    Both lists empty ⇔ equal.
    """
    want = Counter(expected)
    got = Counter(actual)
    missing = sorted((want - got).elements())
    extra = sorted((got - want).elements())
    return missing, extra


def detection_multiset(stamps: Iterable[object]) -> list[str]:
    """The comparison key of one rule's detections: each composite
    timestamp's ``repr``, sorted.

    ``repr(CompositeTimestamp)`` lists the member triples sorted, so two
    runs that detect the same occurrences produce the same list whatever
    their emission order; it equals ``str``, so multisets stored before
    this key was shared (the tenancy manifest) keep their bytes.
    """
    return sorted(repr(stamp) for stamp in stamps)


def timestamps_multiset(occurrences: Iterable[Any]) -> list[str]:
    """:func:`detection_multiset` of detected occurrences (anything with
    a ``timestamp``)."""
    return detection_multiset(occurrence.timestamp for occurrence in occurrences)


def detection_mismatch(
    expected: Mapping[str, Sequence[str]],
    actual: Mapping[str, Sequence[str]],
    label: str = "",
) -> str | None:
    """Compare two runs' per-rule detection multisets; ``None`` if equal.

    "Same history, two configurations, same detections" — the claim
    every differential leg and serving selftest makes — stated once.
    Both sides map a rule name to its :func:`detection_multiset`; a rule
    only one side has compares against an empty multiset.  The first
    mismatching rule (``expected``'s order, then ``actual``'s) is
    described as ``"<rule> <label>: missing=[...] extra=[...]"`` with
    the first three keys of each remainder; an empty rule name or label
    is left out of the prefix.
    """
    for rule in {**expected, **actual}:
        missing, extra = multiset_diff(
            expected.get(rule, ()), actual.get(rule, ())
        )
        if missing or extra:
            where = " ".join(part for part in (rule, label) if part)
            prefix = f"{where}: " if where else ""
            return f"{prefix}missing={missing[:3]} extra={extra[:3]}"
    return None


def comparability_rate(universe: Sequence[T], ordering: Ordering) -> Fraction:
    """Fraction of distinct ordered pairs decided by ``ordering``.

    A pair ``(a, b)`` counts as decided when ``a ≺ b`` or ``b ≺ a``.
    Returns 0 for universes with fewer than two elements.
    """
    n = len(universe)
    if n < 2:
        return Fraction(0)
    decided = 0
    total = 0
    for i, a in enumerate(universe):
        for b in universe[i + 1 :]:
            total += 1
            if ordering(a, b) or ordering(b, a):
                decided += 1
    return Fraction(decided, total)


def irreflexivity_violations(universe: Sequence[T], ordering: Ordering) -> list[T]:
    """Elements with ``a ≺ a`` (must be empty for a strict order)."""
    return [a for a in universe if ordering(a, a)]


def transitivity_violations(
    universe: Sequence[T], ordering: Ordering, limit: int | None = None
) -> list[tuple[T, T, T]]:
    """Triples with ``a ≺ b``, ``b ≺ c`` but not ``a ≺ c``.

    ``limit`` stops the sweep early once that many violations are found
    (the benchmarks only need existence and a rate estimate).
    """
    violations: list[tuple[T, T, T]] = []
    for a in universe:
        for b in universe:
            if not ordering(a, b):
                continue
            for c in universe:
                if ordering(b, c) and not ordering(a, c):
                    violations.append((a, b, c))
                    if limit is not None and len(violations) >= limit:
                        return violations
    return violations


@dataclass(frozen=True, slots=True)
class OrderingProfile:
    """Summary row for one candidate ordering over one universe."""

    name: str
    comparability: Fraction
    irreflexivity_violations: int
    transitivity_violations: int

    @property
    def is_valid_partial_order(self) -> bool:
        return (
            self.irreflexivity_violations == 0 and self.transitivity_violations == 0
        )


def profile_ordering(
    name: str,
    universe: Sequence[T],
    ordering: Ordering,
    violation_limit: int | None = 100,
) -> OrderingProfile:
    """Compute the benchmark row for one ordering."""
    return OrderingProfile(
        name=name,
        comparability=comparability_rate(universe, ordering),
        irreflexivity_violations=len(irreflexivity_violations(universe, ordering)),
        transitivity_violations=len(
            transitivity_violations(universe, ordering, violation_limit)
        ),
    )
