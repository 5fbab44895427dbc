"""Literal reference implementations of the paper's timestamp definitions.

The hot path dispatches every comparison through the integer kernels in
:mod:`repro.time.kernels` — the integer ``relation_code``, the O(n)
``fast_max_set``, the ``StampSummary`` extrema digest.  The functions
here re-state Definitions 4.7–5.4 *verbatim* (quantifier sweeps, O(n²)
filters), with no shared code: they are the fixed point the differential
fuzzer and the Hypothesis equivalence suite check the kernels against.
A divergence means an optimisation changed semantics, not just speed.
"""

from __future__ import annotations

from typing import Iterable

from repro.time.composite import CompositeRelation, CompositeTimestamp
from repro.time.timestamps import PrimitiveTimestamp


def ref_lt(a: PrimitiveTimestamp, b: PrimitiveTimestamp) -> bool:
    """Definition 4.7.1, verbatim: same site by local tick, cross-site
    by the two-granule global gap."""
    if a.site == b.site:
        return a.local < b.local
    return a.global_time < b.global_time - 1


def ref_concurrent(a: PrimitiveTimestamp, b: PrimitiveTimestamp) -> bool:
    """Definition 4.7.3: unordered either way."""
    return not ref_lt(a, b) and not ref_lt(b, a)


def ref_weak_leq(a: PrimitiveTimestamp, b: PrimitiveTimestamp) -> bool:
    """Definition 4.8: ``a ⪯ b`` iff ``a < b`` or ``a ~ b``."""
    return ref_lt(a, b) or ref_concurrent(a, b)


def ref_max_set(
    stamps: Iterable[PrimitiveTimestamp],
) -> frozenset[PrimitiveTimestamp]:
    """Definition 5.1, the O(n²) filter: keep stamps not happen-before
    any other member."""
    pool = set(stamps)
    return frozenset(
        t for t in pool if not any(ref_lt(t, other) for other in pool)
    )


def ref_composite_happens_before(
    t1: CompositeTimestamp, t2: CompositeTimestamp
) -> bool:
    """Definition 5.3.2: every member of T2 has a T1 member before it."""
    return all(any(ref_lt(a, b) for a in t1.stamps) for b in t2.stamps)


def ref_composite_concurrent(
    t1: CompositeTimestamp, t2: CompositeTimestamp
) -> bool:
    """Definition 5.3.1: all cross pairs concurrent."""
    return all(
        ref_concurrent(a, b) for a in t1.stamps for b in t2.stamps
    )


def ref_composite_weak_leq(
    t1: CompositeTimestamp, t2: CompositeTimestamp
) -> bool:
    """Definition 5.4: all cross pairs satisfy the primitive ``⪯``."""
    return all(ref_weak_leq(a, b) for a in t1.stamps for b in t2.stamps)


def ref_composite_dominated_by(
    t1: CompositeTimestamp, t2: CompositeTimestamp
) -> bool:
    """``<_g``: every member of T1 is below some member of T2."""
    return all(any(ref_lt(a, b) for b in t2.stamps) for a in t1.stamps)


def ref_composite_relation(
    t1: CompositeTimestamp, t2: CompositeTimestamp
) -> CompositeRelation:
    """The four-way classification, derived from the literal predicates."""
    if ref_composite_happens_before(t1, t2):
        return CompositeRelation.BEFORE
    if ref_composite_happens_before(t2, t1):
        return CompositeRelation.AFTER
    if ref_composite_concurrent(t1, t2):
        return CompositeRelation.CONCURRENT
    return CompositeRelation.INCOMPARABLE
