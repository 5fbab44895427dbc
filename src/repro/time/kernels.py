"""Integer fast-path kernels for the timestamp hot path.

The reference implementations in :mod:`repro.time.timestamps` and
:mod:`repro.time.composite` spell out the paper's definitions literally:
``max_set`` is the O(n²) "not happen-before any other member" filter, and
every composite relation is an all-pairs quantifier sweep.  This module
provides algebraically equivalent O(n) kernels the hot path dispatches
to; ``tests/test_oracle_equivalence.py`` and the Hypothesis suite pin the
equivalence down on randomized inputs.

The kernels rest on three facts about the ``2g_g``-restricted order:

* same-site comparison uses only the local tick, so per site only the
  extreme local ticks matter;
* cross-site comparison uses only the global time with a two-granule
  margin, so across sites only the extreme global times at *some other
  site* matter — which the top-2 distinct-site extrema answer in O(1);
* members of a valid composite timestamp are pairwise concurrent
  (Theorem 5.1), so same-site members share one local tick.

Three exports matter:

* :func:`site_id` / :func:`pack_key` — interned site ids and the
  precomputed integer granule key carried by every
  :class:`~repro.time.timestamps.PrimitiveTimestamp`;
* :func:`relation_code` — the pairwise ``<`` / ``~`` relation (``-1``
  before, ``0`` concurrent, ``1`` after) on the interned integer fields;
* :func:`fast_max_set` and :class:`StampSummary` — the O(n) Definition
  5.1 maxima and the per-composite extrema digest behind the O(|T2|)
  Definition 5.3 relations.

There is no bulk stamp constructor: a hand-inlined batch twin of the
``PrimitiveTimestamp`` constructor measured slower than it at the batch
sizes serving sees, and was removed (docs/performance.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.time.timestamps import PrimitiveTimestamp

_MAX64 = (1 << 64) - 1

# Interned site ids: comparing two small ints is cheaper than comparing
# two strings, and the ids index the packed granule keys.
_site_ids: dict[str, int] = {}


def site_id(site: str) -> int:
    """The process-wide interned id of a site name (stable per process)."""
    sid = _site_ids.get(site)
    if sid is None:
        sid = len(_site_ids)
        _site_ids[site] = sid
    return sid


def pack_key(sid: int, global_time: int, local: int) -> int | tuple[int, int, int]:
    """Pack ``(sid, global, local)`` into one integer granule key.

    The packing is injective — ``local`` in the low 64 bits, ``global``
    in the next 64, the site id above — so key equality is triple
    equality and the key can serve as a dict/memo key directly.  Values
    outside 64 bits (astronomically large tick counts) fall back to the
    tuple itself, which preserves injectivity at some speed cost.
    """
    if global_time <= _MAX64 and local <= _MAX64:
        return (sid << 128) | (global_time << 64) | local
    return (sid, global_time, local)


# --- pairwise relation -------------------------------------------------------


def relation_code(a: "PrimitiveTimestamp", b: "PrimitiveTimestamp") -> int:
    """The pairwise relation as an int: ``-1`` a<b, ``1`` b<a, ``0`` ``~``.

    Definition 4.7 on the precomputed fields: same site compares local
    ticks, different sites need the two-granule global gap.  Two integer
    compares — cheaper than any key a memo of them could be looked up by.
    """
    if a._sid == b._sid:
        if a.local < b.local:
            return -1
        return 1 if b.local < a.local else 0
    if a.global_time < b.global_time - 1:
        return -1
    return 1 if b.global_time < a.global_time - 1 else 0


# --- O(n) max-set ------------------------------------------------------------


def fast_max_set(
    stamps: Iterable["PrimitiveTimestamp"],
) -> frozenset["PrimitiveTimestamp"]:
    """Definition 5.1 maxima in one pass (callers check non-emptiness).

    A stamp is dominated iff a same-site member has a larger local tick,
    or a member at *another* site has a global time more than one granule
    above.  Per-site maximum locals answer the first test; the top-2
    distinct-site maximum globals answer the second without an inner
    loop.
    """
    pool = set(stamps)
    # Per-site maximum local tick, and per-site maximum global time.
    max_local: dict[int, int] = {}
    site_max_g: dict[int, int] = {}
    for t in pool:
        sid = t._sid
        if max_local.get(sid, -1) < t.local:
            max_local[sid] = t.local
        if site_max_g.get(sid, -1) < t.global_time:
            site_max_g[sid] = t.global_time
    # Top-2 distinct-site maximum globals: for any site, the maximum
    # global among *other* sites is one of these two.
    best_g = -1
    best_sid = -1
    second_g = -1
    for sid, g in site_max_g.items():
        if g > best_g:
            second_g = best_g
            best_g = g
            best_sid = sid
        elif g > second_g:
            second_g = g
    survivors = []
    for t in pool:
        sid = t._sid
        if t.local < max_local[sid]:
            continue
        other_g = second_g if sid == best_sid else best_g
        if other_g >= 0 and t.global_time < other_g - 1:
            continue
        survivors.append(t)
    return frozenset(survivors)


# --- per-composite extrema digest -------------------------------------------


class StampSummary:
    """Extrema digest of a pairwise-concurrent stamp set.

    Built once (lazily) per :class:`~repro.time.composite.
    CompositeTimestamp`; answers the two existential quantifiers the
    Definition 5.3 relations are made of in O(1):

    * :meth:`exists_lt` — is some member happen-before ``b``?
    * :meth:`exists_gt` — is some member happen-after ``b``?

    Because members are pairwise concurrent, all same-site members share
    one local tick (``site_local``); the cross-site disjunct needs only
    the minimum/maximum global time *at a site other than b's*, answered
    by top-2 distinct-site extrema of the per-site extremes.
    """

    __slots__ = (
        "site_local",
        "_min1_g", "_min1_sid", "_min2_g",
        "_max1_g", "_max1_sid", "_max2_g",
    )

    def __init__(self, stamps: Iterable["PrimitiveTimestamp"]) -> None:
        site_local: dict[int, int] = {}
        site_min_g: dict[int, int] = {}
        site_max_g: dict[int, int] = {}
        for t in stamps:
            sid = t._sid
            site_local[sid] = t.local
            g = t.global_time
            if sid not in site_min_g:
                site_min_g[sid] = g
                site_max_g[sid] = g
            else:
                if g < site_min_g[sid]:
                    site_min_g[sid] = g
                if g > site_max_g[sid]:
                    site_max_g[sid] = g
        self.site_local = site_local
        min1_g = min1_sid = min2_g = -1
        for sid, g in site_min_g.items():
            if min1_sid < 0 or g < min1_g:
                min2_g = min1_g
                min1_g = g
                min1_sid = sid
            elif min2_g < 0 or g < min2_g:
                min2_g = g
        self._min1_g = min1_g
        self._min1_sid = min1_sid
        self._min2_g = min2_g
        max1_g = max1_sid = max2_g = -1
        for sid, g in site_max_g.items():
            if g > max1_g:
                max2_g = max1_g
                max1_g = g
                max1_sid = sid
            elif g > max2_g:
                max2_g = g
        self._max1_g = max1_g
        self._max1_sid = max1_sid
        self._max2_g = max2_g

    def exists_lt(self, b: "PrimitiveTimestamp") -> bool:
        """``∃ a ∈ summary: a < b`` (some member happens before ``b``)."""
        local = self.site_local.get(b._sid)
        if local is not None and local < b.local:
            return True
        other_min = self._min2_g if b._sid == self._min1_sid else self._min1_g
        return other_min >= 0 and other_min < b.global_time - 1

    def exists_gt(self, b: "PrimitiveTimestamp") -> bool:
        """``∃ a ∈ summary: b < a`` (some member happens after ``b``)."""
        local = self.site_local.get(b._sid)
        if local is not None and local > b.local:
            return True
        other_max = self._max2_g if b._sid == self._max1_sid else self._max1_g
        return other_max > b.global_time + 1
