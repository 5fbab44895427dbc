"""Composite timestamps, the max-set, joins, and the ``Max`` operator.

Implements Section 5 of the paper:

* **max-set** (Definition 5.1, corrected): ``max(ST)`` keeps the stamps of
  ``ST`` that are *not happen-before any other* member.  (The paper's text
  contains a typo — ``∀t1, t < t1`` — that would select the *minimal*
  elements and falsify Theorem 5.1.)
* **composite timestamp** (Definition 5.2): the max-set of the timestamps
  of the constituent primitive events; Theorem 5.1 guarantees its members
  are pairwise concurrent, and :class:`CompositeTimestamp` enforces that
  invariant at construction.
* **temporal relations on composite stamps** (Definitions 5.3/5.4):
  concurrency ``~`` (all pairs concurrent), happen-before ``<_p``
  (``∀t2 ∃t1: t1 < t2``), the paper's *dual* happen-after ``>_p``
  (``∀t2 ∃t1: t1 > t2`` — **not** the converse of ``<_p``),
  incomparability ``⊓``, and the weaker ``⪯``.
* **joins and Max** (Definitions 5.7-5.9): concurrent join is set union;
  incomparable join keeps the un-dominated triples of both sides (a
  corrected reading — the paper's ``∃ts2: ts < ts2`` must be negated or
  Theorem 5.4 fails); ``Max`` picks the later stamp when ordered and joins
  otherwise.

Reproduction findings encoded here (details in ``EXPERIMENTS.md``):

* Theorem 5.4 (``Max(T1,T2) = max(T1 ∪ T2)``) holds when the ordering test
  inside Definition 5.9 is the *domination* ordering ``<_g``
  (``∀t1 ∃t2: t1 < t2``) but **fails** under the literal ``<_p``:
  ``T2 <_p T1`` does not imply every triple of ``T2`` is dominated.  The
  operational :func:`max_of` therefore computes ``max(T1 ∪ T2)`` directly
  (equivalently, Definition 5.9 with ``<_g``); the literal case analysis
  is available as :func:`max_of_cases` for the ablation benchmark.
* Theorem 5.3 (``⪯ ⟺ ~ or <``) holds right-to-left but not left-to-right:
  see :func:`repro.analysis.properties.theorem_5_3_counterexample`.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Iterator

from repro.errors import ConcurrencyViolationError, EmptyTimestampError
from repro.time.kernels import StampSummary, fast_max_set
from repro.time.timestamps import PrimitiveTimestamp, happens_before


def max_set(stamps: Iterable[PrimitiveTimestamp]) -> frozenset[PrimitiveTimestamp]:
    """The maxima of a set of primitive stamps (Definition 5.1, corrected).

    A stamp is a *maximum* iff it is not happen-before any other member.
    By Theorem 5.1 the result is pairwise concurrent.  Computed by the
    O(n) kernel (:func:`repro.time.kernels.fast_max_set`); the literal
    quantifier sweep survives as the equivalence tests' oracle.

    >>> a = PrimitiveTimestamp("s1", 8, 80)
    >>> b = PrimitiveTimestamp("s2", 2, 20)
    >>> sorted(t.site for t in max_set([a, b]))
    ['s1']
    """
    result = fast_max_set(stamps)
    if not result:
        raise EmptyTimestampError("max_set of an empty set of timestamps")
    return result


class CompositeRelation(enum.Enum):
    """Exhaustive relation between two composite timestamps (Def 5.3).

    ``BEFORE``/``AFTER`` use the converse pair (``T1 <_p T2`` /
    ``T2 <_p T1``), which is what the detection engine needs; the paper's
    non-converse dual pair is exposed by :func:`paper_relation`.
    """

    BEFORE = "before"
    AFTER = "after"
    CONCURRENT = "concurrent"
    INCOMPARABLE = "incomparable"


class CompositeTimestamp:
    """A distributed composite timestamp: a pairwise-concurrent max-set.

    Construct with :meth:`of` (which applies the max-set to arbitrary
    constituent stamps — the normal path, mirroring Definition 5.2) or
    directly from triples already known to be maxima (validated).

    The comparison operators implement Definition 5.3/5.4: ``<`` is the
    paper's chosen ordering ``<_p``, ``<=`` is ``⪯``, and ``==`` is set
    equality of the triples.  Note ``>`` is implemented as the *converse*
    of ``<`` (see :func:`paper_relation` for the paper's dual ``>_p``).

    >>> t1 = CompositeTimestamp.of(PrimitiveTimestamp("k", 8, 80),
    ...                            PrimitiveTimestamp("l", 7, 70))
    >>> t2 = CompositeTimestamp.of(PrimitiveTimestamp("m", 10, 100))
    >>> t1 < t2
    True
    """

    __slots__ = ("_stamps", "_hash", "_summary")

    def __init__(self, stamps: Iterable[PrimitiveTimestamp]) -> None:
        frozen = frozenset(stamps)
        if not frozen:
            raise EmptyTimestampError("a composite timestamp needs at least one triple")
        # A set equals its max-set iff no member happens before another,
        # so one O(n) kernel pass validates pairwise concurrency; the
        # O(n²) pair hunt runs only to name the offenders on failure.
        if fast_max_set(frozen) != frozen:
            for a in frozen:
                for b in frozen:
                    if a is not b and happens_before(a, b):
                        raise ConcurrencyViolationError(
                            f"composite timestamp members must be pairwise "
                            f"concurrent: {a} < {b}"
                        )
        self._stamps = frozen
        self._hash = hash(frozen)
        self._summary: StampSummary | None = None

    @classmethod
    def _trusted(
        cls, stamps: frozenset[PrimitiveTimestamp]
    ) -> "CompositeTimestamp":
        """Wrap a non-empty set already known to be a max-set (no checks).

        Internal constructor for results that are pairwise concurrent by
        construction — max-set outputs (Theorem 5.1) and the joins.
        """
        self = object.__new__(cls)
        self._stamps = stamps
        self._hash = hash(stamps)
        self._summary = None
        return self

    @property
    def summary(self) -> StampSummary:
        """The lazily built extrema digest driving the O(n) relations."""
        digest = self._summary
        if digest is None:
            digest = StampSummary(self._stamps)
            self._summary = digest
        return digest

    @classmethod
    def of(cls, *stamps: PrimitiveTimestamp) -> "CompositeTimestamp":
        """Build from constituent stamps, keeping only the maxima (Def 5.2)."""
        return cls._trusted(max_set(stamps))

    @classmethod
    def from_iterable(cls, stamps: Iterable[PrimitiveTimestamp]) -> "CompositeTimestamp":
        """Like :meth:`of` but accepts any iterable."""
        return cls._trusted(max_set(stamps))

    @classmethod
    def singleton(cls, stamp: PrimitiveTimestamp) -> "CompositeTimestamp":
        """Lift a primitive stamp to a composite one (primitive events)."""
        return cls._trusted(frozenset((stamp,)))

    @classmethod
    def from_triples(
        cls, triples: Iterable[tuple[str, int, int]]
    ) -> "CompositeTimestamp":
        """Build from raw ``(site, global, local)`` triples, as in the paper."""
        return cls.from_iterable(PrimitiveTimestamp(*t) for t in triples)

    @property
    def stamps(self) -> frozenset[PrimitiveTimestamp]:
        """The member triples (immutable)."""
        return self._stamps

    def sites(self) -> frozenset[str]:
        """Sites contributing a maximum triple."""
        return frozenset(t.site for t in self._stamps)

    def global_span(self) -> tuple[int, int]:
        """Minimum and maximum global time among the member triples."""
        globals_ = [t.global_time for t in self._stamps]
        return (min(globals_), max(globals_))

    def __iter__(self) -> Iterator[PrimitiveTimestamp]:
        return iter(self._stamps)

    def __len__(self) -> int:
        return len(self._stamps)

    def __contains__(self, stamp: PrimitiveTimestamp) -> bool:
        return stamp in self._stamps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompositeTimestamp):
            return NotImplemented
        return self._hash == other._hash and self._stamps == other._stamps

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "CompositeTimestamp") -> bool:
        return composite_happens_before(self, other)

    def __gt__(self, other: "CompositeTimestamp") -> bool:
        return composite_happens_before(other, self)

    def __le__(self, other: "CompositeTimestamp") -> bool:
        return composite_weak_leq(self, other)

    def __ge__(self, other: "CompositeTimestamp") -> bool:
        return composite_weak_leq(other, self)

    def concurrent(self, other: "CompositeTimestamp") -> bool:
        """Composite concurrency ``~`` (Definition 5.3.1)."""
        return composite_concurrent(self, other)

    def incomparable(self, other: "CompositeTimestamp") -> bool:
        """Composite incomparability ``⊓`` (Definition 5.3.3)."""
        return composite_relation(self, other) is CompositeRelation.INCOMPARABLE

    def relation(self, other: "CompositeTimestamp") -> CompositeRelation:
        """Classify against ``other`` (see :func:`composite_relation`)."""
        return composite_relation(self, other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        triples = sorted(t.as_triple() for t in self._stamps)
        inner = ", ".join(f"({s}, {g}, {l})" for s, g, l in triples)
        return f"CompositeTimestamp{{{inner}}}"


def composite_happens_before(t1: CompositeTimestamp, t2: CompositeTimestamp) -> bool:
    """Composite happen-before ``<_p`` (Definition 5.3.2).

    ``T1 < T2`` iff for every triple of ``T2`` some triple of ``T1``
    happens before it.  Theorem 5.2: irreflexive and transitive.  The
    inner existential runs on ``T1``'s extrema digest, making the whole
    test O(|T2|).
    """
    exists_lt = t1.summary.exists_lt
    return all(exists_lt(b) for b in t2._stamps)


def composite_happens_after(t1: CompositeTimestamp, t2: CompositeTimestamp) -> bool:
    """The paper's dual happen-after ``>_p`` (Section 5.1).

    ``T1 >_p T2`` iff for every triple of ``T2`` some triple of ``T1``
    happens *after* it.  This is **not** the converse of ``<_p``; it
    equals ``T2 <_g T1`` (domination of ``T2`` by ``T1``).  Figure 2's
    symmetric region bands are drawn with this pair.
    """
    exists_gt = t1.summary.exists_gt
    return all(exists_gt(b) for b in t2._stamps)


def composite_dominated_by(t1: CompositeTimestamp, t2: CompositeTimestamp) -> bool:
    """Domination ordering ``<_g``: every triple of ``T1`` is below some of ``T2``.

    This is the ordering under which Definition 5.9's case analysis agrees
    with ``max(T1 ∪ T2)`` (Theorem 5.4).
    """
    exists_gt = t2.summary.exists_gt
    return all(exists_gt(a) for a in t1._stamps)


def composite_concurrent(t1: CompositeTimestamp, t2: CompositeTimestamp) -> bool:
    """Composite concurrency ``~`` (Definition 5.3.1): all pairs concurrent."""
    digest = t1.summary
    return all(
        not digest.exists_lt(b) and not digest.exists_gt(b) for b in t2._stamps
    )


def composite_weak_leq(t1: CompositeTimestamp, t2: CompositeTimestamp) -> bool:
    """The weaker-less-than-or-equal ``⪯`` (Definition 5.4).

    ``T1 ⪯ T2`` iff every pair satisfies the primitive ``⪯`` — by
    trichotomy, iff no member of ``T1`` happens after a member of ``T2``.
    Theorem 5.3 claims this is equivalent to ``T1 ~ T2 or T1 < T2``; only
    the right-to-left direction holds (see ``EXPERIMENTS.md``).
    """
    exists_gt = t1.summary.exists_gt
    return all(not exists_gt(b) for b in t2._stamps)


def composite_relation(
    t1: CompositeTimestamp, t2: CompositeTimestamp
) -> CompositeRelation:
    """Classify a pair using the converse-based pair ``(<_p, converse)``.

    ``BEFORE``/``AFTER`` cannot both hold (transitivity of ``<_p`` would
    contradict the internal concurrency of a max-set); happen-before and
    concurrency are mutually exclusive; incomparability is the residual.
    """
    if composite_happens_before(t1, t2):
        return CompositeRelation.BEFORE
    if composite_happens_before(t2, t1):
        return CompositeRelation.AFTER
    if composite_concurrent(t1, t2):
        return CompositeRelation.CONCURRENT
    return CompositeRelation.INCOMPARABLE


def paper_relation(t1: CompositeTimestamp, t2: CompositeTimestamp) -> CompositeRelation:
    """Classify a pair with the paper's chosen dual pair ``⟨<_p, >_p⟩``.

    Definition 5.3.3 spells incomparability with this pair:
    ``T1 ⊓ T2 ⟺ ¬(T1 < T2 ∨ T1 > T2 ∨ T1 ~ T2)``.  Because ``>_p`` is not
    the converse of ``<_p``, this classification is *asymmetric* — the
    Figure-2 benchmark shows where it differs from
    :func:`composite_relation`.
    """
    if composite_happens_before(t1, t2):
        return CompositeRelation.BEFORE
    if composite_happens_after(t1, t2):
        return CompositeRelation.AFTER
    if composite_concurrent(t1, t2):
        return CompositeRelation.CONCURRENT
    return CompositeRelation.INCOMPARABLE


def join_concurrent(t1: CompositeTimestamp, t2: CompositeTimestamp) -> CompositeTimestamp:
    """Join of concurrent stamps (Definition 5.7): union of the triples.

    Precondition ``T1 ~ T2`` is *not* re-checked here (the ``Max``
    operator dispatches); the result is validated by the
    :class:`CompositeTimestamp` constructor.
    """
    return CompositeTimestamp(t1.stamps | t2.stamps)


def join_incomparable(
    t1: CompositeTimestamp, t2: CompositeTimestamp
) -> CompositeTimestamp:
    """Join of incomparable stamps (Definition 5.8, corrected).

    Keeps the triples of each side that are *not* happen-before any triple
    of the other side — the "latest" information of both sets.  With this
    reading the result is exactly ``max(T1 ∪ T2)``.

    The kept union is pairwise concurrent for *any* inputs — within a
    side by Theorem 5.1, across sides because survival rules out both
    cross-side orderings — so construction skips re-validation.
    """
    left_gt = t2.summary.exists_gt
    right_gt = t1.summary.exists_gt
    kept = frozenset(
        [a for a in t1._stamps if not left_gt(a)]
        + [b for b in t2._stamps if not right_gt(b)]
    )
    if not kept:
        raise EmptyTimestampError(
            "a composite timestamp needs at least one triple"
        )
    return CompositeTimestamp._trusted(kept)


def max_of(t1: CompositeTimestamp, t2: CompositeTimestamp) -> CompositeTimestamp:
    """The operational ``Max`` operator: ``max(T1 ∪ T2)`` (Theorem 5.4).

    Equivalent to Definition 5.9's case analysis with the domination
    ordering ``<_g`` (see module docstring); always a valid composite
    timestamp carrying the "latest" information of both arguments.

    >>> t1 = CompositeTimestamp.from_triples([("s1", 8, 80)])
    >>> t2 = CompositeTimestamp.from_triples([("s2", 12, 120)])
    >>> max_of(t1, t2) == t2
    True
    """
    s1 = t1._stamps
    s2 = t2._stamps
    if s1 is s2 or s1 == s2:
        return t1
    if len(s1) == 1 and len(s2) == 1:
        # The dominant shape on the detection hot path: two singletons
        # reduce to Definition 4.7 on the integer fields.
        (a,) = s1
        (b,) = s2
        if a._sid == b._sid:
            if a.local < b.local:
                return t2
            if b.local < a.local:
                return t1
        elif a.global_time < b.global_time - 1:
            return t2
        elif b.global_time < a.global_time - 1:
            return t1
        return CompositeTimestamp._trusted(s1 | s2)
    union = s1 | s2
    # A valid composite is its own max-set, so a superset side wins as-is.
    if len(union) == len(s1):
        return t1
    if len(union) == len(s2):
        return t2
    return CompositeTimestamp._trusted(fast_max_set(union))


OrderingTest = Callable[[CompositeTimestamp, CompositeTimestamp], bool]


def max_of_cases(
    t1: CompositeTimestamp,
    t2: CompositeTimestamp,
    ordering: OrderingTest = composite_dominated_by,
) -> CompositeTimestamp:
    """Definition 5.9's literal case analysis, with a pluggable ordering.

    ``Max(T1, T2) = T1`` if ``T2 ≺ T1``; ``T2`` if ``T1 ≺ T2``; the join of
    the two otherwise (concurrent → union, else the incomparable join).
    With ``ordering=composite_dominated_by`` (``<_g``) this equals
    :func:`max_of` on all inputs; with
    ``ordering=composite_happens_before`` (``<_p``) it disagrees on inputs
    where the earlier stamp is not fully dominated — the MAX ablation
    benchmark quantifies how often.
    """
    if ordering(t2, t1):
        return t1
    if ordering(t1, t2):
        return t2
    if composite_concurrent(t1, t2):
        return join_concurrent(t1, t2)
    return join_incomparable(t1, t2)


def max_of_many(stamps: Iterable[CompositeTimestamp]) -> CompositeTimestamp:
    """Fold :func:`max_of` over one or more composite stamps.

    By Theorem 5.4 the fold order does not matter: the result is the
    max-set of the union of all constituent triples.
    """
    pool = stamps if isinstance(stamps, (list, tuple)) else list(stamps)
    if not pool:
        raise EmptyTimestampError("max_of_many needs at least one composite timestamp")
    if len(pool) == 1:
        return pool[0]
    if len(pool) == 2:
        return max_of(pool[0], pool[1])
    all_stamps: set[PrimitiveTimestamp] = set()
    for stamp in pool:
        all_stamps |= stamp._stamps
    return CompositeTimestamp._trusted(fast_max_set(all_stamps))
