"""Fast-path kernels ≡ literal paper definitions (Hypothesis).

The hot path dispatches every timestamp comparison through the integer
kernels in :mod:`repro.time.kernels` — the integer ``relation_code``, the
O(n) ``fast_max_set``, and the ``StampSummary`` extrema digest behind
the composite relations.  The literal re-statements of Definitions
4.7–5.4 (quantifier sweeps, O(n²) filters) live in
:mod:`repro.conformance.literal`, shared with the conformance fuzzer's
``kernels`` check; here Hypothesis searches the stamp space for any
divergence.  A failure means an optimisation changed semantics, not
just speed.
"""

import hypothesis.strategies as st
from hypothesis import given

from repro.conformance.literal import (
    ref_composite_concurrent,
    ref_composite_dominated_by,
    ref_composite_happens_before,
    ref_composite_relation,
    ref_composite_weak_leq,
    ref_concurrent,
    ref_lt,
    ref_max_set,
    ref_weak_leq,
)
from repro.time.composite import (
    CompositeTimestamp,
    composite_concurrent,
    composite_dominated_by,
    composite_happens_before,
    composite_relation,
    composite_weak_leq,
    max_set,
)
from repro.time.kernels import fast_max_set, relation_code
from repro.time.timestamps import (
    PrimitiveTimestamp,
    concurrent,
    happens_before,
    weak_leq,
)

SITES = ["s1", "s2", "s3", "s4"]
RATIO = 10


# --- strategies ---------------------------------------------------------------


@st.composite
def primitive_stamps(draw, max_global: int = 10):
    site = draw(st.sampled_from(SITES))
    global_time = draw(st.integers(min_value=0, max_value=max_global))
    offset = draw(st.integers(min_value=0, max_value=RATIO - 1))
    return PrimitiveTimestamp(site, global_time, global_time * RATIO + offset)


@st.composite
def stamp_pools(draw, max_size: int = 8):
    return draw(st.lists(primitive_stamps(), min_size=1, max_size=max_size))


@st.composite
def composite_stamps(draw, max_constituents: int = 5):
    pool = draw(
        st.lists(primitive_stamps(), min_size=1, max_size=max_constituents)
    )
    return CompositeTimestamp(max_set(pool))


class TestPrimitiveKernelEquivalence:
    @given(primitive_stamps(), primitive_stamps())
    def test_happens_before_matches_literal(self, a, b):
        assert happens_before(a, b) == ref_lt(a, b)
        assert happens_before(b, a) == ref_lt(b, a)

    @given(primitive_stamps(), primitive_stamps())
    def test_concurrent_matches_literal(self, a, b):
        assert concurrent(a, b) == ref_concurrent(a, b)

    @given(primitive_stamps(), primitive_stamps())
    def test_weak_leq_matches_literal(self, a, b):
        assert weak_leq(a, b) == ref_weak_leq(a, b)

    @given(primitive_stamps(), primitive_stamps())
    def test_relation_code_is_consistent(self, a, b):
        code = relation_code(a, b)
        assert code == -relation_code(b, a)
        assert (code < 0) == ref_lt(a, b)
        assert (code > 0) == ref_lt(b, a)
        assert (code == 0) == ref_concurrent(a, b)


class TestMaxSetKernelEquivalence:
    @given(stamp_pools())
    def test_fast_max_set_matches_quadratic_filter(self, pool):
        assert fast_max_set(pool) == ref_max_set(pool)

    @given(stamp_pools())
    def test_public_max_set_matches_quadratic_filter(self, pool):
        assert max_set(pool) == ref_max_set(pool)

    @given(stamp_pools())
    def test_max_set_members_pairwise_concurrent(self, pool):
        # Theorem 5.1: a max-set is internally concurrent.
        maxima = max_set(pool)
        assert all(
            ref_concurrent(a, b) for a in maxima for b in maxima if a != b
        )


class TestCompositeKernelEquivalence:
    @given(composite_stamps(), composite_stamps())
    def test_happens_before_matches_literal(self, t1, t2):
        assert composite_happens_before(t1, t2) == ref_composite_happens_before(
            t1, t2
        )

    @given(composite_stamps(), composite_stamps())
    def test_concurrent_matches_literal(self, t1, t2):
        assert composite_concurrent(t1, t2) == ref_composite_concurrent(t1, t2)

    @given(composite_stamps(), composite_stamps())
    def test_weak_leq_matches_literal(self, t1, t2):
        assert composite_weak_leq(t1, t2) == ref_composite_weak_leq(t1, t2)

    @given(composite_stamps(), composite_stamps())
    def test_dominated_by_matches_literal(self, t1, t2):
        assert composite_dominated_by(t1, t2) == ref_composite_dominated_by(
            t1, t2
        )

    @given(composite_stamps(), composite_stamps())
    def test_relation_matches_literal(self, t1, t2):
        assert composite_relation(t1, t2) == ref_composite_relation(t1, t2)

    @given(composite_stamps())
    def test_summary_digest_is_lazy_but_stable(self, t):
        # Repeated relation queries reuse the cached digest; answers must
        # not drift between the first (builds digest) and later calls.
        first = composite_relation(t, t)
        assert composite_relation(t, t) == first
