"""Tests of the precompiled featurizer plan.

Contracts: the compiled-plan path is bit-identical to the interpreted
gather for every variant and dtype, unknown vocabulary raises the exact
legacy errors, the query cache is LRU-bounded, the probe matrix is flushed
only between batches (so any batch split of a workload stays exact), probe
bitmaps are shared across queries, and plan cache hits keep bitmap-cache
observability intact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FeaturizationVariant
from repro.core.encoding import SchemaEncoding
from repro.core.featurization import (
    CompiledFeaturizerPlan,
    FeatureBuffers,
    QueryFeaturizer,
)
from repro.core.normalization import ValueNormalizer
from repro.db.query import JoinCondition, Operator, Predicate, Query

ALL_VARIANTS = tuple(FeaturizationVariant)


@pytest.fixture(scope="module")
def parts(tiny_database, tiny_samples):
    encoding = SchemaEncoding.from_schema(tiny_database.schema)
    value_normalizer = ValueNormalizer.from_database(tiny_database)
    return encoding, value_normalizer, tiny_samples


def make_featurizer(parts, compiled, variant=FeaturizationVariant.BITMAPS,
                    dtype=np.float64, **kwargs):
    encoding, value_normalizer, samples = parts
    return QueryFeaturizer(
        encoding, value_normalizer, samples=samples, variant=variant,
        dtype=dtype, compiled=compiled, **kwargs
    )


def assert_ragged_equal(got, reference):
    for name in ("tables", "joins", "predicates"):
        a, b = getattr(got, name), getattr(reference, name)
        assert a.features.dtype == b.features.dtype
        assert a.features.tobytes() == b.features.tobytes(), name
        assert a.offsets.tobytes() == b.offsets.tobytes(), name


def small_cap_featurizer(parts, variant=FeaturizationVariant.BITMAPS,
                         dtype=np.float64):
    """A compiled featurizer whose plan flushes after 8 distinct probes."""
    featurizer = make_featurizer(parts, True, variant, dtype)
    featurizer._plan = CompiledFeaturizerPlan(featurizer, max_cached_queries=2)
    return featurizer


PADDED_ARRAYS = (
    "table_features",
    "table_mask",
    "join_features",
    "join_mask",
    "predicate_features",
    "predicate_mask",
)


def assert_padded_equal(got, reference):
    for name in PADDED_ARRAYS:
        a, b = getattr(got, name), getattr(reference, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestBitIdentity:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_compiled_matches_interpreted(self, parts, tiny_workload, variant, dtype):
        queries = [Query(tables=("title",))] + [
            labelled.query for labelled in tiny_workload
        ]
        reference = make_featurizer(parts, False, variant, dtype).featurize_ragged(queries)
        compiled = make_featurizer(parts, True, variant, dtype).featurize_ragged(queries)
        assert_ragged_equal(compiled, reference)

    def test_compiled_matches_interpreted_dataset_path(self, parts, tiny_workload):
        queries = [labelled.query for labelled in tiny_workload]
        cardinalities = [labelled.cardinality for labelled in tiny_workload]
        reference = make_featurizer(parts, False).featurize_dataset(
            queries, cardinalities=cardinalities
        )
        compiled = make_featurizer(parts, True).featurize_dataset(
            queries, cardinalities=cardinalities
        )
        assert_padded_equal(compiled, reference)
        np.testing.assert_array_equal(compiled.labels, reference.labels)

    def test_compiled_matches_interpreted_batch_path(self, parts, tiny_workload):
        queries = [labelled.query for labelled in tiny_workload[:40]]
        reference = make_featurizer(parts, False).featurize_batch(queries)
        compiled = make_featurizer(parts, True).featurize_batch(queries)
        assert_padded_equal(compiled, reference)

    def test_compiled_matches_interpreted_into_buffers(self, parts, tiny_workload):
        queries = [labelled.query for labelled in tiny_workload]
        reference = make_featurizer(parts, False).featurize_ragged(queries)
        featurizer = make_featurizer(parts, True)
        buffers = FeatureBuffers()
        assert_ragged_equal(featurizer.featurize_into(queries, buffers), reference)
        # Recycled buffers stay exact on the next (repeated) batch.
        assert_ragged_equal(featurizer.featurize_into(queries, buffers), reference)

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_repeats_within_one_batch_match_interpreted(
        self, parts, tiny_workload, dtype
    ):
        # Later copies of a query hit the entry its first copy compiled
        # earlier in the same gather.
        head = [labelled.query for labelled in tiny_workload[:10]]
        queries = head + head[::-1] + head
        reference = make_featurizer(parts, False, dtype=dtype).featurize_ragged(queries)
        featurizer = make_featurizer(parts, True, dtype=dtype)
        assert_ragged_equal(featurizer.featurize_ragged(queries), reference)
        assert featurizer.plan().cache_hits >= 2 * len(head)


class TestErrorMessages:
    def test_unknown_table(self, parts):
        featurizer = make_featurizer(parts, True)
        with pytest.raises(KeyError, match="not part of the encoded schema"):
            featurizer.featurize_ragged([Query(tables=("nonexistent",))])

    def test_unknown_column(self, parts, tiny_database):
        featurizer = make_featurizer(parts, True)
        # Predicates on key columns are not predicable.
        query = Query(
            tables=("title",),
            predicates=(Predicate("title", "id", Operator.GT, 0),),
        )
        with pytest.raises(KeyError, match="not a predicable"):
            featurizer.featurize_ragged([query])


class TestQueryCache:
    def test_repeat_queries_hit_the_compiled_cache(self, parts, tiny_workload):
        featurizer = make_featurizer(parts, True)
        queries = [labelled.query for labelled in tiny_workload[:20]]
        featurizer.featurize_ragged(queries)
        plan = featurizer.plan()
        misses = plan.cache_misses
        featurizer.featurize_ragged(queries)
        assert plan.cache_misses == misses
        assert plan.cache_hits >= len(queries)

    def test_cache_is_bounded_and_evicts_lru(self, parts, tiny_workload):
        encoding, value_normalizer, samples = parts
        featurizer = QueryFeaturizer(
            encoding, value_normalizer, samples=samples, compiled=True
        )
        plan = CompiledFeaturizerPlan(featurizer, max_cached_queries=8)
        queries = [labelled.query for labelled in tiny_workload[:20]]
        for query in queries:
            plan.compile_query(query)
        assert plan.num_cached_queries <= 8
        assert plan.cache_evictions >= len(queries) - 8
        # The most recently compiled query is still cached.
        hits = plan.cache_hits
        plan.compile_query(queries[-1])
        assert plan.cache_hits == hits + 1

    def test_probe_flush_never_corrupts_a_batch(self, parts, tiny_workload):
        # A cap of 2 bounds the probe matrix at 8 distinct probes, which one
        # batch of the workload crosses.  Flushing mid-batch would let later
        # probes overwrite rows the batch's earlier queries still index.
        queries = [labelled.query for labelled in tiny_workload]
        first, second = queries[: len(queries) // 2], queries[len(queries) // 2 :]
        reference = make_featurizer(parts, False)
        featurizer = make_featurizer(parts, True)
        featurizer._plan = CompiledFeaturizerPlan(featurizer, max_cached_queries=2)
        assert_ragged_equal(
            featurizer.featurize_ragged(first), reference.featurize_ragged(first)
        )
        assert featurizer.plan().num_probes > 8  # the batch overshot the bound
        # The next batch starts with a flush and is still exact.
        assert_ragged_equal(
            featurizer.featurize_ragged(second), reference.featurize_ragged(second)
        )
        assert_ragged_equal(
            featurizer.featurize_ragged(first), reference.featurize_ragged(first)
        )

    def test_invalid_cache_cap_rejected(self, parts):
        featurizer = make_featurizer(parts, True)
        with pytest.raises(ValueError):
            CompiledFeaturizerPlan(featurizer, max_cached_queries=0)

    def test_reordered_query_hits_the_cache_with_the_same_sets(self, parts, tiny_workload):
        # The cache key is order independent, so a re-ordered copy of a
        # compiled query is served in the first copy's element order: the
        # feature sets are equal as sets, row for row after sorting.
        query = next(
            labelled.query
            for labelled in tiny_workload
            if len(labelled.query.tables) >= 2 and len(labelled.query.predicates) >= 2
        )
        reordered = Query(
            tables=tuple(reversed(query.tables)),
            joins=tuple(reversed(query.joins)),
            predicates=tuple(reversed(query.predicates)),
        )
        featurizer = make_featurizer(parts, True)
        featurizer.featurize_ragged([query])
        hits = featurizer.plan().cache_hits
        got = featurizer.featurize_ragged([reordered])
        assert featurizer.plan().cache_hits == hits + 1
        reference = make_featurizer(parts, False).featurize_ragged([reordered])
        for name in ("tables", "joins", "predicates"):
            a, b = getattr(got, name), getattr(reference, name)
            assert a.offsets.tobytes() == b.offsets.tobytes(), name
            np.testing.assert_array_equal(
                np.unique(a.features, axis=0), np.unique(b.features, axis=0), name
            )

    @pytest.mark.parametrize("junk", (-1, 2.5, "fast", True, False))
    def test_junk_cache_caps_rejected_eagerly(self, parts, junk):
        featurizer = make_featurizer(parts, True)
        with pytest.raises(ValueError):
            CompiledFeaturizerPlan(featurizer, max_cached_queries=junk)

    def test_unbounded_plan_never_evicts_or_flushes(self, parts, tiny_workload):
        queries = [labelled.query for labelled in tiny_workload]
        reference = make_featurizer(parts, False).featurize_ragged(queries)
        featurizer = make_featurizer(parts, True)
        featurizer._plan = CompiledFeaturizerPlan(featurizer, max_cached_queries=None)
        for _ in range(2):
            assert_ragged_equal(featurizer.featurize_ragged(queries), reference)
        plan = featurizer.plan()
        assert plan.cache_evictions == 0
        assert plan._flushes == 0
        assert plan.num_cached_queries == len({q.signature() for q in queries})

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_probe_flush_is_exact_for_every_variant(
        self, parts, tiny_workload, variant
    ):
        queries = [labelled.query for labelled in tiny_workload]
        reference = make_featurizer(parts, False, variant).featurize_ragged(queries)
        featurizer = small_cap_featurizer(parts, variant)
        for _ in range(2):
            assert_ragged_equal(featurizer.featurize_ragged(queries), reference)
        plan = featurizer.plan()
        # Only variants that probe the samples have a probe matrix to flush.
        assert (plan._flushes > 0) == (variant is not FeaturizationVariant.NO_SAMPLES)

    def test_probe_flush_keeps_dataset_path_exact(self, parts, tiny_workload):
        queries = [labelled.query for labelled in tiny_workload]
        cardinalities = [labelled.cardinality for labelled in tiny_workload]
        reference = make_featurizer(parts, False).featurize_dataset(
            queries, cardinalities=cardinalities
        )
        featurizer = small_cap_featurizer(parts)
        for _ in range(2):
            compiled = featurizer.featurize_dataset(queries, cardinalities=cardinalities)
            assert_padded_equal(compiled, reference)
            np.testing.assert_array_equal(compiled.labels, reference.labels)
        assert featurizer.plan()._flushes > 0

    def test_flush_drops_every_entry_of_earlier_batches(self, parts, tiny_workload):
        queries = [labelled.query for labelled in tiny_workload]
        featurizer = small_cap_featurizer(parts)
        featurizer.featurize_ragged(queries[:-1])
        plan = featurizer.plan()
        assert plan._flushes == 0 and plan.num_probes > 8
        last = queries[-1:]
        featurizer.featurize_ragged(last)
        # The flush ran before the last batch compiled: only its own probes
        # and its own compiled query survive.
        assert plan._flushes == 1
        assert plan.num_probes == len(last[0].tables)
        assert plan.num_cached_queries == 1


class TestBatchPartitioning:
    """Any split of a workload into batches reproduces the interpreted gather,
    even when the probe matrix is flushed between the batches."""

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    @pytest.mark.parametrize("batch_size", (1, 2, 7, None))
    def test_every_split_matches_interpreted(
        self, parts, tiny_workload, batch_size, dtype
    ):
        queries = [labelled.query for labelled in tiny_workload]
        size = batch_size or len(queries)
        reference = make_featurizer(parts, False, dtype=dtype)
        featurizer = small_cap_featurizer(parts, dtype=dtype)
        # Two passes: the second re-featurizes after flushes have dropped
        # the entries the first pass compiled.
        for _ in range(2):
            for start in range(0, len(queries), size):
                batch = queries[start : start + size]
                assert_ragged_equal(
                    featurizer.featurize_ragged(batch),
                    reference.featurize_ragged(batch),
                )
        assert featurizer.plan()._flushes > 0


class TestProbeSharing:
    def test_identical_probes_share_one_matrix_row(self, parts):
        featurizer = make_featurizer(parts, True)
        plan = featurizer.plan()
        # Two distinct queries with the same (table, predicates) probe.
        first = Query(
            tables=("title",),
            predicates=(Predicate("title", "production_year", Operator.GT, 1990),),
        )
        second = Query(
            tables=("title", "movie_companies"),
            joins=(JoinCondition("movie_companies", "movie_id", "title", "id"),),
            predicates=(Predicate("title", "production_year", Operator.GT, 1990),),
        )
        a = plan.compile_query(first)
        b = plan.compile_query(second)
        title_probe_a = int(a.probe_ids[0])
        title_probe_b = int(b.probe_ids[list(second.tables).index("title")])
        assert title_probe_a == title_probe_b

    def test_plan_cache_hits_credit_the_bitmap_cache(self, parts, tiny_workload):
        encoding, value_normalizer, samples = parts
        featurizer = QueryFeaturizer(
            encoding, value_normalizer, samples=samples, compiled=True
        )
        queries = [labelled.query for labelled in tiny_workload[:15]]
        featurizer.featurize_ragged(queries)
        hits_before = samples.bitmap_cache_hits
        featurizer.featurize_ragged(queries)
        num_probes = sum(len(q.tables) for q in queries)
        assert samples.bitmap_cache_hits - hits_before == num_probes
