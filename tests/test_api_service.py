"""Unit tests for the RetrievalService facade and batch execution."""

import pytest

from repro.api.query import Query
from repro.api.service import RetrievalService
from repro.core.feedback import select_examples
from repro.errors import DatabaseError, LearnerError, QueryError
from repro.session import RetrievalSession


@pytest.fixture()
def service(tiny_scene_db) -> RetrievalService:
    return RetrievalService(tiny_scene_db)


def _waterfall_query(database, learner="dd", params=None, seed=3, **kwargs) -> Query:
    selection = select_examples(
        database, database.image_ids, "waterfall", n_positive=3, n_negative=3,
        seed=seed,
    )
    if params is None:
        params = {"scheme": "identical", "max_iterations": 30, "seed": seed}
    return Query(
        positive_ids=selection.positive_ids,
        negative_ids=selection.negative_ids,
        learner=learner,
        params=params,
        **kwargs,
    )


class TestSingleQuery:
    def test_dd_query(self, service, tiny_scene_db):
        query = _waterfall_query(tiny_scene_db, top_k=5)
        result = service.query(query)
        assert result.concept is not None
        assert result.training is not None
        # top_k truncates the ranking server-side; total_candidates still
        # reports how many images competed (everything but the examples).
        assert len(result.ranking) == 5
        assert result.ranking.is_truncated
        assert result.total_candidates == len(tiny_scene_db) - 6
        assert len(result.top()) == 5
        assert result.timing.total_seconds > 0

    def test_examples_excluded(self, service, tiny_scene_db):
        query = _waterfall_query(tiny_scene_db)
        result = service.query(query)
        assert not set(query.example_ids) & set(result.ranking.image_ids)

    def test_all_concept_learners_share_the_query_path(self, service, tiny_scene_db):
        # The acceptance criterion: dd, emdd and maron-ratan all train and
        # rank through the same RetrievalService.query() path.
        per_learner = {
            "dd": {"scheme": "identical", "max_iterations": 30, "seed": 3},
            "emdd": {"inner_scheme": "identical", "max_inner_iterations": 30,
                     "seed": 3},
            "maron-ratan": {"scheme": "identical", "max_iterations": 30,
                            "grid": 4, "seed": 3},
        }
        for learner, params in per_learner.items():
            result = service.query(
                _waterfall_query(tiny_scene_db, learner=learner, params=params)
            )
            assert result.concept is not None, learner
            assert len(result.ranking) == len(tiny_scene_db) - 6, learner

    def test_baseline_learners_share_the_query_path(self, service, tiny_scene_db):
        for learner, params in (("random", {"seed": 3}),
                                ("global-correlation", {"resolution": 6})):
            result = service.query(
                _waterfall_query(tiny_scene_db, learner=learner, params=params)
            )
            assert result.concept is None
            assert len(result.ranking) == len(tiny_scene_db) - 6

    def test_baseline_learners_honour_top_k(self, service, tiny_scene_db):
        for learner, params in (("random", {"seed": 3}),
                                ("global-correlation", {"resolution": 6})):
            result = service.query(
                _waterfall_query(
                    tiny_scene_db, learner=learner, params=params, top_k=4
                )
            )
            assert len(result.ranking) == 4, learner
            assert result.total_candidates == len(tiny_scene_db) - 6, learner

    def test_legacy_custom_corpus_raises_typed_error(self, tiny_scene_db):
        # A user learner whose corpus only implements the old protocol
        # (retrieval_candidates, no packed()) fits, then fails the rank
        # with a typed error naming packed() instead of an AttributeError.
        from repro.api.learners import (
            DiverseDensityLearner,
            register_learner,
        )
        from repro.core.retrieval import RetrievalCandidate

        class LegacyCorpus:
            def __init__(self, database):
                self._database = database

            def instances_for(self, image_id):
                return self._database.instances_for(image_id)

            def category_of(self, image_id):
                return self._database.category_of(image_id)

            def retrieval_candidates(self, ids):
                return [
                    RetrievalCandidate(
                        image_id=i,
                        category=self.category_of(i),
                        instances=self.instances_for(i),
                    )
                    for i in ids
                ]

        class LegacyCorpusLearner(DiverseDensityLearner):
            name = "legacy-corpus-dd"

            def corpus(self, database):
                return LegacyCorpus(database)

            @property
            def corpus_key(self):
                return "legacy-corpus"

        register_learner("legacy-corpus-dd", LegacyCorpusLearner,
                         overwrite=True)
        service = RetrievalService(tiny_scene_db)
        with pytest.raises(DatabaseError, match=r"packed\(\)"):
            service.query(
                _waterfall_query(tiny_scene_db, learner="legacy-corpus-dd")
            )

    def test_every_learner_rejects_non_positive_top_k(self, service, tiny_scene_db):
        # The Query validates top_k itself; the model-level check keeps the
        # direct rank_with path consistent across learner families.
        for learner, params in (("dd", None), ("random", {"seed": 3}),
                                ("global-correlation", {"resolution": 6})):
            fitted = service.fit(
                tiny_scene_db.ids_in_category("waterfall")[:2],
                learner=learner,
                params=params or {"scheme": "identical", "max_iterations": 20,
                                  "seed": 3},
            )
            with pytest.raises(DatabaseError, match="top_k"):
                service.rank_with(fitted, top_k=0)

    def test_candidate_subset(self, service, tiny_scene_db):
        subset = tiny_scene_db.ids_in_category("sunset")
        query = _waterfall_query(tiny_scene_db, candidate_ids=subset)
        result = service.query(query)
        assert set(result.ranking.image_ids) <= set(subset)

    def test_category_filter_round_trip(self, service, tiny_scene_db):
        query = _waterfall_query(tiny_scene_db, category_filter="sunset")
        result = service.query(query)
        expected = [
            i for i in tiny_scene_db.ids_in_category("sunset")
            if i not in query.example_ids
        ]
        assert result.ranking.total_candidates == len(expected)
        assert all(e.category == "sunset" for e in result.ranking)

    def test_top_k_ranking_is_prefix_of_full(self, service, tiny_scene_db):
        full = service.query(_waterfall_query(tiny_scene_db))
        truncated = service.query(_waterfall_query(tiny_scene_db, top_k=3))
        assert truncated.ranking.image_ids == full.ranking.image_ids[:3]
        assert truncated.total_candidates == len(full.ranking)

    def test_history_counts_all_candidates_despite_top_k(
        self, service, tiny_scene_db
    ):
        service.query(_waterfall_query(tiny_scene_db, top_k=2, query_id="t"))
        record = service.history[-1]
        assert record.n_candidates == len(tiny_scene_db) - 6

    def test_unknown_example_id(self, service):
        with pytest.raises(DatabaseError, match="unknown image id"):
            service.query(Query(positive_ids=("nope",), params={"seed": 0}))

    def test_unknown_candidate_id(self, service, tiny_scene_db):
        query = _waterfall_query(tiny_scene_db, candidate_ids=("nope",))
        with pytest.raises(DatabaseError, match="unknown image id"):
            service.query(query)

    def test_unknown_learner(self, service, tiny_scene_db):
        query = _waterfall_query(tiny_scene_db, learner="nope", params={})
        with pytest.raises(LearnerError, match="unknown learner"):
            service.query(query)

    def test_non_query_rejected(self, service):
        with pytest.raises(QueryError, match="expected a Query"):
            service.query("not a query")

    def test_history_records_timing(self, service, tiny_scene_db):
        service.query(_waterfall_query(tiny_scene_db, query_id="q-1"))
        service.query(_waterfall_query(tiny_scene_db, query_id="q-2", seed=4))
        history = service.history
        assert [record.query_id for record in history] == ["q-1", "q-2"]
        assert all(record.timing.total_seconds > 0 for record in history)
        assert all(record.learner == "dd" for record in history)

    def test_warm_precomputes(self, service, tiny_scene_db):
        assert service.warm("dd") == len(tiny_scene_db)
        assert service.warm("maron-ratan", grid=4) == len(tiny_scene_db)


class TestBatchQuery:
    def _queries(self, database) -> list[Query]:
        queries = []
        for index, category in enumerate(database.categories()):
            selection = select_examples(
                database, database.image_ids, category,
                n_positive=2, n_negative=2, seed=10 + index,
            )
            learner = ("dd", "emdd", "random")[index % 3]
            params = {
                "dd": {"scheme": "identical", "max_iterations": 25,
                       "seed": 10 + index},
                "emdd": {"inner_scheme": "identical", "max_inner_iterations": 25,
                         "seed": 10 + index},
                "random": {"seed": 10 + index},
            }[learner]
            queries.append(
                Query(
                    positive_ids=selection.positive_ids,
                    negative_ids=selection.negative_ids,
                    learner=learner,
                    params=params,
                    query_id=category,
                )
            )
        return queries

    def test_results_in_request_order(self, service, tiny_scene_db):
        queries = self._queries(tiny_scene_db)
        results = service.batch_query(queries, workers=2)
        assert [r.query.query_id for r in results] == [q.query_id for q in queries]

    def test_parallel_matches_sequential_bit_identical(self, tiny_scene_db):
        # Fresh services so corpus caches cannot leak between the two runs.
        queries = self._queries(tiny_scene_db)
        sequential = RetrievalService(tiny_scene_db).batch_query(queries)
        parallel = RetrievalService(tiny_scene_db).batch_query(queries, workers=4)
        for seq, par in zip(sequential, parallel):
            assert seq.ranking.image_ids == par.ranking.image_ids
            assert list(seq.ranking.distances) == list(par.ranking.distances)

    def test_repeated_parallel_runs_identical(self, service, tiny_scene_db):
        queries = self._queries(tiny_scene_db)
        first = service.batch_query(queries, workers=4)
        second = service.batch_query(queries, workers=3)
        for a, b in zip(first, second):
            assert a.ranking.image_ids == b.ranking.image_ids

    def test_bad_workers_rejected(self, service):
        with pytest.raises(QueryError, match="workers"):
            service.batch_query([], workers=0)

    def test_empty_batch(self, service):
        assert service.batch_query([], workers=4) == []


class TestSessionServiceParity:
    def test_session_matches_service(self, tiny_scene_db):
        session = RetrievalSession(
            tiny_scene_db, scheme="identical", max_iterations=40, seed=4
        )
        session.add_examples("waterfall", 3, 3)
        session_result = session.train_and_rank()

        service = RetrievalService(tiny_scene_db)
        result = service.query(
            Query(
                positive_ids=session.positive_ids,
                negative_ids=session.negative_ids,
                learner="dd",
                params={"scheme": "identical", "max_iterations": 40, "seed": 4},
            )
        )
        assert result.ranking.image_ids == session_result.image_ids
        assert list(result.ranking.distances) == list(session_result.distances)
        assert result.concept.nll == session.concept.nll

    def test_session_with_emdd_learner(self, tiny_scene_db):
        session = RetrievalSession(
            tiny_scene_db, scheme="identical", max_iterations=30, seed=4,
            learner="emdd",
        )
        session.add_examples("waterfall", 3, 3)
        result = session.train_and_rank()
        assert len(result) == len(tiny_scene_db) - 6
        assert "emdd" in session.concept.scheme

    def test_sessions_can_share_a_service(self, tiny_scene_db):
        service = RetrievalService(tiny_scene_db)
        a = RetrievalSession(
            tiny_scene_db, scheme="identical", max_iterations=30, seed=4,
            service=service,
        )
        b = RetrievalSession(
            tiny_scene_db, scheme="identical", max_iterations=30, seed=5,
            service=service,
        )
        a.add_examples("waterfall", 2, 2)
        b.add_examples("sunset", 2, 2)
        a.train_and_rank()
        b.train_and_rank()
        assert len(service.history) == 0  # sessions use fit/rank_with, not query


class TestHistoryBoundAndStats:
    def test_history_is_bounded(self, tiny_scene_db):
        service = RetrievalService(tiny_scene_db, max_history=2)
        queries = [
            _waterfall_query(tiny_scene_db, learner="random", params={"seed": s},
                             query_id=f"q{s}")
            for s in range(4)
        ]
        for query in queries:
            service.query(query)
        history = service.history
        assert len(history) == 2
        # The most recent records survive, oldest are dropped.
        assert [record.query_id for record in history] == ["q2", "q3"]

    def test_lifetime_count_survives_trimming(self, tiny_scene_db):
        service = RetrievalService(tiny_scene_db, max_history=1)
        for s in range(3):
            service.query(
                _waterfall_query(tiny_scene_db, learner="random",
                                 params={"seed": s})
            )
        stats = service.stats()
        assert stats["n_queries"] == 3
        assert stats["history_len"] == 1
        assert stats["max_history"] == 1

    def test_unbounded_history_still_supported(self, tiny_scene_db):
        service = RetrievalService(tiny_scene_db, max_history=None)
        for s in range(3):
            service.query(
                _waterfall_query(tiny_scene_db, learner="random",
                                 params={"seed": s})
            )
        assert len(service.history) == 3
        assert service.stats()["max_history"] is None

    def test_zero_history_keeps_nothing_but_counts(self, tiny_scene_db):
        service = RetrievalService(tiny_scene_db, max_history=0)
        service.query(
            _waterfall_query(tiny_scene_db, learner="random", params={"seed": 0})
        )
        assert service.history == ()
        assert service.stats()["n_queries"] == 1

    def test_negative_bound_rejected(self, tiny_scene_db):
        with pytest.raises(QueryError, match="max_history"):
            RetrievalService(tiny_scene_db, max_history=-1)

    def test_stats_reports_cache_and_corpora(self, service, tiny_scene_db):
        service.query(_waterfall_query(tiny_scene_db))
        stats = service.stats()
        assert stats["n_images"] == len(tiny_scene_db)
        assert "region-bags" in stats["corpus_keys"]
        assert stats["cache"]["misses"] >= 1
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0

    def test_adopt_corpus_requires_a_key(self, service, tiny_scene_db):
        with pytest.raises(QueryError, match="non-empty"):
            service.adopt_corpus("", tiny_scene_db)
        service.adopt_corpus("custom", tiny_scene_db)
        assert "custom" in service.corpus_keys
        assert service.get_corpus("custom") is tiny_scene_db
        with pytest.raises(QueryError, match="no corpus cached"):
            service.get_corpus("missing")
