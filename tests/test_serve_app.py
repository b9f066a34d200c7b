"""ServiceApp tests: dict-in/dict-out endpoints, served-vs-in-process
parity, feedback sessions over the wire, and error mapping."""

from __future__ import annotations

import pytest

from repro.api.query import Query
from repro.api.service import RetrievalService
from repro.errors import CodecError, DatabaseError, QueryError, SessionError
from repro.serve import codec
from repro.serve.app import ServiceApp, error_payload, handle_safely
from repro.serve.sessions import SessionStore

_PARAMS = {"scheme": "identical", "max_iterations": 25, "seed": 5}


@pytest.fixture()
def service(tiny_scene_db) -> RetrievalService:
    return RetrievalService(tiny_scene_db)


@pytest.fixture()
def app(service) -> ServiceApp:
    return ServiceApp(service)


def _query(tiny_scene_db, **kwargs) -> Query:
    ids = tiny_scene_db.ids_in_category("waterfall")
    negs = tiny_scene_db.ids_in_category("field")
    defaults = dict(
        positive_ids=ids[:2],
        negative_ids=negs[:2],
        learner="dd",
        params=dict(_PARAMS),
        top_k=5,
    )
    defaults.update(kwargs)
    return Query(**defaults)


class TestQueryEndpoints:
    def test_served_query_matches_in_process_ranking(self, app, tiny_scene_db):
        """The acceptance property: served == in-process on the same db."""
        query = _query(tiny_scene_db)
        reference = RetrievalService(tiny_scene_db).query(query)
        reply = app.query(codec.encode_query(query))
        served = codec.decode_query_result(reply)
        assert served.ranking.image_ids == reference.ranking.image_ids
        assert served.ranking.distances.tolist() == (
            reference.ranking.distances.tolist()
        )
        assert codec.wire_equal(served.query, query)

    def test_batch_query(self, app, tiny_scene_db):
        queries = [
            _query(tiny_scene_db),
            _query(tiny_scene_db, learner="random", params={"seed": 1}),
        ]
        reply = app.batch_query(
            codec.envelope(
                "batch_query",
                {"queries": [codec.encode_query(q) for q in queries], "workers": 2},
            )
        )
        body = codec.open_envelope(reply, "batch_query_result")
        results = [codec.decode_query_result(entry) for entry in body["results"]]
        assert len(results) == 2
        assert results[0].query.learner == "dd"
        assert results[1].query.learner == "random"

    def test_batch_query_needs_queries_list(self, app):
        with pytest.raises(CodecError, match="'queries' list"):
            app.batch_query(codec.envelope("batch_query", {}))

    def test_batch_query_clamps_wire_requested_workers(self, app, tiny_scene_db):
        """The request may ask for any worker count; the server caps it."""
        queries = [
            _query(tiny_scene_db, learner="random", params={"seed": s})
            for s in range(2)
        ]
        reply = app.batch_query(
            codec.envelope(
                "batch_query",
                {
                    "queries": [codec.encode_query(q) for q in queries],
                    "workers": 100000,
                },
            )
        )
        body = codec.open_envelope(reply, "batch_query_result")
        assert len(body["results"]) == 2

    def test_dispatch_routes_and_rejects(self, app, tiny_scene_db):
        reply = app.dispatch("query", codec.encode_query(_query(tiny_scene_db)))
        assert reply["kind"] == "query_result"
        with pytest.raises(QueryError, match="unknown endpoint"):
            app.dispatch("drop_tables", {})

    def test_query_rejects_version_skew(self, app, tiny_scene_db):
        payload = codec.encode_query(_query(tiny_scene_db))
        payload["version"] = 999
        with pytest.raises(CodecError, match="unsupported wire version"):
            app.query(payload)


class TestFeedbackEndpoint:
    def test_feedback_creates_session_and_ranks(self, app, tiny_scene_db):
        ids = tiny_scene_db.ids_in_category("waterfall")
        negs = tiny_scene_db.ids_in_category("field")
        reply = app.feedback(
            codec.envelope(
                "feedback",
                {
                    "learner": "dd",
                    "params": dict(_PARAMS),
                    "add_positive_ids": list(ids[:2]),
                    "add_negative_ids": list(negs[:1]),
                    "top_k": 5,
                },
            )
        )
        body = codec.open_envelope(reply, "feedback_result")
        assert body["session"]
        assert tuple(body["positive_ids"]) == ids[:2]
        ranking = codec.decode_ranking(body["ranking"])
        assert len(ranking) == 5
        assert codec.decode_concept(body["concept"]).n_dims > 0

    def test_feedback_round_two_reuses_session(self, app, tiny_scene_db):
        ids = tiny_scene_db.ids_in_category("waterfall")
        first = app.feedback(
            codec.envelope(
                "feedback",
                {
                    "params": dict(_PARAMS),
                    "add_positive_ids": list(ids[:2]),
                    "top_k": 5,
                },
            )
        )
        token = first["session"]
        bad = first["ranking"]["ranked"][0]["image_id"]
        second = app.feedback(
            codec.envelope(
                "feedback",
                {"session": token, "false_positive_ids": [bad], "top_k": 5},
            )
        )
        assert second["session"] == token
        assert bad in second["negative_ids"]
        assert bad not in [
            entry["image_id"] for entry in second["ranking"]["ranked"]
        ]

    def test_feedback_unknown_session(self, app):
        with pytest.raises(SessionError):
            app.feedback(
                codec.envelope("feedback", {"session": "bogus", "rank": False})
            )

    def test_failed_first_round_does_not_leak_a_session(self, app):
        """Create-on-first-use must clean up when the round is rejected."""
        with pytest.raises(DatabaseError):
            app.feedback(
                codec.envelope(
                    "feedback",
                    {"add_positive_ids": ["no-such-image"], "rank": False},
                )
            )
        assert len(app.sessions) == 0


class TestRankEndpoint:
    def test_rank_by_session(self, app, tiny_scene_db):
        ids = tiny_scene_db.ids_in_category("waterfall")
        created = app.feedback(
            codec.envelope(
                "feedback",
                {"params": dict(_PARAMS), "add_positive_ids": list(ids[:2]),
                 "top_k": 5},
            )
        )
        reply = app.rank(
            codec.envelope(
                "rank", {"session": created["session"], "top_k": 3}
            )
        )
        ranking = codec.decode_ranking(
            codec.open_envelope(reply, "rank_result")["ranking"]
        )
        assert len(ranking) == 3

    def test_rank_by_wire_concept(self, app, service, tiny_scene_db):
        query = _query(tiny_scene_db)
        concept = service.query(query).concept
        reply = app.rank(
            codec.envelope(
                "rank",
                {
                    "concept": codec.encode_concept(concept),
                    "exclude": list(query.example_ids),
                    "top_k": 5,
                },
            )
        )
        ranking = codec.decode_ranking(
            codec.open_envelope(reply, "rank_result")["ranking"]
        )
        # Ranking a shipped concept reproduces the query's own ranking.
        reference = service.query(query).ranking
        assert ranking.image_ids == reference.image_ids

    def test_legacy_approx_rank_mode_field_gets_the_exact_ranking(
        self, app, tiny_scene_db
    ):
        """Clients written while an approximate tier existed may still send
        ``"rank_mode": "approx"``; the field is ignored and the answer is
        the exact ranking."""
        import numpy as np

        from repro.core.concept import LearnedConcept
        from repro.core.retrieval import Ranker

        packed = tiny_scene_db.packed()
        concept = LearnedConcept(
            t=packed.instances[2], w=np.ones(packed.n_dims), nll=0.0
        )
        status, reply = handle_safely(
            app,
            "rank",
            codec.envelope(
                "rank",
                {
                    "concept": codec.encode_concept(concept),
                    "top_k": 5,
                    "rank_mode": "approx",
                },
            ),
        )
        assert status == 200
        ranking = codec.decode_ranking(
            codec.open_envelope(reply, "rank_result")["ranking"]
        )
        expected = Ranker(auto_shard=False).rank(concept, packed, top_k=5)
        assert ranking.image_ids == expected.image_ids
        assert ranking.distances.tolist() == expected.distances.tolist()

    def test_rank_needs_session_or_concept(self, app):
        with pytest.raises(CodecError, match="'session' token or a 'concept'"):
            app.rank(codec.envelope("rank", {"top_k": 3}))


def _concept_fields(tiny_scene_db) -> dict:
    import numpy as np

    from repro.core.concept import LearnedConcept

    packed = tiny_scene_db.packed()
    return codec.encode_concept(
        LearnedConcept(t=packed.instances[1], w=np.ones(packed.n_dims), nll=0.0)
    )


class TestMalformedWireFields:
    """A wrongly typed field is the client's error: a typed 400, never a
    500 and never a silently misread value (a truncated float, a string
    split into characters)."""

    @pytest.mark.parametrize("fields", [
        {"top_k": "abc"},
        {"top_k": 2.7},
        {"top_k": True},
        {"top_k": 0},
        {"top_k": 3, "exclude": 5},
        {"top_k": 3, "exclude": "waterfall-0000"},
        {"top_k": 3, "exclude": [1, 2]},
        {"top_k": 3, "candidate_ids": 5},
        {"top_k": 3, "candidate_ids": "waterfall-0000"},
        {"top_k": 3, "category_filter": ["x"]},
    ])
    def test_concept_rank_fields(self, app, tiny_scene_db, fields):
        payload = codec.envelope(
            "rank", {"concept": _concept_fields(tiny_scene_db), **fields}
        )
        status, reply = handle_safely(app, "rank", payload)
        assert status == 400, reply
        assert reply["error"] == "CodecError"

    @pytest.mark.parametrize("change", [
        {"t": ["a", "b"]},
        {"t": {"x": 1.0}},
        {"t": "abc"},
        {"w": [[1.0, 2.0]]},
        {"w": [True, False]},
        {"nll": "abc"},
        {"nll": None},
        {"scheme": 5},
        {"metadata": [1, 2]},
    ])
    def test_concept_fields(self, app, tiny_scene_db, change):
        concept = {**_concept_fields(tiny_scene_db), **change}
        payload = codec.envelope("rank", {"concept": concept, "top_k": 3})
        status, reply = handle_safely(app, "rank", payload)
        assert status == 400, reply
        assert reply["error"] == "CodecError"
        with pytest.raises(CodecError):
            codec.decode_concept(concept)

    @pytest.mark.parametrize("fields", [
        {"top_k": "abc"},
        {"top_k": 2.7},
        {"exclude": 5},
        {"candidate_ids": 5},
        {"category_filter": ["x"]},
    ])
    def test_session_rank_fields(self, app, tiny_scene_db, fields):
        ids = tiny_scene_db.ids_in_category("waterfall")
        created = app.feedback(
            codec.envelope(
                "feedback",
                {"params": dict(_PARAMS), "add_positive_ids": list(ids[:2]),
                 "rank": False},
            )
        )
        payload = codec.envelope(
            "rank", {"session": created["session"], **fields}
        )
        status, reply = handle_safely(app, "rank", payload)
        assert status == 400, reply
        assert reply["error"] == "CodecError"

    @pytest.mark.parametrize("fields", [
        {"top_k": "abc"},
        {"top_k": 2.7},
        {"top_k": True},
        {"add_positive_ids": 5},
        {"add_positive_ids": "waterfall-0000"},
        {"add_negative_ids": [1]},
        {"false_positive_ids": 5},
        {"category_filter": ["x"]},
        {"learner": 5},
        {"params": [1, 2]},
    ])
    def test_feedback_fields(self, app, tiny_scene_db, fields):
        ids = tiny_scene_db.ids_in_category("waterfall")
        payload = codec.envelope(
            "feedback",
            {"params": dict(_PARAMS), "add_positive_ids": list(ids[:2]),
             **fields},
        )
        before = app.sessions.stats()["created"]
        status, reply = handle_safely(app, "feedback", payload)
        assert status == 400, reply
        assert reply["error"] == "CodecError"
        # Rejected before a session is minted: nothing to orphan.
        assert app.sessions.stats()["created"] == before

    @pytest.mark.parametrize("fields", [
        {"top_k": "abc"},
        {"top_k": 2.7},
        {"positive_ids": "waterfall-0000"},
        {"negative_ids": 5},
        {"candidate_ids": 5},
        {"category_filter": 3},
        {"params": [1]},
        {"learner": 5},
    ])
    def test_query_fields(self, app, tiny_scene_db, fields):
        payload = {**codec.encode_query(_query(tiny_scene_db)), **fields}
        status, reply = handle_safely(app, "query", payload)
        assert status == 400, reply
        assert reply["error"] == "CodecError"

    def test_well_typed_fields_still_decode(self, tiny_scene_db):
        concept = codec.decode_concept(
            {**_concept_fields(tiny_scene_db), "nll": 1, "metadata": None}
        )
        assert concept.nll == 1.0 and concept.metadata == {}
        data = codec.envelope(
            "rank", {"top_k": None, "exclude": ("a",), "candidate_ids": None}
        )
        assert codec.top_k_field(data, "rank") is None
        assert codec.id_list_field(data, "rank", "exclude") == ("a",)
        assert codec.id_list_field(
            data, "rank", "candidate_ids", nullable=True
        ) is None
        assert codec.id_list_field(data, "rank", "missing") == ()


class TestIntrospection:
    def test_health(self, app, tiny_scene_db):
        body = codec.open_envelope(app.health(), "health")
        assert body["status"] == "ok"
        assert body["n_images"] == len(tiny_scene_db)
        assert body["wire_version"] == codec.WIRE_VERSION
        assert "dd" in body["learners"]

    def test_stats_reports_service_cache_and_sessions(self, app, tiny_scene_db):
        app.query(codec.encode_query(_query(tiny_scene_db)))
        body = codec.open_envelope(app.stats(), "stats")
        assert body["service"]["n_queries"] == 1
        assert body["service"]["max_history"] == app.service.max_history
        assert body["sessions"]["active"] == 0
        assert body["service"]["cache"]["misses"] >= 1

    def test_app_keeps_a_provided_empty_session_store(self, service):
        """An empty store is __len__-falsy but its configuration must win."""
        store = SessionStore(service, ttl_seconds=60.0, max_sessions=4)
        app = ServiceApp(service, sessions=store)
        assert app.sessions is store
        assert app.sessions.stats()["max_sessions"] == 4

    def test_app_rejects_foreign_session_store(self, service, tiny_scene_db):
        other = RetrievalService(tiny_scene_db)
        with pytest.raises(SessionError, match="must wrap the served service"):
            ServiceApp(service, sessions=SessionStore(other))


class TestErrorMapping:
    def test_handle_safely_statuses(self, app):
        status, payload = handle_safely(app, "health", None)
        assert status == 200 and payload["kind"] == "health"
        status, payload = handle_safely(
            app, "feedback",
            codec.envelope("feedback", {"session": "bogus", "rank": False}),
        )
        assert status == 404 and payload["error"] == "SessionError"
        status, payload = handle_safely(app, "query", {"kind": "query"})
        assert status == 400 and payload["kind"] == "error"
        status, payload = handle_safely(app, "nope", None)
        assert status == 400 and payload["error"] == "QueryError"

    @pytest.mark.parametrize("engine", ["batched", "sequential"])
    def test_engine_param_is_a_typed_400(self, app, tiny_scene_db, engine):
        # Training has one engine: a fit or a session that asks for one by
        # name is a bad request naming the parameter, not a server fault.
        params = dict(_PARAMS, engine=engine)
        ids = tiny_scene_db.ids_in_category("waterfall")
        requests = {
            "query": codec.encode_query(_query(tiny_scene_db, params=params)),
            "feedback": codec.envelope(
                "feedback",
                {"params": params, "add_positive_ids": list(ids[:2]), "top_k": 5},
            ),
        }
        for endpoint, payload in requests.items():
            status, reply = handle_safely(app, endpoint, payload)
            assert status == 400, endpoint
            assert reply["error"] == "LearnerError"
            assert "engine" in reply["message"]
        assert len(app.sessions) == 0

    def test_error_payload_shape(self):
        payload = error_payload(CodecError("boom"))
        assert payload == {
            "kind": "error",
            "version": codec.WIRE_VERSION,
            "error": "CodecError",
            "message": "boom",
        }
