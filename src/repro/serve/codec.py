"""Schema-versioned wire codecs for the serving layer.

Every object that crosses a process boundary — requests, rankings, learned
concepts, training diagnostics, cache counters — is encoded as a plain
JSON-safe dict wrapped in a small envelope::

    {"kind": "<dto name>", "version": 1, ...fields}

The envelope carries the wire contract:

* **Versioning** — :data:`WIRE_VERSION` is bumped whenever a field changes
  meaning; a decoder presented with a version it does not speak *rejects*
  the payload (:class:`~repro.errors.CodecError`) instead of guessing.
* **Tolerance** — unknown *fields* are ignored on decode, so a newer peer
  may add fields without breaking older workers (add-only evolution within
  a version).
* **Round-trip fidelity** — ``decode(encode(x))`` reconstructs an object
  indistinguishable from ``x`` (:func:`wire_equal`; floats survive exactly
  via JSON's shortest-repr round-trip, arrays via element lists).

Use the generic :func:`encode` / :func:`decode` pair (dispatch on type /
``kind``) or the per-DTO functions when the expected kind is known.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from repro.api.query import Query, QueryResult, QueryTiming
from repro.core.cache import CacheStats
from repro.core.concept import LearnedConcept
from repro.core.diverse_density import StartRecord, TrainingResult
from repro.core.retrieval import RankedImage, RetrievalResult
from repro.errors import CodecError

#: Current wire-format version.  Decoders reject any other value.
WIRE_VERSION = 1


# --------------------------------------------------------------------- #
# Envelope helpers                                                       #
# --------------------------------------------------------------------- #


def envelope(kind: str, fields: Mapping[str, Any]) -> dict:
    """Wrap encoded fields in the ``{"kind", "version"}`` envelope."""
    return {"kind": kind, "version": WIRE_VERSION, **fields}


def open_envelope(payload: Any, kind: str | None = None) -> dict:
    """Validate an envelope and return it as a plain dict.

    Args:
        payload: the wire payload (must be a mapping).
        kind: when given, the payload's ``kind`` must match exactly.

    Raises:
        CodecError: on a non-mapping payload, a missing/mismatched kind, or
            a wire version this codec does not speak.
    """
    if not isinstance(payload, Mapping):
        raise CodecError(
            f"wire payload must be a mapping, got {type(payload).__name__}"
        )
    found = payload.get("kind")
    if not isinstance(found, str) or not found:
        raise CodecError("wire payload carries no 'kind'")
    if kind is not None and found != kind:
        raise CodecError(f"expected a {kind!r} payload, got {found!r}")
    version = payload.get("version")
    if version != WIRE_VERSION:
        raise CodecError(
            f"unsupported wire version {version!r} for kind {found!r} "
            f"(this codec speaks version {WIRE_VERSION})"
        )
    return dict(payload)


def _field(payload: Mapping, kind: str, name: str) -> Any:
    try:
        return payload[name]
    except KeyError:
        raise CodecError(f"{kind} payload is missing field {name!r}") from None


def top_k_field(data: Mapping, kind: str) -> int | None:
    """``top_k`` as a positive int (never a bool, a float or a string) or None."""
    value = data.get("top_k")
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, int) or value < 1
    ):
        raise CodecError(
            f"{kind} payload needs 'top_k' as a positive integer or null, "
            f"got {value!r}"
        )
    return value


def id_list_field(
    data: Mapping, kind: str, name: str, *, nullable: bool = False
) -> tuple[str, ...] | None:
    """An image-id list as a tuple of strings (a bare string is refused).

    Missing or ``null`` reads as ``None`` when ``nullable`` ("all images"),
    else as the empty tuple.
    """
    value = data.get(name)
    if value is None:
        return None if nullable else ()
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise CodecError(
            f"{kind} payload needs {name!r} as a list of image-id strings, "
            f"got {value!r}"
        )
    return tuple(value)


def optional_str_field(data: Mapping, kind: str, name: str) -> str | None:
    """An optional string field (``category_filter``, ``learner``, ...)."""
    value = data.get(name)
    if value is not None and not isinstance(value, str):
        raise CodecError(
            f"{kind} payload needs {name!r} as a string or null, got {value!r}"
        )
    return value


def mapping_field(data: Mapping, kind: str, name: str) -> dict | None:
    """An optional object field (``params``, ``metadata``) as a dict."""
    value = data.get(name)
    if value is not None and not isinstance(value, Mapping):
        raise CodecError(
            f"{kind} payload needs {name!r} as an object or null, got {value!r}"
        )
    return None if value is None else dict(value)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def number_field(
    data: Mapping, kind: str, name: str, default: float | None = None
) -> float:
    """A numeric field as a float; ``default`` replaces a missing/null one."""
    value = data.get(name)
    if value is None and default is not None:
        return default
    if not _is_number(value):
        raise CodecError(
            f"{kind} payload needs {name!r} as a number, got {value!r}"
        )
    return float(value)


def _vector_field(data: Mapping, kind: str, name: str) -> np.ndarray:
    value = _field(data, kind, name)
    if not isinstance(value, (list, tuple)) or not all(map(_is_number, value)):
        raise CodecError(
            f"{kind} payload needs {name!r} as a list of numbers, "
            f"got {value!r}"
        )
    return np.asarray(value, dtype=np.float64)


class RankFields(NamedTuple):
    """The type-checked ranking controls of a ``rank`` request."""

    top_k: int | None
    candidate_ids: tuple[str, ...] | None
    exclude: tuple[str, ...]
    category_filter: str | None


def rank_fields(data: Mapping, kind: str = "rank") -> RankFields:
    """Decode a request's ranking controls; every helper here raises
    :class:`~repro.errors.CodecError` on a wrongly typed field."""
    return RankFields(
        top_k=top_k_field(data, kind),
        candidate_ids=id_list_field(data, kind, "candidate_ids", nullable=True),
        exclude=id_list_field(data, kind, "exclude"),
        category_filter=optional_str_field(data, kind, "category_filter"),
    )


def deadline_ms_field(payload: Any) -> float | None:
    """Validate and return a payload's ``deadline_ms`` field.

    ``deadline_ms`` is the *remaining* request budget in milliseconds at
    the moment the payload was sent (relative, not absolute — monotonic
    clocks do not cross process or host boundaries).  It may ride any
    request envelope; every hop re-stamps the remaining budget before
    forwarding.

    Returns ``None`` when the payload is not a mapping or carries no
    deadline.  A present deadline must be a positive finite number.

    Raises:
        CodecError: on a non-numeric, boolean, non-finite or non-positive
            ``deadline_ms``.
    """
    if not isinstance(payload, Mapping):
        return None
    value = payload.get("deadline_ms")
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(float(value))
        or float(value) <= 0
    ):
        raise CodecError(
            "deadline_ms must be a positive finite number of milliseconds, "
            f"got {value!r}"
        )
    return float(value)


# --------------------------------------------------------------------- #
# Per-DTO codecs                                                         #
# --------------------------------------------------------------------- #


def encode_query(query: Query) -> dict:
    """Encode a :class:`~repro.api.query.Query`."""
    return envelope(
        "query",
        {
            "positive_ids": list(query.positive_ids),
            "negative_ids": list(query.negative_ids),
            "learner": query.learner,
            "params": dict(query.params),
            "candidate_ids": (
                None if query.candidate_ids is None else list(query.candidate_ids)
            ),
            "top_k": query.top_k,
            "category_filter": query.category_filter,
            "query_id": query.query_id,
        },
    )


def decode_query(payload: Any) -> Query:
    """Decode a ``query`` payload (types here, meaning in the Query)."""
    data = open_envelope(payload, "query")
    _field(data, "query", "positive_ids")  # required, unlike the other lists
    learner = optional_str_field(data, "query", "learner")
    return Query(
        positive_ids=id_list_field(data, "query", "positive_ids"),
        negative_ids=id_list_field(data, "query", "negative_ids"),
        learner="dd" if learner is None else learner,
        params=mapping_field(data, "query", "params") or {},
        candidate_ids=id_list_field(
            data, "query", "candidate_ids", nullable=True
        ),
        top_k=top_k_field(data, "query"),
        category_filter=optional_str_field(data, "query", "category_filter"),
        query_id=str(data.get("query_id", "")),
    )


def encode_timing(timing: QueryTiming) -> dict:
    """Encode a :class:`~repro.api.query.QueryTiming`."""
    return envelope(
        "query_timing",
        {
            "fit_seconds": timing.fit_seconds,
            "rank_seconds": timing.rank_seconds,
            "total_seconds": timing.total_seconds,
        },
    )


def decode_timing(payload: Any) -> QueryTiming:
    """Decode a ``query_timing`` payload."""
    data = open_envelope(payload, "query_timing")
    return QueryTiming(
        fit_seconds=float(_field(data, "query_timing", "fit_seconds")),
        rank_seconds=float(_field(data, "query_timing", "rank_seconds")),
        total_seconds=float(_field(data, "query_timing", "total_seconds")),
    )


def encode_ranked_image(entry: RankedImage) -> dict:
    """Encode one :class:`~repro.core.retrieval.RankedImage`."""
    return envelope(
        "ranked_image",
        {
            "rank": entry.rank,
            "image_id": entry.image_id,
            "category": entry.category,
            "distance": entry.distance,
        },
    )


def decode_ranked_image(payload: Any) -> RankedImage:
    """Decode a ``ranked_image`` payload."""
    data = open_envelope(payload, "ranked_image")
    return RankedImage(
        rank=int(_field(data, "ranked_image", "rank")),
        image_id=str(_field(data, "ranked_image", "image_id")),
        category=str(_field(data, "ranked_image", "category")),
        distance=float(_field(data, "ranked_image", "distance")),
    )


def encode_ranking(result: RetrievalResult) -> dict:
    """Encode a :class:`~repro.core.retrieval.RetrievalResult`."""
    return envelope(
        "ranking",
        {
            "ranked": [encode_ranked_image(entry) for entry in result.ranked],
            "total_candidates": result.total_candidates,
        },
    )


def decode_ranking(payload: Any) -> RetrievalResult:
    """Decode a ``ranking`` payload."""
    data = open_envelope(payload, "ranking")
    ranked = tuple(
        decode_ranked_image(entry) for entry in _field(data, "ranking", "ranked")
    )
    return RetrievalResult(
        ranked, total_candidates=int(_field(data, "ranking", "total_candidates"))
    )


def encode_concept(concept: LearnedConcept) -> dict:
    """Encode a :class:`~repro.core.concept.LearnedConcept`."""
    return envelope(
        "concept",
        {
            "t": concept.t.tolist(),
            "w": concept.w.tolist(),
            "nll": concept.nll,
            "scheme": concept.scheme,
            "metadata": dict(concept.metadata),
        },
    )


def decode_concept(payload: Any) -> LearnedConcept:
    """Decode a ``concept`` payload (flat numeric ``t`` / ``w``)."""
    data = open_envelope(payload, "concept")
    return LearnedConcept(
        t=_vector_field(data, "concept", "t"),
        w=_vector_field(data, "concept", "w"),
        nll=number_field(data, "concept", "nll"),
        scheme=optional_str_field(data, "concept", "scheme") or "",
        metadata=mapping_field(data, "concept", "metadata") or {},
    )


def encode_start_record(record: StartRecord) -> dict:
    """Encode one :class:`~repro.core.diverse_density.StartRecord`."""
    return envelope(
        "start_record",
        {
            "bag_id": record.bag_id,
            "instance_index": record.instance_index,
            "value": record.value,
            "n_iterations": record.n_iterations,
            "converged": record.converged,
            "pruned": record.pruned,
        },
    )


def decode_start_record(payload: Any) -> StartRecord:
    """Decode a ``start_record`` payload."""
    data = open_envelope(payload, "start_record")
    return StartRecord(
        bag_id=str(_field(data, "start_record", "bag_id")),
        instance_index=int(_field(data, "start_record", "instance_index")),
        value=float(_field(data, "start_record", "value")),
        n_iterations=int(_field(data, "start_record", "n_iterations")),
        converged=bool(_field(data, "start_record", "converged")),
        pruned=bool(data.get("pruned", False)),
    )


def encode_training_result(training: TrainingResult) -> dict:
    """Encode a :class:`~repro.core.diverse_density.TrainingResult`."""
    return envelope(
        "training_result",
        {
            "concept": encode_concept(training.concept),
            "starts": [encode_start_record(record) for record in training.starts],
            "n_starts": training.n_starts,
            "elapsed_seconds": training.elapsed_seconds,
            "n_starts_pruned": training.n_starts_pruned,
        },
    )


def decode_training_result(payload: Any) -> TrainingResult:
    """Decode a ``training_result`` payload."""
    data = open_envelope(payload, "training_result")
    return TrainingResult(
        concept=decode_concept(_field(data, "training_result", "concept")),
        starts=tuple(
            decode_start_record(record) for record in data.get("starts", ())
        ),
        n_starts=int(data.get("n_starts", 0)),
        elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        n_starts_pruned=int(data.get("n_starts_pruned", 0)),
    )


def encode_query_result(result: QueryResult) -> dict:
    """Encode a :class:`~repro.api.query.QueryResult` (nested envelopes)."""
    return envelope(
        "query_result",
        {
            "query": encode_query(result.query),
            "ranking": encode_ranking(result.ranking),
            "concept": (
                None if result.concept is None else encode_concept(result.concept)
            ),
            "training": (
                None
                if result.training is None
                else encode_training_result(result.training)
            ),
            "timing": encode_timing(result.timing),
        },
    )


def decode_query_result(payload: Any) -> QueryResult:
    """Decode a ``query_result`` payload."""
    data = open_envelope(payload, "query_result")
    concept = data.get("concept")
    training = data.get("training")
    return QueryResult(
        query=decode_query(_field(data, "query_result", "query")),
        ranking=decode_ranking(_field(data, "query_result", "ranking")),
        concept=None if concept is None else decode_concept(concept),
        training=None if training is None else decode_training_result(training),
        timing=decode_timing(_field(data, "query_result", "timing")),
    )


def encode_cache_stats(stats: CacheStats) -> dict:
    """Encode :class:`~repro.core.cache.CacheStats` (engine/cache metadata)."""
    return envelope(
        "cache_stats",
        {
            "hits": stats.hits,
            "misses": stats.misses,
            "entries": stats.entries,
            "max_entries": stats.max_entries,
        },
    )


def decode_cache_stats(payload: Any) -> CacheStats:
    """Decode a ``cache_stats`` payload."""
    data = open_envelope(payload, "cache_stats")
    return CacheStats(
        hits=int(_field(data, "cache_stats", "hits")),
        misses=int(_field(data, "cache_stats", "misses")),
        entries=int(_field(data, "cache_stats", "entries")),
        max_entries=int(_field(data, "cache_stats", "max_entries")),
    )


# --------------------------------------------------------------------- #
# Generic dispatch                                                       #
# --------------------------------------------------------------------- #

_ENCODERS: tuple[tuple[type, Callable[[Any], dict]], ...] = (
    (Query, encode_query),
    (QueryTiming, encode_timing),
    (RankedImage, encode_ranked_image),
    (RetrievalResult, encode_ranking),
    (LearnedConcept, encode_concept),
    (StartRecord, encode_start_record),
    (TrainingResult, encode_training_result),
    (QueryResult, encode_query_result),
    (CacheStats, encode_cache_stats),
)

_DECODERS: dict[str, Callable[[Any], Any]] = {
    "query": decode_query,
    "query_timing": decode_timing,
    "ranked_image": decode_ranked_image,
    "ranking": decode_ranking,
    "concept": decode_concept,
    "start_record": decode_start_record,
    "training_result": decode_training_result,
    "query_result": decode_query_result,
    "cache_stats": decode_cache_stats,
}


def encode(obj: Any) -> dict:
    """Encode any wire DTO (dispatch on type).

    Raises:
        CodecError: for a type with no registered codec.
    """
    for cls, encoder in _ENCODERS:
        if isinstance(obj, cls):
            return encoder(obj)
    raise CodecError(f"no wire codec for {type(obj).__name__}")


def decode(payload: Any) -> Any:
    """Decode any wire payload (dispatch on its ``kind``).

    Raises:
        CodecError: for a malformed envelope, unknown kind or unsupported
            version.
    """
    data = open_envelope(payload)
    decoder = _DECODERS.get(data["kind"])
    if decoder is None:
        raise CodecError(f"unknown wire kind {data['kind']!r}")
    return decoder(data)


def wire_equal(a: Any, b: Any) -> bool:
    """Whether two DTOs are indistinguishable on the wire.

    The DTOs carry numpy arrays, which breaks plain ``==``; comparing the
    encoded forms gives exact structural (and exact float) equality — the
    round-trip property the codec tests assert is
    ``wire_equal(decode(encode(x)), x)``.
    """
    return encode(a) == encode(b)
