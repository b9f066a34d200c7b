"""Output checks and process hygiene.

Only paths that promise exactness are compared:

* every ``rank`` reply against the exhaustive, id-tie-broken ranking of the
  same concept (``Ranker(auto_shard=False)``), and a seeded sample against
  the per-bag reference loop ``rank_by_loop``;
* every ``interactive`` ranking against ``rank_by_loop`` on the concept the
  reply returned, with the examples excluded;
* a seeded sample of ``interactive`` example sets refitted in this process
  with a fresh, cache-less service, which must give a bit-identical concept.

Ids, categories and ranks must be identical.  Distances must agree within
the equivalence suite's ``rtol=1e-12`` or within the rounding bound of the
expanded quadratic form the rank kernels evaluate,
``n_dims * eps * w . (extent + |t|)^2`` times the same safety factor of 8
that ``ShardIndex.prune_floor`` documents.  The relative term alone cannot
hold here: cluster-centred concepts have top-50 distances down to 0.003,
where the exhaustive kernel (one product over the whole instance matrix)
and the pruned kernel (a product over gathered rows) round differently.
Over the 240 concepts of seeds 1 and 2 the gap reached 1.1e-13 absolute,
1e-11 relative and 0.2% of the bound, with identical orderings.
"""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.api.service import RetrievalService
from repro.core.retrieval import Ranker, rank_by_loop
from repro.serve import codec

RTOL = 1e-12
KERNEL_ROUNDING_SAFETY = 8.0
RANK_LOOP_SAMPLES = 1
REFIT_SAMPLES = 2


def kernel_atol(extent: np.ndarray, concept) -> float:
    """Absolute rounding bound of the expanded distance kernel for a concept."""
    scale = float(concept.w @ (extent + np.abs(concept.t)) ** 2)
    eps = float(np.finfo(np.float64).eps)
    return KERNEL_ROUNDING_SAFETY * concept.n_dims * eps * scale


def ranking_mismatch(got, want, atol: float = 0.0) -> str | None:
    """Why ``got`` differs from ``want``, or ``None`` when they agree."""
    if got.image_ids != want.image_ids:
        return "image ids differ"
    if [e.category for e in got] != [e.category for e in want]:
        return "categories differ"
    if [e.rank for e in got] != [e.rank for e in want]:
        return "ranks differ"
    got_d, want_d = np.asarray(got.distances), np.asarray(want.distances)
    if not np.all(np.abs(got_d - want_d) <= np.maximum(RTOL * np.abs(want_d), atol)):
        return f"distances differ by up to {np.max(np.abs(got_d - want_d)):.3g}"
    return None


def check_rank(ops, traffic, packed, top_k: int, seed: int) -> list[str]:
    """Every rank reply against the exhaustive oracle; a sample against the loop."""
    problems = []
    used = sorted({op.key for op in ops if op.ok})
    exhaustive = Ranker(auto_shard=False)
    extent = np.abs(packed.instances).max(axis=0)

    def oracle(index):
        return exhaustive.rank(traffic.concepts[index], packed, top_k=top_k)

    with ThreadPoolExecutor(max_workers=2) as pool:
        oracles = dict(zip(used, pool.map(oracle, used)))
    replies = {}
    for op in ops:
        if not op.ok:
            continue
        payload = codec.open_envelope(json.loads(op.reply), "rank_result")
        got = codec.decode_ranking(payload["ranking"])
        want = oracles[op.key]
        atol = kernel_atol(extent, traffic.concepts[op.key])
        why = ranking_mismatch(got, want, atol)
        if why is None and got.total_candidates != want.total_candidates:
            why = "total_candidates differ"
        if why is not None:
            problems.append(f"rank concept {op.key}: {why} (exhaustive)")
        replies[op.key] = got
    rng = np.random.default_rng([seed, 3])
    sample = rng.choice(used, size=min(RANK_LOOP_SAMPLES, len(used)), replace=False)
    for index in sample:
        concept = traffic.concepts[index]
        want = rank_by_loop(concept, packed.candidates())
        why = ranking_mismatch(
            replies[index], want.truncate(top_k), kernel_atol(extent, concept)
        )
        if why is not None:
            problems.append(f"rank concept {index}: {why} (rank_by_loop)")
    return problems


def check_interactive(ops, database, params: dict, seed: int) -> list[str]:
    """Rankings against the loop; a seeded sample of fits refitted in-process."""
    problems = []
    packed = database.packed()
    candidates = list(packed.candidates())
    extent = np.abs(packed.instances).max(axis=0)
    checked = []
    for op in ops:
        if not op.ok:
            continue
        if op.kind == "query":
            concept, ranking = op.reply.concept, op.reply.ranking
        else:
            concept, ranking = op.reply["concept"], op.reply["ranking"]
        examples = (*op.key["positives"], *op.key["negatives"])
        want = rank_by_loop(concept, candidates, exclude=examples)
        why = ranking_mismatch(ranking, want, kernel_atol(extent, concept))
        if why is not None:
            problems.append(f"{op.kind} {examples}: {why} (rank_by_loop)")
        checked.append((op, concept))
    rng = np.random.default_rng([seed, 3])
    picks = rng.choice(len(checked), size=min(REFIT_SAMPLES, len(checked)), replace=False)
    fresh = RetrievalService(database, cache_size=None)
    for pick in picks:
        op, concept = checked[pick]
        fitted = fresh.fit(
            op.key["positives"], op.key["negatives"], learner="dd", params=params
        )
        refit = fitted.model.concept
        if not (np.array_equal(refit.t, concept.t) and np.array_equal(refit.w, concept.w)):
            problems.append(f"{op.kind} {op.key}: refit concept differs")
    return problems


def reap_leftovers(segments) -> list[str]:
    """Report, then kill or unlink, any child process (pool workers
    included) or shared-memory segment that outlived the teardown."""
    problems = []
    for child in multiprocessing.active_children():
        problems.append(f"child process {child.pid} ({child.name}) survived")
        child.kill()
        child.join(timeout=5.0)
    for name in segments:
        path = Path("/dev/shm", name.lstrip("/"))
        if path.exists():
            problems.append(f"shared-memory segment {name} survived")
            path.unlink()
    return problems


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker and wait for it to exit.

    Creating a shared-memory segment starts the tracker as a child of this
    process; it otherwise outlives the benchmark by a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if callable(stop):
        stop()
