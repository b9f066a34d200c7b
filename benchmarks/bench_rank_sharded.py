"""Extension bench — sharded bound-pruned top-k vs the exhaustive Ranker.

Not a paper artefact.  The rank-index redesign gave the serving path a
two-stage shape: per-bag envelope lower bounds prune bags that provably
cannot enter the top ``k``, one best-first scan visits groups in
ascending-bound order and stops at the first one the cutoff rules out,
and survivors are re-ranked exactly.  This bench builds a clustered synthetic corpus (the
regime the index exists for: a *selective* concept whose top-k concentrates
in a small region of feature space), then races:

* the exhaustive :class:`~repro.core.retrieval.Ranker` (every instance
  scored on every query), against
* :class:`~repro.core.sharding.ShardedRanker` over a prebuilt
  :class:`~repro.core.sharding.ShardIndex` (the serving configuration — a
  warmed worker holds the index, so queries pay only the bound pass plus
  the survivors).

Assertions (at full scale): the orderings are identical — pruning is
exact, the deep equivalence lives in ``tests/test_property_sharded_rank``
— and the sharded path is at least 4x faster at 100k bags / ``top_k=50``.
The one-off index build is timed and reported separately (it is amortised
across a worker's lifetime and snapshotted by ``repro.serve``).

``REPRO_SHARD_BENCH_BAGS`` overrides the corpus size; the speedup floor
only applies at >= 100k bags, where the exhaustive kernel's instance
streaming dominates.  ``REPRO_SHARD_BENCH_FLOOR`` overrides the floor
itself: the default 4x holds on dedicated hardware, but shared CI runners
(2 oversubscribed cores, thread-scheduling noise) set it to 1.0 so the
step asserts "sharded beats exhaustive" without flaking on wall-clock
variance.  Results land in ``BENCH_rank.json`` via the shared JSON
reporter.

The corpus comes from :mod:`repro.datasets.synth` in feature mode: a
"clean" scenario (tight clusters, no clutter) over 64 categories is
exactly the regime this index exists for, and building it through the
generator means the bench exercises the same deterministic
``(seed, category, index)`` derivation the million-bag corpora use —
any corpus this bench times can be regenerated bit-identically.
"""

import os
import time

import numpy as np

from repro.core.concept import LearnedConcept
from repro.core.retrieval import Ranker
from repro.core.sharding import ShardIndex, ShardedRanker
from repro.datasets.synth import ScenarioConfig, corpus_from_config, feature_center
from repro.eval.reporting import ascii_table

N_BAGS = int(os.environ.get("REPRO_SHARD_BENCH_BAGS", "100000"))
N_DIMS = 16
N_CLUSTERS = 64
TOP_K = 50
SPEEDUP_FLOOR = float(os.environ.get("REPRO_SHARD_BENCH_FLOOR", "4.0"))
FULL_SCALE = 100_000
REPEATS = 5


def clustered_corpus(n_bags: int, seed: int = 11):
    """A synth feature-mode corpus: 64 tight clusters, ingested per category.

    Returns the packed corpus and its :class:`ScenarioConfig`.  Cluster
    spread is small relative to centre separation, so per-bag envelopes
    are tight and a concept near one centre is *selective*: almost every
    other cluster's bags are bound-prunable.  The generator emits bags
    category-by-category — exactly how every
    :class:`~repro.database.store.ImageDatabase` in this repo is populated
    — which is the layout the index's coarse group envelopes exploit.
    """
    config = ScenarioConfig(
        name="bench-clusters",
        mode="feature",
        categories=tuple(f"cluster-{c:02d}" for c in range(N_CLUSTERS)),
        bags_per_category=1,
        seed=seed,
        feature_dims=N_DIMS,
        instances_per_bag=6,
        cluster_spread=0.05,
    ).with_total_bags(n_bags)
    return corpus_from_config(config), config


def selective_concept(config: ScenarioConfig, seed: int = 23) -> LearnedConcept:
    """A trained-concept stand-in sitting near one category's centre."""
    rng = np.random.default_rng(seed)
    center = feature_center(config, config.categories[0])
    return LearnedConcept(
        t=center + rng.normal(scale=0.02, size=config.feature_dims),
        w=rng.uniform(0.5, 1.0, size=config.feature_dims),
        nll=0.0,
    )


def test_sharded_rank_vs_exhaustive(report, bench_json, best_of):
    packed, config = clustered_corpus(N_BAGS)
    concept = selective_concept(config)
    exhaustive = Ranker(auto_shard=False)
    sharded = ShardedRanker()

    build_started = time.perf_counter()
    index = ShardIndex.build(packed)
    build_s = time.perf_counter() - build_started

    # Orderings must be identical before anything is timed.
    fast = sharded.rank(concept, packed, top_k=TOP_K, index=index)
    slow = exhaustive.rank(concept, packed, top_k=TOP_K)
    assert fast.image_ids == slow.image_ids, "pruned ranking diverged"
    assert fast.total_candidates == slow.total_candidates == packed.n_bags

    exhaustive_s = best_of(
        REPEATS, lambda: exhaustive.rank(concept, packed, top_k=TOP_K)
    )
    sharded_s = best_of(
        REPEATS, lambda: sharded.rank(concept, packed, top_k=TOP_K, index=index)
    )
    speedup = exhaustive_s / sharded_s if sharded_s > 0 else float("inf")

    rows = [
        ["exhaustive Ranker", f"{exhaustive_s * 1e3:.2f}", "1.0x"],
        ["sharded (one best-first scan)",
         f"{sharded_s * 1e3:.2f}", f"{speedup:.1f}x"],
        ["index build (one-off)", f"{build_s * 1e3:.2f}", "-"],
    ]
    report(
        ascii_table(
            ["rank path", f"best of {REPEATS} (ms)", "speedup"],
            rows,
            title=(
                f"sharded rank bench: {packed.n_bags} bags, "
                f"{packed.n_instances} instances, top_k={TOP_K}"
            ),
        )
    )
    bench_json("rank", "sharded_vs_exhaustive", {
        "n_bags": packed.n_bags,
        "n_instances": packed.n_instances,
        "n_dims": N_DIMS,
        "top_k": TOP_K,
        "index_build_seconds": build_s,
        "exhaustive_seconds": exhaustive_s,
        "sharded_seconds": sharded_s,
        "exhaustive_ops_per_s": 1.0 / exhaustive_s,
        "sharded_ops_per_s": 1.0 / sharded_s,
        "speedup_vs_exhaustive": speedup,
        "orderings_identical": True,
    })

    # Below full scale both paths take microseconds and the index's
    # bound-pass overhead legitimately loses to the exhaustive
    # kernel (the reason AUTO_SHARD_MIN_BAGS exists), so reduced-scale
    # runs only report the timing — the ordering-identity assertion above
    # is the correctness gate.
    if N_BAGS >= FULL_SCALE:
        assert speedup > 1.0 and speedup >= SPEEDUP_FLOOR, (
            f"sharded top-{TOP_K} only {speedup:.1f}x faster than the "
            f"exhaustive ranker (needs >= {SPEEDUP_FLOOR}x at {N_BAGS} bags)"
        )
