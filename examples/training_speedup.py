"""Training speed-ups: start subsets, lockstep restarts, the concept cache.

Part 1 — the paper's own speed-up (Section 4.3, Figure 4-22 workflow):
start minimisation from a subset of the positive bags and watch performance
hold while training time drops.

Part 2 — the trainer on top of it: the same feedback experiment trained
through a per-start loop (the inequality solver behind a custom scheme, which
the trainer runs on one start at a time), with every restart in lockstep (one
tensor pass per descent step, bit-identical results), with dynamic restart
pruning, and finally re-run against a shared trained-concept cache
(identical rounds skip training entirely).

    python examples/training_speedup.py
"""

import time

from repro import ConceptCache, ExperimentConfig, RetrievalExperiment, build_scene_database
from repro.core.diverse_density import DiverseDensityTrainer, TrainerConfig
from repro.core.feedback import FeedbackLoop, select_examples
from repro.core.schemes import InequalityScheme, WeightScheme
from repro.eval.reporting import ascii_table


def subset_sweep(database) -> None:
    """Figure 4-22 workflow — subset-of-bags training speed-up."""
    base = ExperimentConfig(
        target_category="waterfall",
        scheme="inequality",
        beta=0.5,
        n_positive=5,
        n_negative=5,
        rounds=2,
        false_positives_per_round=3,
        training_fraction=0.4,
        start_instance_stride=3,
        max_iterations=50,
        seed=21,
    )
    shared_split = None
    rows = []
    full_band = None
    for k in (1, 2, 3, 5):
        config = base.with_overrides(start_bag_subset=None if k == 5 else k)
        experiment = RetrievalExperiment(database, config, split=shared_split)
        shared_split = experiment.split
        print(f"training from {k}/5 positive bags ...")
        result = experiment.run()
        train_time = result.outcome.final_training.elapsed_seconds
        if k == 5:
            full_band = result.band_precision
        rows.append([f"{k}/5", result.band_precision, train_time])

    for row in rows:
        row.append(row[1] / full_band if full_band else 0.0)

    print()
    print(
        ascii_table(
            ["start bags", "band precision", "final-round train s", "relative"],
            rows,
            title="Figure 4-22 workflow — subset-of-bags training speed-up",
        )
    )
    print(
        "\npaper: 2/5 bags ~ 95% of full performance, 3/5 indistinguishable, "
        "at a fraction of the training time."
    )


class PerStartScheme(WeightScheme):
    """A custom scheme wrapping a built-in one.

    The trainer has no lockstep solver for a custom scheme, so it calls
    :meth:`optimize` on one start at a time: a plain per-start loop over the
    very solver the built-in scheme runs in lockstep.
    """

    name = "per-start"

    def __init__(self, inner: WeightScheme) -> None:
        super().__init__(inner.max_iterations, inner.gradient_tolerance)
        self._inner = inner

    def optimize(self, objective, t0, w0=None):
        return self._inner.optimize(objective, t0, w0)


def lockstep_and_cache_comparison(database) -> None:
    """Per-start loop vs lockstep vs pruned vs cached-feedback timings."""
    potential = [
        image_id
        for image_id in database.image_ids
        if int(image_id.rsplit("-", 1)[1]) < 8
    ]
    test = [i for i in database.image_ids if i not in set(potential)]
    selection = select_examples(database, potential, "waterfall", 5, 5, seed=4)
    inequality = InequalityScheme(beta=0.5, max_iterations=50)

    def loop_for(scheme: WeightScheme, margin: float | None, cache: ConceptCache | None):
        trainer = DiverseDensityTrainer(
            TrainerConfig(scheme=scheme, restart_prune_margin=margin)
        )
        return FeedbackLoop(
            corpus=database,
            trainer=trainer,
            target_category="waterfall",
            potential_ids=potential,
            test_ids=test,
            rounds=2,
            false_positives_per_round=3,
            cache=cache,
            warm_start=cache is not None,
        )

    rows = []
    cache = ConceptCache()
    variants = [
        ("per-start loop", PerStartScheme(inequality), None, None),
        ("lockstep", inequality, None, None),
        ("lockstep + prune(1.0)", inequality, 1.0, None),
        ("lockstep + cache (1st run)", inequality, None, cache),
        ("lockstep + cache (repeat)", inequality, None, cache),
    ]
    for label, scheme, margin, shared_cache in variants:
        print(f"running {label} ...")
        started = time.perf_counter()
        outcome = loop_for(scheme, margin, shared_cache).run(selection)
        elapsed = time.perf_counter() - started
        rows.append(
            [
                label,
                f"{elapsed:.2f}",
                f"{outcome.final_training.concept.nll:.4f}",
                outcome.final_training.n_starts_pruned,
            ]
        )
    stats = cache.stats
    print()
    print(
        ascii_table(
            ["configuration", "feedback wall s", "final NLL", "pruned"],
            rows,
            title="lockstep + concept-cache comparison (2 feedback rounds)",
        )
    )
    print(
        f"\nconcept cache: {stats.hits} hits / {stats.misses} misses — the "
        "repeated run retrained nothing; lockstep equals the per-start loop "
        "bit for bit."
    )


def main() -> None:
    print("building the scene database ...")
    database = build_scene_database(images_per_category=20, size=(80, 80), seed=9)
    database.precompute_features()
    subset_sweep(database)
    print()
    lockstep_and_cache_comparison(database)


if __name__ == "__main__":
    main()
