"""Unit tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.database.persistence import load_database, save_database
from repro.database.store import ImageDatabase
from repro.imaging.features import FeatureConfig
from repro.imaging.regions import region_family


@pytest.fixture()
def snapshot(tmp_path):
    """A small pre-built scene snapshot on disk."""
    from repro.datasets.loader import quick_database

    config = FeatureConfig(resolution=6, region_family=region_family("small9"))
    database = quick_database(
        "scenes", images_per_category=6, size=(48, 48), seed=2, feature_config=config
    )
    return str(save_database(database, tmp_path / "scenes.npz"))


class TestBuildDb:
    def test_builds_and_saves(self, tmp_path, capsys):
        out = tmp_path / "db.npz"
        code = main(
            [
                "build-db", "--kind", "objects", "--per-category", "2",
                "--size", "48", "--seed", "1", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        database = load_database(out)
        assert len(database) == 38
        assert "wrote" in capsys.readouterr().out


class TestInfo:
    def test_prints_categories(self, snapshot, capsys):
        assert main(["info", "--db", snapshot]) == 0
        output = capsys.readouterr().out
        assert "waterfall" in output
        assert "features:" in output

    def test_missing_db_errors(self, tmp_path, capsys):
        code = main(["info", "--db", str(tmp_path / "nope.npz")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestQuery:
    def test_ranks_and_reports(self, snapshot, capsys):
        code = main(
            [
                "query", "--db", snapshot, "--category", "sunset",
                "--scheme", "identical", "--positives", "2", "--negatives", "2",
                "--top", "5", "--seed", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "top 5 matches" in output
        assert "precision@5" in output

    def test_unknown_category_errors(self, snapshot, capsys):
        code = main(
            ["query", "--db", snapshot, "--category", "spaceships",
             "--positives", "2", "--negatives", "2"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_emdd_learner(self, snapshot, capsys):
        code = main(
            [
                "query", "--db", snapshot, "--category", "sunset",
                "--learner", "emdd", "--scheme", "identical",
                "--positives", "2", "--negatives", "2",
                "--top", "5", "--seed", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "emdd learner" in output
        assert "precision@5" in output

    def test_unknown_learner_errors(self, snapshot, capsys):
        code = main(
            ["query", "--db", snapshot, "--category", "sunset",
             "--learner", "frobnicator", "--positives", "2", "--negatives", "2"]
        )
        assert code == 2
        assert "unknown learner" in capsys.readouterr().err


class TestBatchQuery:
    def test_multi_category_batch(self, snapshot, capsys):
        code = main(
            [
                "batch-query", "--db", snapshot,
                "--categories", "sunset,waterfall",
                "--scheme", "identical", "--positives", "2", "--negatives", "2",
                "--top", "5", "--workers", "2", "--seed", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "batch of 2 queries" in output
        assert "sunset" in output and "waterfall" in output
        assert "throughput" in output

    def test_empty_categories_errors(self, snapshot, capsys):
        code = main(
            ["batch-query", "--db", snapshot, "--categories", " , "]
        )
        assert code == 2
        assert "no category names" in capsys.readouterr().err


class TestExperiment:
    def test_full_protocol(self, snapshot, capsys):
        code = main(
            [
                "experiment", "--db", snapshot, "--category", "sunset",
                "--scheme", "identical", "--rounds", "2",
                "--positives", "2", "--negatives", "2",
                "--training-fraction", "0.4", "--seed", "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "test AP" in output
        assert "round" in output


class TestVersionFlag:
    def test_version_printed(self, capsys):
        from repro.version import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestTopK:
    def test_top_k_flag_truncates(self, snapshot, capsys):
        code = main(
            [
                "query", "--db", snapshot, "--category", "sunset",
                "--scheme", "identical", "--positives", "2", "--negatives", "2",
                "--top-k", "3", "--seed", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "top 3 matches" in output
        assert "kept top 3" in output
        assert "precision@3" in output

    def test_legacy_top_alias_still_works(self, snapshot, capsys):
        code = main(
            [
                "query", "--db", snapshot, "--category", "sunset",
                "--scheme", "identical", "--positives", "2", "--negatives", "2",
                "--top", "3", "--seed", "3",
            ]
        )
        assert code == 0
        assert "top 3 matches" in capsys.readouterr().out

    def test_batch_query_top_k(self, snapshot, capsys):
        code = main(
            [
                "batch-query", "--db", snapshot, "--categories", "sunset",
                "--scheme", "identical", "--positives", "2", "--negatives", "2",
                "--top-k", "3", "--seed", "3",
            ]
        )
        assert code == 0
        assert "p@3" in capsys.readouterr().out


class TestTrainingFlags:
    def test_query_verbose_reports_training_and_cache(self, snapshot, capsys):
        code = main(
            [
                "query", "--db", snapshot, "--category", "waterfall",
                "--scheme", "identical", "--positives", "2", "--negatives", "2",
                "--seed", "3", "--verbose",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "wall time" in output
        assert "pruned" in output
        assert "concept cache:" in output

    def test_query_prune_margin(self, snapshot, capsys):
        code = main(
            [
                "query", "--db", snapshot, "--category", "waterfall",
                "--scheme", "identical", "--positives", "2", "--negatives", "2",
                "--seed", "3", "--restart-prune-margin", "0.5", "--verbose",
            ]
        )
        assert code == 0
        assert "pruned" in capsys.readouterr().out

    def test_unknown_engine_rejected(self, snapshot):
        # Training has one engine, so no command takes a flag to pick one.
        for command in ("query", "experiment"):
            for engine in ("batched", "sequential"):
                with pytest.raises(SystemExit) as exc:
                    main(
                        [
                            command, "--db", snapshot, "--category", "waterfall",
                            "--train-engine", engine,
                        ]
                    )
                assert exc.value.code == 2

    def test_batch_query_verbose_cache_stats(self, snapshot, capsys):
        code = main(
            [
                "batch-query", "--db", snapshot,
                "--categories", "sunset,sunset",
                "--scheme", "identical", "--positives", "2", "--negatives", "2",
                "--seed", "3", "--verbose",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "concept cache:" in output
        assert "restarts pruned" in output

    def test_experiment_verbose(self, snapshot, capsys):
        code = main(
            [
                "experiment", "--db", snapshot, "--category", "waterfall",
                "--scheme", "identical", "--rounds", "2",
                "--positives", "2", "--negatives", "2", "--verbose",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "final round:" in output
        assert "wall time" in output


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
