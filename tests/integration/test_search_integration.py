"""Integration: complete hyper-parameter searches under both methods."""

import pytest

from repro.core import ExperimentSettings, HyperparameterSpace
from repro.core.runner import DistMISRunner
from repro.raysim import ASHAScheduler


@pytest.fixture(scope="module")
def runner():
    return DistMISRunner(
        # the winner is listed second, so grid order cannot crown it
        space=HyperparameterSpace(
            {"learning_rate": [1e-7, 3e-3], "loss": ["dice"]}
        ),
        # the smallest scale at which both methods' lr=3e-3 trials learn
        # past the all-foreground Dice (0.0918); at base_filters=2 both
        # data-parallel trials end on it and tie
        settings=ExperimentSettings(
            num_subjects=8, volume_shape=(16, 16, 16), epochs=4,
            base_filters=4, depth=2, seed=0,
        ),
    )


class TestSearchAgreement:
    def test_both_methods_pick_the_same_winner(self, runner):
        """The two distribution methods explore the same space and must
        crown the same configuration (C2 at search level)."""
        dp = runner.run_inprocess("data_parallel", num_gpus=2)
        ep = runner.run_inprocess("experiment_parallel")
        for result in (dp, ep):
            winner, runner_up = sorted(result.outcomes,
                                       key=lambda o: o.val_dice,
                                       reverse=True)
            assert winner.val_dice > runner_up.val_dice
        assert dp.best().config["learning_rate"] == \
            ep.best().config["learning_rate"] == 3e-3

    def test_search_results_complete(self, runner):
        ep = runner.run_inprocess("experiment_parallel")
        assert len(ep.outcomes) == 2
        assert ep.analysis.num_errors() == 0
        table = ep.analysis.results_table("val_dice")
        assert all(row["val_dice"] is not None for row in table)


class TestEarlyStoppingSearch:
    def test_asha_saves_epochs_and_keeps_winner(self, tmp_path):
        from repro.core.experiment_parallel import run_search_inprocess

        settings = ExperimentSettings(
            num_subjects=8, volume_shape=(16, 16, 16), epochs=8,
            base_filters=2, depth=2, seed=0,
        )
        space = HyperparameterSpace(
            {"learning_rate": [3e-3, 1e-6, 1e-7, 1e-8]}
        )
        asha = ASHAScheduler("val_dice", grace_period=2, reduction_factor=2,
                             max_t=8, time_attr="epoch")
        result = run_search_inprocess(space, settings, scheduler=asha)
        total_epochs = sum(len(o.history) for o in result.outcomes)
        assert total_epochs < 4 * 8  # someone was stopped early
        assert result.analysis.best_config("val_dice")["learning_rate"] == 3e-3


class TestFailureInjection:
    def test_broken_trial_does_not_kill_search(self):
        """A trial that crashes is recorded as ERROR; the rest finish."""
        from repro.raysim import GridSearch, TrialStatus, tune_run

        def trainable(config, reporter):
            if config["learning_rate"] < 0:
                raise RuntimeError("simulated GPU OOM")
            reporter(val_dice=config["learning_rate"])
            return {"val_dice": config["learning_rate"]}

        analysis = tune_run(
            trainable,
            GridSearch({"learning_rate": [0.1, -1.0, 0.2]}),
        )
        assert analysis.num_errors() == 1
        assert analysis.best_config("val_dice") == {"learning_rate": 0.2}
        statuses = [t.status for t in analysis.trials]
        assert statuses.count(TrialStatus.TERMINATED) == 2
