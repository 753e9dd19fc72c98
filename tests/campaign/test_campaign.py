"""Campaign driver tests: bit-identity, scale-out invariance, merging.

The acceptance contract of the campaign layer: ``Campaign.run`` is nothing
but per-scenario ``ScreeningLine.screen_lot`` calls under deterministic
per-scenario seeds, shard-merged — so a campaign report is bit-identical
to the hand-rolled loop, and byte-identical for any worker count.
"""

import dataclasses

import pytest

from repro.campaign import Campaign, Scenario, scenario_child_seed
from repro.production import ExecutionPlan, ScreeningLine


def _strip_wall(report):
    """Reports modulo the one wall-clock (non-deterministic) field."""
    return dataclasses.replace(report, wall_seconds=0.0)


@pytest.fixture
def grid():
    """A 2x2(x q) scenario grid with acquisition noise and retest."""
    return Scenario(n_bits=8, n_devices=120, transition_noise_lsb=0.05,
                    retest_attempts=1, dnl_spec_lsb=0.5).grid(
        architecture=["flash", "sar"], method=["bist", "histogram"],
        q=[4, 8])


class TestDeterminism:
    def test_child_seeds_are_pure_functions(self):
        assert scenario_child_seed(7, 3) == scenario_child_seed(7, 3)
        assert scenario_child_seed(7, 3) != scenario_child_seed(7, 4)
        assert scenario_child_seed(7, 3) != scenario_child_seed(8, 3)

    def test_run_is_reproducible(self, grid):
        first = Campaign(grid, seed=11).run()
        second = Campaign(grid, seed=11).run()
        assert first.table() == second.table()
        assert first.records() == second.records()

    def test_campaign_pins_to_per_scenario_screen_lot(self, grid):
        """The acceptance criterion: Campaign.run == the hand-rolled
        per-scenario ScreeningLine.screen_lot loop with the same seeds."""
        campaign = Campaign(grid, seed=11)
        result = campaign.run()
        for scenario, label, seed, report in zip(
                grid, campaign.labels(), campaign.seeds(), result.reports):
            line = ScreeningLine(scenario)
            reference = line.screen_lot(
                scenario.draw_lot(seed=seed, lot_id=label), rng=seed)
            assert _strip_wall(report) == _strip_wall(reference)

    def test_explicit_scenario_seed_wins(self):
        pinned = Scenario(n_devices=50, seed=99)
        campaign = Campaign([pinned, pinned.derive(q=2, seed=None)],
                            seed=1)
        assert campaign.seeds() == [99, scenario_child_seed(1, 1)]


class TestScaleOutInvariance:
    def test_report_identical_for_any_worker_count(self, grid):
        """A noisy campaign grid at workers 2/4 is byte-identical to the
        serial workers=1 reference — the scale-out acceptance criterion
        at the campaign surface."""
        reference = Campaign(grid, seed=11).run(
            plan=ExecutionPlan(workers=1, chunk_size=64))
        for plan in (ExecutionPlan(workers=2, chunk_size=64),
                     ExecutionPlan(workers=4, chunk_size=29)):
            result = Campaign(grid, seed=11).run(plan=plan)
            assert result.table() == reference.table()
            assert result.to_json() == reference.to_json()
            assert result.store.summary() == reference.store.summary()
            for got, want in zip(result.reports, reference.reports):
                assert _strip_wall(got) == _strip_wall(want)


class TestSharedWafer:
    def test_all_methods_screen_identical_dies(self):
        base = Scenario(n_bits=6, n_devices=100, dnl_spec_lsb=0.5,
                        seed=3)
        scenarios = [base.derive(label="full"),
                     base.derive(q=2, label="partial"),
                     base.derive(method="histogram", label="histogram")]
        result = Campaign(scenarios, seed=3, shared_wafer=True).run()
        # One shared draw: the truth (true yield) is common to every row.
        p_good = {r.p_good for r in result.reports}
        assert len(p_good) == 1
        assert [r.lot_id for r in result.reports] == [
            "full", "partial", "histogram"]

    def test_mismatched_specs_are_rejected(self):
        base = Scenario(n_devices=100)
        with pytest.raises(ValueError):
            Campaign([base, base.derive(architecture="sar")],
                     shared_wafer=True)


class TestLabelsAndExport:
    def test_duplicate_labels_get_occurrence_suffixes(self):
        base = Scenario(n_devices=50)
        campaign = Campaign([base, base.derive(transition_noise_lsb=0.05),
                             base.derive(q=2)])
        assert campaign.labels() == ["flash/full", "flash/full [2]",
                                     "flash/partial q=2"]

    def test_suffix_never_collides_with_explicit_labels(self):
        """An explicit label that looks like a generated suffix must not
        merge a distinct scenario into its campaign_table row."""
        base = Scenario(n_devices=50)
        campaign = Campaign([base.derive(label="dup"),
                             base.derive(q=2, label="dup"),
                             base.derive(q=4, n_bits=8, label="dup [2]")])
        labels = campaign.labels()
        assert labels == ["dup", "dup [2]", "dup [2] [2]"]
        assert len(set(labels)) == len(labels)

    def test_records_and_csv(self, tmp_path):
        grid = Scenario(n_devices=60, n_bits=8).grid(q=[2, 4])
        result = Campaign(grid, seed=5).run()
        records = result.records()
        assert [r["label"] for r in records] == ["flash/partial q=2",
                                                 "flash/partial q=4"]
        assert all(r["devices"] == 60 for r in records)
        path = tmp_path / "campaign.csv"
        assert result.write_csv(str(path)) == 2
        lines = path.read_text().splitlines()
        assert lines[0].startswith("label,architecture,method")
        assert len(lines) == 3

    def test_single_scenario_accepted(self):
        result = Campaign(Scenario(n_devices=40), seed=2).run()
        assert len(result.reports) == 1

    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError):
            Campaign([])
