"""Experiment harness: tiny-scale smoke runs of every table/figure."""

import pytest

from repro.bench import EXPERIMENTS, ExperimentTable, run_experiment
from repro.bench.harness import main


class TestHarness:
    def test_table_rendering(self):
        table = ExperimentTable(
            exp_id="t", title="demo", headers=("a", "b")
        )
        table.add_row(1, 0.5)
        table.add_row("x", 1e-6)
        table.add_note("shape holds")
        text = table.render()
        assert "demo" in text and "shape holds" in text
        assert "1.00e-06" in text

    def test_column_access(self):
        table = ExperimentTable(exp_id="t", title="demo", headers=("a", "b"))
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("b") == [2, 4]

    def test_registry_has_all_paper_experiments(self):
        import repro.bench.experiments  # noqa: F401

        for exp_id in ("fig1", "fig4", "fig10", "fig11", "fig12", "fig13",
                       "fig14", "bugs", "ablation"):
            assert exp_id in EXPERIMENTS

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("nope")

    def test_cli_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out


class TestExperimentSmoke:
    """Each experiment runs end to end at a tiny scale and produces rows
    with the paper-shape invariants that survive even tiny runs."""

    def test_fig1(self):
        table = run_experiment("fig1")
        assert len(table.rows) >= 25
        assert all(verdict != "NO" for verdict in table.column("matches paper"))

    def test_fig13_deduction_shape(self):
        table = run_experiment("fig13", scale=0.05, seed=1)
        rows = {row[0]: row for row in table.rows}
        blindw_w = next(v for k, v in rows.items() if k == "blindw-w")
        # BlindW-W overlaps are fully deduced (ww via intervals/locks).
        assert blindw_w[3] == pytest.approx(1.0)

    def test_bugs_leopard_finds_all(self):
        table = run_experiment("bugs", scale=0.5, seed=1)
        for row in table.rows:
            assert str(row[1]).startswith("found"), row

    def test_ablation_gc_off_uses_more_memory(self):
        table = run_experiment("ablation", scale=0.1, seed=1)
        rows = {row[0]: row for row in table.rows}
        full = rows["full leopard"]
        no_gc = rows["no garbage collection"]
        assert no_gc[2] > full[2]

    def test_fig4_beta_grows_with_skew_and_stays_small(self):
        table = run_experiment("fig4", scale=0.1, seed=1)
        by_theta = {
            row[0]: row[4] for row in table.rows if row[1:3] == (16, 0.5)
        }
        assert by_theta[0.99] > by_theta[0.2]
        assert all(beta < 0.5 for beta in table.column("beta"))

    def test_fig10_naive_sorter_buffers_the_whole_history(self):
        table = run_experiment("fig10", scale=0.1, seed=1)
        peaks = {row[:3]: row[4] for row in table.rows}
        for workload, txns, sorter in peaks:
            if sorter == "leopard":
                assert peaks[workload, txns, sorter] <= peaks[workload, txns, "naive"]
        # The naive sorter's peak is the history; on the longer runs the
        # pipeline has dispatched some of it before the last fetch.
        longest = max(txns for _, txns, _ in peaks)
        assert any(
            peaks[workload, txns, "leopard"] < peaks[workload, txns, "naive"]
            for workload, txns, sorter in peaks
            if sorter == "leopard" and txns == longest
        )

    def test_fig11_leopard_beats_cycle_search(self):
        table = run_experiment("fig11", scale=0.2, seed=1)
        both = [
            row for row in table.rows
            if row[0] == "txn scale" and row[4] != "-"
        ]
        largest = max(both, key=lambda row: row[1])
        leopard, cycle_search = largest[3], largest[4]
        assert leopard < cycle_search

    def test_fig14_cobra_without_gc_retains_the_history(self):
        """Counts, not timings: fence GC bounds Cobra's structures, and
        when the history doubles Leopard's peak grows less than that of
        Cobra without GC (at this scale Leopard's absolute count is still
        dominated by the 2048 initial versions)."""
        table = run_experiment("fig14", scale=0.1, seed=1)
        peaks = {
            (row[1], row[2]): row[4]
            for row in table.rows
            if row[0] == "txn scale" and row[4] != "-"
        }
        sizes = sorted({txns for txns, checker in peaks if checker == "cobra w/o GC"})
        for txns in sizes:
            assert peaks[txns, "cobra"] < peaks[txns, "cobra w/o GC"]
        small, large = sizes[-2:]
        leopard_growth = peaks[large, "leopard"] / peaks[small, "leopard"]
        cobra_growth = peaks[large, "cobra w/o GC"] / peaks[small, "cobra w/o GC"]
        assert leopard_growth < cobra_growth

    def test_skew_ntp_class_offsets_cost_nothing(self):
        table = run_experiment("skew", scale=0.1, seed=1)
        rows = {row[0]: row for row in table.rows}
        for offset_us in (0, 10, 50, 100):
            assert rows[offset_us][4] == 0, f"{offset_us}us: false positives"
        assert rows[100][3] > rows[0][3] * 0.5
