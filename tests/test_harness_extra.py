"""Harness/metrics odds and ends not covered by the experiment smoke tests."""

import pytest

from repro.bench.harness import ExperimentTable, main


class TestTableRendering:
    def test_empty_table_renders(self):
        table = ExperimentTable(exp_id="e", title="empty", headers=("a", "b"))
        text = table.render()
        assert "empty" in text

    def test_small_float_scientific(self):
        table = ExperimentTable(exp_id="e", title="t", headers=("v",))
        table.add_row(0.0000005)
        assert "e-07" in table.render()

    def test_zero_float_plain(self):
        table = ExperimentTable(exp_id="e", title="t", headers=("v",))
        table.add_row(0.0)
        assert "0.000" in table.render()

    def test_unknown_column_raises(self):
        table = ExperimentTable(exp_id="e", title="t", headers=("a",))
        with pytest.raises(ValueError):
            table.column("nope")


class TestCliErrors:
    def test_unknown_experiment_exits_via_keyerror(self):
        from repro.bench.harness import run_experiment

        with pytest.raises(KeyError, match="known:"):
            run_experiment("not-an-experiment")

    def test_main_default_lists(self, capsys):
        assert main([]) == 0
        assert "fig4" in capsys.readouterr().out


class TestCsvExport:
    def test_table_to_csv(self, tmp_path):
        table = ExperimentTable(exp_id="e", title="t", headers=("a", "b"))
        table.add_row(1, 2.5)
        path = tmp_path / "e.csv"
        table.to_csv(path)
        content = path.read_text()
        assert content.splitlines()[0] == "a,b"
        assert "1,2.5" in content

    def test_cli_csv_flag(self, tmp_path, capsys):
        assert main(["fig1", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "fig1.csv").exists()
