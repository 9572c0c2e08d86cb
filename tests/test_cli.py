"""Command-line surface and exit codes."""

import pytest

from adaptdom.cli import cli_main
from adaptdom.report import RunReport

from conftest import SCENARIOS


@pytest.fixture
def report_file(tmp_path):
    path = tmp_path / "healing.report"
    code = cli_main([
        "run", SCENARIOS["healing"], "--seed", "7", "--until", "400",
        "--report", str(path),
    ])
    assert code == 0
    return path


class TestRun:
    def test_run_writes_report(self, report_file):
        text = report_file.read_text()
        assert text.startswith("adaptdom-report 1\n")
        assert "scenario healing-demo seed=7 until=400" in text

    def test_run_to_stdout(self, capsys):
        assert cli_main(["run", SCENARIOS["healing"], "--until", "200"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("adaptdom-report 1\n")

    def test_missing_scenario_file(self):
        assert cli_main(["run", "nowhere.cfg"]) == 2


class TestTree:
    def test_tree_lists_attribute_domains(self, capsys):
        assert cli_main(["tree", SCENARIOS["healing"]]) == 0
        out = capsys.readouterr().out
        for token in ("healing", "optimization", "rejuvenation", "configuration"):
            assert token in out
        assert "logic=healing strategy=reactive" in out

    def test_tree_deterministic(self, capsys):
        cli_main(["tree", SCENARIOS["healing"]])
        first = capsys.readouterr().out
        cli_main(["tree", SCENARIOS["healing"]])
        assert capsys.readouterr().out == first


class TestValidate:
    def test_valid_scenario(self, capsys):
        assert cli_main(["validate", SCENARIOS["rejuvenation"]]) == 0
        assert "ok" in capsys.readouterr().out

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("adaptdom-config 1\njunk without section\nend-config\n")
        assert cli_main(["validate", str(bad)]) == 2

    def test_dangling_reference_exits_1(self, tmp_path):
        bad = tmp_path / "dangling.cfg"
        bad.write_text(
            "adaptdom-config 1\n[system]\nroot = 1\n[objects]\nobject 1 domain\n"
            "[domain 1 /]\nghost = 9\nend-config\n"
        )
        assert cli_main(["validate", str(bad)]) == 1


class TestReplay:
    def test_replay_clean_report(self, report_file):
        assert cli_main(["replay", str(report_file)]) == 0

    def test_corrupting_any_line_fails_replay(self, report_file, tmp_path):
        lines = report_file.read_text().splitlines()
        # Corrupt a spread of lines, including ones no semantic invariant
        # covers; the checksum must still catch them.
        for index in (1, 3, len(lines) // 2, len(lines) - 3):
            mutated = list(lines)
            mutated[index] = mutated[index] + "x"
            bad = tmp_path / f"bad{index}.report"
            bad.write_text("\n".join(mutated) + "\n")
            assert cli_main(["replay", str(bad)]) == 1

    def test_deleting_a_line_fails_replay(self, report_file, tmp_path):
        lines = report_file.read_text().splitlines()
        mutated = lines[:5] + lines[6:]
        bad = tmp_path / "short.report"
        bad.write_text("\n".join(mutated) + "\n")
        assert cli_main(["replay", str(bad)]) == 1

    @pytest.mark.parametrize("graph_line", [
        "component a kind=web state=active",
        "component a kind=web host=h1 state=bogus",
        "component",
    ])
    def test_malformed_graph_line_is_a_graph_problem(self, report_file, tmp_path, capsys,
                                                       graph_line):
        report = RunReport.parse(report_file.read_text())
        report.graph_lines.append(graph_line)
        bad = tmp_path / "graph.report"
        bad.write_text(report.render())
        capsys.readouterr()
        assert cli_main(["replay", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"graph: line {len(report.graph_lines)}: bad component line" in err
        assert "Traceback" not in err


class TestDumpGraph:
    def test_dump_graph_prints_components(self, report_file, capsys):
        assert cli_main(["dump-graph", str(report_file)]) == 0
        out = capsys.readouterr().out
        assert out.count("component ") == 12


class TestUsage:
    def test_unknown_flag(self):
        assert cli_main(["run", SCENARIOS["healing"], "--frobnicate"]) == 2

    def test_unknown_subcommand(self):
        assert cli_main(["explode"]) == 2

    def test_no_arguments(self):
        assert cli_main([]) == 2
