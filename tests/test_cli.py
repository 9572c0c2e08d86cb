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


MINIMAL_DOCUMENT = (
    "adaptdom-config 1", "[system]", "root = 1", "[objects]", "object 1 domain",
    "[hosts]", "host h1 capacity=100.0 leak=0.0 level=100.0 status=up",
    "[graph]", "component c kind=svc host=h1 state=active", "connection c out -> c in",
    "[scenario]", "traffic c period=5 start=0", "end-config",
)


class TestValidate:
    def test_valid_scenario(self, capsys):
        assert cli_main(["validate", SCENARIOS["rejuvenation"]]) == 0
        assert "ok" in capsys.readouterr().out

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("adaptdom-config 1\njunk without section\nend-config\n")
        assert cli_main(["validate", str(bad)]) == 2

    @pytest.mark.parametrize("line", [
        "component a kind=s.v host=h1 state=active",
        "connection c out -> c in:1",
        "host h|2 capacity=100.0 leak=0.0 level=100.0 status=up",
        "component c0!1 kind=w@b host=h$ state=active",
    ])
    def test_bad_token_exits_2(self, tmp_path, capsys, line):
        # Trace fields join names with `|`, `,`, `:`, `.` and `>`; a name
        # holding one would pass through a run and its replay misread.
        lines = list(MINIMAL_DOCUMENT)
        section = "[hosts]" if line.startswith("host") else "[graph]"
        lines.insert(lines.index(section) + 1, line)
        bad = tmp_path / "bad.cfg"
        bad.write_text("\n".join(lines) + "\n")
        assert cli_main(["validate", str(bad)]) == 2
        assert f"line {lines.index(line) + 1}: BadToken" in capsys.readouterr().err

    @pytest.mark.parametrize("line, problem", [
        ("component d kind=svc host=h1 state=bogus", "bad component line"),
        ("component d kind=svc host=h1", "bad component line"),
        ("component d  kind=svc host=h1 state=active", "bad component line"),
        ("connection c out c in", "bad connection line"),
        ("component c kind=db host=h1 state=active", "duplicate component 'c'"),
        ("connection c out -> c in", "duplicate connection 'c out -> c in'"),
        ("[component d kind=svc host=h1 state=active", "bad graph line"),
    ])
    def test_bad_graph_line_exits_2(self, tmp_path, capsys, line, problem):
        # The last line of the graph section is the bad one.
        lines = list(MINIMAL_DOCUMENT)
        lines.insert(lines.index("[scenario]"), line)
        bad = tmp_path / "bad.cfg"
        bad.write_text("\n".join(lines) + "\n")
        assert cli_main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"line {lines.index('[scenario]')}: {problem}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line, problem", [
        ("traffic c period=0 start=0", "traffic period must be positive, got 0"),
        ("traffic c period=-5 start=0", "traffic period must be positive, got -5"),
        ("fault 100 kill", "fault kill takes <host>"),
        ("fault 100 leak h1", "fault leak takes <host> <rate>"),
        ("fault 100 leak h1 abc", "fault leak: rate 'abc' is not a finite number"),
        ("fault 100 explode h1", "unknown fault kind 'explode'"),
        ("probe 1 liveness", "probe liveness takes <host>"),
        ("probe 1 bogus h1", "unknown probe kind 'bogus'"),
    ])
    def test_scenario_line_the_simulator_cannot_run_exits_2(self, tmp_path, capsys, line,
                                                            problem):
        lines = list(MINIMAL_DOCUMENT)
        lines.insert(lines.index("end-config"), line)
        bad = tmp_path / "bad.cfg"
        bad.write_text("\n".join(lines) + "\n")
        # `validate` goes first: were a period of 0 let through, the test
        # fails there instead of starting a run that never returns.
        for argv in (["validate", str(bad)], ["run", str(bad), "--until", "200"]):
            capsys.readouterr()
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert f"line {lines.index(line) + 1}: {problem}" in err
            assert "Traceback" not in err

    def test_host_status_other_than_up_or_down_exits_2(self, tmp_path, capsys):
        # Once read as down: every host of the scenario loaded dead.
        with open(SCENARIOS["healing"]) as fh:
            lines = fh.read().splitlines()
        lineno = lines.index("host hostA capacity=1000.0 leak=0.0 level=1000.0 status=up") + 1
        bad = tmp_path / "status.cfg"
        bad.write_text("\n".join(lines).replace("status=up", "status=Up") + "\n")
        for argv in (["validate", str(bad)], ["run", str(bad), "--until", "300"]):
            capsys.readouterr()
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert f"line {lineno}: host hostA: status must be up or down, got 'Up'" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("scenario, line, edited, problem", [
        ("healing", "jitter = 0", "jitter = yes", "jitter: 'yes' is not an integer"),
        ("healing", "reconfig_latency = 1", "reconfig_latency = abc",
         "reconfig_latency: 'abc' is not an integer"),
        ("healing", "host_object.hostA = 6", "host_object.hostA = abc",
         "host_object.hostA: 'abc' is not an integer"),
        ("healing", "liveness_period = 10", "liveness_period = 1e400",
         "liveness_period: inf is not an integer"),
        ("healing", "name = healing-demo", "name = a b", "name: 'a b' is not a token"),
        ("rejuvenation", "exhaustion_critical = 0.0", "exhaustion_critical = hi",
         "exhaustion_critical: 'hi' is not a finite number"),
    ])
    def test_a_scenario_key_the_program_cannot_read_exits_2(self, tmp_path, capsys, scenario,
                                                            line, edited, problem):
        with open(SCENARIOS[scenario]) as fh:
            text = fh.read()
        assert f"\n{line}\n" in text
        bad = tmp_path / "key.cfg"
        bad.write_text(text.replace(f"\n{line}\n", f"\n{edited}\n"))
        for argv in (["validate", str(bad)], ["run", str(bad), "--until", "300"]):
            capsys.readouterr()
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert f"scenario key {problem}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("scenario, line, edited, problem", [
        ("healing", "policy.cooldown = 50", "policy.cooldown = abc",
         "/healing key policy.cooldown: 'abc' is not a finite number"),
        ("healing", "policy.cooldown = 50", "policy.cooldown = 1e400",
         "/healing key policy.cooldown: inf is not a finite number"),
        ("healing", "policy.enabled = 1", "policy.enabled = yes",
         "/healing key policy.enabled: 'yes' is not 0 or 1"),
        ("healing", "policy.enabled = 1", "policy.enabled = 2",
         "/healing key policy.enabled: 2 is not 0 or 1"),
        ("healing", "policy.source = human", "policy.source = bogus",
         "/healing key policy.source: 'bogus' is not human or parent"),
        ("healing", "policy.cooldown = 50", "policy.cooldwn = 50",
         "/healing key policy.cooldwn: not a policy key"),
        ("rejuvenation", "strategy.window = 300", "strategy.window = abc",
         "/rejuvenation key strategy.window: 'abc' is not an integer"),
        ("rejuvenation", "strategy.margin = 100.0", "strategy.margin = hi",
         "/rejuvenation key strategy.margin: 'hi' is not a finite number"),
        ("optimization", "strategy.period = 50", "strategy.period = 5.5",
         "/optimization key strategy.period: 5.5 is not an integer"),
        ("healing", "param.count = 1", "param.count = abc",
         "/healing key param.count: 'abc' is not a finite number"),
        ("healing", "param.placement_weight = 1.0", "param.placement_weight = heavy",
         "/healing key param.placement_weight: 'heavy' is not a finite number"),
        ("optimization", "param.limit = 0.5", "param.limit = 1e400",
         "/optimization key param.limit: inf is not a finite number"),
        # Too large for a float: once an OverflowError traceback.
        ("healing", "param.count = 1", "param.count = " + "9" * 400,
         "/healing key param.count: " + "9" * 400 + " is not a finite number"),
    ])
    def test_a_logic_value_the_program_cannot_read_exits_2(self, tmp_path, capsys, scenario,
                                                           line, edited, problem):
        with open(SCENARIOS[scenario]) as fh:
            text = fh.read()
        assert f"\n{line}\n" in text
        bad = tmp_path / "logic.cfg"
        bad.write_text(text.replace(f"\n{line}\n", f"\n{edited}\n"))
        for argv in (["validate", str(bad)], ["run", str(bad), "--until", "300"]):
            capsys.readouterr()
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert f"logic {problem}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("line, edited, problem", [
        # Misspelt, the filter has nothing to pass and the domain never decides.
        ("param.event_types = host_failed", "param.event_type = host_failed",
         "logic /healing key param.event_types: required, and not set"),
        ("param.count = 1", "param.cuont = 1",
         "logic /healing key param.cuont: not read by failure_count, event_type_filter or cooldown"),
        ("liveness_period = 10", "liveness_period = 10\nliveness_perod = 5",
         "scenario key liveness_perod: not a scenario key"),
        ("strategy = reactive", "strategy = reactive\nstrategy.windw = 5",
         "logic /healing key strategy.windw: not a reactive strategy field"),
        ("traffic c02,c06,c10 period=7 start=3", "traffic c02,c06,c10 period=7 strat=3",
         "key strat: not a traffic attribute"),
        ("host hostA capacity=1000.0 leak=0.0 level=1000.0 status=up",
         "host hostA capacity=1000.0 leak=0.0 level=1000.0 status=up colour=red",
         "key colour: not a host attribute"),
        ("analyze = failure_count", "analyze = failure_cout",
         "logic /healing key analyze: 'failure_cout' is not a registered analyze stage"),
        ("strategy = reactive", "strategy = reactiv",
         "logic /healing key strategy: 'reactiv' is not a strategy"),
        ("host_object.hostC = 8", "host_object.hostC = 8\nhost_object.hostZ = 8",
         "scenario key host_object.hostZ: not a host"),
    ])
    def test_a_key_nothing_reads_exits_2(self, tmp_path, capsys, line, edited, problem):
        # Each of these edits of healing.cfg once validated and ran.
        with open(SCENARIOS["healing"]) as fh:
            text = fh.read()
        assert f"\n{line}\n" in text
        bad = tmp_path / "key.cfg"
        bad.write_text(text.replace(f"\n{line}\n", f"\n{edited}\n"))
        for argv in (["validate", str(bad)], ["run", str(bad), "--until", "300"]):
            capsys.readouterr()
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert problem in err
            assert "Traceback" not in err

    def test_a_repeated_scenario_key_exits_2_naming_its_line(self, tmp_path, capsys):
        with open(SCENARIOS["healing"]) as fh:
            lines = fh.read().splitlines()
        lineno = lines.index("jitter = 0") + 2
        lines.insert(lineno - 1, "jitter = 1")
        bad = tmp_path / "twice.cfg"
        bad.write_text("\n".join(lines) + "\n")
        assert cli_main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"line {lineno}: repeated scenario key 'jitter'" in err
        assert "Traceback" not in err

    def test_bar_in_ids_exits_2(self, tmp_path):
        bad = tmp_path / "bar.cfg"
        bad.write_text(
            "adaptdom-config 1\n[system]\nroot = 1\n[objects]\nobject 1 domain\n"
            "[hosts]\nhost h1 capacity=100.0 leak=0.0 level=100.0 status=up\n"
            "[graph]\ncomponent a|b kind=svc host=h1 state=active\n"
            "component c kind=svc host=h1 state=active\nconnection a|b out -> c in\n"
            "[scenario]\ntraffic a|b,c period=5 start=0\nend-config\n"
        )
        assert cli_main(["validate", str(bad)]) == 2
        assert cli_main(["run", str(bad), "--until", "10"]) == 2

    def test_dangling_reference_exits_1(self, tmp_path):
        bad = tmp_path / "dangling.cfg"
        bad.write_text(
            "adaptdom-config 1\n[system]\nroot = 1\n[objects]\nobject 1 domain\n"
            "[domain 1 /]\nghost = 9\nend-config\n"
        )
        assert cli_main(["validate", str(bad)]) == 1

    def test_a_port_conflict_exits_1_naming_the_connection(self, tmp_path, capsys):
        # A second connection from one source port: every heal of the run
        # would be rejected with a PortConflict, and replay would fail.
        with open(SCENARIOS["healing"]) as fh:
            text = fh.read()
        line = "connection c08 out -> c12 in\n"
        assert line in text
        bad = tmp_path / "port.cfg"
        bad.write_text(text.replace(line, line + "connection c08 out -> c11 in\n"))
        for argv in (["validate", str(bad)], ["run", str(bad), "--until", "300"]):
            capsys.readouterr()
            assert cli_main(argv) == 1
            err = capsys.readouterr().err
            assert "connection c08 out -> c11 in: port c08 out is already connected" in err
            assert "Traceback" not in err


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
        "component c01 kind=web host=hostB state=active",
        "component c0!1 kind=w@b host=h$ state=active",
        "connection c01 out -> c05 in",
    ])
    def test_malformed_graph_line_is_a_graph_problem(self, report_file, tmp_path, capsys,
                                                       graph_line):
        problem = {
            "component c01 kind=web host=hostB state=active": "duplicate component 'c01'",
            "component c0!1 kind=w@b host=h$ state=active": "BadToken: invalid token: 'c0!1'",
            "connection c01 out -> c05 in": "duplicate connection 'c01 out -> c05 in'",
        }.get(graph_line, "bad component line")
        report = RunReport.parse(report_file.read_text())
        if graph_line.startswith("connection"):
            assert graph_line in report.graph_lines
        report.graph_lines.append(graph_line)
        bad = tmp_path / "graph.report"
        bad.write_text(report.render())
        capsys.readouterr()
        assert cli_main(["replay", str(bad)]) == 1
        err = capsys.readouterr().err
        assert f"graph: line {len(report.graph_lines)}: {problem}" in err
        assert "Traceback" not in err


class TestDumpGraph:
    def test_dump_graph_prints_components(self, report_file, capsys):
        assert cli_main(["dump-graph", str(report_file)]) == 0
        out = capsys.readouterr().out
        assert out.count("component ") == 12


class TestUndecodable:
    @pytest.mark.parametrize("command", ["replay", "validate", "tree", "dump-graph", "run"])
    def test_a_byte_outside_utf8_exits_2_naming_the_file(self, report_file, tmp_path, capsys,
                                                          command):
        source = report_file if command in ("replay", "dump-graph") else SCENARIOS["healing"]
        with open(source, "rb") as fh:
            data = bytearray(fh.read())
        data[len(data) // 2] = 0xFF
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(data))
        capsys.readouterr()
        assert cli_main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad} is not valid UTF-8" in err
        assert "Traceback" not in err


class TestUsage:
    def test_unknown_flag(self):
        assert cli_main(["run", SCENARIOS["healing"], "--frobnicate"]) == 2

    def test_unknown_subcommand(self):
        assert cli_main(["explode"]) == 2

    def test_no_arguments(self):
        assert cli_main([]) == 2
