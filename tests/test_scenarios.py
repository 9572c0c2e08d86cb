"""Properties over generated scenario documents (`scenarios.documents`):
whole runs replay clean, the document text is canonical, and a misspelt
or unknown key is refused naming it."""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adaptdom.adaptation import ANALYZERS, MONITORS, POLICY_KEYS, REGULATORS, STRATEGIES
from adaptdom.cli import cli_main
from adaptdom.keys import keys_of
from adaptdom.persistence import LINE_ATTRS, load_config, parse_document, render_document
from adaptdom.report import verify_report
from adaptdom.simharness import Simulator
from adaptdom.system import SCENARIO_KEYS

from scenarios import documents

# Every key name a document can spell, with its section's prefix.
DECLARED = (
    {"root", "name", "strategy", "analyze", "monitor", "audit", "regulate", "execute"}
    | {key.name for key in SCENARIO_KEYS}
    | {f"strategy.{key.name}" for cls in STRATEGIES.values() for key in keys_of(cls)}
    | {f"policy.{key.name}" for key in POLICY_KEYS}
    | {f"param.{key.name}" for registry in (MONITORS, ANALYZERS, REGULATORS)
       for stage in registry.values() for key in stage.params}
    | {key.name for keys in LINE_ATTRS.values() for key in keys}
)


@settings(max_examples=100, deadline=None)
@given(doc=documents(), seed=st.integers(0, 3))
def test_every_generated_run_replays_clean(doc, seed):
    # Loaded from its text, as `validate` and `run` load it.
    text = Simulator(load_config(render_document(doc)), seed=seed).run(400).render()
    assert verify_report(text) == []


@settings(max_examples=100, deadline=None)
@given(doc=documents())
def test_render_parse_render_is_a_fixpoint(doc):
    text = render_document(doc)
    assert render_document(parse_document(text)) == text


def key_spans(lines: list[str]) -> list[tuple[int, int, int]]:
    """The (line, start, end) of each declared key name in a document's
    lines: the key of a `key = value` line outside a domain section (of a
    `host_object.<host>` key, the family's name), and each attribute name
    of a sensor, host, link or traffic line."""
    spans, section = [], None
    for i, line in enumerate(lines):
        if line.startswith("["):
            section = line.strip("[]").split()[0]
        elif section in ("system", "logic", "scenario") and " = " in line:
            key = line.partition(" = ")[0]
            spans.append((i, 0, len("host_object") if key.startswith("host_object.") else len(key)))
        elif line.split()[0] in LINE_ATTRS:
            at = 0
            for part in line.split(" "):
                if "=" in part:
                    spans.append((i, at, at + part.index("=")))
                at += len(part) + 1
    return spans


@st.composite
def mutations(draw):
    """A generated document's lines with one key misspelt or one unknown
    key added, and the key as the error must name it."""
    lines = render_document(draw(documents())).splitlines()
    if draw(st.booleans()):
        i, start, end = draw(st.sampled_from(key_spans(lines)))
        line = lines[i]
        at = draw(st.integers(start, end - 1))
        char = draw(st.sampled_from("abcdefghijklmnopqrstuvwxyz_0123456789").filter(
            lambda c: c != line[at]))
        lines[i] = line[:at] + char + line[at + 1:]
        name = lines[i][start:].split(" = ")[0].split("=")[0] if start else lines[i].split(" = ")[0]
        if name in DECLARED:
            return draw(mutations())
        return lines, name
    name = "zz_" + draw(st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6))
    where = draw(st.sampled_from(("logic", "scenario", "host", "sensor")))
    if where in ("host", "sensor"):
        i = next(i for i, line in enumerate(lines) if line.startswith(f"{where} "))
        lines[i] += f" {name}=1"
    else:
        i = next(i for i, line in enumerate(lines) if line.startswith(f"[{where}"))
        prefix = draw(st.sampled_from(("", "param.", "policy.", "strategy."))) if where == "logic" else ""
        name = prefix + name
        lines.insert(i + 1, f"{name} = 1")
    return lines, name


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated=mutations())
def test_a_misspelt_or_unknown_key_exits_2_naming_it(mutated, capsys):
    lines, name = mutated
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.cfg"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert name in err
    assert "Traceback" not in err
