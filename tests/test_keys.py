"""Declared keys: the README's key tables against the declarations, and
`read_keys` itself."""

from dataclasses import MISSING
from enum import Enum
from pathlib import Path

import pytest

from adaptdom.adaptation import (
    ANALYZERS, AUDITORS, EXECUTORS, MONITORS, POLICY_KEYS, REGULATORS, STRATEGIES,
)
from adaptdom.errors import ScenarioParseError
from adaptdom.keys import INTEGER, NUMBER, WHOLE, Key, keys_of, read_keys
from adaptdom.persistence import LINE_ATTRS
from adaptdom.system import SCENARIO_KEYS
from adaptdom.trace import format_scalar

README = Path(__file__).resolve().parent.parent / "README.md"


def shown(default) -> str:
    """A default as the README's tables write it."""
    if default is MISSING:
        return "required"
    if default is None:
        return "unset"
    if isinstance(default, Enum):
        return default.value
    return format_scalar(default) if default != "" else '""'


def readme_tables() -> dict[str, list[tuple[str, ...]]]:
    """Each table of the README's "Document keys" section, by the
    declaration its caption names, as rows of cells without backticks."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Document keys"):]
    section = section[:section.index("\n## ")]
    tables: dict[str, list[tuple[str, ...]]] = {}
    caption = ""
    for line in section.splitlines():
        if line.startswith("|"):
            cells = tuple(cell.strip().strip("`") for cell in line.strip("|").split("|"))
            if set(cells[0]) - {"-", " "} and caption not in tables:
                tables[caption] = []  # the header row
            elif set(cells[0]) - {"-", " "}:
                tables[caption].append(cells)
        elif line:
            for name in ("SCENARIO_KEYS", "STRATEGIES", "POLICY_KEYS", "MONITORS", "LINE_ATTRS"):
                if f".{name}`" in line:
                    caption = name
    return tables


def test_the_readme_key_tables_are_the_declarations():
    tables = readme_tables()
    assert sorted(tables) == sorted(
        ["SCENARIO_KEYS", "STRATEGIES", "POLICY_KEYS", "MONITORS", "LINE_ATTRS"])
    assert [row[:3] for row in tables["SCENARIO_KEYS"]] == [
        (key.name, key.type.wants, shown(key.default)) for key in SCENARIO_KEYS
    ] + [("host_object.<host>", "an integer", "required")]
    assert tables["STRATEGIES"] == [
        (name, key.name, key.type.wants, shown(key.default))
        for name, cls in STRATEGIES.items() for key in keys_of(cls)]
    assert [row[:3] for row in tables["POLICY_KEYS"]] == [
        (key.name, key.type.wants, shown(key.default)) for key in POLICY_KEYS]
    assert tables["MONITORS"] == [
        (token, key.name, key.type.wants, shown(key.default))
        for registry in (MONITORS, AUDITORS, ANALYZERS, REGULATORS, EXECUTORS)
        for token, stage in registry.items() for key in stage.params]
    assert tables["LINE_ATTRS"] == [
        (line, key.name, key.type.wants, shown(key.default))
        for line, keys in LINE_ATTRS.items() for key in keys]


DECLARED = (Key("count", WHOLE, 1), Key("rate", NUMBER, 0.0), Key("period", INTEGER))


@pytest.mark.parametrize("values, want", [
    ({"period": 3}, {"count": 1, "rate": 0.0, "period": 3}),
    ({"period": 3, "count": 2.9, "rate": 1}, {"count": 2, "rate": 1.0, "period": 3}),
])
def test_read_keys_converts_and_fills_defaults(values, want):
    got = read_keys(DECLARED, values, "unknown")
    assert got == want
    assert [type(value) for value in got.values()] == [type(value) for value in want.values()]


@pytest.mark.parametrize("values, problem", [
    ({"period": 3, "cuont": 1}, "key x.cuont: not here"),
    ({}, "key x.period: required, and not set"),
    ({"period": 3.0}, "key x.period: 3.0 is not an integer"),
    ({"period": 3, "rate": float("nan")}, "key x.rate: nan is not a finite number"),
    ({"period": 3, "count": 10 ** 400}, f"key x.count: {10 ** 400!r} is not a finite number"),
])
def test_read_keys_refuses_naming_the_key(values, problem):
    with pytest.raises(ScenarioParseError) as err:
        read_keys(DECLARED, values, "not here", "x.")
    assert str(err.value) == problem
