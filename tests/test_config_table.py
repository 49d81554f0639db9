"""The documented config keys against the key table.

Each key is declared once, on its `ScenarioConfig` field.  A key that sets a
`Geometry`, `Obstacle`, `FrameSpec` or `AdaptPolicy` field is declared by
that type and attribute, and takes its default and its range rule from the
type; the other keys declare both on the field.  The README "Config format"
table and `configs/default.cfg` restate the names and defaults for readers;
these tests hold them to the table.
"""

import re
from dataclasses import fields
from pathlib import Path

from vlclink import ScenarioConfig, load_config, parse_config
from vlclink.adapt import AdaptPolicy
from vlclink.channel import Geometry
from vlclink.framing import FrameSpec

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CFG = ROOT / "configs" / "default.cfg"
KEY_TABLE = {f.metadata["key"]: f for f in fields(ScenarioConfig)}
ROW = re.compile(r"^\| ([a-z_.]+) \| ([^|]+?) \|")


def readme_rows() -> dict[str, str]:
    """key -> default cell of each row of the README "Config format" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        match = ROW.match(line)
        if match and match[1] != "key":
            assert match[1] not in rows, f"README lists {match[1]} twice"
            rows[match[1]] = match[2]
    return rows


def cfg_entries() -> dict[str, str]:
    """key -> value of each uncommented line of configs/default.cfg."""
    entries = {}
    for raw in DEFAULT_CFG.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            assert key.strip() not in entries, f"default.cfg sets {key.strip()} twice"
            entries[key.strip()] = value.strip()
    return entries


def test_every_field_is_one_distinct_key():
    assert len(KEY_TABLE) == len(fields(ScenarioConfig))


def test_defaults_are_the_domain_types_defaults():
    cfg = ScenarioConfig()
    assert cfg.geometry(obstacle_x=0.0) == Geometry()
    assert cfg.frame_spec() == FrameSpec()
    assert cfg.policy() == AdaptPolicy()


def test_readme_lists_every_key_in_table_order():
    assert list(readme_rows()) == list(KEY_TABLE)


def test_readme_defaults_match_the_table():
    for key, default in readme_rows().items():
        if KEY_TABLE[key].default is None:
            assert default == "unset", key
        else:
            assert parse_config(f"{key} = {default}\n") == ScenarioConfig(), key


def test_default_cfg_sets_every_key_with_a_default_in_table_order():
    assert list(cfg_entries()) == [key for key, f in KEY_TABLE.items() if f.default is not None]


def test_default_cfg_values_match_the_table():
    for key, value in cfg_entries().items():
        assert parse_config(f"{key} = {value}\n") == ScenarioConfig(), key
    assert load_config(DEFAULT_CFG) == ScenarioConfig()
