"""README against the code: its Guards table against the limits in
steinerk.config, its list of registry ids against the verify registry, and
its Library example against the values its comments state."""

import re
from pathlib import Path

from steinerk import config, theorem_ids

README = Path(__file__).resolve().parent.parent / "README.md"
LIMITS = ("DP_LIMIT", "ORACLE_GUARD", "SPECTRUM_LIMIT", "MAX_ORDER")


def _guards_rows():
    """(constant, value) of every row in README's Guards table."""
    section = README.read_text().split("\n## Guards\n", 1)[1].split("\n## ", 1)[0]
    return {(m[1], m[2]) for m in re.finditer(r"^\| `(\w+)` \| (\S+) \|", section, re.M)}


def test_guards_table_lists_every_limit():
    assert _guards_rows() == {(name, str(getattr(config, name))) for name in LIMITS}


def test_registry_ids_block_lists_every_rule_in_order():
    block = README.read_text().split("Registry ids", 1)[1].split("```", 2)[1]
    assert tuple(block.split()) == theorem_ids()


def test_library_example_gives_its_commented_values():
    section = README.read_text().split("\n## Library\n", 1)[1]
    names: dict = {}
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], names)
    assert names["r"].distance == 4
    assert (names["d"].value, names["d"].witness_set) == (4, (0, 1, 4))
    assert names["p"].order == 28
    assert (names["lo"], names["up"]) == (7, 7)
