"""README against the code: its Guards table against the limits in
steinerk.config, and its list of registry ids against the verify registry."""

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
