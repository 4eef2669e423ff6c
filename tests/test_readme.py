"""The README's Python quick start runs against the current API, and its
config block shows the real defaults."""

import re
from pathlib import Path

from tmtmag.config import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "expected one python block in README.md"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()  # the sweep summary was printed


def test_readme_config_block_is_the_defaults():
    blocks = re.findall(r"^```jsonc\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "expected one jsonc block in README.md"
    text = re.sub(r"//.*$", "", blocks[0], flags=re.M)
    assert parse_config(text).snapshot == parse_config(None).snapshot
