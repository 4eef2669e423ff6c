"""The README's Python quick start runs against the current API, and its
config block shows the real defaults and names every accepted key."""

import re
from pathlib import Path

from tmtmag.config import _SECTIONS, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "expected one python block in README.md"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()  # the sweep summary was printed


def _config_block() -> str:
    blocks = re.findall(r"^```jsonc\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1, "expected one jsonc block in README.md"
    return blocks[0]


def test_readme_config_block_is_the_defaults():
    text = re.sub(r"//.*$", "", _config_block(), flags=re.M)
    assert parse_config(text).snapshot == parse_config(None).snapshot


def test_readme_config_block_names_every_key():
    # parse_config fills in a key the block leaves out, so the defaults test
    # above passes without it; an optional key may be named in a comment
    parts = re.split(r'^  "(\w+)": ', _config_block(), flags=re.M)
    sections = dict(zip(parts[1::2], parts[2::2]))
    assert sections.keys() == _SECTIONS.keys()
    for section, keys in _SECTIONS.items():
        missing = sorted(key for key in keys if f'"{key}"' not in sections[section])
        assert not missing, f"README config block leaves out {section}: {missing}"
