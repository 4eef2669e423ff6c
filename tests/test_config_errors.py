"""One block turns a rule's ValueError into a ConfigError naming the field.

``config.naming(label)`` re-raises a ValueError of its block as
``ConfigError(f"{label}: {exc}")``.  This test reads ``config.py`` and
``cli.py`` with ``ast`` and fails on any other ``except`` handler that
raises a ConfigError, so hand-written re-wraps cannot come back.  Two
handlers convert errors that are not a rule's ValueError and stay: OS and
decode errors in ``read_text`` and the JSON decode error in
``parse_config``.  (A points file's bad row is named by its line after
its handler, which only tells a header from a data row.)
"""

import ast
from pathlib import Path

import pytest

import tmtmag

SRC = Path(tmtmag.__file__).resolve().parent
#: (function, caught exceptions) of each handler allowed to raise a ConfigError
CONVERSIONS = {("naming", "ValueError"), ("read_text", "(OSError, UnicodeDecodeError)"),
               ("parse_config", "json.JSONDecodeError")}
#: the functions that name a rule's field through ``naming``
NAMING_SITES = {"config": {"__post_init__", "fit_points", "_planned_setups", "_check_mode_limits",
                           "_beta_grid", "_build", "_build_sensor"},
                "cli": {"_apply_cli_overrides"}}


def _raises_config_error(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) and node.exc is not None
               and getattr(getattr(node.exc, "func", node.exc), "id", None) == "ConfigError"
               for node in ast.walk(handler))


def _functions(tree: ast.AST):
    """``(function, node)`` for each node in ``tree``, ``function`` naming the innermost one holding it."""
    def walk(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
            else:
                yield name, child
                yield from walk(child, name)
    return walk(tree, None)


def rewraps(source: str, module: str) -> list[str]:
    """``module:line function`` of every handler outside ``CONVERSIONS`` that raises a ConfigError."""
    return [f"{module}:{node.lineno} {name}" for name, node in _functions(ast.parse(source))
            if isinstance(node, ast.ExceptHandler) and _raises_config_error(node)
            and (name, ast.unparse(node.type) if node.type else "") not in CONVERSIONS]


def naming_users(source: str) -> set[str]:
    """The functions holding a ``with naming(...)`` block."""
    return {name for name, node in _functions(ast.parse(source)) if isinstance(node, ast.With)
            and any(getattr(item.context_expr.func, "id", None) == "naming"
                    for item in node.items if isinstance(item.context_expr, ast.Call))}


@pytest.mark.parametrize("module", sorted(NAMING_SITES))
def test_only_naming_rewraps_a_value_error(module):
    source = (SRC / f"{module}.py").read_text()
    assert rewraps(source, module) == []
    assert naming_users(source) >= NAMING_SITES[module]


@pytest.mark.parametrize("handler", [
    "except ValueError as exc:\n    raise ConfigError(f'x: {exc}') from exc",
    "except (ValueError, OverflowError) as exc:\n    raise ConfigError(str(exc))",
    "except ValueError:\n    if flag:\n        raise ConfigError('x')\n    raise",
    "except Exception:\n    raise ConfigError",
])
def test_guard_finds_each_rewrap(handler):
    body = handler.replace("\n", "\n    ")
    source = f"def _build(flag):\n    try:\n        run()\n    {body}\n"
    assert rewraps(source, "config") == ["config:4 _build"]


def test_guard_passes_the_conversions_and_naming():
    source = ("def naming(label):\n    try:\n        yield\n    except ConfigError:\n        raise\n"
              "    except ValueError as exc:\n        raise ConfigError(label) from exc\n"
              "def _build(section):\n    with naming(section):\n        return run()\n")
    assert rewraps(source, "config") == []
    assert naming_users(source) == {"_build"}
