"""``repro.query`` imports nothing it does not use.

``make lint`` (ruff, rule F401) checks this for the whole tree, but it
is skipped wherever ruff is not installed; merging two executors into
one is exactly the change that leaves imports behind, so the query
package gets the check inside tier-1 too.
"""

import ast
import pathlib

import pytest

import repro.query

MODULES = sorted(
    path
    for path in pathlib.Path(repro.query.__file__).parent.glob("*.py")
    if path.name != "__init__.py"  # re-exports by design
)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    source = path.read_text()
    assert "# noqa" not in source
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    # Quoted annotations ("np.ndarray") are strings, not Name nodes.
    for node in ast.walk(tree):
        for annotation in (
            getattr(node, "annotation", None), getattr(node, "returns", None)
        ):
            if isinstance(annotation, ast.Constant):
                quoted = ast.parse(str(annotation.value), mode="eval")
                used |= {
                    name.id
                    for name in ast.walk(quoted)
                    if isinstance(name, ast.Name)
                }
    assert imported - used == set()
