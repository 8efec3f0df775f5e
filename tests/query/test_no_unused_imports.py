"""No module under ``src/repro`` imports anything it does not use.

``make lint`` (ruff, rule F401) checks this for the whole tree, but it
is skipped wherever ruff is not installed; merging two executors into
one, three index-maintenance paths into one base class, or two MVCC
designs into one is exactly the change that leaves imports behind, so
every package gets the check inside tier-1 too.
"""

import ast
import pathlib

import pytest

import repro

MODULES = sorted(
    path
    for path in pathlib.Path(repro.__file__).parent.rglob("*.py")
    if path.name != "__init__.py"  # re-exports by design
)


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}"
)
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
    # Names listed in ``__all__`` are re-exported on purpose.
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
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
