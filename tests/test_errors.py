import ast
from pathlib import Path

from symlab import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "symlab"


def _raised_names() -> set[str]:
    """Names of everything a `raise` statement in src/symlab raises."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_named_error_is_raised():
    # a named error that nothing raises is a promise no caller can rely on
    declared = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.SymlabError)
        and obj is not errors.SymlabError
    }
    assert len(declared) > 10
    assert sorted(declared - _raised_names()) == []
