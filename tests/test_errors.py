import ast
import re
from pathlib import Path

from symlab import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "symlab"
TESTS = Path(__file__).resolve().parent

# Named errors that no test names yet.  The list may only shrink: a new
# untested error fails below, and so does one that gains a test but stays here.
UNTESTED = ["RootCountMismatch", "SingularMomentSystem"]


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


def _declared() -> set[str]:
    return {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.SymlabError)
        and obj is not errors.SymlabError
    }


def _test_words() -> set[str]:
    """Names, attributes and words in strings (expected CLI output, say)
    that the test files use, leaving out the UNTESTED list itself."""
    words = set()
    for path in TESTS.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        listed = {
            id(n) for a in tree.body if isinstance(a, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "UNTESTED" for t in a.targets)
            for n in ast.walk(a.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in listed):
                words.update(re.findall(r"\w+", node.value))
    return words


def test_every_named_error_is_raised():
    # a named error that nothing raises is a promise no caller can rely on
    declared = _declared()
    assert len(declared) > 10
    assert sorted(declared - _raised_names()) == []


def test_untested_errors_only_shrink():
    assert sorted(_declared() - _test_words()) == UNTESTED
