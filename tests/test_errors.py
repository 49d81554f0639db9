"""The exception types: five classes, each with one handler.

`ParseError` and `ValidationError` are config errors, `ParameterError` is a
broken call contract, and `SyncNotFound` and `SingularMatrix` are the only
errors that mean one frame is lost.  Every `raise` in the package names one
of them, so a caller that handles those five handles everything it raises.
"""

import ast
import inspect
from pathlib import Path

import vlclink
from vlclink import errors

FIVE = {"ParameterError", "ParseError", "ValidationError", "SyncNotFound", "SingularMatrix"}
SRC = Path(vlclink.__file__).resolve().parent


def raised_names(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every `raise` in `path` that names an exception;
    a bare re-raise names none."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((node.lineno, exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)))
    return found


def test_errors_defines_exactly_the_five_classes():
    defined = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == errors.__name__
    }
    assert defined == FIVE


def test_every_raise_names_one_of_the_five():
    raises = {path.name: raised_names(path) for path in sorted(SRC.glob("*.py"))}
    assert sum(len(found) for found in raises.values()) > 50
    stray = [f"{name}:{line} raises {exc}" for name, found in raises.items() for line, exc in found if exc not in FIVE]
    assert stray == []
