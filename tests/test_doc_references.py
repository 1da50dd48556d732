"""The prose docs name only code that exists.

Scans README, ``docs/TESTING.md``, the verify skill and
``docs/ARCHITECTURE.md`` (outside its "Measured and removed" history, which
names deleted code on purpose) and checks three things:

* every backticked ``repro.…`` name resolves through import and ``getattr``;
* every backticked ``Class.attr`` of a class defined in ``src/`` resolves;
* every ``src/`` / ``tests/`` / ``benchmarks/`` / ``examples/`` path exists,
  and a ``:line`` (or ``:first-last``) after it lies within the file.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "docs" / "TESTING.md",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ROOT / "docs" / "ARCHITECTURE.md",
]
#: The one section that names removed code on purpose.
HISTORY_HEADING = "Measured and removed"

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED = re.compile(r"^(repro(?:\.\w+)+)(?:\(.*\))?$")
_CLASS_ATTR = re.compile(r"^([A-Z]\w*)\.(\w+)(?:\(.*\))?$")
_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|benchmarks|examples)/[\w./-]*\w)(?![\w*])"
    r"(?::(\d+)(?:-(\d+))?)?"
)


def _prose(path: Path) -> str:
    """The doc's text, without the history section of ARCHITECTURE."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    kept: List[str] = []
    skipping_level = 0
    for line in lines:
        heading = re.match(r"^(#+)\s", line)
        if heading:
            level = len(heading.group(1))
            if skipping_level and level <= skipping_level:
                skipping_level = 0
            if HISTORY_HEADING in line:
                skipping_level = level
        if not skipping_level:
            kept.append(line)
    return "".join(kept)


def _spans(text: str) -> Iterator[str]:
    for match in _SPAN.finditer(_FENCE.sub("", text)):
        yield match.group(1).strip()


def _class_index() -> Dict[str, List[Tuple[str, Set[str]]]]:
    """Class name -> [(module, attributes the source assigns)] over src/repro.

    The assigned attributes cover what ``hasattr`` on the class cannot see:
    dataclass fields without a default and ``self.x = ...`` in methods.
    """
    index: Dict[str, List[Tuple[str, Set[str]]]] = {}
    package = ROOT / "src"
    for path in sorted((package / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            names: Set[str] = set()
            for inner in ast.walk(node):
                if isinstance(inner, ast.AnnAssign) and isinstance(inner.target, ast.Name):
                    names.add(inner.target.id)
                elif isinstance(inner, ast.Attribute) and isinstance(inner.ctx, ast.Store):
                    if isinstance(inner.value, ast.Name) and inner.value.id == "self":
                        names.add(inner.attr)
            index.setdefault(node.name, []).append((module, names))
    return index


def _resolves_dotted(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _resolves_class_attr(index, class_name: str, attribute: str) -> bool:
    for module, assigned in index[class_name]:
        cls = getattr(importlib.import_module(module), class_name, None)
        if cls is None:
            continue
        if hasattr(cls, attribute) or attribute in assigned:
            return True
    return False


def _problems(doc: Path) -> List[str]:
    text = _prose(doc)
    index = _class_index()
    problems = []
    for span in _spans(text):
        dotted = _DOTTED.match(span)
        if dotted and not _resolves_dotted(dotted.group(1)):
            problems.append(f"`{span}` does not resolve")
        pair = _CLASS_ATTR.match(span)
        if pair and pair.group(1) in index and not _resolves_class_attr(index, *pair.groups()):
            problems.append(f"`{span}`: {pair.group(1)} has no attribute {pair.group(2)}")
    for match in _PATH.finditer(text):
        relative, first, last = match.groups()
        path = ROOT / relative
        if not path.exists():
            problems.append(f"{relative} does not exist")
            continue
        for line in (first, last):
            if line is None:
                continue
            if not path.is_file():
                problems.append(f"{relative}:{line} names a line of a directory")
                continue
            length = len(path.read_text(encoding="utf-8").splitlines())
            if not 1 <= int(line) <= length:
                problems.append(f"{relative}:{line} is past the file's {length} lines")
    return problems


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_doc_names_only_what_exists(doc):
    assert _problems(doc) == []
