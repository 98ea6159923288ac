"""README quotes tuning constants of cjt.exactalg, cjt.modrep and
cjt.constancy by name and often by value; every such quote must name a
constant that exists and give its current value.  It also names functions,
classes and attributes by module (`exactalg.CooMatrix`,
`modrep.split_free(m)`); every such name must resolve, so a deletion cannot
leave the README pointing at it.  The same holds for the backticked
module- and class-qualified names in the comments and docstrings of
src/cjt."""

import importlib
import re
from pathlib import Path

from cjt import constancy, exactalg, modrep

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {"exactalg": exactalg, "modrep": modrep, "constancy": constancy}

# `exactalg.NAME`, `modrep.NAME`, `constancy.NAME` or `NAME`, optionally followed by (N) or = N
QUOTE = re.compile(r"`(?:(exactalg|modrep|constancy)\.)?([A-Z][A-Z0-9_]*)`(?:\s*\((\d+)\)|\s*=\s*(\d+)\b)?")


def test_readme_constants_exist_with_the_values_it_gives():
    text = README.read_text()
    checked, problems = 0, []
    for match in QUOTE.finditer(text):
        where, name, paren, equals = match.groups()
        value = paren or equals
        owners = [MODULES[where]] if where else [m for m in MODULES.values() if hasattr(m, name)]
        # a bare name is a claim about these modules when it is given a value
        # or when one of them has it
        if not where and value is None and not owners:
            continue
        line = text.count("\n", 0, match.start()) + 1
        checked += 1
        if not owners or not hasattr(owners[0], name):
            problems.append(f"line {line}: {match.group(0)!r} names no constant of {where or ', '.join(MODULES)}")
        elif value is not None and getattr(owners[0], name) != int(value):
            problems.append(f"line {line}: {match.group(0)!r}, but {name} = {getattr(owners[0], name)}")
    assert checked >= 10
    assert not problems, "\n".join(problems)


# `exactalg.NAME`, `cjt.modrep.NAME.ATTR`, `constancy.NAME(args)`: a module of
# cjt, then one or more attributes, optionally called
QUALIFIED = re.compile(
    r"`(?:cjt\.)?(exactalg|jordan|modrep|polymat|constancy|syzygy|carlson|serialize|cli|zoo)"
    r"((?:\.\w+)+)(?:\([^`]*\))?`"
)


def test_readme_module_qualified_names_resolve():
    text = README.read_text()
    checked, problems = 0, []
    for match in QUALIFIED.finditer(text):
        module, path = match.groups()
        obj = importlib.import_module(f"cjt.{module}")
        for name in path.split(".")[1:]:
            if not hasattr(obj, name):
                line = text.count("\n", 0, match.start()) + 1
                problems.append(f"line {line}: {match.group(0)!r} does not resolve at {name!r}")
                break
            obj = getattr(obj, name)
        checked += 1
    assert checked >= 30
    assert not problems, "\n".join(problems)


SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cjt").glob("*.py"))
# the names of QUALIFIED in reST (``modrep.split_free``) or Markdown quotes
SOURCE_QUALIFIED = re.compile(
    r"`{1,2}(?:cjt\.)?(exactalg|jordan|modrep|polymat|constancy|syzygy|carlson|serialize|cli|zoo)"
    r"((?:\.\w+)+)(?:\([^`]*\))?`{1,2}"
)
# ``ModuleRep.ATTR``, `Field.ATTR(args)` and the like
CLASS_QUALIFIED = re.compile(
    r"`{1,2}(ModuleRep|Field|PolyMatrix|CooMatrix|PiPoint|JordanType)((?:\.\w+)+)(?:\([^`]*\))?`{1,2}"
)


def _has(obj, name):
    """An attribute of a module or class, a slot, or a dataclass field."""
    return hasattr(obj, name) or name in getattr(obj, "__dataclass_fields__", {})


def test_source_docstring_names_resolve():
    """Backticks occur in a Python file only inside comments and strings
    (docstrings among them), so each file's whole text is scanned."""
    import cjt

    checked, problems = 0, []
    for path in SOURCES:
        text = path.read_text()
        for pattern, owner in ((SOURCE_QUALIFIED, lambda m: importlib.import_module(f"cjt.{m}")),
                               (CLASS_QUALIFIED, lambda c: getattr(cjt, c))):
            for match in pattern.finditer(text):
                head, tail = match.groups()
                obj = owner(head)
                for name in tail.split(".")[1:]:
                    if not _has(obj, name):
                        line = text.count("\n", 0, match.start()) + 1
                        problems.append(f"{path.name}:{line}: {match.group(0)!r} does not resolve at {name!r}")
                        break
                    obj = getattr(obj, name, None)
                checked += 1
    assert checked >= 15
    assert not problems, "\n".join(problems)
