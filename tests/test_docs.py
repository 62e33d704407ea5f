"""README's Library section against the package: every call it names must exist.

A code span that starts with a call, such as `solve_matching_stack(points)`
or `ModelFamily.pt_delta_pair(M, x)`, names a callable; each must resolve to
an attribute of ``ptscatter`` or of one of its submodules, so a deleted or
renamed function cannot stay documented.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import ptscatter

README = Path(__file__).resolve().parents[1] / "README.md"


def library_calls():
    """Dotted names of the inline code spans in README's Library section that start with a call."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return sorted(set(re.findall(r"`([A-Za-z_][\w.]*)\(", section)))


def resolves(dotted):
    head, *rest = dotted.split(".")
    modules = [ptscatter] + [importlib.import_module(f"ptscatter.{m.name}") for m in pkgutil.iter_modules(ptscatter.__path__)]
    for module in modules:
        target = getattr(module, head, None)
        for part in rest:
            target = getattr(target, part, None)
        if callable(target):
            return True
    return False


def test_library_section_names_calls():
    assert {"solve_matching_stack", "ModelFamily.pt_delta_pair", "residual"} <= set(library_calls())


def test_every_call_in_the_library_section_resolves():
    assert [name for name in library_calls() if not resolves(name)] == []
