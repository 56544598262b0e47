"""Public API guard: every name the package exports imports and is used by
at least one test module, so no dead or untested name stays exported."""

import pathlib
import re

import sumfree

TESTS = pathlib.Path(__file__).parent


def test_every_exported_name_imports_and_is_tested():
    sources = [
        p.read_text() for p in TESTS.glob("test_*.py") if p.name != "test_api.py"
    ]
    for name in sumfree.__all__:
        assert getattr(sumfree, name) is not None
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        assert any(pattern.search(src) for src in sources), f"{name} is untested"
