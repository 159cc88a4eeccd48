"""Every name the benchmark's tracer patches still exists and is callable.

``perfbench/tracer.py`` wraps functions where lanton looks them up, by
module and attribute name. A refactor that drops or renames one of them
breaks ``perfbench/run.py --trace 1`` with an AttributeError; this test
reads the tracer's table and fails fast instead.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module,attr,span", _targets())
def test_tracer_target_resolves(module, attr, span):
    importlib.import_module(module)
    # The tracer takes the module from sys.modules: `lanton.lmo` on the
    # package is the function, not the submodule.
    assert callable(getattr(sys.modules[module], attr, None)), f"{module}.{attr} ({span})"
