"""The benchmark's traced run wraps names that still exist.

``perfbench/tracer.py`` lists, per layer, the public functions and classes it
wraps (classes through their own ``__init__``).  A deleted or reshaped name
would make ``perfbench/run.py --trace 1`` fail, so each must resolve in its
home module.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_names_resolve(layer):
    modname, names = LAYERS[layer]
    home = importlib.import_module(modname)
    assert [name for name in names if not hasattr(home, name)] == []


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_classes_define_init(layer):
    modname, names = LAYERS[layer]
    home = importlib.import_module(modname)
    classes = [obj for obj in (getattr(home, name) for name in names) if isinstance(obj, type)]
    assert [cls.__name__ for cls in classes if "__init__" not in cls.__dict__] == []
