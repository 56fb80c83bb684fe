"""The package namespace loads ``grassgeo.verify`` on first use.

``Report``, ``RunConfig``, ``run_all`` and the ``verify`` submodule resolve
through the package's module ``__getattr__`` on every access, so they are
the registry's own objects, and the benchmark tracer's wrappers vanish from
them once it restores the originals.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grassgeo

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
LAZY = ("Report", "RunConfig", "run_all")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lazy_names_are_the_registry_objects():
    from grassgeo import verify

    assert grassgeo.verify is verify
    for name in LAZY:
        assert getattr(grassgeo, name) is getattr(verify, name)


def test_from_import():
    from grassgeo import Report, RunConfig, run_all
    from grassgeo.verify import Report as report, RunConfig as config, run_all as run

    assert (Report, RunConfig, run_all) == (report, config, run)


def test_star_import_binds_the_lazy_names():
    namespace = {}
    exec("from grassgeo import *", namespace)
    for name in (*LAZY, "verify"):
        assert namespace[name] is getattr(grassgeo, name)
    assert set(grassgeo.__all__) <= set(namespace)


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        grassgeo.no_such_name


def test_verify_resolves_in_a_fresh_interpreter():
    script = (
        "import sys, grassgeo\n"
        "assert 'grassgeo.verify' not in sys.modules\n"
        "assert grassgeo.verify is sys.modules['grassgeo.verify']\n"
        "assert grassgeo.run_all is grassgeo.verify.run_all\n"
    )
    src = str(Path(grassgeo.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tracer_restores_the_unwrapped_function():
    original = grassgeo.verify.run_all
    restore = _tracer_module().Tracer().install()
    try:
        assert grassgeo.run_all is not original
        assert grassgeo.run_all.__wrapped__ is original
    finally:
        restore()
    assert grassgeo.run_all is original
