"""perfbench's tracer finds every function that it traces in the package,
and leaves the package as it found it."""
import importlib
import importlib.util
import os
import sys

import numpy as np
import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer():
    """perfbench/tracer.py, loaded from its file, with every module that
    its ``TARGETS`` name imported, as ``Tracer.install`` expects."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for layer, _, _ in module.TARGETS:
        importlib.import_module(f"founderhmm.{layer}")
    return module


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "founderhmm" or name.startswith("founderhmm.")]


def test_every_traced_name_exists_in_its_module(tracer):
    for layer, name, _ in tracer.TARGETS:
        assert callable(getattr(sys.modules[f"founderhmm.{layer}"], name, None)), \
            f"founderhmm.{layer}.{name}"


def test_install_wraps_every_target_and_uninstall_restores_it(tracer):
    names = {name for _, name, _ in tracer.TARGETS}
    before = {(m.__name__, name): getattr(m, name)
              for m in package_modules() for name in names if hasattr(m, name)}
    traced = tracer.Tracer()
    traced.install()
    try:
        for layer, name, _ in tracer.TARGETS:
            wrapper = getattr(sys.modules[f"founderhmm.{layer}"], name)
            assert wrapper.__wrapped__ is before[(f"founderhmm.{layer}", name)], name
        trie = sys.modules["founderhmm.trie"]
        trie.build_trie(np.zeros((2, 3), dtype=np.int8))
        assert [s.name for s in traced.spans] == ["trie.build_trie"]
    finally:
        traced.uninstall()
    after = {(m.__name__, name): getattr(m, name)
             for m in package_modules() for name in names if hasattr(m, name)}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
