"""Pytest plugin: run every VCODE program on the reference interpreter.

    python -m pytest -p tests.vm_reference tests/test_vcode_vm.py

``jit.get_compiled`` returning None is the VM's translation-failure
path, so with it stubbed out ``Vm.run`` executes every program through
``Vm._interp``.  A session in which anything was translated fails.
"""

import pytest


def pytest_configure(config):
    from repro.vcode import jit
    jit.get_compiled = lambda *args, **kwargs: None


@pytest.fixture(scope="session", autouse=True)
def _nothing_translated():
    yield
    from repro.vcode import jit
    assert jit.stats.misses == jit.stats.hits == jit.code_cache_size() == 0, (
        "a VCODE program was JIT-translated under tests.vm_reference"
    )
