"""The benchmark (perfbench/) reaches into the program by name: the traced
run wraps functions at every module that binds them, and the scan replay
calls the executors' chunk functions.  A refactor that unbinds one of these
names would only crash ``perfbench/run.py --trace 1``; pin them here."""
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def perfbench_path():
    sys.path.insert(0, PERFBENCH)
    yield
    sys.path.remove(PERFBENCH)


def test_traced_targets_resolve(perfbench_path):
    import tracing

    targets = tracing._targets()
    assert targets
    for span, owners, attr, _ in targets:
        for owner in owners:
            assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is unbound"


def test_components_import(perfbench_path):
    import components  # noqa: F401
    from repro.parquet_sim import scan

    assert callable(scan._mod_positions)
    assert callable(scan.gather_positions)
