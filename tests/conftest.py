"""Suite-wide checks: no test may leave the cyclic garbage collector
switched on or off other than it found it, since the homology path pauses
it and a later test would then run under the wrong setting."""

import gc

import pytest


@pytest.fixture(autouse=True)
def collector_setting_kept():
    before = gc.isenabled()
    yield
    after = gc.isenabled()
    if after != before:
        (gc.enable if before else gc.disable)()
        pytest.fail(f"the test left gc.isenabled() {after}, not {before}")
