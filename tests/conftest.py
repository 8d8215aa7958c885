"""Each test starts with no kept root systems, as in a fresh process: a system
kept by an earlier test (rootsys.build_root_system) would hide a patched
convention from a later one, and a test of what is built on first read
would pass without building anything. Clearing the register is enough: a
system that a test still holds is kept only while the register names it."""

import pytest

from schubert_blowup import rootsys


@pytest.fixture(autouse=True)
def no_kept_systems():
    rootsys._systems.clear()
    yield
    rootsys._systems.clear()
