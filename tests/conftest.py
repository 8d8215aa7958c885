"""Each test starts with no kept root systems, as in a fresh process: a system
kept by an earlier test (rootsys.build_root_system) would hide a patched
convention from a later one, and a test of what is built on first read
would pass without building anything."""

import pytest

from schubert_blowup import rootsys
from schubert_blowup.value import setfield


def forget_kept_systems():
    """Empty the register of built types, and turn each kept system, which a
    test may still hold, back into an unkept one."""
    for rs in rootsys._systems.values():
        if rs is not None:
            setfield(rs, "_varieties", None)
    rootsys._systems.clear()


@pytest.fixture(autouse=True)
def no_kept_systems():
    forget_kept_systems()
    yield
    forget_kept_systems()
