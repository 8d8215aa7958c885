"""Each test starts with no kept root systems, no cached Cartan columns and no
cached cone generators, as in a fresh process: a system kept by an earlier
test (rootsys.build_root_system) or columns cached for its type
(conventions.cartan_columns) would hide a patched convention from a later
one, and a test of what is built on first read would pass without building
anything. Clearing the register is enough for systems: a system that a test
still holds is kept only while the register names it. flag._BASES, the one
tuple per Picard basis, is left: cleared alone, it would give a new variety
a basis tuple other than the one that its cached generators hold."""

import pytest

from schubert_blowup import blowup, rootsys
from schubert_blowup.conventions import cartan_columns

# the cached functions themselves: a test may patch the module's names
CACHES = (rootsys._systems.clear, cartan_columns.cache_clear, blowup._cones.cache_clear)


@pytest.fixture(autouse=True)
def no_kept_systems():
    for clear in CACHES:
        clear()
    yield
    for clear in CACHES:
        clear()
