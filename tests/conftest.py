"""Shared test set-up.

mpmath's working precision is global.  A test module declares the bits its
oracles need as ``MP_PREC``; each of its tests runs inside
``mp.workprec(MP_PREC)``, and a module that declares none runs at mpmath's
default of 53 bits, so no module's precision depends on which modules were
imported before it.
"""

import mpmath as mp
import pytest


@pytest.fixture(autouse=True)
def _module_mp_prec(request):
    with mp.workprec(getattr(request.module, "MP_PREC", 53)):
        yield
