from collections import Counter

import numpy as np
import pytest

from chaosctl import MapModel, find_fixed_point, lpa_map

# Known chaotic-regime fixed point of the default LPA parameters (4 decimals).
LPA_FIXED_POINT = (28.0120, 22.4096, 4.6251)


@pytest.fixture(scope="session")
def lpa():
    return lpa_map()


@pytest.fixture(scope="session")
def lpa_k(lpa):
    """Fixed point of the default LPA map, solved to near machine precision."""
    return find_fixed_point(lpa, np.array([20.0, 20.0, 5.0]), tol=1e-13)


def counting_lpa():
    """``(model, calls)``: the default LPA map as a plugin whose every form
    counts its calls in the ``collections.Counter`` ``calls``."""
    lpa, calls = lpa_map(), Counter()

    def counted(name, f):
        def step(*args):
            calls[name] += 1
            return f(*args)

        return step

    forms = {name: counted(name, getattr(lpa, name))
             for name in ("evaluate", "evaluate_batch", "evaluate_floats", "jacobian")}
    return MapModel(dimension=3, domain=lpa.domain, **forms), calls
