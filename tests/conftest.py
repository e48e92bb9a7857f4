import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS: f32 results then do not
# depend on the host's core count, and BLAS threads do not compete with the
# conv stages' chunk threads. perfbench/run.py pins the same variables.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from troikit.tensor import set_precision


@pytest.fixture(autouse=True)
def _reset_precision():
    set_precision("f32")
    yield
    set_precision("f32")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
