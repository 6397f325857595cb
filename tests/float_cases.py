"""Float inputs shared by the round-trip property tests."""

import math

import numpy as np
from hypothesis import strategies as st


# every float64 class a text or memory round trip can lose: signed zeros,
# subnormals, infinities and NaNs of either sign and any payload
EDGE_FLOATS = st.one_of(
    st.floats(width=64),
    st.sampled_from(
        [-0.0, 0.0, 5e-324, -5e-324, 2.225e-309, math.inf, -math.inf,
         math.nan, -math.nan]
    ),
)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
