"""Hypothesis strategies shared by the kernel tests."""

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

SIZES = st.integers(1, 64)
# Row, column and square shapes up to 64x64.
ROW_COLUMN_SQUARE = st.one_of(SIZES.map(lambda n: (1, n)), SIZES.map(lambda n: (n, 1)),
                              SIZES.map(lambda n: (n, n)))
_ELEMENTS = {
    np.float64: st.floats(-1e6, 1e6, allow_subnormal=False),
    np.float32: st.floats(-1e3, 1e3, allow_subnormal=False, width=32),
    np.int64: st.integers(-1000, 1000),
}


@st.composite
def matrices(draw, shapes=ROW_COLUMN_SQUARE):
    """Matrices in the dtypes and layouts a caller may pass: float64,
    float32 and int64, row-major, column-major, or a transposed view."""
    shape = draw(shapes)
    dtype = draw(st.sampled_from(list(_ELEMENTS)))
    layout = draw(st.sampled_from(["C", "F", "T"]))
    if layout == "T":
        return draw(hnp.arrays(dtype, shape[::-1], elements=_ELEMENTS[dtype])).T
    x = draw(hnp.arrays(dtype, shape, elements=_ELEMENTS[dtype]))
    return np.asfortranarray(x) if layout == "F" else x
