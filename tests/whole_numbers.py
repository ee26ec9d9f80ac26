"""The values that every whole-number argument refuses.

Lag, polynomial degree, burn-in, p_select's count and the bench grid's
T, seed count and job count all take data._is_integer's rule: an int or
numpy integer that is not a bool. 2 and np.int64(2) pass it.
"""

import numpy as np

NOT_WHOLE = (True, np.True_, 2.0, "2", None, np.nan, np.inf)
