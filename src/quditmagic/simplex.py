"""Standard-form LP  min c.x  s.t.  A x = b, x >= 0  on scipy's HiGHS dual
simplex ("highs-ds").

The module name stays `simplex` because the benchmark's tracer
(perfbench/tracer.py) imports `quditmagic.simplex` for its span targets.
"""

from dataclasses import dataclass

import numpy as np


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


@dataclass
class LpSolution:
    x: np.ndarray        # primal optimum, length = columns of A
    value: float
    dual: np.ndarray     # y with y.A <= c (componentwise, up to tolerance)


def solve_lp(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> LpSolution:
    import scipy.optimize  # on first use, so commands without an LP never load it
    res = scipy.optimize.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs-ds")
    if res.status == 2:
        raise Infeasible(res.message)
    if res.status == 3:
        raise Unbounded(res.message)
    if res.status != 0:
        raise ArithmeticError(res.message)
    return LpSolution(x=res.x, value=float(res.fun), dual=res.eqlin.marginals)
