"""Standard-form LP  min c.x  s.t.  A x = b, x >= 0  on HiGHS's dual simplex,
called through scipy's bundled bindings (scipy.optimize._highspy._core).

A comes by columns, as a Csc: the arrays scipy.sparse.csc_array holds,
which HiGHS takes as they are.  The solve gets the options that scipy's
linprog(method="highs-ds") sets (presolve on, the dual simplex strategy,
no output) and returns the same x, objective and row duals, bit for bit,
without linprog's per-call input cleaning and option checks, which cost
more than the solve on small LPs.  linprog's guards are kept: a status
other than optimal raises, and an "optimal" x must be finite, nonnegative
and satisfy A x = b within linprog's tolerance 10 sqrt(1e-9).

The bindings are one extension file.  `_highs` loads it straight from
scipy's directory under its own module name, so a solve imports neither
scipy.optimize nor scipy.sparse, whose import costs more time and memory
than a small `magic` command's work, and a later `import scipy.optimize`
reuses the loaded module.

The module name stays `simplex` because the benchmark's tracer
(perfbench/tracer.py) imports `quditmagic.simplex` for its span targets.
"""

import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

# linprog's _check_result tolerance: 10 sqrt(tol) at its default tol = 1e-9
RESIDUAL_TOL = 10 * math.sqrt(1e-9)
HIGHS_MODULE = "scipy.optimize._highspy._core"


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


@dataclass
class LpSolution:
    x: np.ndarray        # primal optimum, length = columns of A
    value: float
    dual: np.ndarray     # y with y.A <= c (componentwise, up to tolerance)


class Csc(NamedTuple):
    """An m x n matrix by columns: column j's nonzeros are value[start[j]:start[j + 1]],
    in rows index[start[j]:start[j + 1]], ascending."""
    shape: Tuple[int, int]
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray


def _highs():
    """scipy's HiGHS bindings: the module already in sys.modules, loaded by
    scipy.optimize or by an earlier call, else the extension file run under
    the module's own name and registered there, where a later import of
    scipy.optimize finds it."""
    highspy = sys.modules.get(HIGHS_MODULE)
    if highspy is None:
        import importlib.machinery
        import importlib.util

        import scipy

        where = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
        spec = importlib.machinery.PathFinder.find_spec(HIGHS_MODULE, [where])
        if spec is None:
            raise ImportError("no HiGHS bindings (_core) in %s" % where, name=HIGHS_MODULE)
        highspy = importlib.util.module_from_spec(spec)
        sys.modules[HIGHS_MODULE] = highspy
        try:
            spec.loader.exec_module(highspy)
        except BaseException:
            del sys.modules[HIGHS_MODULE]
            raise
    return highspy


def solve_lp(A: Csc, b: np.ndarray, c: np.ndarray) -> LpSolution:
    """Solve with A's arrays passed to HiGHS as they are."""
    highspy = _highs()
    m, n = A.shape
    lp = highspy.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = highspy.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = A.start, A.index, A.value
    lp.col_cost_ = c
    lp.col_lower_, lp.col_upper_ = np.zeros(n), np.full(n, highspy.kHighsInf)
    lp.row_lower_ = lp.row_upper_ = b

    highs = highspy._Highs()
    dual = highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    for option, value in (("presolve", "on"), ("solver", "simplex"), ("simplex_strategy", dual),
                          ("highs_debug_level", highspy.kHighsDebugLevelNone),
                          ("output_flag", False), ("log_to_console", False)):
        if highs.setOptionValue(option, value) == highspy.HighsStatus.kError:
            raise ArithmeticError("HiGHS rejected option %s = %r" % (option, value))
    if highs.passModel(lp) == highspy.HighsStatus.kError:
        raise ArithmeticError("HiGHS rejected the model")
    ran = highs.run() != highspy.HighsStatus.kError
    status = highs.getModelStatus()
    message = "HiGHS model status: " + highs.modelStatusToString(status)
    if status == highspy.HighsModelStatus.kInfeasible:
        raise Infeasible(message)
    if status == highspy.HighsModelStatus.kUnbounded:
        raise Unbounded(message)
    if not ran or status != highspy.HighsModelStatus.kOptimal:
        raise ArithmeticError(message)

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    value = highs.getInfo().objective_function_value
    residual = b - np.array(solution.row_value)
    if (np.isnan(x).any() or math.isnan(value) or np.isnan(residual).any()
            or (x < -RESIDUAL_TOL).any() or (np.abs(residual) > RESIDUAL_TOL).any()):
        raise ArithmeticError("HiGHS reported optimal, but x violates x >= 0 or A x = b "
                              "by more than %.2e" % RESIDUAL_TOL)
    return LpSolution(x=x, value=float(value), dual=np.array(solution.row_dual))
