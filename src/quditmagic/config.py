"""Global run configuration: log base, budgets, seeds.

Every entropic quantity in the package goes through ``log_value`` so that a
single base choice (default 2) is consistent across modules.
"""

import math
from dataclasses import dataclass

# Dense matrices above this row count are refused (eigendecomposition budget).
DENSE_LIMIT = 20000

# Default cap on the number of stabilizer subgroups visited by enumerations.
ENUM_LIMIT = 2_000_000


class BudgetExceeded(Exception):
    """Raised when a dense or enumeration budget would be exceeded."""


@dataclass
class RunConfig:
    """Configuration threaded through solvers and the CLI.

    log_base is one of 2, 10 or the string "e".
    """

    log_base: object = 2
    dense_limit: int = DENSE_LIMIT
    enum_limit: int = ENUM_LIMIT
    seed: int = 0
    output: str = ""

    def base_value(self) -> float:
        if self.log_base == "e":
            return math.e
        return float(self.log_base)

    def as_dict(self) -> dict:
        return {
            "log_base": self.log_base,
            "dense_limit": self.dense_limit,
            "enum_limit": self.enum_limit,
            "seed": self.seed,
        }


DEFAULT_CONFIG = RunConfig()


def log_value(x: float, config: RunConfig = DEFAULT_CONFIG) -> float:
    """Logarithm of x in the configured base."""
    return math.log(x) / math.log(config.base_value())


def check_dense(dim: int, config: RunConfig = DEFAULT_CONFIG) -> None:
    if dim > config.dense_limit:
        raise BudgetExceeded(
            "dense dimension %d exceeds limit %d" % (dim, config.dense_limit)
        )
