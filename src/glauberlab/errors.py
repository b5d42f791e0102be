"""Exception types shared across the package."""


class BudgetExceededError(RuntimeError):
    """An exact computation hit its configured node/state/boundary budget."""


class HorizonExceededError(RuntimeError):
    """An iterative computation passed its step horizon without converging."""


class NoFeasibleStateError(ValueError):
    """A single-site update found no state of positive conditional weight."""


class BoundaryInfeasibleError(ValueError):
    """A boundary condition admits no feasible extension on the block."""


class PaletteExhaustedError(ValueError):
    """Greedy color assignment ran out of legal colors."""


class DegenerateChainError(ValueError):
    """The chain is reducible, or its stationary law underflows to 0 at
    some state, so its relaxation time is undefined."""


class SkeletonBoundError(ValueError):
    """Core construction exceeded the size or excess bound implied by the
    structural hypothesis; the input fails it at these parameters."""


class NonUniqueAttachmentError(ValueError):
    """A vertex of a composite block has more than one path to its core."""


class CheegerHypothesisError(ValueError):
    """The chain does not satisfy the all-pairs transition hypothesis."""
