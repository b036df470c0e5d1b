"""Exception types shared across the package."""


class UstatmcError(Exception):
    """Base class for all package errors."""


class NotErgodic(UstatmcError):
    """The transition matrix has no strictly positive power within the probe
    horizon, or a certified mixing sequence shows no observable decay."""


class NotCanonical(UstatmcError):
    """An operation requiring a completely degenerate (pi-canonical) kernel
    was given one with a lower degeneracy order."""


class BudgetExceeded(UstatmcError):
    """An exact enumeration or tensor build would exceed the configured
    work budget."""


# cells of any array sized by the config rather than by --budget, checked before allocating
TENSOR_BUDGET = 10**7


def refuse_over(what: str, size: int, cap: int | None = None) -> None:
    """The one refusal rule: raise :class:`BudgetExceeded`, before ``what``
    is allocated, when its ``size`` exceeds ``cap`` (``TENSOR_BUDGET``, read
    at call time, when None).  The message names the allocation, its size
    and the cap."""
    limit = TENSOR_BUDGET if cap is None else cap
    if size > limit:
        raise BudgetExceeded(f"{what} = {size} exceeds {'tensor budget' if cap is None else 'budget'} {limit}")


class DegreeTooLarge(UstatmcError):
    """The trajectory is shorter than the kernel degree (n < m)."""


class PNotPositive(UstatmcError):
    """A moment-splitting exponent p must be strictly positive."""


class Unbounded(UstatmcError):
    """A declared ergodicity profile cannot bound the requested supremum."""


class DomainError(UstatmcError):
    """A closed-form bound was evaluated outside its parameter domain."""


class ConfigError(UstatmcError):
    """A configuration file is malformed or fails schema validation."""
