"""Exception types shared across the package."""


class PolyadicError(Exception):
    """Base class for every domain error raised by this package."""


class UsageError(PolyadicError):
    """Bad configuration or arguments (CLI exit code 2); the configuration
    errors below are its subclasses."""


class ArityMismatch(UsageError):
    pass


class NonMember(PolyadicError):
    def __init__(self, element, where=""):
        suffix = f" of {where}" if where else ""
        super().__init__(f"{element!r} is not a carrier member{suffix}")
        self.element = element


class ExhaustiveOnInfiniteCarrier(UsageError):
    """Exhaustive checks need a finite enumerated carrier."""


class QuerNotFound(PolyadicError):
    def __init__(self, element, bound):
        super().__init__(f"no querelement for {element!r} within the first {bound} elements")
        self.element = element
        self.bound = bound


class QuerNotUnique(PolyadicError):
    def __init__(self, element, solutions):
        super().__init__(f"querelement of {element!r} is not unique: {solutions!r}")
        self.element = element
        self.solutions = solutions


class QuerPlacementFailed(PolyadicError):
    """A quer candidate fails the quer equation op[g^i, q, g^(n-1-i)] = g at slot i."""

    def __init__(self, element, quer, placement):
        super().__init__(
            f"querelement candidate {quer!r} for {element!r} fails at placement {placement}"
        )
        self.element = element
        self.quer = quer
        self.placement = placement


class NoClassMatch(PolyadicError):
    """A double is equivalent to no representative of a partition."""

    def __init__(self, double):
        super().__init__(f"double {double!r} matches no class of the partition")
        self.double = double


class NotQuantized(UsageError):
    """The intact-element arity formula does not give an integer."""


class InvalidQuiver(UsageError):
    pass


class UnknownQuiver(UsageError):
    def __init__(self, name):
        super().__init__(f"unknown quiver {name!r}")
        self.name = name


class BoundExhausted(PolyadicError):
    """A bounded witness search ended without a definite answer."""

    def __init__(self, bound):
        super().__init__(f"witness search exhausted after {bound} candidates (verdict unknown)")
        self.bound = bound


class NoClosedArity(UsageError):
    def __init__(self, bound):
        super().__init__(f"no arity <= {bound} closes the residue class under products")
        self.bound = bound
