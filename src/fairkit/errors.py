"""Exception hierarchy shared across the toolkit."""


class FairkitError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(FairkitError):
    """Array dimensions do not match what an operation requires."""


class DegenerateWeightsError(FairkitError):
    """All instance weights are zero; a weighted mean is undefined."""


class ContrastiveDegenerateError(FairkitError):
    """Contrastive loss has no valid anchor/positive pairs."""


class TrainingDivergedError(FairkitError):
    """A non-finite loss or gradient appeared during training."""


class SchemaError(FairkitError):
    """A dataset file is missing a required column or key."""


class ParseError(FairkitError):
    """A dataset file could not be parsed."""


class LabelDomainError(FairkitError):
    """A class or group label is outside its declared range."""


class SpecError(FairkitError):
    """A synthetic-data spec violates its invariants."""


class EmptyCellError(FairkitError):
    """A (class, group) cell required to be nonempty is empty."""


class FairbatchCollapseError(FairkitError):
    """All sampling probabilities within a class were clipped to zero."""


class DegenerateProbeError(FairkitError):
    """A probe cannot be fit (e.g. only one group present)."""


class MethodInapplicableError(FairkitError):
    """A post-processing method was requested on an incompatible model."""


class EvaluationDegenerateError(FairkitError):
    """No defined metric cell exists to aggregate."""


class ConfigError(FairkitError):
    """Invalid, unknown, or conflicting configuration keys."""


class EmptyInputError(FairkitError):
    """An analysis operation received no usable runs or epochs."""


class IOErrorWithStage(FairkitError):
    """A file or directory needed by a pipeline stage is missing."""
