"""Shared exception types."""


class BudgetExceeded(Exception):
    """An exhaustive search would exceed the configured candidate budget.

    Deliberately distinct from a negative decision: "none found within budget"
    is never reported as "none exists".
    """


class ValidationError(ValueError):
    """Input data violates a structural invariant (shapes, monotonicity,
    commutativity, file format)."""


def check(violations):
    """Raise ValidationError naming every violation, joined by "; ", when
    there is one; return None when violations is empty."""
    if violations:
        raise ValidationError("; ".join(violations))
