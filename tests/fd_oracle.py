"""Richardson central differences and the numeric brackets built on them: an
oracle for the exact polynomial brackets of liees.lie, independent of them.

A bracket of length l differentiates the bracket of length l - 1 again, so it
carries that level's finite-difference noise; the step widens tenfold per
nesting level to keep that noise below the stencil's truncation error.
"""

# Central-difference step per derivative order, times max(1, |x|): higher
# orders widen the step to keep the stencil roundoff (~eps/h^k) below the
# Richardson truncation.
ORDER_STEP = {1: 1e-4, 2: 2e-3, 3: 1e-2, 4: 2e-2}
NEST_WIDEN = 10.0  # step multiplier per additional nesting level


def central_diff(func, order, x, h):
    if order == 1:
        return (func(x + h) - func(x - h)) / (2 * h)
    if order == 2:
        return (func(x + h) - 2 * func(x) + func(x - h)) / h**2
    if order == 3:
        return (func(x + 2 * h) - 2 * func(x + h) + 2 * func(x - h) - func(x - 2 * h)) / (2 * h**3)
    if order == 4:
        return (
            func(x + 2 * h) - 4 * func(x + h) + 6 * func(x) - 4 * func(x - h) + func(x - 2 * h)
        ) / h**4
    raise ValueError(f"derivative order must be in 1..4, got {order}")


def fd_derivative(func, x, order=1, h=None):
    """Central difference of the given order with one Richardson level (h, h/2).

    Both stencils have O(h^2) truncation, so the (4 D(h/2) - D(h)) / 3
    combination is O(h^4) accurate.
    """
    if h is None:
        h = ORDER_STEP[order] * max(1.0, abs(x))
    return (4 * central_diff(func, order, x, h / 2) - central_diff(func, order, x, h)) / 3


def fd_bracket(fields, idx, x):
    """The right-iterated bracket of the fields (callables of x) by nested
    Richardson differences, the step widened NEST_WIDEN-fold per level."""

    def bracket(f, g, level):
        def value(y):
            h = ORDER_STEP[1] * max(1.0, abs(y)) * NEST_WIDEN ** (level - 1)
            return fd_derivative(g, y, 1, h) * f(y) - fd_derivative(f, y, 1, h) * g(y)
        return value

    current = fields[idx[0] - 1]
    for level, i in enumerate(idx[1:], start=1):
        current = bracket(current, fields[i - 1], level)
    return current(x)
