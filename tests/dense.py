"""Dense views of the sparse rows a Morse slice is kept in.

The library keeps each slice as one dict per row, from a basis_lo position
to a nonzero entry.  The tests' reference routes (the iterated flow, the
dense compose, the Markowitz peel, sympy) read lists of lists, so the rows
are widened here, and hand-written lists of lists are narrowed to rows.
"""


def densify(rows, cols):
    """Each row, {column: entry}, as a list of cols entries."""
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def sparsify(matrix):
    """The nonzero entries of each row of a list of lists, by column."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]
