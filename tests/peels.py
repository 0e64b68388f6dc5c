"""Reference unit-pivot peels, the check routes of homology._unit_echelon.

Both take +-1 pivots off a matrix by exact integer row updates and return
the number of pivots with the dense residue of rows and columns that no
pivot touched; one 1 per pivot beside the residue's invariant factors are
the invariant factors of the matrix.  They pick their pivots in other
orders than the echelon: column_sweep_peel sweeps the live columns,
shortest first, and markowitz_peel takes the +-1 of least Markowitz cost.
transpose gives the rows of a matrix's transpose, the other orientation
the peels are run on.
"""


def column_sweep_peel(rows):
    """Peel +-1 pivots off rows ({column: nonzero entry} each) in sweeps
    over the live columns, shortest first and sorted again before each
    sweep, each pivot in the narrowest row holding a +-1 in that column,
    until a sweep finds none.  rows itself is left as it is."""
    rows = [dict(row) for row in rows]
    in_col = {}
    for i, row in enumerate(rows):
        for j in row:
            in_col.setdefault(j, set()).add(i)
    peeled = 0
    swept = -1
    while swept != peeled:
        swept = peeled
        for q in sorted((j for j in in_col if in_col[j]),
                        key=lambda j: (len(in_col[j]), j)):
            units = [i for i in in_col[q] if rows[i][q] in (1, -1)]
            if not units:
                continue
            p = min(units, key=lambda i: (len(rows[i]), i))
            prow = rows[p]
            u = prow[q]
            for i in in_col[q] - {p}:
                row = rows[i]
                f = row[q] * u  # u is its own inverse
                for j, v in prow.items():
                    w = row.get(j, 0) - f * v
                    if w:
                        if j not in row:
                            in_col[j].add(i)
                        row[j] = w
                    else:
                        del row[j]
                        in_col[j].discard(i)
            # column q is now the pivot alone, so column updates clear row
            # p without touching any other row
            for j in prow:
                in_col[j].discard(p)
            rows[p] = {}
            peeled += 1
    keep_cols = sorted(j for j, members in in_col.items() if members)
    residue = [[row.get(j, 0) for j in keep_cols] for row in rows if row]
    return peeled, residue


def markowitz_peel(matrix):
    """Peel +-1 pivots off a list of lists, each pivot the +-1 entry of
    least Markowitz cost, (other entries in its row) * (other entries in
    its column), over every live row."""
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    in_col = {}
    for i, row in enumerate(rows):
        for j in row:
            in_col.setdefault(j, set()).add(i)
    live = {i for i, row in enumerate(rows) if row}
    peeled = 0
    while True:
        pivot, best = None, None
        for i in live:
            width = len(rows[i]) - 1
            for j, v in rows[i].items():
                if v in (1, -1):
                    cost = width * (len(in_col[j]) - 1)
                    if best is None or cost < best:
                        best, pivot = cost, (i, j)
        if pivot is None:
            break
        p, q = pivot
        prow = rows[p]
        for i in in_col[q] - {p}:
            row = rows[i]
            f = row[q] * prow[q]
            for j, v in prow.items():
                w = row.get(j, 0) - f * v
                if w:
                    in_col[j].add(i)
                    row[j] = w
                else:
                    del row[j]
                    in_col[j].discard(i)
            if not row:
                live.discard(i)
        for j in prow:
            in_col[j].discard(p)
        rows[p] = {}
        live.discard(p)
        peeled += 1
    keep_cols = sorted(j for j, members in in_col.items() if members)
    return peeled, [[rows[i].get(j, 0) for j in keep_cols]
                    for i in sorted(live)]


def transpose(rows, cols):
    """The rows of the transpose of rows, a matrix with cols columns."""
    out = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out
