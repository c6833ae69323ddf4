"""Answers the benchmark checks library outputs against.

Nothing here calls alliancelib: the stage size formulas and width
bounds are restated from the README's claims, and orientations are
counted by brute force, so a check fails when the library and its
documented behaviour disagree.
"""

import itertools


def mmo_stage_counts(n, m, total_weight, r):
    """Counts of the mmo-to-fnc result of a target with n vertices, m
    edges of the given total weight, and target r."""
    return {
        "vertices": 2 * n * r + 4 * total_weight,
        "pairs": 2 * total_weight - m,
        "forbidden": 2 * total_weight,
        "necessary": 2 * n * r,
        "k": 2 * n * r + total_weight,
    }


def next_stage_counts(tag, counts):
    """Counts of a stage result from the counts of its source."""
    n = counts["vertices"]
    if tag == "fnc-to-fn":
        m = n * n + n
        pairs = counts["pairs"]
        return {
            "vertices": n + 2 * n * n + pairs * (3 + 4 * m),
            "pairs": 0,
            "forbidden": counts["forbidden"] + n * n + pairs * 2 * m,
            "necessary": counts["necessary"] + pairs,
            "k": counts["k"] * (n + 1) + pairs * (m + 2),
        }
    if tag == "fn-to-f":
        open_count = n - counts["forbidden"] - counts["necessary"]
        members = counts["necessary"] + 2 * open_count
        return {
            "vertices": n + 5 * open_count + 2 * members * (n + 1),
            "pairs": 0,
            "forbidden": counts["forbidden"] + members * (n + 1) + 2 * open_count,
            "necessary": 0,
            "k": (n + 3) * (counts["k"] + open_count) - counts["necessary"],
        }
    if tag == "f-to-plain":
        return {
            "vertices": n + counts["forbidden"] * (2 * counts["k"] + 1),
            "pairs": 0,
            "forbidden": 0,
            "necessary": 0,
            "k": counts["k"],
        }
    raise ValueError("no size formula for stage %r" % (tag,))


def instance_counts(instance):
    return {
        "vertices": len(instance.graph.vertices),
        "pairs": len(instance.pairs),
        "forbidden": len(instance.forbidden),
        "necessary": len(instance.necessary),
        "k": instance.k,
    }


# documented width of a stage's transformed decomposition, from the
# width of the decomposition it was transformed from
WIDTH_BOUND = {
    "mmo-to-fnc": lambda w: w + 4,
    "fnc-to-fn": lambda w: 3 * w + 5,
    "fn-to-f": lambda w: w + 13,
    "f-to-plain": lambda w: w + 2,
}


def outdegree(mmo, direction):
    """Largest total weight leaving a vertex; direction maps each
    canonical edge to its (tail, head)."""
    out = {}
    for edge, (tail, _head) in direction.items():
        out[tail] = out.get(tail, 0) + mmo.weights[edge]
    return max(out.values(), default=0)


def feasible_orientations(mmo):
    """Number of orientations with weighted outdegree at most r."""
    edges = sorted(mmo.weights)
    count = 0
    for flips in itertools.product((False, True), repeat=len(edges)):
        direction = {
            (u, w): (w, u) if flip else (u, w) for (u, w), flip in zip(edges, flips)
        }
        count += outdegree(mmo, direction) <= mmo.r
    return count

