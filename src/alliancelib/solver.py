"""Exact solver for alliance instances: propagate-and-branch search.

Necessary vertices are fixed in and forbidden vertices out. A member
needs half of its closed neighborhood, rounded up, inside the set, and
every vertex keeps two counts against that need: its slack, the closed
neighbors inside or undecided beyond the need, and its deficit, the
need less the closed neighbors inside. Putting a vertex in lowers the
deficit of its closed neighborhood and leaves the slack as is; putting
it out lowers the slack and leaves the deficit as is, so each
assignment changes one count per neighbor. The closed neighborhood is
the graph's own open slice plus the vertex itself, and no copy of the
adjacency is made. After each assignment these rules run to a
fixpoint:

- each complementary pair has exactly one endpoint in;
- a member that cannot reach half of its closed neighborhood even with
  every undecided neighbor is a dead end;
- a member that needs every undecided neighbor forces them all in;
- the set stays within k and, in exact mode, can still reach k.

The members short of a majority are kept lazily, as candidates in an
int array: an in-assignment adds the new member when its deficit is
positive, and undo adds a member whose deficit rises back to 1, but
nothing is taken out when a deficit falls to 0 or a member is undone.
The array is compacted to its live candidates, the members with a
positive deficit, only when a branch vertex is chosen. An
in-assignment that leaves its vertex needing every undecided neighbor
lowers the deficits and queues those neighbors in the same loop.

The vertices that the root fixpoint leaves open are the free vertices
(free_count), and the search assigns them one at a time. The root takes
one pass. It sets every forbidden vertex out, which forces nothing,
since a forbidden vertex is never necessary nor in a pair and no vertex
is in yet. It does so one run of consecutive forbidden ids at a time,
as the stage builders give each gadget family consecutive ids: a run
is one slice write of the states and one pass over its own slacks, and
the slacks of its neighbors drop in one pass over the run's adjacency
slice (graph._tally), so no adjacency slice is taken per forbidden
vertex. Then one propagation puts the necessary vertices in
and runs the rules to the fixpoint. At the root the size bounds are
checked only once the other rules are done. A dead-end root is one
search node; where propagation met a conflict, what it left open
depends on its order, so free_count is then the number of vertices that
are not forbidden.

The search branches on an undecided neighbor of the member that is
short of a majority (a positive deficit) with the least slack, or,
with no member short, on the least undecided vertex, and tries in
before out. An in-branch that would fail at the branch vertex itself,
because the set is at its cap or the vertex cannot reach a majority
even with every undecided neighbor (its slack is negative), is refused
without being assigned; it still counts as a node, so nodes counts
the root and every branch tried, as before. The search walks an
explicit stack and undoes assignments from a trail, so no search depth
reaches the recursion limit. decide stops at the first solution, which
need not be the least one. In at-most mode without complementary pairs
it stops earlier, at the first node where, once short is compacted, the
set is non-empty and no member is short of a majority: putting every
undecided vertex out then leaves each member's slack at least its
closed neighbors inside less its need, which is not negative, and the
size is within k, so the members are a solution. decide returns them
as its witness, and nodes counts the nodes up to that one. In exact
mode or with pairs, putting the rest out could miss k or break a pair,
so decide searches on to a full assignment. minimum is branch-and-bound
on the size; count and enumerate-all visit every solution. The budget
caps the search at 2^budget nodes.
"""

from array import array
from itertools import compress
from operator import sub

from ._record import record
from .alliance import AllianceInstance, is_defensive_alliance
from .graph import VertexSet, _tally

GOALS = ("decide", "minimum", "enumerate-all", "count")

DEFAULT_BUDGET = 22


class BudgetExceededError(Exception):
    def __init__(self, free_count, budget):
        super().__init__(
            "the search over %d free vertices passed its budget of 2^%d nodes"
            % (free_count, budget)
        )
        self.free_count = free_count
        self.budget = budget


@record
class SolveRequest:
    instance: AllianceInstance
    goal: str
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.goal not in GOALS:
            raise ValueError("goal must be one of %s" % (", ".join(GOALS),))
        if self.budget < 0:
            raise ValueError("budget must be non-negative")


@record
class SolveResult:
    """The answer to a request. solve gives the witness and solutions
    as VertexSets over the instance graph's table, which compare and
    hash like frozensets and make their names only when read."""

    goal: str
    feasible: bool
    witness: frozenset = None
    size: int = None
    solutions: tuple = None
    count: int = None
    free_count: int = 0
    # search nodes visited: the root and every branch tried
    nodes: int = 0


def _set_key(members):
    return (len(members), tuple(sorted(members)))


class _Search:
    """Partial assignment over int vertex ids with incremental counts.

    Vertex ids are the graph's, which follow the sorted vertex order,
    and first and adjacent are the graph's own arrays: the closed
    neighborhood of v is its open slice adjacent[first[v]:first[v + 1]]
    plus v itself, whose own counts assign and undo change by hand.
    Each loop whose order matters (forcing a member's undecided
    neighbors, checking members after an out-assignment, branch_vertex)
    walks the neighborhood of a vertex that is decided by then, so
    leaving that vertex out of the walk changes nothing. state holds
    True (in), False (out) or None (undecided). slack and deficit are
    the counts of the module docstring. An in-assignment lowers the
    deficit of v and its neighbors and leaves every slack as is, so v,
    the new member, is the only one checked; an out-assignment lowers
    the slack of v and its neighbors, and one loop does that and checks
    the members among them. A member with negative slack is a dead end;
    one with zero slack and a positive deficit, which is then its
    undecided count, forces its undecided neighbors in. When v goes in
    needing every undecided neighbor, the one loop that lowers the
    deficits of its neighbors also queues the undecided ones; an
    out-assignment queues a forcing member's undecided neighbors without
    building a list. short is an
    int array of candidates: every member with a positive deficit is in
    it, appended when it goes in short or when undo raises its deficit
    back to 1, and it may also hold entries gone stale, members no
    longer short or no longer in, or repeats. branch_vertex compacts it
    to the live candidates before taking the least. assign takes a
    queue of signed ints, v to put v in and ~v to put it out, so no
    tuple is made per forced vertex. Every assignment below the root
    goes on the trail, an int array that keeps no int objects alive at
    a stage-3 depth, and undo reverts the counts by replaying it
    backwards.
    The search starts from the root fixpoint: forbidden vertices out one
    run of consecutive ids at a time, then necessary ones in, and all
    the rules force from there with the size bounds off; open then
    counts the free vertices, and consistent tells whether the root is
    a dead end, the size bounds included. free_count is open, or at a
    root where propagation met a conflict the vertices that are not
    forbidden. The root leaves the trail empty, as the search never
    undoes below it.
    """

    def __init__(self, instance):
        graph = instance.graph
        self.table = graph.order
        n = len(self.table)
        first = self.first = graph.first
        self.adjacent = graph.adjacent
        self.partners = {}
        for x, y in instance.pairs:
            i, j = self.table.find(x), self.table.find(y)
            self.partners.setdefault(i, []).append(j)
            self.partners.setdefault(j, []).append(i)
        # of the d + 1 closed neighbors of a vertex of degree d, a
        # member needs d // 2 + 1 in, so (d + 1) // 2 may be out; both
        # are looked up per degree, and the degrees are let go before
        # the root propagates
        degrees = list(map(sub, first[1:], first[:-1]))
        top = range(max(degrees, default=0) + 1)
        slack = self.slack = list(map([(d + 1) // 2 for d in top].__getitem__, degrees))
        self.deficit = list(map([d // 2 + 1 for d in top].__getitem__, degrees))
        del degrees
        state = self.state = [None] * n
        self.short = array("i")
        self.trail = array("i")
        self.size = 0
        self.k = instance.k
        # a forbidden vertex is never necessary nor in a pair, and no
        # vertex is in yet, so setting the forbidden ones out forces
        # nothing and checks no member; _tally lowers the slack of their
        # neighbors, and each run of forbidden ids takes one slice of
        # state and one pass over its own slacks, with no list over all
        # the ids
        forbidden = instance.forbidden.ids
        for start, stop in _tally(graph, forbidden, slack, -1):
            state[start:stop] = [False] * (stop - start)
            for i in range(start, stop):
                slack[i] -= 1
        self.open = n - len(forbidden)
        # size bounds off while the rules reach the root fixpoint; the
        # necessary ids come in id order, which keeps where a conflict
        # stops free of the hash seed
        self.cap, self.exact = n, False
        consistent = self.assign(instance.necessary.ids.tolist())
        self.free_count = self.open if consistent else n - len(forbidden)
        # the search never undoes below the root
        del self.trail[:]
        # largest size still worth reaching; minimum lowers it
        self.cap = instance.k
        self.exact = instance.mode == "exact"
        self.consistent = consistent and self.size <= self.k and (
            not self.exact or self.size + self.open >= self.k
        )

    def assign(self, pending):
        """Apply the assignments in pending, v to put v in and ~v to put
        it out, and all they force; False as soon as the partial
        assignment is a dead end."""
        state, first, adjacent = self.state, self.first, self.adjacent
        slack, deficit, short = self.slack, self.deficit, self.short
        trail, partners, cap = self.trail, self.partners, self.cap
        size, open_, exact, k = self.size, self.open, self.exact, self.k
        push = pending.append
        try:
            while pending:
                v = pending.pop()
                value = v >= 0
                if not value:
                    v = ~v
                current = state[v]
                if current is not None:
                    if current != value:
                        return False
                    continue
                state[v] = value
                trail.append(v)
                open_ -= 1
                if partners:
                    for p in partners.get(v, ()):
                        push(~p if value else p)
                neighbors = adjacent[first[v]:first[v + 1]]
                if value:
                    size += 1
                    deficit[v] -= 1
                    if deficit[v] > 0:
                        short.append(v)
                    if deficit[v] > 0 and not slack[v]:
                        # v needs every undecided neighbor: one loop
                        # lowers the deficits and queues them
                        for u in neighbors:
                            deficit[u] -= 1
                            if state[u] is None:
                                push(u)
                    else:
                        for u in neighbors:
                            deficit[u] -= 1
                    # an in neighbor leaves the slack of other members as
                    # is, so only v is checked; past a dead end the queue
                    # is dropped, and undo restores every count
                    if size > cap or slack[v] < 0:
                        return False
                    continue
                slack[v] -= 1
                # one loop lowers every neighbor's slack and checks the
                # members among them; it runs to the end past a dead
                # end, as undo restores every count
                dead = exact and size + open_ < k
                for u in neighbors:
                    slack[u] -= 1
                    if state[u]:
                        if slack[u] < 0:
                            dead = True
                        elif not slack[u] and deficit[u]:
                            for w in adjacent[first[u]:first[u + 1]]:
                                if state[w] is None:
                                    push(w)
                if dead:
                    return False
            return True
        finally:
            self.size, self.open = size, open_

    def undo(self, mark):
        """Revert every assignment made since the trail had mark entries."""
        state, first, adjacent = self.state, self.first, self.adjacent
        slack, deficit, short, trail = self.slack, self.deficit, self.short, self.trail
        while len(trail) > mark:
            v = trail.pop()
            value = state[v]
            state[v] = None
            self.open += 1
            if value:
                self.size -= 1
                deficit[v] += 1
                for u in adjacent[first[v]:first[v + 1]]:
                    deficit[u] += 1
                    # a member short again goes back among the candidates
                    if deficit[u] == 1 and state[u]:
                        short.append(u)
            else:
                slack[v] += 1
                for u in adjacent[first[v]:first[v + 1]]:
                    slack[u] += 1

    def branch_vertex(self, cursor):
        """The vertex to branch on, and the least undecided id, which is
        at least cursor. A short member with the least slack lends its
        least undecided neighbor; with none short, the least undecided
        vertex is taken. short is compacted first, so only members with
        a positive deficit remain in it."""
        state, short = self.state, self.short
        if short:
            deficit = self.deficit
            short = self.short = array(
                "i", [u for u in short if state[u] and deficit[u] > 0]
            )
        if short:
            slack = self.slack
            member = min(short, key=lambda u: (slack[u], u))
            for w in self.adjacent[self.first[member]:self.first[member + 1]]:
                if state[w] is None:
                    break
        else:
            w = None
        while state[cursor] is not None:
            cursor += 1
        return (cursor if w is None else w), cursor

    def complete(self):
        """Whether the full assignment is a solution: non-empty and, in
        exact mode, of size k; the rules have checked everything else."""
        return self.size > 0 and (not self.exact or self.size == self.k)

    def members(self):
        return array("i", compress(range(len(self.state)), self.state))


def solve(request):
    """Exact answer for the goal of the request by propagate-and-branch
    search; raises BudgetExceededError past 2^budget search nodes."""
    goal = request.goal
    search = _Search(request.instance)
    slack = search.slack
    free_count = search.free_count
    # no search gets near 2^64 nodes, and a larger cap would only cost memory
    limit = 1 << min(request.budget, 64)
    nodes = 1
    count = 0
    found = []  # (key, member ids); keys compare as _set_key does
    # (vertex, trail mark, cursor) of each branch whose out side is untried
    frames = []
    cursor = 0
    ok = search.consistent
    # decide in at-most mode without pairs: once no member is short, the
    # members are a solution and every undecided vertex may go out
    early_stop = goal == "decide" and not search.exact and not search.partners
    while True:
        if ok and search.open == 0:
            ok = False
            if search.complete():
                count += 1
                if goal != "count":
                    members = search.members()
                    key = (len(members), members)
                    if goal == "enumerate-all":
                        found.append(key)
                    elif not found or key < found[0]:
                        found[:] = [key]
                        search.cap = len(members)
                    if goal == "decide":
                        break
        if ok:
            v, cursor = search.branch_vertex(cursor)
            if early_stop and search.size and not search.short:
                found.append((search.size, search.members()))
                break
            frames.append((v, len(search.trail), cursor))
            # in fails at v itself, unassigned, when the set is full or v
            # cannot reach a majority even with every undecided neighbor
            ok = (
                search.size < search.cap
                and slack[v] >= 0
                and search.assign([v])
            )
        elif frames:
            v, mark, cursor = frames.pop()
            search.undo(mark)
            ok = search.assign([~v])
        else:
            break
        nodes += 1
        if nodes > limit:
            raise BudgetExceededError(free_count, request.budget)

    if goal == "count":
        return SolveResult(
            goal=goal, feasible=count > 0, count=count, free_count=free_count,
            nodes=nodes,
        )
    found.sort()
    # VertexSets over the graph's table: no names are made until read
    solutions = tuple(
        VertexSet(search.table, members) for _size, members in found
    )
    every = goal == "enumerate-all"
    return SolveResult(
        goal=goal,
        feasible=bool(solutions),
        witness=solutions[0] if solutions else None,
        size=len(solutions[0]) if solutions else None,
        solutions=solutions if every else None,
        count=len(solutions) if every else None,
        free_count=free_count,
        nodes=nodes,
    )


def _connected_candidates(graph, limit):
    """Connected induced vertex sets of size at most limit, each one
    exactly once: sets are rooted at their least vertex and extended by
    larger neighbors, with skipped extensions barred from reuse. Depth
    first, on an explicit stack, so a set may have any number of
    members."""
    rank = graph.index
    for v in graph.order:
        low = rank[v]
        yield (v,)
        if limit == 1:
            continue
        frontier = [w for w in graph.neighbors(v) if rank[w] > low]
        # a frame: members, its frontier, its barred set, and the
        # frontier's positions not yet tried
        stack = [((v,), frontier, set(), enumerate(frontier))]
        while stack:
            members, frontier, barred, steps = stack[-1]
            step = next(steps, None)
            if step is None:
                stack.pop()
                continue
            i, u = step
            rest = frontier[i + 1:]
            extra = [
                w
                for w in graph.neighbors(u)
                if rank[w] > low and w not in members and w not in barred and w not in rest
            ]
            grown = members + (u,)
            yield grown
            if len(grown) != limit:
                frontier = rest + extra
                stack.append((grown, frontier, set(barred), enumerate(frontier)))
            barred.add(u)


def _check_connected(instance, goal):
    """Refuse what a connected search cannot answer: exact sizes and
    constrained variants, and goals other than decide and minimum."""
    if instance.variant != "plain" or instance.mode != "at-most":
        raise ValueError(
            "connected search answers plain at-most instances only, got "
            "variant %s in %s mode" % (instance.variant, instance.mode)
        )
    if goal not in ("decide", "minimum"):
        raise ValueError('goal must be "decide" or "minimum", got %r' % (goal,))


def solve_connected_pruned(instance, goal="minimum"):
    """Minimum and decision answers from connected candidates only.

    A smallest non-empty defensive alliance is always connected, so for
    plain at-most instances this agrees with full enumeration. Exact
    sizes and constrained variants can have only disconnected answers
    and are rejected.
    """
    _check_connected(instance, goal)
    graph = instance.graph
    defended = (
        frozenset(members)
        for members in _connected_candidates(graph, instance.k)
        if is_defensive_alliance(graph, members)
    )
    best = min(defended, key=_set_key, default=None)
    if best is None:
        return SolveResult(goal=goal, feasible=False, free_count=len(graph.vertices))
    return SolveResult(
        goal=goal, feasible=True, witness=best, size=len(best), free_count=len(graph.vertices)
    )
