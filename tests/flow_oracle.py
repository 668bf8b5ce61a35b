"""The (2,1)-matching as an integral max-flow: the oracle for
subgraphs.two_one_matching.

The network is source -> y (capacity 2), y -> u for every B1-vertex u
at distance <= 1 (capacity 2, never the bottleneck), u -> sink
(capacity 1).  The matching exists iff the flow saturates 2#Y.  On
failure the Y-vertices on the source side of the minimal min cut (those
reachable from the source in the residual graph) form the Hall witness.
It shares no code with subgraphs; Dinic's augmenting step recurses to
the length of the level graph.
"""


class Dinic:
    """Integral max-flow, adjacency-list residual graph."""

    def __init__(self, n):
        self.n = n
        self.heads = [[] for _ in range(n)]
        self.to = []
        self.cap = []

    def add_edge(self, u, v, capacity):
        index = len(self.to)
        self.heads[u].append(index)
        self.to.append(v)
        self.cap.append(capacity)
        self.heads[v].append(index + 1)
        self.to.append(u)
        self.cap.append(0)
        return index

    def _levels(self, s, t):
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in self.heads[u]:
                v = self.to[e]
                if self.cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _augment(self, u, t, limit, level, it):
        if u == t:
            return limit
        while it[u] < len(self.heads[u]):
            e = self.heads[u][it[u]]
            v = self.to[e]
            if self.cap[e] > 0 and level[v] == level[u] + 1:
                pushed = self._augment(v, t, min(limit, self.cap[e]), level, it)
                if pushed:
                    self.cap[e] -= pushed
                    self.cap[e ^ 1] += pushed
                    return pushed
            it[u] += 1
        return 0

    def max_flow(self, s, t):
        flow = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, 1 << 60, level, it)
                if not pushed:
                    break
                flow += pushed

    def reachable(self, s):
        seen = {s}
        queue = [s]
        for u in queue:
            for e in self.heads[u]:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def two_one_matching(vertices, adjacency):
    """(assignment, witness) for Y = vertices, one of them None.

    adjacency maps each Y-vertex to its B1-vertices at distance <= 1;
    assignment maps B1-vertex -> the Y-vertex it serves.
    """
    vertices = list(vertices)
    index = {d: i for i, d in enumerate(vertices)}
    for d in vertices:
        for u in adjacency[d]:
            index.setdefault(u, len(index))
    n = len(vertices)
    source = n + len(index)
    sink = source + 1
    net = Dinic(sink + 1)
    for i in range(n):
        net.add_edge(source, i, 2)
    middle = {}
    for i, d in enumerate(vertices):
        for u in adjacency[d]:
            middle[net.add_edge(i, n + index[u], 2)] = (u, d)
    for j in range(len(index)):
        net.add_edge(n + j, sink, 1)
    if net.max_flow(source, sink) == 2 * n:
        return {u: d for e, (u, d) in middle.items() if net.cap[e ^ 1] > 0}, None
    reachable = net.reachable(source)
    return None, {d for i, d in enumerate(vertices) if i in reachable}
