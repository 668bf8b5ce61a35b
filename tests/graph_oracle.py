"""The diagram graph, built in full: the oracle for the near-vertex
shortcut in metric.

The graph of a diagram has vertices 0..L along the shared leaf path and
one arc {a, a+w} per node of either forest covering leaves [a, a+w).
The special vertices are the active ones at graph distance at least 2
from vertex 0; metric reads that distance off the left spines of the
first trees instead of searching the graph.
"""

from typing import NamedTuple


class DiagramGraph(NamedTuple):
    vertex_count: int
    arcs: frozenset  # of (a, b) pairs with a < b




def spans(f: str) -> list:
    # (first leaf, one past the last leaf) of every node of forest code f,
    # leaves included, in preorder.  An open caret's entry holds its first
    # leaf; its stack slot is its index while the left child is pending,
    # and the complement of its index while the right child is.
    out: list = []
    stack: list = []
    n = 0
    for c in f:
        if c == "(":
            stack.append(len(out))
            out.append(n)
        elif c == "L":
            out.append((n, n + 1))
            n += 1
            while stack and stack[-1] < 0:
                i = ~stack.pop()
                out[i] = (out[i], n)
            if stack:
                stack[-1] = ~stack[-1]
    return out


def diagram_graph(d: str) -> DiagramGraph:
    """Vertices 0..L and the deduplicated span arcs of both forests."""
    top, _, bottom = d.partition("|")
    top_spans = spans(top)
    return DiagramGraph(top_spans[-1][1] + 1, frozenset(top_spans + spans(bottom)))


