"""Visit the graph under a root, and record the nodes whose VJP a backward walk runs.

``nodes_under`` yields every tensor under a root once, leaves included.
``Tensor.backward`` runs the VJP of each node that leads to a requested
input once, and no other. These spies let a test see that. ``spy_on_vjps``
wraps, in place, the VJP of every node under a root, so that each call
appends that node to a list; any walk of that graph, the engine's or a
test oracle's, then shows its calls there. ``count_vjp_calls`` installs the
same wrapping before each ``Tensor.backward`` while it is patched in.
"""

from ascl.tensor import Tensor


def nodes_under(root):
    """Each tensor of the graph under ``root``, ``root`` included, once."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            yield node
            stack.extend(node._parents)


def spy_on_vjps(root, calls):
    """Wrap the VJP of each node under ``root`` to append the node to
    ``calls``; wrap a graph once, or its calls count twice."""
    for node in nodes_under(root):
        if node._vjp is not None:
            node._vjp = lambda g, node=node, f=node._vjp: calls.append(node) or f(g)
    return calls


def count_vjp_calls(monkeypatch):
    calls = []
    real = Tensor.backward

    def spying(root, inputs):
        spy_on_vjps(root, calls)
        return real(root, inputs)

    monkeypatch.setattr(Tensor, "backward", spying)
    return calls
