"""Visit the graph under a root, and count the VJPs that a backward walk runs.

``nodes_under`` yields every tensor under a root once, leaves included.
``Tensor.backward`` calls no VJP toward a node that leads to no requested
input. These spies let a test see that. ``spy_on_vjps`` wraps, in place,
every VJP of the graph under a root whose parent is one of ``targets``
(every VJP when ``targets`` is None), so that each call of one appends
that parent to a list; any walk of that graph, the engine's or a test
oracle's, then shows its calls there. ``count_vjps_toward`` installs the
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


def spy_on_vjps(root, calls, targets=None):
    """Wrap the VJPs under ``root`` toward ``targets`` to append their parent
    to ``calls``; wrap a graph once, or its calls count twice."""
    ids = None if targets is None else {id(t) for t in targets}
    for node in nodes_under(root):
        node._vjps = tuple((lambda g, p=p, f=f: calls.append(p) or f(g))
                           if ids is None or id(p) in ids else f
                           for p, f in zip(node._parents, node._vjps))
    return calls


def count_vjps_toward(monkeypatch, targets):
    calls = []
    real = Tensor.backward

    def spying(root, inputs):
        spy_on_vjps(root, calls, targets)
        return real(root, inputs)

    monkeypatch.setattr(Tensor, "backward", spying)
    return calls
