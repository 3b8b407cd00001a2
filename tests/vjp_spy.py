"""Count the VJPs that a backward walk runs toward chosen tensors.

``Tensor.backward`` skips every VJP toward a node that leads to no
requested input. This spy lets a test see that: while it is installed,
each backward first wraps, in the graph it walks, every VJP whose parent
is one of ``targets``, so that each call of one appends that parent to the
returned list.
"""

from ascl.tensor import Tensor


def count_vjps_toward(monkeypatch, targets):
    calls = []
    ids = {id(t) for t in targets}
    real = Tensor.backward

    def spying(root, inputs):
        seen, stack = set(), [root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            node._vjps = tuple((lambda g, p=p, f=f: calls.append(p) or f(g)) if id(p) in ids else f
                               for p, f in zip(node._parents, node._vjps))
            stack.extend(node._parents)
        return real(root, inputs)

    monkeypatch.setattr(Tensor, "backward", spying)
    return calls
