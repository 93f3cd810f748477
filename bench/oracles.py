"""Reference answers that do not come from the code under test.

Property counts are closed forms or OEIS values for the encodings in
relcount.props (see encode() there for which clauses each property has):

- partialorder is antisymmetric + transitive with a free diagonal, so it is
  2^n labeled posets (A001035); nonstrictorder (reflexive) and strictorder
  (irreflexive) are the posets themselves.
- preorder is A000798, transitive is A006905.
- totalorder and bijective are n!, equivalence is Bell(n), and the rest are
  products over independent cells or rows.

A tree's true side holds sum over true leaves of 2^(k - depth) inputs,
because root-to-leaf paths partition the space and never repeat a feature.
"""

import json
import math

A001035 = (1, 1, 3, 19, 219, 4231, 130023, 6129859, 431723379)
A000798 = (1, 1, 4, 29, 355, 6942, 209527, 9535241, 642779354)
A006905 = (1, 2, 13, 171, 3994, 154303, 9415189, 878222530, 122207703623)


def bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def property_count(prop, n):
    """Number of n x n matrices with the property."""
    pairs = n * (n - 1) // 2
    return {
        "antisymmetric": lambda: 2 ** n * 3 ** pairs,
        "bijective": lambda: math.factorial(n),
        "connex": lambda: 3 ** pairs,
        "equivalence": lambda: bell(n),
        "function": lambda: n ** n,
        "functional": lambda: (n + 1) ** n,
        "injective": lambda: n ** n,
        "irreflexive": lambda: 2 ** (n * n - n),
        "nonstrictorder": lambda: A001035[n],
        "partialorder": lambda: 2 ** n * A001035[n],
        "preorder": lambda: A000798[n],
        "reflexive": lambda: 2 ** (n * n - n),
        "strictorder": lambda: A001035[n],
        "surjective": lambda: (2 ** n - 1) ** n,
        "totalorder": lambda: math.factorial(n),
        "transitive": lambda: A006905[n],
    }[prop]()


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def true_side_size(tree_json):
    """Inputs a serialized tree labels 1, summed over its true leaves."""
    obj = json.loads(tree_json)
    k = obj["feature_count"]
    total = 0
    stack = [(obj["root"], 0)]
    while stack:
        node, depth = stack.pop()
        if "leaf" in node:
            total += node["leaf"] << (k - depth)
        else:
            stack += ((node["low"], depth + 1), (node["high"], depth + 1))
    return total


def within_factor(estimate, exact, factor):
    return exact / factor <= estimate <= exact * factor
