"""Seeded inputs for the treewalk benchmark.

Everything a workload feeds the program under test comes from here: the
tree files (`.term` text; `.twsnap` images are built from them with
`twq snapshot build`), the five `.twp` program texts, the request order,
and a ground-truth verdict for every (program, tree) pair.  The verdicts
come from plain loops over the generated tree, never from the
interpreter, so a wrong answer from the program cannot agree with itself.

The generator is deliberately independent of src/tree/generate.cc: an
edit there must not shift a workload.  Same seed, same bytes.
"""

import os
import random

# The five programs in play.  Each is paired with a plain-loop oracle in
# TRUTH below.
PROGRAMS = {
    # The paper's Example 3.2 (class tw^{r,l}, atp() look-ahead): every
    # delta node's leaf descendants share one value of attribute a.
    "example32": """\
class twrl
states q0 qf
register X1 1
rule #top q0 [true] atp X1 "desc(x, y) & lab(y, delta)" q2 q1
rule #top q1 [true] move stay qf
rule delta q2 [true] atp X1 "exists z (desc(x, y) & E(y, z) & lab(z, #leaf))" q4 q3
rule delta q3 [forall u forall v (X1(u) & X1(v) -> u = v)] move stay qf
rule delta q4 [true] update X1(u) "u = attr(a)" q5
rule sigma q4 [true] update X1(u) "u = attr(a)" q5
rule * q5 [true] move stay qf
""",
    # Plain tw depth-first walk: some node is labelled needle.
    "has_label": """\
class tw
states fwd qf
rule needle fwd [true] move stay qf
rule #top fwd [true] move down fwd
rule #open fwd [true] move right fwd
rule * fwd [true] move down fwd
rule #leaf fwd [true] move up back
rule #close fwd [true] move up back
rule * back [true] move right fwd
""",
    # Store update at the root, then a store guard at every b node: every
    # b node carries the root's value of a.
    "b_equals_root": """\
class twr
states s0 qf
register X1 1
rule #top s0 [true] move down s1
rule #open s1 [true] move right s2
rule * s2 [true] update X1(u) "u = attr(a)" fwd
rule b fwd [exists u (X1(u) & u = attr(a))] move down fwd
rule * fwd [true] move down fwd
rule #open fwd [true] move right fwd
rule #leaf fwd [true] move up back
rule #close fwd [true] move up back
rule * back [true] move right fwd
rule #top back [true] move stay qf
""",
    # Some leaf carries the root's value of a.
    "root_at_leaf": """\
class twr
states s0 qf
register X1 1
rule #top s0 [true] move down s1
rule #open s1 [true] move right s2
rule * s2 [true] update X1(u) "u = attr(a)" fwd
rule * fwd [true] move down fwd
rule #open fwd [true] move right fwd
rule #leaf fwd [true] move up chk
rule #close fwd [true] move up back
rule * chk [exists u (X1(u) & u = attr(a))] move stay qf
rule * chk [!(exists u (X1(u) & u = attr(a)))] move right fwd
rule * back [true] move right fwd
""",
    # One transition: the per-request fixed cost and nothing else.
    "one_step": """\
class tw
states q0 qf
rule #top q0 [true] move stay qf
""",
}


class Tree:
    """Parent-linked tree; node 0 is the root, parents precede children."""

    def __init__(self):
        self.label = []
        self.parent = []
        self.children = []
        self.value = []

    def add(self, label, parent):
        self.label.append(label)
        self.parent.append(parent)
        self.children.append([])
        self.value.append(0)
        if parent >= 0:
            self.children[parent].append(len(self.label) - 1)
        return len(self.label) - 1

    def size(self):
        return len(self.label)

    def leaves(self):
        return [u for u in range(self.size()) if not self.children[u]]

    def to_term(self):
        """Term syntax, e.g. delta[a=3](sigma[a=3], sigma[a=3])."""
        out = []
        stack = [(0, False)]
        while stack:
            u, closing = stack.pop()
            if closing:
                out.append(")")
                continue
            if out and out[-1] not in ("(",):
                out.append(", ")
            out.append("%s[a=%d]" % (self.label[u], self.value[u]))
            kids = self.children[u]
            if kids:
                out.append("(")
                stack.append((u, True))
                for v in reversed(kids):
                    stack.append((v, False))
        return "".join(out) + "\n"


def example32_tree(rng, n, uniform):
    """Example 3.2-shaped: random attach, delta/sigma labels, and every
    leaf below a delta node holding the value of its top-most delta
    ancestor.  A poisoned tree moves one leaf under the root off it."""
    t = Tree()
    t.add("delta", -1)
    for i in range(1, n):
        parent = 0 if i == n - 1 else rng.randrange(i)
        t.add("delta" if rng.random() < 0.5 else "sigma", parent)
    region = [-1] * n
    for u in range(n):
        p = t.parent[u]
        if p >= 0 and region[p] >= 0:
            region[u] = region[p]
        elif t.label[u] == "delta":
            region[u] = rng.randrange(64)
        t.value[u] = region[u] if t.children[u] == [] and region[u] >= 0 \
            else rng.randrange(64)
    if not uniform:
        t.value[t.leaves()[-1]] += 1000
    return t


def ab_tree(rng, n, needle, b_equal_root, value_range):
    """Random a/b tree (bounded fan-out attach) with values in
    [0, value_range); optionally a planted needle and every b node set
    to the root's value."""
    t = Tree()
    t.add(rng.choice("ab"), -1)
    open_nodes = [0]
    for _ in range(1, n):
        slot = rng.randrange(len(open_nodes))
        u = t.add(rng.choice("ab"), open_nodes[slot])
        if len(t.children[open_nodes[slot]]) >= 4:
            open_nodes[slot] = open_nodes[-1]
            open_nodes.pop()
        open_nodes.append(u)
    for u in range(n):
        t.value[u] = rng.randrange(value_range)
    if b_equal_root:
        for u in range(n):
            if t.label[u] == "b":
                t.value[u] = t.value[0]
    if needle:
        t.label[rng.randrange(1, n)] = "needle"
    return t


def _example32_truth(t):
    # Per node, the (min, max) value over the leaves strictly below it.
    lo = [None] * t.size()
    hi = [None] * t.size()
    for u in range(t.size() - 1, -1, -1):
        for v in t.children[u]:
            if t.children[v]:
                cands = [(lo[v], hi[v])] if lo[v] is not None else []
            else:
                cands = [(t.value[v], t.value[v])]
            for a, b in cands:
                lo[u] = a if lo[u] is None else min(lo[u], a)
                hi[u] = b if hi[u] is None else max(hi[u], b)
    return all(lo[u] == hi[u] for u in range(t.size())
               if t.label[u] == "delta")


TRUTH = {
    "example32": _example32_truth,
    "has_label": lambda t: "needle" in t.label,
    "b_equals_root": lambda t: all(
        t.value[u] == t.value[0] for u in range(t.size())
        if t.label[u] == "b"),
    "root_at_leaf": lambda t: any(
        t.value[u] == t.value[0] for u in t.leaves()),
    "one_step": lambda t: True,
}


def _sizes(count, lo, hi):
    """Geometric spacing.  Sizes and tree kinds are fixed per workload;
    the seed draws shapes, values and request order, so seeds differ in
    detail but not in the cost profile."""
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def _cycles(rng, count, length):
    """`length` draws over range(count): shuffled passes, each index once
    per pass, so every pair gets the same share of the load."""
    seq = []
    while len(seq) < length:
        order = list(range(count))
        rng.shuffle(order)
        seq.extend(order)
    return seq[:length]


def build(workload, seed, out_dir):
    """Writes the workload's inputs under out_dir and returns its plan:

      trees     [{name, term, format, nodes}]  name is the corpus key
      programs  {program: path of its .twp}
      pairs     [(program, tree name, expected verdict)]
      sequence  request order, as indices into pairs
    """
    rng = random.Random("%s/%d" % (workload, seed))
    os.makedirs(out_dir, exist_ok=True)
    programs = {}
    for name, text in PROGRAMS.items():
        path = os.path.join(out_dir, name + ".twp")
        with open(path, "w") as f:
            f.write(text)
        programs[name] = path

    specs = []  # (tree, programs run on it)
    if workload == "serve-walk":
        for i, n in enumerate(_sizes(32, 4000, 8000)):
            specs.append((example32_tree(rng, n, uniform=(i % 2 == 0)),
                          ["example32"]))
    elif workload == "serve-mix":
        for i, n in enumerate(_sizes(32, 128, 1024)):
            if i % 2 == 0:
                t = example32_tree(rng, n, uniform=(i % 4 == 0))
            else:
                t = ab_tree(rng, n, needle=(i % 4 == 1),
                            b_equal_root=(i % 8 in (1, 3)),
                            value_range=8 if i % 8 < 4 else 1000)
            specs.append((t, list(PROGRAMS)))
    elif workload == "batch-cold":
        for i, n in enumerate(_sizes(32, 512, 8000)):
            if i % 2 == 0:
                specs.append((example32_tree(rng, n, uniform=(i % 4 == 0)),
                              ["example32", "has_label"]))
            else:
                specs.append((ab_tree(rng, n, needle=(i % 4 == 1),
                                      b_equal_root=(i % 8 in (1, 3)),
                                      value_range=8),
                              ["has_label", "b_equals_root"]))
    else:
        raise ValueError("unknown workload %r" % workload)

    trees, pairs = [], []
    for i, (t, progs) in enumerate(specs):
        fmt = "twsnap" if (i // 2) % 2 else "term"
        stem = "t%02d" % i
        term_path = os.path.join(out_dir, stem + ".term")
        with open(term_path, "w") as f:
            f.write(t.to_term())
        name = stem + "." + fmt
        trees.append({"name": name, "term": term_path, "format": fmt,
                      "nodes": t.size()})
        for p in progs:
            pairs.append((p, name, TRUTH[p](t)))

    if workload == "batch-cold":
        sequence = list(range(len(pairs)))
        rng.shuffle(sequence)
    else:
        sequence = _cycles(rng, len(pairs), 200000)
    return {"trees": trees, "programs": programs, "pairs": pairs,
            "sequence": sequence}
