"""Span recording around the calls into each relcount module.

The wrappers live here, in the benchmark, not in the program: `Tracer`
replaces each public function listed in TARGETS at every place it is bound
(the defining module and every relcount module that imported it by name),
records one span per call and restores the originals on exit.  Spans are
kept in memory as (name, start, end, parent, op) and summarised into
per-layer metrics at the end of the run.
"""

import functools
import sys
import time
from collections import defaultdict

# (module, attribute) of each traced function; "Solver.solve" is a method
TARGETS = (
    ("cli", "main"),
    ("props", "encode"), ("props", "evaluate_batch"),
    ("cnf", "parse_dimacs"), ("cnf", "emit_dimacs"), ("cnf", "conjoin"),
    ("sat", "Solver.solve"),
    ("counter", "count_exact"), ("counter", "count_approx"),
    ("counter", "solutions_array"),
    ("dataset", "make_balanced"), ("dataset", "gen_positive"),
    ("dataset", "gen_negative"), ("dataset", "split"),
    ("dataset", "write_csv"),
    ("dtree", "train_cart"), ("dtree", "predict_batch"),
    ("dtree", "serialize"), ("dtree", "deserialize"),
    ("tree2cnf", "side_cnf"),
    ("metrics", "confusion_counts"), ("metrics", "tree_difference"),
)

# functions whose time is also reported per benchmark operation, when the
# operation calls them directly
PER_OP = ("counter.count_exact", "counter.count_approx")


def _leaves(tree):
    stack, n = [tree.root], 0
    while stack:
        node = stack.pop()
        if hasattr(node, "label"):
            n += 1
        else:
            stack += (node.low, node.high)
    return n


# work counts taken from a traced call's result: span name -> (metric, fn)
COUNTS = {
    "props.evaluate_batch": ("props.evaluate_batch_rows", len),
    "dataset.gen_positive": ("dataset.rows", len),
    "dataset.gen_negative": ("dataset.rows", len),
    "dtree.train_cart": ("dtree.leaves", _leaves),
    "tree2cnf.side_cnf": ("tree2cnf.clauses", lambda f: len(f.clauses)),
}


def span_name(module, attr):
    return "%s.%s" % (module, attr.split(".")[-1])


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op]
        self.stack = []      # indices of open spans
        self.counts = defaultdict(int)
        self.op = "setup"
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        count = COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None,
                          stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if count is not None:
                counts[count[0]] += count[1](out)
            return out
        return traced

    def install(self):
        """Wrap every target at every relcount binding of it."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "relcount" or name.startswith("relcount.")}
        for module, attr in TARGETS:
            name = span_name(module, attr)
            owner = mods["relcount." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for obj, key, orig in reversed(self._saved):
            setattr(obj, key, orig)
        self._saved.clear()

    def close_open(self):
        """Ends the spans a hard stop left open."""
        now = time.perf_counter()
        for idx in self.stack:
            self.spans[idx][2] = now
        self.stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """Per-layer metrics: `<name>_s` (time in outermost calls),
        `<name>_self_s` (span minus its child spans), `<name>_calls`, the
        work counts, and `<name>_s.<op>` for the PER_OP functions."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for module, attr in TARGETS:
            name = span_name(module, attr)
            out[name + "_s"] = 0.0
            out[name + "_self_s"] = 0.0
            out[name + "_calls"] = 0
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            dur = t1 - t0
            out[name + "_self_s"] += dur - child[i]
            out[name + "_calls"] += 1
            if not self._inside(parent, name):
                out[name + "_s"] += dur
                if name in PER_OP and parent < 0:
                    out["%s_s.%s" % (name, op)] += dur
        for metric, _ in COUNTS.values():
            out[metric] = self.counts.get(metric, 0)
        return dict(out)

    def _inside(self, parent, name):
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": [[index[n], t0, t1, p, op]
                          for n, t0, t1, p, op in self.spans]}
