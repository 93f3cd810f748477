"""The four benchmark workloads.

Each workload has three parts:

- prepare(): builds the program's inputs through relcount (encodings, DIMACS
  round trips, trained trees).  It is part of setup_s and is traced.
- oracle(inputs): the expected answers, from oracles.py or, where the
  workload says so, an independent counter run in setup.  Never traced.
- ops(inputs, expected): the timed operations.  Each Op calls relcount
  through module attributes looked up at call time, so the tracer's
  wrappers see the call.

`tiny=True` shrinks every workload to a size whose oracles run in seconds;
it checks the benchmark itself.
"""

import fcntl
import hashlib
import json
import math
import os
import random
import shutil
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracles


@dataclass
class Op:
    name: str
    run: Callable[[], Any]          # the timed call into relcount
    answer: Callable[[Any], Any]    # raw result -> comparable answer, None if none
    check: Callable[[Any], str]     # answer -> "ok", "out_of_bound" or "wrong: ..."
    timeout: float                  # seconds; the benchmark hard-stops later


def check_equal(expected):
    def check(got):
        return "ok" if got == expected else "wrong: %r != %r" % (got, expected)
    return check


def count_of(result):
    return None if result.timed_out else result.count


def dimacs_round_trip(rc, f):
    """What `relcount count` does with a formula file."""
    return rc.cnf.parse_dimacs(rc.cnf.emit_dimacs(f))


def property_formula(rc, prop, n):
    return rc.props.encode(rc.props.PropertySpec(rc.props.lookup(prop), n))


def random_3cnf(rc, rng, num_vars, num_clauses, projection_width=None):
    clauses = tuple(
        tuple(v if rng.random() < 0.5 else -v
              for v in rng.sample(range(1, num_vars + 1), 3))
        for _ in range(num_clauses))
    proj = None
    if projection_width is not None:
        proj = frozenset(rng.sample(range(1, num_vars + 1), projection_width))
    return rc.cnf.CnfFormula(num_vars, clauses, proj)


# ---------------------------------------------------------------------------
# count-exact: the component-caching exact core on property encodings

EXACT_PROPS = {
    False: (("preorder", 7), ("strictorder", 7), ("nonstrictorder", 7),
            ("totalorder", 9), ("bijective", 8), ("equivalence", 7),
            ("transitive", 6), ("partialorder", 6),
            # the fast named counts of the acceptance tests
            ("antisymmetric", 5), ("connex", 6), ("function", 8),
            ("functional", 8), ("injective", 8), ("irreflexive", 5),
            ("reflexive", 5)),
    True: (("preorder", 4), ("strictorder", 4), ("totalorder", 4),
           ("bijective", 4), ("equivalence", 4), ("transitive", 3),
           ("partialorder", 3), ("antisymmetric", 3), ("function", 3)),
}
# (variables, clauses) of the projected random 3-CNFs; brute force is the oracle
EXACT_RANDOM = {False: ((20, 50), (20, 60), (20, 70)), True: ((10, 25),)}
# the 2-CNF path x_i or x_(i+1); its count is F(n + 2)
PATH_VARS = {False: 3000, True: 30}
EXACT_TIMEOUT = 60.0


class CountExact:
    setup_repeats = 5

    def __init__(self, rc, seed, tiny, out_dir):
        self.rc, self.seed, self.tiny = rc, seed, tiny
        self.stage_times = {}

    def prepare(self):
        rc = self.rc
        inputs = []
        for prop, n in EXACT_PROPS[self.tiny]:
            inputs.append(("%s-%d" % (prop, n), (prop, n),
                           dimacs_round_trip(rc, property_formula(rc, prop, n))))
        for i, (nv, m) in enumerate(EXACT_RANDOM[self.tiny]):
            rng = random.Random("count-exact/%d/%d" % (self.seed, i))
            f = random_3cnf(rc, rng, nv, m, rng.randint(nv // 2, nv))
            inputs.append(("random-%d" % i, None, dimacs_round_trip(rc, f)))
        n = PATH_VARS[self.tiny]
        path = rc.cnf.CnfFormula(n, tuple((i, i + 1) for i in range(1, n)))
        inputs.append(("path-%d" % n, None, dimacs_round_trip(rc, path)))
        return inputs

    def oracle(self, inputs):
        expected = {}
        for name, prop_n, f in inputs:
            if prop_n is not None:
                expected[name] = oracles.property_count(*prop_n)
            elif name.startswith("path-"):
                expected[name] = oracles.fibonacci(f.num_vars + 2)
            else:
                expected[name] = self.rc.counter.count_bruteforce(f).count
        return expected

    def ops(self, inputs, expected):
        rc = self.rc
        return [Op(name,
                   lambda f=f: rc.counter.count_exact(f, timeout=EXACT_TIMEOUT),
                   count_of, check_equal(expected[name]), EXACT_TIMEOUT)
                for name, _, f in inputs]


# ---------------------------------------------------------------------------
# count-approx: the hashing counter with CDCL solves, exact core bypassed

# (property, scope, timeout s).  The last two overrun their deadline at the
# parent of this benchmark: Solver.solve never looks at it.
APPROX_PROPS = {
    False: (("partialorder", 5, 30.0), ("function", 6, 30.0),
            ("connex", 5, 30.0), ("preorder", 5, 30.0),
            ("antisymmetric", 5, 3.0), ("transitive", 7, 3.0)),
    True: (("partialorder", 3, 10.0), ("function", 4, 10.0),
           ("connex", 3, 10.0), ("antisymmetric", 3, 10.0)),
}
# variable counts of the random 3-CNFs, at 3.2 clauses per variable.  Their
# hashing time grows with the model count (0.4 s to 6 s at these sizes), so
# each keeps the first of CANDIDATES seeded draws whose count lies in
# APPROX_WINDOW, or the draw nearest to it.  Setup counts every candidate,
# so its time does not depend on how soon one fits.
APPROX_RANDOM = {False: (32, 35, 38, 40), True: (12,)}
APPROX_WINDOW = (1 << 10, 1 << 13)
CANDIDATES = 8
APPROX_TIMEOUT = 30.0
APPROX_FACTOR = 1.8     # 1 + epsilon at the default epsilon = 0.8


class CountApprox:
    setup_repeats = 3

    def __init__(self, rc, seed, tiny, out_dir):
        self.rc, self.seed, self.tiny = rc, seed, tiny
        self.stage_times = {}

    def prepare(self):
        """Returns (name, property or None, candidate formulas, hash seed,
        timeout) per instance."""
        rc = self.rc
        inputs = []
        # The property instances keep fixed hash seeds: their run time
        # varies up to 1.7x across parity draws (partialorder-5: 4.8 s to
        # 8.4 s), which would swamp wall_s.  The random instances and their
        # hash seeds follow --seed.
        for i, (prop, n, timeout) in enumerate(APPROX_PROPS[self.tiny]):
            f = dimacs_round_trip(rc, property_formula(rc, prop, n))
            inputs.append(("%s-%d" % (prop, n), (prop, n), [f], i, timeout))
        for i, nv in enumerate(APPROX_RANDOM[self.tiny]):
            rng = random.Random("count-approx/%d/%d" % (self.seed, i))
            candidates = [
                dimacs_round_trip(rc, random_3cnf(rc, rng, nv, round(3.2 * nv)))
                for _ in range(CANDIDATES)]
            inputs.append(("random-%d" % i, None, candidates,
                           rng.getrandbits(32), APPROX_TIMEOUT))
        return inputs

    def oracle(self, inputs):
        """name -> (chosen candidate, count): closed forms for the
        properties, the exact counter for the random instances (at most
        0.06 s each where hashing takes seconds)."""
        lo, hi = APPROX_WINDOW
        centre = math.log2(lo * hi) / 2
        expected = {}
        for name, prop_n, candidates, _, _ in inputs:
            if prop_n is not None:
                expected[name] = (0, oracles.property_count(*prop_n))
                continue
            counts = [self.rc.counter.count_exact(f).count for f in candidates]
            fits = [i for i, c in enumerate(counts) if lo <= c < hi]
            i = fits[0] if fits else min(
                range(len(counts)),
                key=lambda i: abs(math.log2(counts[i]) - centre)
                if counts[i] else math.inf)
            expected[name] = (i, counts[i])
        return expected

    def ops(self, inputs, expected):
        rc = self.rc

        def check(exact):
            def in_bound(estimate):
                if oracles.within_factor(estimate, exact, APPROX_FACTOR):
                    return "ok"
                return "out_of_bound"
            return in_bound

        ops = []
        for name, _, candidates, hseed, timeout in inputs:
            i, exact = expected[name]
            ops.append(Op(name,
                          lambda f=candidates[i], s=hseed, t=timeout:
                          rc.counter.count_approx(f, seed=s, timeout=t,
                                                  exact_attempt=0),
                          count_of, check(exact), timeout))
        return ops


# ---------------------------------------------------------------------------
# audit-trees: whole-space confusion counts and tree differences of stored
# trees, as accmc and diffmc compute them

AUDIT_ROSTER = {
    # (scope, properties): two balanced-data trees each
    False: ((5, ("partialorder", "transitive", "preorder", "equivalence",
                 "function", "connex", "strictorder")),
            (6, ("preorder", "strictorder", "nonstrictorder", "function",
                 "bijective", "equivalence"))),
    True: ((3, ("partialorder", "transitive", "equivalence")),
           (4, ("preorder", "function"))),
}
# antisymmetric trees trained on 8,000 positives diluted to these valid shares
AUDIT_RATIO = {False: (5, 8000, (99.0, 50.0, 1.0)), True: (3, 40, (90.0, 50.0))}
AUDIT_TIMEOUT = 30.0


class AuditTrees:
    setup_repeats = 1   # training the roster is most of a run's time

    def __init__(self, rc, seed, tiny, out_dir):
        self.rc, self.seed, self.tiny = rc, seed, tiny
        self.stage_times = {}

    def prepare(self):
        """Trains the roster; returns (name, prop, scope, tree JSON, phi)."""
        ds, rc = self.rc.dataset, self.rc
        trees = []

        def add(name, prop, n, data):
            trees.append((name, prop, n,
                          rc.dtree.serialize(rc.dtree.train_cart(data)),
                          property_formula(rc, prop, n)))

        for n, props in AUDIT_ROSTER[self.tiny]:
            for prop in props:
                spec = rc.props.PropertySpec(rc.props.lookup(prop), n)
                for j in (1, 2):
                    add("%s-%d-t%d" % (prop, n, j), prop, n,
                        ds.make_balanced(spec, seed=10 * self.seed + j))
        n, positives, shares = AUDIT_RATIO[self.tiny]
        spec = rc.props.PropertySpec(rc.props.lookup("antisymmetric"), n)
        for vp in shares:
            add("antisymmetric-%d-v%g" % (n, vp), "antisymmetric", n,
                ds.make_ratio(spec, False, vp, round(positives * 100 / vp),
                              seed=10 * self.seed + 3))
        return trees

    def oracle(self, trees):
        return {name: (oracles.property_count(prop, n),
                       oracles.true_side_size(text), n * n)
                for name, prop, n, text, _ in trees}

    def ops(self, trees, expected):
        ops = []
        for name, prop, n, text, phi in trees:
            ops.append(Op("audit/" + name,
                          lambda phi=phi, text=text: self._audit(phi, text),
                          lambda r: r, self._check_audit(*expected[name]),
                          AUDIT_TIMEOUT))
        for i, (a, pa, na, ta, _) in enumerate(trees):
            for b, pb, nb, tb, _ in trees[i + 1:]:
                if (pa, na) != (pb, nb):
                    continue
                ops.append(Op("diff/%s/%s" % (a, b),
                              lambda ta=ta, tb=tb: self._diff(ta, tb),
                              lambda r: r,
                              self._check_diff(expected[a][1], expected[b][1],
                                               na * na),
                              AUDIT_TIMEOUT))
        return ops

    def _audit(self, phi, text):
        dtree = self.rc.dtree
        tree = dtree.deserialize(text)
        if dtree.serialize(tree) != text:
            return "tree JSON does not round-trip"
        cc = self.rc.metrics.confusion_counts(phi, tree)
        return (cc.tp, cc.fp, cc.tn, cc.fn)

    def _diff(self, ta, tb):
        dtree = self.rc.dtree
        d = self.rc.metrics.tree_difference(dtree.deserialize(ta),
                                            dtree.deserialize(tb))
        return (d.tt, d.tf, d.ft, d.ff)

    @staticmethod
    def _check_audit(phi_count, true_side, k):
        def check(got):
            if not isinstance(got, tuple) or None in got:
                return "wrong: %r" % (got,)
            tp, fp, tn, fn = got
            if tp + fp + tn + fn != 1 << k:
                return "wrong: quadrants sum to %d, not 2^%d" % (tp + fp + tn + fn, k)
            if tp + fn != phi_count:
                return "wrong: tp+fn = %d, |phi| = %d" % (tp + fn, phi_count)
            if tp + fp != true_side:
                return "wrong: tp+fp = %d, true side = %d" % (tp + fp, true_side)
            return "ok"
        return check

    @staticmethod
    def _check_diff(side_a, side_b, k):
        def check(got):
            if not isinstance(got, tuple) or None in got:
                return "wrong: %r" % (got,)
            tt, tf, ft, ff = got
            if tt + tf + ft + ff != 1 << k:
                return "wrong: quadrants sum to %d, not 2^%d" % (tt + tf + ft + ff, k)
            if (tt + tf, tt + ft) != (side_a, side_b):
                return "wrong: true sides %d, %d; expected %d, %d" % (
                    tt + tf, tt + ft, side_a, side_b)
            return "ok"
        return check


# ---------------------------------------------------------------------------
# pipeline-po6: the paper's headline run through the CLI

PIPELINE_SCOPE = {False: 6, True: 4}
PIPELINE_TIMEOUT = 120.0
HEADLINE_SCOPE = 6      # where the paper's precision gap is claimed


class CsvSink:
    """A FIFO at the experiment's dataset.csv path, drained and hashed by a
    thread as the CLI writes it, so the 1.2 GB CSV never reaches the disk.
    Deleting a file that size took 10-45 s on a 2-core VM with an ext4
    disk mounted with online discard, longer than the run itself; writing
    through a 1 MB pipe costs what writing to the page cache does (1.3-1.5 s
    against 1.6 s)."""

    def __init__(self, path):
        self.path = path
        self.digest = None
        os.mkfifo(path)
        self.thread = threading.Thread(target=self._drain, daemon=True)
        self.thread.start()

    def _drain(self):
        with open(self.path, "rb") as fh:
            try:    # a 1 MB pipe, the default maximum, wakes the CLI less
                fcntl.fcntl(fh, fcntl.F_SETPIPE_SZ, 1 << 20)
            except OSError:
                pass
            self.digest = hashlib.file_digest(fh, "sha256").hexdigest()

    def close(self):
        # a run that never wrote the CSV leaves the reader waiting in open():
        # open the write end once so that it sees end of file
        while self.thread.is_alive():
            try:
                os.close(os.open(self.path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:         # ENXIO: the reader is not in open() yet
                pass
            self.thread.join(0.01)
        os.unlink(self.path)


class Pipeline:
    setup_repeats = 3

    def __init__(self, rc, seed, tiny, out_dir):
        self.rc, self.seed, self.tiny = rc, seed, tiny
        self.scope = PIPELINE_SCOPE[tiny]
        self.tmp = os.path.join(out_dir, "tmp")
        self.state = os.path.join(out_dir, "state", "pipeline-%d-seed%d.json"
                                  % (self.scope, seed))
        self.stage_times = {}
        self.csv_digest = None

    def _experiment(self, scope, out):
        """`relcount experiment` into a fresh `out`; returns the exit code
        and records the dataset.csv digest."""
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        sink = CsvSink(os.path.join(out, "dataset.csv"))
        try:
            return self.rc.cli.main(
                ["experiment", "--property", "partialorder",
                 "--scope", str(scope), "--split", "10:90",
                 "--seed", str(self.seed), "--out", out])
        finally:
            sink.close()
            self.csv_digest = sink.digest

    def prepare(self):
        """Warm-up: the same experiment one scope smaller loads every module
        and code path the timed run uses."""
        out = os.path.join(self.tmp, "warmup")
        try:
            self._experiment(self.scope - 1, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return None

    def oracle(self, _):
        return oracles.property_count("partialorder", self.scope)

    def ops(self, _, positives):
        out = os.path.join(self.tmp, "experiment")

        def answer(code):
            try:
                if code != 0:
                    return None
                return self._artifacts(out)
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return [Op("experiment", lambda: self._experiment(self.scope, out),
                   answer, self._check(positives), PIPELINE_TIMEOUT)]

    def _artifacts(self, out):
        """Digests of every artifact but times.json, plus the numbers the
        oracles need."""
        digests = {"dataset.csv": self.csv_digest}
        for name in sorted(os.listdir(out)):
            if name not in digests and name != "times.json":
                with open(os.path.join(out, name), "rb") as fh:
                    digests[name] = hashlib.file_digest(fh, "sha256").hexdigest()

        def load(name):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                return fh.read()
        self.stage_times = json.loads(load("times.json"))["stages"]
        report = json.loads(load("report.json"))
        whole = report["whole_space"]["counts"]
        return {"digests": digests,
                "positives": report["dataset"]["positives"],
                "traditional": json.loads(load("traditional.json")),
                "whole_space": tuple(int(whole[q]["exact"])
                                     for q in ("tp", "fp", "tn", "fn")),
                "true_side": oracles.true_side_size(load("model.json"))}

    def _check(self, positives):
        k = self.scope * self.scope
        state = self.state

        def check(got):
            if got["positives"] != positives:
                return "wrong: %d positive rows, expected %d" % (
                    got["positives"], positives)
            tp, fp, tn, fn = got["whole_space"]
            if tp + fp + tn + fn != 1 << k:
                return "wrong: whole-space quadrants do not sum to 2^%d" % k
            if tp + fn != positives:
                return "wrong: tp+fn = %d, |phi| = %d" % (tp + fn, positives)
            if tp + fp != got["true_side"]:
                return "wrong: tp+fp = %d, true side = %d" % (tp + fp,
                                                               got["true_side"])
            if self.scope == HEADLINE_SCOPE:
                trad = got["traditional"]
                if Fraction(trad["tp"], trad["tp"] + trad["fp"]) < Fraction(95, 100):
                    return "wrong: test precision below 0.95"
                if Fraction(tp, tp + fp) > Fraction(1, 2):
                    return "wrong: whole-space precision above 1/2"
            # artifacts must be byte-identical to the first run with this seed
            if os.path.exists(state):
                with open(state, encoding="utf-8") as fh:
                    first = json.load(fh)
                if first != got["digests"]:
                    return "wrong: artifacts differ from the first run's"
            else:
                os.makedirs(os.path.dirname(state), exist_ok=True)
                with open(state + ".part", "w", encoding="utf-8") as fh:
                    json.dump(got["digests"], fh, sort_keys=True)
                os.replace(state + ".part", state)
            return "ok"
        return check


WORKLOADS = {
    "pipeline-po6": Pipeline,
    "count-exact": CountExact,
    "count-approx": CountApprox,
    "audit-trees": AuditTrees,
}
