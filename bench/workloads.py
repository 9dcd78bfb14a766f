"""Seeded inputs, operations and frozen answers of the benchmark workloads.

An op calls the library (or the CLI) once and returns an answer that is
compared with a frozen value: a point count, a checker verdict or an exit
code with its parsed stdout.  The frozen values come from the source paper's
remark, the acceptance suite, path counts of projective and simple modules
(their Hom and Ext^1 dimensions) and the Tits-form cross-check of the
classification, never from the library run on the same input.  Inputs get a
seeded change of basis, or are seeded random quivers and representations;
quiver Grassmannian counts and Hom/Ext dimensions are invariant under base
change, so the frozen values hold for every seed.

Op bodies look library functions up on their module when they run, never
when the op is built, so that a traced run sees the wrappers installed after
setup.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional

import quivergrass as qg
from quivergrass import quiverrep

# a CLI child that runs longer than this is killed and its op fails
CHILD_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    expected: Any
    # run once in an untraced run: for ops of half a second and more, whose
    # reruns would leave the short ops of the workload few samples
    once: bool = False


def execute(op: Op):
    """Run one op: (passed, answer or error text).

    Any exception is a failed op, for example BudgetExceeded or
    IsomorphismInconclusive, and so is an answer that differs from the
    frozen one.
    """
    try:
        got = op.run()
    except Exception as exc:  # an op that raises is reported, not fatal
        return False, f"{type(exc).__name__}: {exc}"
    return got == op.expected, got


@dataclass
class Workload:
    name: str
    ops: List[Op]
    children: Optional["ChildRunner"] = None


def _rng(seed: int, label: str) -> random.Random:
    # one stream per input, so an input does not depend on the op order
    return random.Random(f"{seed}/{label}")


def _rebase(m, rng):
    """m under a seeded change of basis, with the vertex matrices used."""
    g = {v: quiverrep.random_invertible(m.field, m.dims[v], rng)
         for v in m.quiver.vertices}
    return qg.change_of_basis(m, g), g


def _remark_context(field):
    return qg.make_eta_context(qg.remark_Xprime(1, 2, field), qg.case2_Y(field))


def _remark_witness(field, b: int):
    return qg.build_eta(_remark_context(field), qg.remark_N(field, b)).m


def _degenerate_k2(field, n: int):
    """K(2) module with both arrows the identity on (n, n)."""
    ident = qg.Matrix.identity(field, n)
    return qg.Representation(qg.make_kronecker(2), field, {"1": n, "2": n},
                             {"a1": ident, "a2": ident})


def _random_representation(q, field, dims, rng):
    """Representation over F_p with the given vertex dimensions and seeded
    entries."""
    mats = {a.id: qg.Matrix(field, [[rng.randrange(field.p)
                                     for _ in range(dims[a.source])]
                                    for _ in range(dims[a.target])],
                            ncols=dims[a.source])
            for a in q.arrows}
    return qg.Representation(q, field, dict(dims), mats)


def _rebase_witness(w, rng):
    """The eta witness moved by a seeded change of basis, with mu and pi."""
    m, g = _rebase(w.m, rng)
    mu = qg.Morphism(w.mu.source, m, {v: g[v] * f for v, f in w.mu.maps.items()})
    pi = qg.Morphism(m, w.pi.target,
                     {v: f * qg.inverse(g[v]) for v, f in w.pi.maps.items()})
    return qg.EtaWitness(m, w.a, w.b, mu, pi)


F3 = qg.FieldSpec.prime(3)
F5 = qg.FieldSpec.prime(5)
F7 = qg.FieldSpec.prime(7)

# |Gr_(3,3)| of eta(N) for the remark pair, N = remark_N(p, b); the paper's
# remark and acceptance criterion 08
REMARK_COUNTS = {(3, 1): 4, (3, 2): 5, (3, 3): 9,
                 (5, 1): 6, (5, 2): 7, (5, 3): 13}
# the remark witnesses whose counts take from half a second (p=5 b=2) to
# several seconds with the library's default engine choice
REMARK_ONCE = {(3, 2), (5, 1), (5, 2), (5, 3)}
# points of Gr_(3,3) of the degenerate K(2) module on (5,5) over F_3
DEGENERATE_COUNT = 1210
# E-bristles among the (3,3)-submodules of the remark witnesses
BRISTLES = {(3, 3): (4, 9), (5, 2): (1, 7)}
FULLNESS_PAIRS = 50


# ---------------------------------------------------------------------------
# enumerate: the Grassmannian engines and the F_p kernels under them
# ---------------------------------------------------------------------------

def _enumerate_ops(seed: int) -> List[Op]:
    # the short ops come first, so that a run reruns them after each of the
    # long ones and their samples are spread over the whole run
    ops = []
    d33 = {"1": 3, "2": 3}
    k2, _ = _rebase(_degenerate_k2(F3, 5), _rng(seed, "k2"))
    ops.append(Op("count degenerate K2 p=3 dims=(5,5)",
                  lambda: qg.count_submodules(k2, d33), DEGENERATE_COUNT))

    def list_k2():
        report = qg.enumerate_submodules(k2, d33)
        return report.count, len(report.points)
    ops.append(Op("list degenerate K2 p=3 dims=(5,5)", list_k2,
                  (DEGENERATE_COUNT, DEGENERATE_COUNT)))

    def bijection(ctx, n_rep):
        report = qg.check_bijection(ctx, n_rep)
        return report.lhs, report.rhs, report.equal
    case2 = qg.case2_instance(F3)
    n2, _ = _rebase(qg.coordinate_inclusion_N(F3, 2), _rng(seed, "n2"))
    ops.append(Op("bijection case2 p=3", lambda: bijection(case2, n2), (0, 0, True)))
    case1 = qg.case1_instance(F3)
    n1, _ = _rebase(qg.regular_N(F3), _rng(seed, "n1"))
    ops.append(Op("bijection case1 p=3", lambda: bijection(case1, n1), (1, 1, True)))
    remark = []
    for (p, b), want in REMARK_COUNTS.items():
        field = qg.FieldSpec.prime(p)
        m, _ = _rebase(_remark_witness(field, b), _rng(seed, f"remark{p}{b}"))
        remark.append(Op(f"count remark p={p} b={b} dims=({m.dims['1']},{m.dims['2']})",
                         lambda m=m: qg.count_submodules(m, d33), want,
                         once=(p, b) in REMARK_ONCE))
    # a stable sort: the short witnesses first
    return ops + sorted(remark, key=lambda op: op.once)


# ---------------------------------------------------------------------------
# checkers: Hom bases, isomorphism tests and idempotent scans
# ---------------------------------------------------------------------------

def _checkers_ops(seed: int) -> List[Op]:
    ops = []
    for p in (3, 5, 7):
        field = qg.FieldSpec.prime(p)
        x, _ = _rebase(qg.case1_instance(field).x, _rng(seed, f"lemma1-{p}"))
        for a in (3, 4):
            ops.append(Op(f"lemma1 p={p} a={a}",
                          lambda x=x, a=a: _lemma1(x, a),
                          (True, (p ** a - 1) // (p - 1))))
    for p in (3, 5):
        field = qg.FieldSpec.prime(p)
        x, _ = _rebase(qg.case2_X((1, 2), field), _rng(seed, f"lemma2-{p}"))
        # (2,2)-submodules of X^2 that are copies of X: one per point of P^1(F_p)
        want = (True, {0: 1, 1: 0, 2: p + 1, 3: 0, 4: 1})
        ops.append(Op(f"lemma2 p={p} a=2", lambda x=x: _lemma2(x), want))
    for p in (3, 5):
        field = qg.FieldSpec.prime(p)
        ctx = qg.case1_instance(field)
        w = _rebase_witness(qg.build_eta(ctx, qg.regular_N(field)),
                            _rng(seed, f"condC-{p}"))
        ops.append(Op(f"condition C case1 p={p}",
                      lambda ctx=ctx, w=w: _condition_c(ctx, w), (True, 1, 0)))
    for (p, b), (bristles, points) in BRISTLES.items():
        field = qg.FieldSpec.prime(p)
        ctx = _remark_context(field)
        m, _ = _rebase(_remark_witness(field, b), _rng(seed, f"bristle{p}{b}"))
        subs = [qg.sub_representation(pt)[0]
                for pt in qg.enumerate_submodules(m, {"1": 3, "2": 3}).points]
        if len(subs) != points:
            raise RuntimeError(f"setup found {len(subs)} (3,3)-submodules "
                               f"of the p={p} b={b} witness, expected {points}")
        ops.append(Op(f"is_E_bristle x{points} p={p} b={b}",
                      lambda ctx=ctx, subs=subs: _bristles(ctx, subs), bristles))
    case2 = qg.case2_instance(F5)
    k2 = qg.make_kronecker(2)
    rng = _rng(seed, "fullness")
    for i in range(FULLNESS_PAIRS):
        # a fixed set of 50 of the 81 pairs of dimension vectors in {0,1,2}^2,
        # so the seed changes the matrices but not the work
        code = i * 37 % 81
        d1, d2, d3, d4 = code % 3, code // 3 % 3, code // 9 % 3, code // 27
        n1 = _random_representation(k2, F5, {"1": d1, "2": d2}, rng)
        n2 = _random_representation(k2, F5, {"1": d3, "2": d4}, rng)
        ops.append(Op(f"eta fullness pair {i}",
                      lambda n1=n1, n2=n2: qg.check_eta_fullness(case2, n1, n2).equal,
                      True))
    return ops


def _lemma1(x, a):
    report = qg.check_lemma1(x, a)
    return report.holds, report.count


def _lemma2(x):
    report = qg.check_lemma2(x, 2)
    return report.holds, report.counts


def _condition_c(ctx, w):
    report = qg.check_condition_C(ctx, w)
    return report.holds, report.checked, len(report.violations)


def _bristles(ctx, subs):
    return sum(1 for u in subs if qg.is_E_bristle(ctx, u))


# ---------------------------------------------------------------------------
# algebra: single larger systems over a large prime and over the rationals
# ---------------------------------------------------------------------------

# hom_ext_dims runs on M = (sum of projectives P(v)) + (sum of simples S(u) at
# non-sinks u) and N = sum of projectives P(w), each under a seeded change of
# basis.  Their Hom and Ext^1 dimensions follow from path counts alone:
#   dim Hom(P(v), P(w)) = #paths w -> v        Ext^1(P(v), P(w)) = 0
#   dim Hom(S(u), P(w)) = 0, as every arrow out of u is injective on P(w)
#   dim Ext^1(S(u), P(w)) = sum over arrows u -> t of #paths w -> t,
#                           minus #paths w -> u (minus the Euler form)
# so a wrong rank of the differential moves both frozen values.  The quivers
# and summands come from a fixed stream, not from the seed, which keeps the
# matrix sizes, and the work of a pass, the same for every seed; the seed
# draws the changes of basis.  Each entry: field, ops, range of the number of
# unknowns (sum over vertices of dim M_x * dim N_x).
HOM_FIELDS = ((F7, 40, (30, 60)),
              (qg.FieldSpec.prime(2 ** 31 - 1), 30, (30, 60)),
              (qg.FieldSpec.rational(), 24, (12, 24)))
CLASSIFY_OPS = 20
QUIVERS_PER_CLASSIFY_OP = 10

_EXPECTED_KIND = {"positive_definite": "finite",
                  "positive_semidefinite": "tame",
                  "indefinite": "wild"}


def _euler(q, d, e) -> int:
    return (sum(d[v] * e[v] for v in q.vertices)
            - sum(d[a.source] * e[a.target] for a in q.arrows))


def _random_acyclic_quiver(rng, n: int, n_arrows: int):
    """n vertices, n_arrows arrows i -> j (i < j), at most 3 between two vertices."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if n_arrows > 3 * len(pairs):
        raise ValueError("too many arrows for multiplicity 3")
    mult = dict.fromkeys(pairs, 0)
    arrows = []
    while len(arrows) < n_arrows:
        i, j = rng.choice(pairs)
        if mult[(i, j)] < 3:
            arrows.append(qg.Arrow(f"a{i}_{j}_{mult[(i, j)]}", str(i), str(j)))
            mult[(i, j)] += 1
    return qg.Quiver(tuple(str(i) for i in range(1, n + 1)), tuple(arrows))


def _path_counts(q):
    """paths[w][x]: the number of paths w -> x.  Arrows run from lower to
    higher vertex numbers, so one sweep in that order sees every path."""
    order = sorted(q.vertices, key=int)
    paths = {}
    for w in order:
        count = dict.fromkeys(order, 0)
        count[w] = 1
        for x in order:
            for a in q.arrows:
                if a.source == x:
                    count[a.target] += count[x]
        paths[w] = count
    return paths


def _hom_instance(rng, i: int, unknowns):
    """Quiver, summands (vs, us, ws) and frozen (hom, ext) of hom op i,
    with both dimensions nonzero."""
    n = 3 + i % 3
    lo, hi = unknowns
    while True:
        q = _random_acyclic_quiver(rng, n, n + i % 4)
        paths = _path_counts(q)
        heads = {u: [a.target for a in q.arrows if a.source == u] for u in q.vertices}
        nonsinks = [u for u in q.vertices if heads[u]]
        for _ in range(50):
            vs, us, ws = ([rng.choice(pool) for _ in range(rng.randint(1, 3))]
                          for pool in (q.vertices, nonsinks, q.vertices))
            dim_m = {x: sum(paths[v][x] for v in vs) + us.count(x)
                     for x in q.vertices}
            dim_n = {x: sum(paths[w][x] for w in ws) for x in q.vertices}
            hom = sum(paths[w][v] for w in ws for v in vs)
            ext = sum(sum(paths[w][t] for t in heads[u]) - paths[w][u]
                      for w in ws for u in us)
            size = sum(dim_m[x] * dim_n[x] for x in q.vertices)
            if hom and ext and lo <= size <= hi:
                return q, vs, us, ws, (hom, ext)


def _rebased_sum(parts, rng):
    """The direct sum of parts under a seeded change of basis."""
    m = qg.zero_representation(parts[0].quiver, parts[0].field)
    for part in parts:
        m = qg.direct_sum(m, part)
    return _rebase(m, rng)[0]


def _random_connected_quiver(rng, n: int):
    """Connected quiver on n vertices: a random tree plus a few extra edges,
    multiplicities mostly 1, oriented along a random vertex order."""
    order = list(range(n))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    edges = {}
    for v in range(1, n):
        edges[(rng.randrange(v), v)] = 1
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < 0.12:
                edges[(i, j)] = 1
    for key in edges:
        r = rng.random()
        edges[key] = 3 if r < 0.04 else 2 if r < 0.12 else 1
    arrows = []
    for (i, j), mult in sorted(edges.items()):
        s, t = (i, j) if rank[i] < rank[j] else (j, i)
        arrows.extend(qg.Arrow(f"e{i}_{j}_{k}", str(s), str(t)) for k in range(mult))
    return qg.Quiver(tuple(str(v) for v in range(n)), tuple(arrows))


def _algebra_ops(seed: int) -> List[Op]:
    ops = []
    for field, count, unknowns in HOM_FIELDS:
        label = "Q" if not field.is_prime else f"F{field.p}"
        shapes = random.Random(f"fixed/hom-{label}")   # the same for every seed
        rng = _rng(seed, f"hom-{label}")
        for i in range(count):
            q, vs, us, ws, want = _hom_instance(shapes, i, unknowns)
            m = _rebased_sum([qg.projective(q, v, field) for v in vs]
                             + [qg.simple(q, u, field) for u in us], rng)
            n = _rebased_sum([qg.projective(q, w, field) for w in ws], rng)
            if want[0] - want[1] != _euler(q, m.dims, n.dims):
                raise RuntimeError(f"frozen Hom/Ext of hom op {label} #{i} "
                                   f"break the Euler identity")
            ops.append(Op(f"hom_ext_dims {label} #{i}",
                          lambda m=m, n=n: qg.hom_ext_dims(m, n), want))
    rng = _rng(seed, "classify")
    for i in range(CLASSIFY_OPS):
        quivers = [_random_connected_quiver(rng, 1 + k % 7)
                   for k in range(QUIVERS_PER_CLASSIFY_OP)]

        # the graph classification must agree with the Tits-form oracle
        def agreeing(quivers=quivers):
            return sum(qg.classify(q).kind == _EXPECTED_KIND[qg.tits_definiteness(q)]
                       for q in quivers)
        ops.append(Op(f"classify x{QUIVERS_PER_CLASSIFY_OP} #{i}", agreeing,
                      QUIVERS_PER_CLASSIFY_OP))
    return ops


# ---------------------------------------------------------------------------
# cli: the command line front end as a subprocess
# ---------------------------------------------------------------------------

def wait_child(proc: subprocess.Popen, timeout_s: float):
    """Block until proc exits, killing it after timeout_s: (exit code, rusage).

    This waits in one blocking call: Popen.wait with a timeout polls in steps
    of up to 50 ms, which would round every measured time up to a step.
    """
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class ChildRunner:
    """Runs CLI children one at a time and keeps the largest child's RSS.

    The command prefix selects plain runs (``python -m quivergrass.cli``),
    traced runs (the benchmark's own entry, which installs the tracer) or
    profiled runs (``python -m cProfile``).
    """

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
        self.prefix = [sys.executable, "-m", "quivergrass.cli"]
        self.max_rss_kb = 0
        self.on_exit: Optional[Callable[[], None]] = None

    def run(self, argv: List[str]):
        """(exit code, stdout) of one CLI invocation."""
        with tempfile.TemporaryFile(dir=self.workdir) as out, \
                tempfile.TemporaryFile(dir=self.workdir) as err:
            proc = subprocess.Popen(self.prefix + argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            code, usage = wait_child(proc, CHILD_TIMEOUT_S)
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
            if self.on_exit is not None:
                self.on_exit()
            out.seek(0)
            return code, out.read().decode("utf-8", "replace")


def _write_json(workdir: Path, name: str, data) -> str:
    path = workdir / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _seeded_orientation(rng, edges):
    return tuple(qg.Arrow(f"e{k}", *(e if rng.random() < 0.5 else e[::-1]))
                 for k, e in enumerate(edges))


def _cli_ops(seed: int, children: ChildRunner) -> List[Op]:
    wd = children.workdir
    to_json = qg.representation_to_json
    x = qg.case2_X((1, 2), F3)
    x1, _ = _rebase(x, _rng(seed, "cli-x1"))
    x2, _ = _rebase(x, _rng(seed, "cli-x2"))
    y, _ = _rebase(qg.case2_Y(F3), _rng(seed, "cli-y"))
    x1f = _write_json(wd, "x1.json", to_json(x1))
    x2f = _write_json(wd, "x2.json", to_json(x2))
    yf = _write_json(wd, "y.json", to_json(y))
    k3f = _write_json(wd, "k3.json", qg.quiver_to_json(qg.make_kronecker(3)))
    rng = _rng(seed, "cli-dimvecs")
    d = {"1": rng.randint(0, 4), "2": rng.randint(0, 4)}
    e = {"1": rng.randint(0, 4), "2": rng.randint(0, 4)}
    # the extended Dynkin graph D~4: tame in every orientation
    d4 = qg.Quiver(("c", "l1", "l2", "l3", "l4"), _seeded_orientation(
        _rng(seed, "cli-d4"), [("c", f"l{i}") for i in range(1, 5)]))
    d4f = _write_json(wd, "d4.json", qg.quiver_to_json(d4))
    remark, _ = _rebase(_remark_witness(F3, 1), _rng(seed, "cli-remark"))
    remarkf = _write_json(wd, "remark.json", to_json(remark))
    k2, _ = _rebase(_degenerate_k2(F3, 5), _rng(seed, "cli-k2"))
    k2f = _write_json(wd, "k2.json", to_json(k2))
    c1, _ = _rebase(qg.case1_instance(F3).x, _rng(seed, "cli-case1"))
    c1f = _write_json(wd, "case1x.json", to_json(c1))

    def cli(argv, summarize=json.loads):
        def run():
            code, out = children.run(argv)
            try:
                return code, summarize(out)
            except (ValueError, KeyError, TypeError):
                return code, out
        return run

    def point_count(out):
        data = json.loads(out)
        return data["count"], len(data["points"])

    d33 = json.dumps({"1": 3, "2": 3})
    d11 = json.dumps({"1": 1, "2": 1})
    return [
        Op("hom X X'", cli(["hom", "--rep1", x1f, "--rep2", x2f]), (0, {"dim": 1})),
        Op("ext1 Y X", cli(["ext1", "--rep1", yf, "--rep2", x1f]), (0, {"dim": 2})),
        Op("euler K3", cli(["euler", "--quiver", k3f, "--d", json.dumps(d),
                            "--e", json.dumps(e)]),
           (0, {"value": d["1"] * e["1"] + d["2"] * e["2"] - 3 * d["1"] * e["2"]})),
        Op("classify D~4", cli(["classify", "--quiver", d4f]),
           (0, {"kind": "tame", "witness": "D~4"})),
        Op("brick X", cli(["brick", "--rep", x1f]), (0, {"is_brick": True})),
        Op("grassmannian count remark p=3 b=1",
           cli(["grassmannian", "count", "--rep", remarkf, "--dimvec", d33]),
           (0, {"count": REMARK_COUNTS[(3, 1)], "dimvec": {"1": 3, "2": 3}})),
        # lines of F_3^5, each with its image line under the invertible arrow
        Op("grassmannian list K2 d=(1,1)",
           cli(["grassmannian", "list", "--rep", k2f, "--dimvec", d11], point_count),
           (0, (121, 121))),
        Op("check-lemma1 p=3 a=3", cli(["check-lemma1", "--x", c1f, "--a", "3"]),
           (0, {"holds": True, "count": 13, "failure_count": 0, "failures": []})),
        Op("demo case1", cli(["demo", "case1"]),
           (0, {"n": 2,
                "bijection": {"bristle_count": 1, "equal": True,
                              "image_submodule_count": 1},
                "condition_c": {"checked": 1, "holds": True,
                                "violation_count": 0, "violations": []}})),
        Op("demo case2 --count-only", cli(["demo", "case2", "--count-only"]),
           (0, {"n": 2,
                "bijection": {"bristle_count": 0, "equal": True,
                              "image_submodule_count": 0},
                "condition_c": {"checked": 0, "holds": True,
                                "violation_count": 0}})),
    ]


def build(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Generate the seeded inputs of one workload and its op list."""
    if name == "enumerate":
        return Workload(name, _enumerate_ops(seed))
    if name == "checkers":
        return Workload(name, _checkers_ops(seed))
    if name == "algebra":
        return Workload(name, _algebra_ops(seed))
    if name == "cli":
        children = ChildRunner(root, workdir)
        return Workload(name, _cli_ops(seed, children), children)
    raise ValueError(f"unknown workload {name!r}")
