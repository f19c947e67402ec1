"""The benchmark's three workloads: seeded inputs, job streams and checks.

`setup` makes every input from the seed; it is the timed set-up.  `jobs`
then yields one job at a time, so a job's inputs may come from an earlier
job's output, as in an interactive session.  Each job has a timed `call`
into the program and an untimed `finish` that renders the output for the
run's digest and checks it against something the benchmark computes itself.

Every count below is the size of a batch at `NOMINAL_SECONDS`; `--seconds`
scales them, so the batch is fixed by the seed and `--seconds` alone and the
traced call counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from heegaard_lab import cli, disk_complex, ghs, proptools, serialize, sog, surface
from heegaard_lab.handlebody import InvalidCutSystem, validate_cut_system

NOMINAL_SECONDS = 25


@dataclass
class Outcome:
    """A finished job: its output bytes, why its check failed (None when
    it passed), the operations it performed, and counts for the trace."""

    output: bytes
    problem: Optional[str] = None
    units: int = 1
    counts: dict = field(default_factory=dict)


@dataclass
class Job:
    kind: str
    role: str                      # "build", "query" or "op"
    call: Callable[[], Any]
    finish: Callable[[Any], Outcome]


def _scaled(base: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, round(base * scale))


class _Workload:
    """`setup()` makes the inputs from the seed; `jobs()` then yields the
    batch, whose counts are the nominal ones times `scale`."""

    def __init__(self, seed: int, scale: float):
        self.seed = seed
        self.scale = scale


def _bfs(adjacency: dict, sources) -> dict:
    """Multi-source BFS distances over an adjacency dict."""
    dist = {s: 0 for s in sources}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        for w in adjacency.get(u, ()):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _set_distance(adjacency: dict, sources, targets) -> Optional[int]:
    dist = _bfs(adjacency, sources)
    reached = [dist[t] for t in targets if t in dist]
    return min(reached) if reached else None


class _Graph:
    """An emitted Γ or Λ graph, parsed and checked for well-formedness."""

    def __init__(self, text: str):
        data = json.loads(text)
        self.data = data
        self.keys = [tuple(v["coords"]) for v in data["vertices"]]
        if self.keys != sorted(set(self.keys)):
            raise ValueError("vertices are not sorted and distinct")
        self.colors = {k: frozenset(v["colors"])
                       for k, v in zip(self.keys, data["vertices"])}
        self.edges: dict = {}
        self.adjacency: dict = {}
        for e in data["edges"]:
            if not 0 <= e["u"] <= e["v"] < len(self.keys) or e["i"] not in (0, 1):
                raise ValueError(f"malformed edge {e}")
            u, v = self.keys[e["u"]], self.keys[e["v"]]
            self.edges[u, v] = e["i"]
            if u != v:
                self.adjacency.setdefault(u, []).append(v)
                self.adjacency.setdefault(v, []).append(u)

    def components(self) -> list[list]:
        parent = {k: k for k in self.keys}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            parent[find(u)] = find(v)
        groups: dict = {}
        for k in self.keys:
            groups.setdefault(find(k), []).append(k)
        return sorted(sorted(g) for g in groups.values())


# ---------------------------------------------------------------------------
# genus2-session: the research loop on genus-2 diagrams, through the CLI
# ---------------------------------------------------------------------------

# The diagram of demos/05: its capped disk complex separates, so the
# component-distance path always runs.
TWISTED = {
    "genus": 2,
    "red": [{"genus": 2, "coords": [0, 1, 0, 0, 1, 1, 0, 0, 0]},
            {"genus": 2, "coords": [0, 0, 0, 1, 0, 0, 0, 0, 1]}],
    "blue": [{"genus": 2, "coords": [1, 0, 2, 1, 1, 2, 2, 2, 1]},
             {"genus": 2, "coords": [2, 1, 1, 1, 1, 1, 2, 1, 0]}],
}


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _summary(reds, blues, reducing, critical, edge_witness, cap) -> str:
    if not (reds or blues):
        return f"incompressible within cap {cap}"
    if reducing is not None:
        return f"reducible: {reducing} bounds on both sides"
    if critical is not None:
        e1, e2, c1, c2 = critical
        return (f"critical within cap {cap}: edges {e1} and {e2} lie in "
                f"components {c1} and {c2}")
    if reds and blues and edge_witness is None:
        return (f"strongly irreducible within cap {cap}: disks on both "
                f"sides, no edges")
    if edge_witness is not None:
        return f"edge present: {edge_witness}"
    return f"compressible on one side only within cap {cap}"


def expected_classification(gamma: _Graph, cap: int) -> dict:
    """The `diagram classify` payload, derived from the emitted Γ alone."""
    reds = [k for k in gamma.keys if "red" in gamma.colors[k]]
    blues = [k for k in gamma.keys if "blue" in gamma.colors[k]]
    both = [k for k in gamma.keys if len(gamma.colors[k]) == 2]
    edges = sorted(gamma.edges)
    critical = None
    if edges:
        comp_of = {k: i for i, comp in enumerate(gamma.components())
                   for k in comp}
        ids = sorted({comp_of[e[0]] for e in edges})
        if len(ids) >= 2:
            c1, c2 = ids[0], ids[1]
            critical = (min(e for e in edges if comp_of[e[0]] == c1),
                        min(e for e in edges if comp_of[e[0]] == c2), c1, c2)

    def curve(k):
        return {"genus": 2, "coords": list(k)} if k is not None else None

    edge_witness = edges[0] if edges else None
    reducing = both[0] if both else None
    return {
        "summary": _summary(reds, blues, reducing, critical, edge_witness,
                            cap),
        "has_red_disk": bool(reds),
        "has_blue_disk": bool(blues),
        "red_witness": curve(reds[0] if reds else None),
        "blue_witness": curve(blues[0] if blues else None),
        "reducing_class": curve(reducing),
        "edge_witness": [list(v) for v in edge_witness]
        if edge_witness else None,
        "critical_witness": [[list(v) for v in critical[0]],
                             [list(v) for v in critical[1]],
                             critical[2], critical[3]] if critical else None,
        "negative_claims_cap": cap,
        "certified": True,
    }


def lambda_problem(gamma: _Graph, lam: _Graph) -> Optional[str]:
    """Γ and Λ are built separately; on the disk-bounding classes they must
    agree exactly, since both keep the red/blue pairs meeting at most once."""
    if not set(gamma.keys) <= set(lam.keys):
        return "a vertex of gamma is missing from lambda"
    for u in gamma.keys:
        for v in gamma.keys:
            if not u < v:
                continue
            if not (("red" in gamma.colors[u] and "blue" in gamma.colors[v])
                    or ("blue" in gamma.colors[u]
                        and "red" in gamma.colors[v])):
                continue
            if gamma.edges.get((u, v)) != lam.edges.get((u, v)):
                return f"gamma and lambda disagree on {(u, v)}"
    loops = {u for (u, v) in gamma.edges if u == v}
    if loops != {k for k in gamma.keys if len(gamma.colors[k]) == 2}:
        return "gamma self-loops are not the classes bounding on both sides"
    return None


def lambda_problem_across_caps(small: _Graph, big: _Graph) -> Optional[str]:
    """Intersection numbers do not depend on the cap, so two Λ builds must
    agree on every pair of vertices they share."""
    shared = set(small.keys) & set(big.keys)
    for graph, other in ((small, big), (big, small)):
        for (u, v), i in graph.edges.items():
            if u in shared and v in shared and other.edges.get((u, v)) != i:
                return f"lambda at two caps disagree on {(u, v)}"
    return None


class Genus2Session(_Workload):
    """Seeded genus-2 diagrams through `cli.main`: Γ, classification, Λ,
    and splitting distance where Γ has two components with i=1 edges."""

    name = "genus2-session"
    POOL_CAP = 8
    CAP = 8
    BIG_CAP = 10
    SAMPLED = 24          # sampled diagrams per batch
    DISTANCES = 8         # distance jobs on the twisted diagram

    def setup(self) -> None:
        rng = random.Random(self.seed)
        curves = surface.enumerate_essential_curves(2, self.POOL_CAP)
        systems = []
        for a, b in itertools.combinations(curves, 2):
            if surface.geometric_intersection(a, b) != 0:
                continue
            try:
                validate_cut_system(2, [a, b])
            except InvalidCutSystem:
                continue
            systems.append([serialize.curve_to_jsonable(c) for c in (a, b)])
        # Γ and Λ scan the sorted curve list for each meridian's class, so a
        # diagram's cost grows with its meridians' places in that list.  The
        # pairs ordered by that sum are cut into n equal slices.  Odd slices
        # give a seeded diagram; even ones give their middle diagram, which
        # halves the share of the query latencies that moves with the seed.
        place = {c.coords: k for k, c in enumerate(curves)}
        rank = [sum(place[tuple(c["coords"])] for c in s) for s in systems]
        pairs = sorted((rank[i] + rank[j], i, j)
                       for i in range(len(systems))
                       for j in range(len(systems)) if i != j)
        n = _scaled(self.SAMPLED, self.scale)
        self.sampled = []
        for k in range(n):
            lo, hi = k * len(pairs) // n, (k + 1) * len(pairs) // n
            pick = rng.randrange(lo, hi) if k % 2 else (lo + hi) // 2
            _, i, j = pairs[pick]
            self.sampled.append((f"pool{i}x{j}", json.dumps(
                {"genus": 2, "red": systems[i], "blue": systems[j]})))
        self.twisted = json.dumps(TWISTED)
        self.rng = rng

    def jobs(self) -> Iterator[Job]:
        """The twisted diagram's Γ, verdict and Λ first; then, in seeded
        order, the sampled diagrams, the twisted diagram's distance jobs and
        its Λ at cap 10.  Spreading the distance jobs over the run keeps one
        slow stretch of the host from owning all of them."""
        twisted: dict = {}
        yield from self._diagram("twisted", self.twisted, twisted)
        units = [self._diagram(name, diagram, {})
                 for name, diagram in self.sampled]
        units += [self._distance(twisted)
                  for _ in range(_scaled(self.DISTANCES, self.scale))]
        if self.scale >= 0.5:
            units.append(self._big_lambda(twisted))
        self.rng.shuffle(units)
        for unit in units:
            yield from unit

    def _cli_job(self, kind, role, argv, check) -> Job:
        def finish(result) -> Outcome:
            code, text = result
            output = f"{kind} {code}\n{text}".encode()
            if code != 0:
                return Outcome(output, f"exit code {code}")
            return Outcome(output, check(text))
        return Job(kind, role, lambda: _run_cli(argv), finish)

    def _diagram(self, name, diagram, state):
        """`diagram gamma`, `classify` and `lambda` at cap 8."""
        cap = self.CAP
        base = ["--diagram", diagram, "--cap", str(cap)]

        def check_gamma(text):
            state["gamma"] = _Graph(text)
            return None

        def check_classify(text):
            want = expected_classification(state["gamma"], cap)
            return None if json.loads(text) == want else \
                "verdict does not match the emitted gamma"

        def check_lambda(text):
            state["lambda"] = _Graph(text)
            return lambda_problem(state["gamma"], state["lambda"])

        yield self._cli_job(f"gamma {name} cap{cap}", "query",
                            ["diagram", "gamma"] + base, check_gamma)
        yield self._cli_job(f"classify {name} cap{cap}", "query",
                            ["diagram", "classify"] + base, check_classify)
        yield self._cli_job(f"lambda {name} cap{cap}", "build",
                            ["diagram", "lambda"] + base, check_lambda)

    def _big_lambda(self, twisted):
        def check(text):
            return lambda_problem_across_caps(twisted["lambda"], _Graph(text))

        yield self._cli_job(
            f"lambda twisted cap{self.BIG_CAP}", "build",
            ["diagram", "lambda", "--diagram", self.twisted,
             "--cap", str(self.BIG_CAP)], check)

    def _distance(self, twisted):
        """One `distance` job between seeded i=1 edges of the twisted
        diagram's Γ that lie in different components."""
        cap, gamma = self.CAP, twisted["gamma"]
        comp_of = {k: i for i, comp in enumerate(gamma.components())
                   for k in comp}
        ones = sorted(e for e, i in gamma.edges.items() if i == 1)
        cross = [(a, b) for a, b in itertools.combinations(ones, 2)
                 if comp_of[a[0]] != comp_of[b[0]]]
        if not cross:
            raise RuntimeError(f"the twisted gamma has no i=1 edges in two "
                               f"components at cap {cap}")
        e1, e2 = self.rng.choice(cross)
        if self.rng.random() < 0.5:
            e1, e2 = e2, e1

        def check(text):
            ends = []
            for e in (e1, e2):
                comp = comp_of[e[0]]
                ends.append({v for edge in gamma.edges
                             if comp_of[edge[0]] == comp for v in edge})
            d = _set_distance(twisted["lambda"].adjacency, *ends)
            want = {"cap": cap, "connected_within_cap": d is not None,
                    "distance": d}
            return None if json.loads(text) == want else \
                f"distance differs from BFS on lambda ({want})"

        def edge_json(e):
            return json.dumps([{"genus": 2, "coords": list(v)} for v in e])

        yield self._cli_job(
            f"distance twisted cap{cap}", "op",
            ["distance", "--diagram", self.twisted, "--edge1", edge_json(e1),
             "--edge2", edge_json(e2), "--cap", str(cap)], check)


# ---------------------------------------------------------------------------
# torus-farey: genus 1, Λ as the Farey graph, distances and intersections
# ---------------------------------------------------------------------------


def slope_key(p: int, q: int) -> tuple[int, int, int]:
    """Normal coordinates of the torus slope (p, q), as the program emits
    them: edge weights (|q|, |p|, |p - q|) of the canonical sign."""
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    return (abs(q), abs(p), abs(p - q))


def farey_graph(cap: int) -> tuple[list, set]:
    """Slopes of weight <= cap and the pairs meeting once, by arithmetic.

    The solutions (r, s) of ps - qr = 1 are (r0 + kp, s0 + kq); the weight
    of a slope bounds |k|, so each slope's neighbours take a short scan.
    """
    slopes = [(p, q) for p in range(cap + 1) for q in range(-cap, cap + 1)
              if math.gcd(p, abs(q)) == 1 and (p > 0 or q == 1)
              and abs(q) + p + abs(p - q) <= cap]
    keys = {slope_key(p, q) for p, q in slopes}
    edges = set()
    for p, q in slopes:
        # Extended Euclid: p*x + q*y = ±1, so s = x and r = -y up to sign.
        old_r, r_ = p, q
        old_x, x = 1, 0
        old_y, y = 0, 1
        while r_:
            quot = old_r // r_
            old_r, r_ = r_, old_r - quot * r_
            old_x, x = x, old_x - quot * x
            old_y, y = y, old_y - quot * y
        s0, r0 = old_x * old_r, -old_y * old_r
        span = (cap + abs(r0) + abs(s0)) // max(p, abs(q)) + 1
        for k in range(-span, span + 1):
            key = slope_key(r0 + k * p, s0 + k * q)
            if key in keys:
                edges.add(tuple(sorted((slope_key(p, q), key))))
    return sorted(keys), edges


class TorusFarey(_Workload):
    """A seeded lens space: Λ at cap 134, distance queries on it, and a
    batch of intersection numbers between large slopes."""

    name = "torus-farey"
    CAP = 134
    SLOPE_BOUND = 300
    BUILDS = 5
    # The mix puts the median among vertex queries and the 90th percentile
    # among component queries.
    VERTEX_QUERIES = 170
    EDGE_QUERIES = 85
    COMPONENT_QUERIES = 45
    COMPONENT_EDGES = 3
    INTERSECTIONS = 2500
    CHUNK = 50

    def setup(self) -> None:
        rng = random.Random(self.seed)
        p = rng.randint(2, 30)
        q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
        self.lens = (p, q)
        self.diagram = serialize.diagram_from_jsonable(
            {"genus": 1, "red": [{"slope": [1, 0]}],
             "blue": [{"slope": [q, p]}]})
        keys, edges = farey_graph(self.CAP)
        self.keys, self.edges = keys, edges
        edge_list = sorted(edges)
        self.queries = (
            [("vertex", tuple(rng.sample(keys, 2)))
             for _ in range(_scaled(self.VERTEX_QUERIES, self.scale))]
            + [("edge", tuple(rng.sample(edge_list, 2)))
               for _ in range(_scaled(self.EDGE_QUERIES, self.scale))]
            + [("component", (rng.sample(edge_list, self.COMPONENT_EDGES),
                              rng.sample(edge_list, self.COMPONENT_EDGES)))
               for _ in range(_scaled(self.COMPONENT_QUERIES, self.scale))])
        pairs = []
        for _ in range(_scaled(self.INTERSECTIONS, self.scale, self.CHUNK)):
            (p, q), (r, s) = (self._slope(rng), self._slope(rng))
            pairs.append((surface.CurveClass.from_slope(p, q),
                          surface.CurveClass.from_slope(r, s),
                          abs(p * s - q * r)))
        self.chunks = [pairs[i:i + self.CHUNK]
                       for i in range(0, len(pairs), self.CHUNK)]
        self.rng = rng

    def _slope(self, rng) -> tuple[int, int]:
        bound = self.SLOPE_BOUND
        while True:
            p, q = rng.randint(-bound, bound), rng.randint(-bound, bound)
            if math.gcd(p, q) == 1:
                return p, q

    def jobs(self) -> Iterator[Job]:
        state: dict = {}
        rest = ([self._build(state) for _ in
                 range(_scaled(self.BUILDS, self.scale) - 1)]
                + [self._query(state, kind, args)
                   for kind, args in self.queries]
                + [self._intersections(chunk) for chunk in self.chunks])
        self.rng.shuffle(rest)
        yield self._build(state)
        yield from rest

    def _build(self, state) -> Job:
        def call():
            graph = disk_complex.build_lambda(self.diagram, self.CAP)
            return graph, disk_complex.emit_graph(graph)

        def finish(result) -> Outcome:
            graph, emitted = result
            state["graph"] = graph
            if "emitted" in state:
                same = emitted == state["emitted"]
                return Outcome(emitted, None if same else
                               "a rebuild emitted different bytes")
            lam = _Graph(emitted.decode())
            state["emitted"], state["adjacency"] = emitted, lam.adjacency
            if lam.keys != self.keys:
                return Outcome(emitted, "vertex set is not the slopes "
                                        "within the cap")
            if lam.edges != {e: 1 for e in self.edges}:
                return Outcome(emitted, "edges are not the Farey pairs")
            if not lam.data["certified"] or lam.data["genus"] != 1:
                return Outcome(emitted, "graph header is wrong")
            return Outcome(emitted)

        return Job(f"build_lambda L{self.lens} cap{self.CAP}", "build",
                   call, finish)

    def _query(self, state, kind, args) -> Job:
        if kind == "vertex":
            sources, targets = [args[0]], [args[1]]

            def call():
                return disk_complex.vertex_distance(state["graph"], *args)
        elif kind == "edge":
            sources, targets = args[0], args[1]

            def call():
                return disk_complex.edge_distance(state["graph"], *args)
        else:
            sources = [v for e in args[0] for v in e]
            targets = [v for e in args[1] for v in e]

            def call():
                return disk_complex.component_distance(state["graph"], *args)

        def finish(result) -> Outcome:
            want = _set_distance(state["adjacency"], sources, targets)
            output = f"{kind} {args}: {result.connected} {result.value}"
            ok = result.connected == (want is not None) \
                and result.value == want
            return Outcome(output.encode(), None if ok else
                           f"BFS on the emitted graph gives {want}")

        return Job(f"{kind}_distance", "query", call, finish)

    def _intersections(self, chunk) -> Job:
        def call():
            return [surface.geometric_intersection(a, b)
                    for a, b, _ in chunk]

        def finish(result) -> Outcome:
            want = [n for _, _, n in chunk]
            return Outcome(json.dumps(result).encode(),
                           None if result == want else "not |ps - qr|",
                           units=len(chunk))

        return Job("geometric_intersection", "op", call, finish)


# ---------------------------------------------------------------------------
# ghs-flatten: the symbolic calculus, no curve code
# ---------------------------------------------------------------------------


def oracle_components(oracle) -> dict:
    """Connected components of the oracle's move graph, by BFS."""
    comp: dict = {}
    for node in oracle.nodes():
        if node in comp:
            continue
        comp[node] = node
        stack = [node]
        while stack:
            x = stack.pop()
            for edge in oracle.edges_at(x):
                for y in (edge.parent, edge.child):
                    if y not in comp:
                        comp[y] = node
                        stack.append(y)
    return comp


class GhsFlatten(_Workload):
    """Symbolic oracles, flattening between their states, and move
    enumeration on random GHSs."""

    name = "ghs-flatten"
    ORACLES = {
        "closed7": (sog.SymbolicBudget(max_total_genus=7), ((), ())),
        "bounded6": (sog.SymbolicBudget(max_total_genus=6), ((1,), (1,))),
    }
    BUILDS = 8               # of closed7; bounded6 is built once
    FLATTENS = {"closed7": 300, "bounded6": 100}
    GHS_PER_JOB = 25
    MOVE_JOBS = 40

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.move_inputs = [[proptools.random_ghs(rng)
                             for _ in range(self.GHS_PER_JOB)]
                            for _ in range(_scaled(self.MOVE_JOBS,
                                                   self.scale))]
        self.rng = rng

    def jobs(self) -> Iterator[Job]:
        state: dict = {}
        yield self._build(state, "closed7")
        yield self._build(state, "bounded6")
        rest = [self._build(state, "closed7")
                for _ in range(_scaled(self.BUILDS, self.scale) - 1)]
        for name, count in self.FLATTENS.items():
            rest += [self._flatten(state, name, s, t, joined)
                     for s, t, joined in self._pairs(state, name, count)]
        rest += [self._moves(chunk) for chunk in self.move_inputs]
        self.rng.shuffle(rest)
        yield from rest

    def _pairs(self, state, name, count):
        """Two thirds of the pairs lie in one component of the move graph
        and one third in two, so each batch has the same share of scoped
        verdicts."""
        comp = state["components", name]
        nodes = sorted(comp, key=repr)
        groups: dict = {}
        for n in nodes:
            groups.setdefault(comp[n], []).append(n)
        shared = [n for n in nodes if len(groups[comp[n]]) > 1]
        count = _scaled(count, self.scale, 3)
        out = []
        for k in range(count):
            if k % 3 < 2:
                s = self.rng.choice(shared)
                t = self.rng.choice([n for n in groups[comp[s]] if n != s])
            else:
                s = self.rng.choice(nodes)
                t = self.rng.choice([n for n in nodes if comp[n] != comp[s]])
            out.append((s, t, k % 3 < 2))
        return out

    def _build(self, state, name) -> Job:
        budget, boundary = self.ORACLES[name]

        def call():
            return sog.SymbolicOracle(budget, boundary)

        def finish(oracle) -> Outcome:
            nodes = oracle.nodes()
            lines = [f"{n!r} {len(oracle.edges_at(n))}" for n in nodes]
            output = "\n".join(lines).encode()
            counts = {"sog.oracle_states": len(nodes)}
            if name in state:
                same = output == state["output", name]
                state[name] = oracle
                return Outcome(output, None if same else
                               "a rebuild produced a different oracle",
                               counts=counts)
            state[name], state["output", name] = oracle, output
            state["components", name] = oracle_components(oracle)
            for n in nodes:
                if ghs.validate_ghs(n) or n.boundary() != \
                        tuple(ghs.collection(b) for b in boundary):
                    return Outcome(output, f"invalid state {n!r}",
                                   counts=counts)
            return Outcome(output, counts=counts)

        return Job(f"oracle {name}", "build", call, finish)

    def _flatten(self, state, name, s, t, joined) -> Job:
        def call():
            try:
                return sog.flatten(s, t, state[name])
            except sog.FlattenBudgetExhausted as exc:
                return exc

        def finish(result) -> Outcome:
            if isinstance(result, sog.FlattenBudgetExhausted):
                output = f"{s!r} -> {t!r}: {result}".encode()
                return Outcome(output, None if not joined else
                               "scoped verdict on joined endpoints")
            data = serialize.sog_to_jsonable(result)
            output = serialize.dumps(data).encode()
            if not joined:
                return Outcome(output, "joined endpoints the move graph "
                                       "does not join")
            replay = serialize.sog_from_jsonable(json.loads(output))
            if replay.ghss != result.ghss or result.ghss[0] != s \
                    or result.ghss[-1] != t:
                return Outcome(output, "SOG does not replay between its "
                                       "endpoints")
            return Outcome(output)

        return Job(f"flatten {name}", "query", call, finish)

    def _moves(self, chunk) -> Job:
        def call():
            return [(g, m, ghs.apply_move(g, m))
                    for g in chunk for m in ghs.enumerate_moves(g)]

        def finish(result) -> Outcome:
            output = "\n".join(repr(r) for _, _, r in result).encode()
            for g, m, r in result:
                if ghs.validate_ghs(r) or ghs.compare_ghs(r, g) != "less":
                    return Outcome(output, f"{m} on {g!r} gave {r!r}",
                                   units=len(result))
            return Outcome(output, units=len(result))

        return Job("moves", "op", call, finish)


WORKLOADS = {w.name: w for w in (Genus2Session, TorusFarey, GhsFlatten)}
