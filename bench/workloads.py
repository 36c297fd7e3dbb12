"""The benchmark's workloads: input generators, passes and correctness checks.

Every workload makes its inputs from a seed, loads them in ``setup`` (the
part ``setup_s`` times), and runs them in passes.  ``run_pass`` sends one
operation at a time through ``timed(key, fn, *args)``, where the key names the
operation within the inputs (closed loop, one client), and returns
one record per operation: verdicts, witnesses, cause lists and process lists
as plain tuples, so a pass can be hashed into a digest.  ``check`` counts the
operations whose output is wrong.

Workloads:
  golden   the bundled golden rows through parse_query and run_query
  audit    seeded random models; every check, cause list, witness list and
           process list, with verdicts checked against the brute-force oracle
  offpath  binary chains where the cause is not an ancestor of the effect
  onpath   seeded window models where the cause is an ancestor of the effect
           and the verdict is false
  cli      cold ``actualcause check ... --json`` subprocesses
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import statistics
import subprocess
import sys

from actualcause import (
    CauseQuery,
    DefinitionVariant,
    Domain,
    Mechanism,
    Signature,
    active_processes,
    build_model,
    cause_of,
    enumerate_causes,
    enumerate_witnesses,
    eval_event,
    is_actual_cause,
    load_model,
    p,
    parse_query,
    run_query,
)
from actualcause.cli import main as cli_main
from actualcause.corpus import REGISTRY, all_golden_rows, example_text, load_example
from actualcause.oracle import actual_cause_bruteforce

VARIANTS = tuple(DefinitionVariant)

# Golden rows whose recorded expectation the checker is documented not to
# meet (README, "Known divergence"; acceptance criterion 6).  Such a row is
# replayed and timed like any other; its verdict is checked against the
# brute-force oracle, which agrees with the checker, instead of golden.tsv.
DIVERGENCES = {("noise_bottle",
                "check cause N=1 of BS3=1 context noisy extended")}


def digest(records) -> str:
    return hashlib.sha256(repr(records).encode()).hexdigest()[:16]


def witness_tuple(w):
    return None if w is None else (w.w_set, w.x_prime, w.w_prime, w.z_star)


# -- model specs: (exogenous, endogenous, domains, [(var, deps, table)]) -------

def build_spec(spec, name: str):
    exo, endo, domains, mechs = spec
    signature = Signature(exo, endo, {v: Domain(d) for v, d in domains.items()})
    return build_model(signature,
                       [Mechanism.from_table(v, deps, table)
                        for v, deps, table in mechs], name=name)


def actual_world(spec, context) -> dict:
    """Solve a spec directly from its tables (mechanisms are topologically
    ordered), so queries are made without calling the program."""
    env = dict(context)
    for var, deps, table in spec[3]:
        env[var] = table[tuple(env[d] for d in deps)]
    return env


def audit_spec(rng: random.Random, n: int):
    """n variables, n//3 of them 3-valued, each with two parents drawn from
    the exogenous U and the earlier variables; tables drawn uniformly."""
    endo = tuple(f"V{i}" for i in range(n))
    three = set(rng.sample(endo, n // 3))
    domains = {"U": (0, 1)}
    domains.update({v: (0, 1, 2) if v in three else (0, 1) for v in endo})
    mechs = []
    for i, var in enumerate(endo):
        pool = ["U", *endo[:i]]
        deps = tuple(sorted(rng.sample(pool, min(2, len(pool))), key=pool.index))
        table = {key: rng.choice(domains[var])
                 for key in itertools.product(*(domains[d] for d in deps))}
        mechs.append((var, deps, table))
    return ("U",), endo, domains, mechs


def chain_spec(rng: random.Random, n: int):
    """Binary chain C0 -> C1 -> ... from U; each link copies or negates, and
    the variables are declared in a shuffled order."""
    names = [f"C{i}" for i in range(n)]
    mechs = [("C0", ("U",), {(0,): 0, (1,): 1})]
    for prev, var in zip(names, names[1:]):
        flip = rng.randint(0, 1)
        mechs.append((var, (prev,), {(0,): flip, (1,): 1 - flip}))
    declared = names[:]
    rng.shuffle(declared)
    domains = {v: (0, 1) for v in ["U", *names]}
    return ("U",), tuple(declared), domains, mechs


def window_spec(rng: random.Random, n: int):
    """Binary variables V0..; V0 reads U, every later variable reads one to
    three of the three variables before it."""
    endo = tuple(f"V{i}" for i in range(n))
    mechs = []
    for i, var in enumerate(endo):
        pool = ["U"] if i == 0 else list(endo[max(0, i - 3):i])
        deps = tuple(sorted(rng.sample(pool, rng.randint(1, len(pool))),
                            key=pool.index))
        table = {key: rng.randint(0, 1)
                 for key in itertools.product((0, 1), repeat=len(deps))}
        mechs.append((var, deps, table))
    domains = {v: (0, 1) for v in ["U", *endo]}
    return ("U",), endo, domains, mechs


def is_ancestor(spec, x: str, y: str) -> bool:
    parents = {var: deps for var, deps, _ in spec[3]}
    todo, seen = [y], set()
    while todo:
        for d in parents.get(todo.pop(), ()):
            if d == x:
                return True
            if d not in seen:
                seen.add(d)
                todo.append(d)
    return False


class Workload:
    name = ""
    trace_passes = 1  # most passes a traced run makes
    tail_pct = 90  # the highest percentile with ten samples beyond it

    def __init__(self, seed: int, small: bool = False, src: str = ""):
        self.src = src

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int, timed) -> list:
        raise NotImplementedError

    def check_pass(self, records) -> int:
        """Failed operations in one pass, judged from its records alone."""
        return 0

    def notes(self) -> list[str]:
        """Lines the run prints about its inputs."""
        return []

    def check(self, passes: list[list]) -> int:
        """Failed operations over all passes, which run the same inputs: the
        first is judged by check_pass, and a later pass whose digest differs
        from the first counts all its operations as failed."""
        first = digest(passes[0])
        return self.check_pass(passes[0]) + sum(
            len(records) for records in passes[1:] if digest(records) != first)


class Golden(Workload):
    name = "golden"
    trace_passes = 30
    tail_pct = 99

    def __init__(self, seed, small=False, src=""):
        super().__init__(seed, small, src)
        self.rows = all_golden_rows()
        self.rng = random.Random(seed)

    def setup(self):
        self.cases = {key: load_example(key).loaded for key in REGISTRY}

    @staticmethod
    def _query(loaded, text):
        return run_query(loaded, parse_query(text, loaded))

    def run_pass(self, index, timed):
        order = list(range(len(self.rows)))
        self.rng.shuffle(order)
        records = [None] * len(order)
        for j in order:
            row = self.rows[j]
            out = timed(j, self._query, self.cases[row.key], row.query)
            records[j] = (j, out.verdict,
                          tuple(witness_tuple(w) for w in out.witnesses))
        return records

    @functools.cached_property
    def expected(self) -> list[bool]:
        return [self._oracle(row) if (row.key, row.query) in DIVERGENCES
                else row.expected for row in self.rows]

    def _oracle(self, row) -> bool:
        loaded = self.cases[row.key]
        doc = parse_query(row.query, loaded)
        allow = None
        if doc.extended and loaded.allow is not None:
            allow = lambda world, f=loaded.allow: eval_event(world, f)
        return actual_cause_bruteforce(
            loaded.model, loaded.context(doc.context_name), doc.cause.events,
            doc.effect, legacy=doc.variant is DefinitionVariant.LEGACY,
            allow=allow)

    def check_pass(self, records):
        return sum(1 for (j, verdict, _), want in zip(records, self.expected)
                   if verdict != want)

    def notes(self) -> list[str]:
        return [f"documented divergence: {row.key}: {row.query}: golden.tsv "
                f"expects {row.expected}, checker and oracle give "
                f"{want}" for row, want in zip(self.rows, self.expected)
                if (row.key, row.query) in DIVERGENCES]


class Audit(Workload):
    name = "audit"
    trace_passes = 1
    tail_pct = 99

    def __init__(self, seed, small=False, src=""):
        super().__init__(seed, small, src)
        rng = random.Random(seed)
        self.specs = [audit_spec(rng, n) for n in ((4, 5) if small else (4, 5, 6))]

    def setup(self):
        self.models = [build_spec(s, f"audit_{i}")
                       for i, s in enumerate(self.specs)]

    def run_pass(self, index, timed):
        """Every model in both contexts: every (x, y) check under each
        variant, witness and process lists for the positive updated checks,
        and the cause list of width two for every effect."""
        records = []
        for m in range(len(self.models)):
            records += self._model(m, timed)
        return records

    def _model(self, m, timed):
        model, spec = self.models[m], self.specs[m]
        records = []
        for u in (0, 1):
            context = {"U": u}
            world = actual_world(spec, context)
            for x, y in itertools.product(model.endogenous, repeat=2):
                cause, effect = cause_of(p(x, world[x])), p(y, world[y])
                for variant in VARIANTS:
                    query = CauseQuery(model, context, cause, effect,
                                       variant=variant)
                    v = timed((m, u, x, y, variant), is_actual_cause, query)
                    records.append(("check", m, u, x, y, variant.value,
                                    v.overall, witness_tuple(v.witness)))
                    if variant is DefinitionVariant.UPDATED:
                        positive, updated = v.overall, query
                if positive:
                    ws = timed((m, u, x, y, "w"), enumerate_witnesses, updated)
                    ps = timed((m, u, x, y, "p"), active_processes, model,
                               context, cause, effect)
                    records.append(("witnesses", m, u, x, y,
                                    tuple(witness_tuple(w) for w in ws)))
                    records.append(("process", m, u, x, y, tuple(ps)))
            for y in model.endogenous:
                causes = timed((m, u, y), enumerate_causes, model, context,
                               p(y, world[y]), max_conjuncts=2)
                records.append(("causes", m, u, y, tuple(str(c) for c in causes)))
        return records

    def check_pass(self, records):
        """Each model's updated and legacy verdicts against the oracle, and
        each cause list's single conjuncts against the positive updated
        checks."""
        by_model: dict[int, list] = {}
        for rec in records:
            by_model.setdefault(rec[1], []).append(rec)
        return sum(self._check_model(m, recs) for m, recs in by_model.items())

    def _check_model(self, m, records) -> int:
        model, spec = self.models[m], self.specs[m]
        failed, positive = 0, set()
        for rec in records:
            if rec[0] != "check":
                continue
            _, _, u, x, y, variant, overall, _ = rec
            if variant == "updated" and overall:
                positive.add((u, x, y))
            if variant == "strong":
                continue
            world = actual_world(spec, {"U": u})
            want = actual_cause_bruteforce(
                model, {"U": u}, (p(x, world[x]),), p(y, world[y]),
                legacy=variant == "legacy")
            failed += overall != want
        for rec in records:
            if rec[0] == "causes":
                _, _, u, y, causes = rec
                world = actual_world(spec, {"U": u})
                singles = {c for c in causes if "&" not in c}
                want = {f"{x}={world[x]}" for x in model.endogenous
                        if (u, x, y) in positive}
                failed += singles != want
        return failed


class _Series(Workload):
    """One is_actual_cause query per model, over models of growing size; the
    verdict of every query is false by construction or by selection."""

    def setup(self):
        self.models = [(n, build_spec(spec, f"{self.name}_{n}_{k}"), x, y)
                       for k, (n, spec, x, y) in enumerate(self.specs)]

    def run_pass(self, index, timed):
        records = []
        for k, (n, model, x, y) in enumerate(self.models):
            world = self.worlds[k]
            v = timed(k, is_actual_cause, CauseQuery(
                model, {"U": self.u}, cause_of(p(x, world[x])), p(y, world[y])))
            records.append(("check", n, k, v.overall, witness_tuple(v.witness)))
        return records

    def check_pass(self, records):
        """Every verdict is false; the smallest models also go to the oracle."""
        smallest = min(n for n, *_ in self.models)
        failed = 0
        for (_, n, k, overall, _), (_, model, x, y) in zip(records, self.models):
            failed += overall
            if n == smallest:
                world = self.worlds[k]
                failed += overall != actual_cause_bruteforce(
                    model, {"U": self.u}, (p(x, world[x]),), p(y, world[y]))
        return failed

    def _worlds(self):
        self.worlds = [actual_world(spec, {"U": self.u})
                       for _, spec, _, _ in self.specs]


class Offpath(_Series):
    name = "offpath"
    trace_passes = 3

    def __init__(self, seed, small=False, src=""):
        super().__init__(seed, small, src)
        rng = random.Random(seed)
        self.u = rng.randint(0, 1)
        sizes = range(3, 6) if small else range(3, 10)
        self.specs = [(n, chain_spec(rng, n), f"C{n - 1}", "C0") for n in sizes]
        self._worlds()


class Onpath(_Series):
    name = "onpath"
    trace_passes = 2
    PER_SIZE = 12

    def __init__(self, seed, small=False, src=""):
        super().__init__(seed, small, src)
        rng = random.Random(seed)
        self.u = rng.randint(0, 1)
        sizes, per_size = ((4, 5), 2) if small else (range(5, 10), self.PER_SIZE)
        self.specs = [(n, self._draw(rng, n), "V0", f"V{n - 1}")
                      for n in sizes for _ in range(per_size)]
        self._worlds()

    def _draw(self, rng, n):
        """Redraw until the cause V0 is an ancestor of the effect V(n-1) and
        the actual verdict is false."""
        x, y = "V0", f"V{n - 1}"
        while True:
            spec = window_spec(rng, n)
            if not is_ancestor(spec, x, y):
                continue
            world = actual_world(spec, {"U": self.u})
            verdict = is_actual_cause(CauseQuery(
                build_spec(spec, "draw"), {"U": self.u},
                cause_of(p(x, world[x])), p(y, world[y])))
            if not verdict.overall:
                return spec


class Cli(Workload):
    """Cold command-line checks, one process at a time.  In-process mode
    calls the same ``main`` inside this interpreter (used by traced runs)."""

    name = "cli"
    trace_passes = 100
    KEY, CONTEXT, CAUSE, EFFECT = "rock_refined", "both", "ST=1", "BS=1"

    def __init__(self, seed, small=False, src=""):
        super().__init__(seed, small, src)
        self.in_process = False
        self.path = os.path.join(src, "actualcause", "corpus", "data",
                                 f"{self.KEY}.hpc")
        self.argv = ["check", self.path, "--context", self.CONTEXT,
                     "--cause", self.CAUSE, "--effect", self.EFFECT, "--json"]
        query = f"check cause {self.CAUSE} of {self.EFFECT} context {self.CONTEXT}"
        self.expected = next(r.expected for r in all_golden_rows()
                             if r.key == self.KEY and r.query == query)

    def setup(self):
        load_model(example_text(self.KEY))

    def _cold(self):
        env = dict(os.environ, PYTHONPATH=self.src)
        done = subprocess.run([sys.executable, "-m", "actualcause.cli",
                               *self.argv], capture_output=True, text=True,
                              env=env, timeout=60)
        return done.returncode, done.stdout

    def _warm(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(self.argv)
        return code, out.getvalue()

    def run_pass(self, index, timed):
        code, stdout = timed(0, self._warm if self.in_process else self._cold)
        try:
            report = json.loads(stdout)
        except ValueError:
            return [("cli", code, None, None)]
        return [("cli", code, report["verdict"],
                 json.dumps(report["witnesses"], sort_keys=True))]

    def check_pass(self, records):
        _, code, verdict, _ = records[0]
        return int(code != (0 if self.expected else 1)
                   or verdict is not self.expected)


WORKLOADS = {w.name: w for w in (Golden, Audit, Offpath, Onpath, Cli)}

# One query of each kind, the oracle and the command line, on corpus models
# of two sizes: traced runs read a layer from here when their own workload
# never calls it.
PROBE = (
    ("rock_refined", "check cause ST=1 of BS=1 context both"),
    ("arson_conjunctive", "check cause ML1=1 of FB=1 context u11"),
    ("rock_refined", "causes of BS=1 context both max_conjuncts 2"),
    ("rock_refined", "witnesses for ST=1 of BS=1 context both"),
    ("rock_refined", "process for ST=1 of BS=1 context both"),
    ("april_showers", "contrast cause AS=1 of F=2 vs F=1 context base"),
    ("arson_conjunctive", "eval [ML1<-0, ML2<-1](FB=0) context u11"),
)
PROBE_REPEATS = 3


def layer_probe(src: str) -> None:
    cli = Cli(0, src=src)
    for _ in range(PROBE_REPEATS):
        cases = {key: load_example(key).loaded for key, _ in PROBE}
        for key, text in PROBE:
            run_query(cases[key], parse_query(text, cases[key]))
        rock = cases["rock_refined"]
        actual_cause_bruteforce(rock.model, rock.context("both"),
                                (p("ST", 1),), p("BS", 1))
        cli._warm()


def import_probe(src: str, repeats: int = 5) -> float:
    """Median time (ms) of ``import actualcause`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import actualcause; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=src)
    times = [float(subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True,
                                  timeout=60).stdout)
             for _ in range(repeats)]
    return statistics.median(times) * 1000.0
