"""Pinned differential over the public search entry points.

Seeded model families go through is_actual_cause, enumerate_witnesses,
active_processes, enumerate_causes(max_conjuncts=2) and every
contrastive_cause mode, under every definition variant, with no allowable
settings, an allow formula, an allowable set and an allowable predicate, and
with one- and two-variable effects.  Each result becomes text lines (the
verdict, the witnesses in order, the SearchStats, or the error type and
message), and the lines of each (family, entry point) hash to the pinned
SHA-256 prefix below.  A change that only makes the search cheaper keeps
every pin; a change to a verdict, a witness, its order or a counter does not,
and the failure prints that group's lines.  The same run also checks that
every witness comes from a contingency set whose relevant clamps hold a cause
slot, the fact that lets a search skip every other contingency set.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random

import pytest

from actualcause import (
    CauseQuery,
    DefinitionVariant,
    Domain,
    ExtendedCausalModel,
    Mechanism,
    Not,
    Or,
    Signature,
    active_processes,
    build_model,
    cause_of,
    conj,
    contrastive_cause,
    enumerate_causes,
    enumerate_witnesses,
    is_actual_cause,
    p,
    solve,
)
from actualcause.cause import SearchStats, _Engine
from actualcause.errors import CausalityError


def _build(endo, domains, parents, rng, name):
    ranges = {"U": Domain((0, 1)), **{v: Domain(domains[v]) for v in endo}}
    mechanisms = []
    for var in endo:
        deps = parents[var]
        rows = itertools.product(*(ranges[d].values for d in deps))
        table = {row: rng.choice(domains[var]) for row in rows}
        mechanisms.append(Mechanism.from_table(var, deps, table))
    return build_model(Signature(("U",), tuple(endo), ranges), mechanisms,
                       name=name)


def random_model(seed: int, valued: tuple[int, ...]):
    """3-5 variables, each reading U or earlier variables with odds 0.6,
    with domain sizes drawn from ``valued``."""
    rng = random.Random(seed)
    endo = [f"V{i}" for i in range(rng.randint(3, 5))]
    domains = {v: tuple(range(rng.choice(valued))) for v in endo}
    parents = {v: tuple(d for d in ("U", *endo[:i]) if rng.random() < 0.6)
               for i, v in enumerate(endo)}
    return _build(endo, domains, parents, rng, f"random_{seed}")


def window_model(seed: int):
    """6-8 binary variables, each reading one to three of the three before
    it (V0 reads U)."""
    rng = random.Random(seed)
    endo = [f"V{i}" for i in range(rng.randint(6, 8))]
    parents = {}
    for i, v in enumerate(endo):
        pool = ["U"] if i == 0 else endo[max(0, i - 3):i]
        parents[v] = tuple(sorted(rng.sample(pool, rng.randint(1, len(pool))),
                                  key=pool.index))
    return _build(endo, {v: (0, 1) for v in endo}, parents, rng,
                  f"window_{seed}")


def chain_model(seed: int):
    """A binary chain C0 <- C1 <- ... of 6-8 links from U, declared in a
    shuffled order, so that screened clamps often precede relevant ones."""
    rng = random.Random(seed)
    names = [f"C{i}" for i in range(rng.randint(6, 8))]
    parents = {v: (prev,) for prev, v in zip(["U", *names], names)}
    declared = names[:]
    rng.shuffle(declared)
    return _build(declared, {v: (0, 1) for v in names}, parents, rng,
                  f"chain_{seed}")


# family -> (model maker, seeds, causes per model)
FAMILIES = {
    "binary": (lambda s: random_model(s, (2,)), range(6), None),
    "mixed": (lambda s: random_model(100 + s, (2, 3)), range(6), None),
    "window": (window_model, (200, 202), 3),  # 6 and 7 variables
    "chain": (chain_model, (303, 301), 3),  # 6 and 7 variables
}

ENTRY_POINTS = ("is_actual_cause", "enumerate_witnesses", "active_processes",
                "enumerate_causes", "contrastive_cause")


def _text(result) -> str:
    if isinstance(result, BaseException):
        return f"{type(result).__name__}: {result}"
    return repr(result)


def _call(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CausalityError as error:
        return error


def _targets(model, actual, rng):
    """(label, model) pairs: plain and three kinds of allowable settings."""
    endo = model.endogenous
    allow = Or((p(endo[1], actual[endo[1]]),
                p(endo[-2], rng.choice(model.domain_of(endo[-2]).values))))
    world = tuple(actual[v] for v in endo)
    pool = frozenset(s for s in itertools.product(
        *(model.domain_of(v).values for v in endo))
        if s == world or rng.random() < 0.7)

    def in_pool(assignment):
        return tuple(assignment[v] for v in endo) in pool
    return [("plain", model), ("formula", ExtendedCausalModel(model, allow)),
            ("set", ExtendedCausalModel(model, pool)),
            ("callable", ExtendedCausalModel(model, in_pool))]


def family_lines(family: str) -> dict[str, list[str]]:
    """Result lines of one family, per entry point."""
    make, seeds, width = FAMILIES[family]
    lines: dict[str, list[str]] = {entry: [] for entry in ENTRY_POINTS}
    for seed in seeds:
        model = make(seed)
        endo, context = model.endogenous, {"U": seed % 2}
        actual = solve(model, context)
        rng = random.Random(7_000 + seed)
        last, second = endo[-1], endo[-2]
        other = next(v for v in model.domain_of(last).values
                     if v != actual[last])
        effects = [("one", p(last, actual[last])),
                   ("two", conj(p(second, actual[second]),
                                p(last, actual[last])))]
        singles = [cause_of(p(v, actual[v])) for v in endo
                   if v not in (last, second)][:width]
        pairs = [cause_of(p(endo[0], actual[endo[0]]),
                          p(endo[1], actual[endo[1]]))]
        for (label, target), (shape, effect), variant in itertools.product(
                _targets(model, actual, rng), effects, DefinitionVariant):
            head = f"{model.name} {label} {shape} {variant.value}"
            for cause in singles + pairs:
                query = CauseQuery(target, context, cause, effect,
                                   variant=variant)
                lines["is_actual_cause"].append(
                    f"{head} {cause}: " + _text(_call(is_actual_cause, query)))
                stats = SearchStats()
                found = _call(enumerate_witnesses, query, stats=stats)
                lines["enumerate_witnesses"].append(
                    f"{head} {cause}: {_text(found)} {stats}")
                xvar, xval = cause.vars[0], cause.values[0]
                for mode, alt in itertools.product(
                        ("antecedent_strong", "antecedent_weak"),
                        [v for v in model.domain_of(xvar).values
                         if v != xval]):
                    lines["contrastive_cause"].append(
                        f"{head} {cause} {mode} {alt}: " + _text(_call(
                            contrastive_cause, query, mode,
                            value_alternative=alt)))
                lines["contrastive_cause"].append(
                    f"{head} {cause} consequent: " + _text(_call(
                        contrastive_cause, query, "consequent",
                        effect_alternative=p(last, other))))
            for cause in singles[:2] + pairs:
                stats = SearchStats()
                found = _call(active_processes, target, context, cause,
                              effect, variant=variant, stats=stats)
                lines["active_processes"].append(
                    f"{head} {cause}: {_text(found)} {stats}")
            stats = SearchStats()
            found = _call(enumerate_causes, target, context, effect,
                          variant=variant, max_conjuncts=2, stats=stats)
            lines["enumerate_causes"].append(
                f"{head}: {_text(found)} {stats}")
        # A contrast whose alternative outcome the effect allows.
        query = CauseQuery(model, context, singles[0], p(last, actual[last]))
        lines["contrastive_cause"].append(
            f"{model.name} overlapping: " + _text(_call(
                contrastive_cause, query, "consequent",
                effect_alternative=Not(p(last, other)))))
    return lines


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# (family, entry point) -> SHA-256 prefix of its lines
PINS = {
    ("binary", "is_actual_cause"): "a9a06a6cd9fe15c7",
    ("binary", "enumerate_witnesses"): "e920e98b2e4b4b19",
    ("binary", "active_processes"): "163dc04901cbe45a",
    ("binary", "enumerate_causes"): "60cbbb7e4103d23b",
    ("binary", "contrastive_cause"): "6bc4ce1a2f6afee9",
    ("mixed", "is_actual_cause"): "2d9103d62b641f37",
    ("mixed", "enumerate_witnesses"): "30187a073b9c85d7",
    ("mixed", "active_processes"): "a8686b360bc2813b",
    ("mixed", "enumerate_causes"): "876d8d0d9389eb6f",
    ("mixed", "contrastive_cause"): "9d8175dc58b6e0f5",
    ("window", "is_actual_cause"): "3ed1f34a5d2d97e3",
    ("window", "enumerate_witnesses"): "d4b2cc86b03702fc",
    ("window", "active_processes"): "c19c789ccddae112",
    ("window", "enumerate_causes"): "6b9eea9e39b979cb",
    ("window", "contrastive_cause"): "e126ee2df57f0a15",
    ("chain", "is_actual_cause"): "a76ea9d034cc412e",
    ("chain", "enumerate_witnesses"): "a6d65619a6f915f8",
    ("chain", "active_processes"): "8d0e6303a9b858d2",
    ("chain", "enumerate_causes"): "2c2f7a635ee6b52e",
    ("chain", "contrastive_cause"): "ce3baca1f82829f1",
}


@functools.cache
def recorded(family: str) -> tuple[dict[str, list[str]], int, list[str]]:
    """family_lines(family), the number of witnesses that the searches of
    all its entry points yielded, and those among them whose contingency set
    W leaves every cause slot out of _relevant(x_mask | w_mask)."""
    count, screened = [0], []
    search = _Engine.witnesses

    def recording(engine, cause, variant, stats, **kw):
        x_mask = sum(1 << engine.index[v] for v in cause.vars)
        for witness in search(engine, cause, variant, stats, **kw):
            count[0] += 1
            w_mask = sum(1 << engine.index[v] for v in witness.w_set)
            if not engine._relevant(x_mask | w_mask) & x_mask:
                screened.append(f"{engine.endo} {variant.value} "
                                f"{cause} {kw}: {witness}")
            yield witness

    _Engine.witnesses = recording
    try:
        lines = family_lines(family)
    finally:
        _Engine.witnesses = search
    return lines, count[0], screened


@pytest.mark.parametrize("family", FAMILIES)
def test_differential(family):
    mismatched = []
    for entry, lines in recorded(family)[0].items():
        if digest(lines) != PINS[family, entry]:
            mismatched.append(f"== {family} {entry}: {digest(lines)}\n"
                              + "\n".join(lines))
    assert not mismatched, "\n".join(mismatched)


@pytest.mark.parametrize("family", FAMILIES)
def test_witnesses_keep_a_cause_clamp_relevant(family):
    """When every cause clamp is screened, clause (a)'s probe and clause
    (b)'s probe with all W options pinned are one scenario, so a contingency
    set W with _relevant(x_mask | w_mask) & x_mask == 0 has no witness: (a)
    reaches a goal that implies "not effect" (contrastive_cause checks this
    for its alternative outcome), and (b) then sees the effect fail.  No
    entry point finds a witness there."""
    _, count, screened = recorded(family)
    assert count > 0
    assert not screened, "\n".join(screened)
