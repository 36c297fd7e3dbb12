"""The closed-form search counts against a walk that counts one at a time.

``SearchStats`` reports what a scan over every contingency set, block and
setting would have examined.  The engine derives those counts in closed form
(cause._counts) at each witness and at the scan's end; the reference here
walks every setting and adds one per setting and one per set.
"""

from __future__ import annotations

import itertools
import random
from math import prod

import pytest

from actualcause import (
    CauseQuery,
    DefinitionVariant,
    Domain,
    ExtendedCausalModel,
    Mechanism,
    Signature,
    build_model,
    cause_of,
    is_actual_cause,
    p,
    solve,
)
from actualcause.cause import SearchStats, _counts, _Engine
from conftest import mixed_domain_model
from test_differential import FAMILIES


def counting_walk(sizes, blocks, witnessed=(), per_set=False):
    """(partitions, settings) after each witnessed (set, block, position)
    and at the end, counted one set and one setting at a time over every
    set in (size, lex) order; ``per_set`` leaves the rest of a set
    uncounted after its first witness."""
    marks = set(witnessed)
    partitions = settings = 0
    reports = []
    for m in range(len(sizes) + 1):
        for w in itertools.combinations(range(len(sizes)), m):
            partitions += 1
            for k in range(blocks):
                for at in range(prod(sizes[c] for c in w)):
                    settings += 1
                    if (w, k, at) in marks:
                        reports.append((partitions, settings))
                        if per_set:
                            break
                else:
                    continue
                break
    return reports + [(partitions, settings)]


def shapes():
    """Every tuple of up to four domain sizes from 1 to 3, then seeded
    tuples of five to seven."""
    for n in range(5):
        yield from itertools.product((1, 2, 3), repeat=n)
    rng = random.Random(11)
    for _ in range(12):
        yield tuple(rng.choice((1, 2, 2, 3)) for _ in range(rng.randint(5, 7)))


def test_counts_match_the_walk_at_every_setting():
    checked = 0
    for sizes in shapes():
        for blocks in range(4):
            every = [(w, k, at) for m in range(len(sizes) + 1)
                     for w in itertools.combinations(range(len(sizes)), m)
                     for k in range(blocks)
                     for at in range(prod(sizes[c] for c in w))]
            walked = counting_walk(sizes, blocks, every)
            closed = []
            for w, k, at in every:
                partitions, before = _counts(sizes, blocks, list(w))
                closed.append((partitions, before + k * prod(
                    sizes[c] for c in w) + at + 1))
            assert closed + [_counts(sizes, blocks)] == walked, (sizes, blocks)
            if not blocks:  # no settings: each set is reached at its rank
                assert [_counts(sizes, 0, list(w))[0] for m in range(
                    len(sizes) + 1) for w in itertools.combinations(
                        range(len(sizes)), m)] == list(range(
                            1, 2 ** len(sizes) + 1))
            checked += len(every) + 1
    assert checked > 100_000, checked


def witnessed_at(engine, cause, variant, witness):
    """The (free-slot positions of W, block, position) of a witness: blocks
    are the cause's values other than its own in domain-product order (one
    block under ``strong``), and a position is w' in mixed radix."""
    free = [v for v in engine.endo if v not in cause.vars]
    if variant is DefinitionVariant.STRONG:
        k = 0
    else:
        k = [x for x in itertools.product(*(engine.domains[x]
                                             for x in cause.vars))
             if x != cause.values].index(witness.x_prime)
    at = 0
    for var, value in zip(witness.w_set, witness.w_prime):
        at = at * len(engine.domains[var]) + engine.domains[var].index(value)
    return tuple(free.index(v) for v in witness.w_set), k, at


def scan_reports(engine, cause, variant, **kw):
    """The witnesses of one scan and the stats after each and at its end."""
    stats, found, reports = SearchStats(), [], []
    for witness in engine.witnesses(cause, variant, stats, **kw):
        found.append(witness)
        reports.append((stats.partitions_examined, stats.settings_examined))
    reports.append((stats.partitions_examined, stats.settings_examined))
    return found, reports


def family_models():
    """The differential families' models and mixed_domain_model 0-11, each
    in one context, plain and under an allow formula that keeps its actual
    world."""
    models = [make(seed) for make, seeds, _ in FAMILIES.values()
              for seed in seeds]
    models += [mixed_domain_model(seed) for seed in range(12)]
    for n, model in enumerate(models):
        context = {"U": n % 2}
        actual = solve(model, context)
        first = model.endogenous[0]
        yield model, context, actual
        yield (ExtendedCausalModel(model, p(first, actual[first])), context,
               actual)


def test_scan_reports_the_closed_form_counts():
    """Every variant, full and first_per_set scans, a first witness and
    every x_override of a single cause: the stats after each witness and at
    the end are those of the counting walk over the same witnesses."""
    scans = 0
    for target, context, actual in family_models():
        model = getattr(target, "base", target)
        endo = model.endogenous
        effect = p(endo[-1], actual[endo[-1]])
        causes = [cause_of(p(v, actual[v])) for v in endo[:-1]]
        causes.append(cause_of(p(endo[0], actual[endo[0]]),
                               p(endo[1], actual[endo[1]])))
        engine = _Engine(target, context, effect)
        for cause, variant in itertools.product(causes, DefinitionVariant):
            x_domains = [engine.domains[x] for x in cause.vars]
            sizes = tuple(len(engine.domains[v]) for v in endo
                          if v not in cause.vars)
            blocks = 1 if variant is DefinitionVariant.STRONG else (
                prod(map(len, x_domains)) - 1)
            overrides = [None] + ([(x,) for x in x_domains[0]]
                                  if len(cause.vars) == 1 else [])
            for x_override, per_set in itertools.product(overrides,
                                                         (False, True)):
                found, reports = scan_reports(
                    engine, cause, variant, first_per_set=per_set,
                    x_override=x_override)
                marks = [witnessed_at(engine, cause, variant, w)
                         for w in found]
                assert reports == counting_walk(sizes, blocks, marks,
                                                per_set), (
                    model.name, str(cause), variant, x_override, per_set)
                stats = SearchStats()
                engine.first_witness(cause, variant, stats,
                                     x_override=x_override)
                assert (stats.partitions_examined,
                        stats.settings_examined) == reports[0]
                scans += 1
    assert scans > 2_000, scans


@pytest.mark.parametrize("variant, expected", [
    (DefinitionVariant.UPDATED, (4, 0)),
    (DefinitionVariant.LEGACY, (4, 0)),
    (DefinitionVariant.STRONG, (0, 0)),
])
def test_single_valued_cause(variant, expected):
    """A cause with one value has no other value to take: no block, so
    updated and legacy reach every set and no setting, and strong, which
    needs a deviation, searches nothing."""
    signature = Signature(("U",), ("K", "X", "Y"),
                          {"U": Domain((0, 1)), "K": Domain((0,)),
                           "X": Domain((0, 1)), "Y": Domain((0, 1, 2))})
    model = build_model(signature, [
        Mechanism.constant("K", 0),
        Mechanism.from_table("X", ("U",), {(0,): 0, (1,): 1}),
        Mechanism.from_table("Y", ("K", "X"), {(0, 0): 2, (0, 1): 1})])
    engine = _Engine(model, {"U": 1}, p("Y", 1))
    found, reports = scan_reports(engine, cause_of(p("K", 0)), variant)
    assert found == [] and reports == [expected]
    assert _counts((2, 3), 0) == (4, 0)
    stats = is_actual_cause(CauseQuery(model, {"U": 1}, cause_of(p("K", 0)),
                                       p("Y", 1), variant=variant)).stats
    assert (stats.partitions_examined, stats.settings_examined) == expected
