"""Metamorphic audit of the checker on models too wide for the oracle.

Seeded window models of 7-9 variables with 2- and 3-valued domains are
checked against two copies of themselves that may not change a verdict:

- the same mechanisms declared in a shuffled order, which changes the scan
  order, the survivor tables, the learned patterns and the walks;
- every domain relabelled by a seeded permutation other than the identity
  (U included, so the two contexts trade places), with each domain listed in
  sorted order, which changes every table and the order in which values are
  tried.

For three causes of the last variable in both contexts, under every
definition variant, the verdict tuple (ac1, ac2, ac3, ac2c, overall) of each
copy must equal the original's.
"""

from __future__ import annotations

import itertools
import random

from actualcause import (
    CauseQuery,
    DefinitionVariant,
    Domain,
    Mechanism,
    Signature,
    build_model,
    cause_of,
    is_actual_cause,
    p,
    solve,
)

SEEDS = range(60)


def window_spec(seed: int):
    """(variables, domains, parents, tables) of 7-9 variables, each 2- or
    3-valued and reading one to three of the three before it (V0 reads U)."""
    rng = random.Random(52_000 + seed)
    endo = [f"V{i}" for i in range(rng.randint(7, 9))]
    domains = {"U": (0, 1)}
    domains.update({v: tuple(range(rng.choice((2, 3)))) for v in endo})
    parents, tables = {}, {}
    for i, v in enumerate(endo):
        pool = ["U"] if i == 0 else endo[max(0, i - 3):i]
        parents[v] = tuple(sorted(rng.sample(pool, rng.randint(1, len(pool))),
                                  key=pool.index))
        rows = itertools.product(*(domains[d] for d in parents[v]))
        tables[v] = {row: rng.choice(domains[v]) for row in rows}
    return endo, domains, parents, tables


def build(spec, order, label):
    """The model of ``spec`` with its variables declared in ``order`` and
    each value ``x`` of a variable ``v`` renamed ``label[v][x]``."""
    endo, domains, parents, tables = spec
    ranges = {v: Domain(tuple(sorted(label[v][x] for x in domains[v])))
              for v in ("U", *endo)}
    mechanisms = [Mechanism.from_table(v, parents[v], {
        tuple(label[d][x] for d, x in zip(parents[v], row)): label[v][out]
        for row, out in tables[v].items()}) for v in order]
    return build_model(Signature(("U",), tuple(order), ranges), mechanisms)


def verdicts(model, label, spec, causes):
    """Verdict tuples of each cause of the last variable at its actual
    value, in both original contexts, under every variant."""
    endo = spec[0]
    out = []
    for u in (0, 1):
        context = {"U": label["U"][u]}
        actual = solve(model, context)
        effect = p(endo[-1], actual[endo[-1]])
        for x, variant in itertools.product(causes, DefinitionVariant):
            v = is_actual_cause(CauseQuery(model, context,
                                           cause_of(p(x, actual[x])), effect,
                                           variant=variant))
            out.append((v.ac1, v.ac2, v.ac3, v.ac2c, v.overall))
    return out


def test_verdicts_survive_reordering_and_relabelling():
    compared, outcomes = 0, set()
    for seed in SEEDS:
        rng = random.Random(seed)
        spec = window_spec(seed)
        endo, domains = spec[0], spec[1]
        causes = rng.sample(endo[:-1], 3)
        same = {v: {x: x for x in domains[v]} for v in domains}
        want = verdicts(build(spec, endo, same), same, spec, causes)
        shuffled = rng.sample(endo, len(endo))
        assert verdicts(build(spec, shuffled, same), same, spec,
                        causes) == want, f"seed {seed}, order {shuffled}"
        relabel = {v: dict(zip(dom, rng.choice(
            list(itertools.permutations(dom))[1:])))
            for v, dom in domains.items()}
        assert verdicts(build(spec, endo, relabel), relabel, spec,
                        causes) == want, f"seed {seed}, labels {relabel}"
        compared += 2 * len(want)
        outcomes.update(t[-1] for t in want)
    assert compared == len(SEEDS) * 2 * 3 * 2 * 3
    assert outcomes == {False, True}
