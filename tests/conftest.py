from __future__ import annotations

import itertools
import random
from importlib import resources

import pytest

from actualcause import Domain, Mechanism, Signature, build_model
from actualcause.corpus import REGISTRY, load_example


def corpus_path(key: str) -> str:
    return str(resources.files("actualcause.corpus") / "data" / f"{key}.hpc")


def random_recursive_model(seed: int, max_vars: int = 4):
    """Seeded random acyclic model: binary variables, one binary context input.

    Mechanism tables are drawn uniformly; dependencies only point backwards in
    declaration order, so the result is recursive by construction.
    """
    rng = random.Random(seed)
    n = rng.randint(2, max_vars)
    endo = tuple(f"V{i}" for i in range(n))
    ranges = {"U": Domain((0, 1))}
    ranges.update({v: Domain((0, 1)) for v in endo})
    signature = Signature(("U",), endo, ranges)
    mechanisms = []
    for i, var in enumerate(endo):
        pool = ["U", *endo[:i]]
        deps = tuple(d for d in pool if rng.random() < 0.6)
        table = {key: rng.randint(0, 1)
                 for key in itertools.product((0, 1), repeat=len(deps))}
        mechanisms.append(Mechanism.from_table(var, deps, table))
    return build_model(signature, mechanisms, name=f"recursive_{seed}")


def mixed_domain_model(seed: int):
    """Seeded random acyclic model of 3 or 4 variables, each binary or
    3-valued with equal odds, behind one binary context input."""
    rng = random.Random(31_000 + seed)
    endo = tuple(f"V{i}" for i in range(rng.randint(3, 4)))
    ranges = {"U": Domain((0, 1))}
    ranges.update({v: Domain((0, 1, 2) if rng.random() < 0.5 else (0, 1))
                   for v in endo})
    mechanisms = []
    for i, var in enumerate(endo):
        deps = tuple(d for d in ("U", *endo[:i]) if rng.random() < 0.6)
        rows = itertools.product(*(ranges[d].values for d in deps))
        table = {key: rng.choice(ranges[var].values) for key in rows}
        mechanisms.append(Mechanism.from_table(var, deps, table))
    return build_model(Signature(("U",), endo, ranges), mechanisms,
                       name=f"mixed_{seed}")


def random_any_model(seed: int, max_vars: int = 3):
    """Seeded random model whose dependencies may form cycles."""
    rng = random.Random(10_000 + seed)
    n = rng.randint(2, max_vars)
    endo = tuple(f"V{i}" for i in range(n))
    ranges = {"U": Domain((0, 1))}
    ranges.update({v: Domain((0, 1)) for v in endo})
    signature = Signature(("U",), endo, ranges)
    mechanisms = []
    for var in endo:
        pool = ["U", *[v for v in endo if v != var]]
        deps = tuple(d for d in pool if rng.random() < 0.5)
        table = {key: rng.randint(0, 1)
                 for key in itertools.product((0, 1), repeat=len(deps))}
        mechanisms.append(Mechanism.from_table(var, deps, table))
    return build_model(signature, mechanisms, name=f"any_{seed}")


@pytest.fixture(scope="session")
def corpus():
    return {key: load_example(key) for key in REGISTRY}
