"""Bundled example models with expected verdicts.

Each entry is a self-contained .hpc document under ``data/`` plus rows in
``data/golden.tsv`` giving query strings, their expected boolean outcomes,
and a one-line note on what the row demonstrates.  The registry doubles as
a regression corpus: every model loads, validates, and round-trips through
the text format, and every golden row is replayed by the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from ..dsl import LoadedModel, load_model
from ..errors import UnknownExample

REGISTRY: tuple[str, ...] = (
    "forest_fire",
    "arson_disjunctive",
    "arson_conjunctive",
    "arson_three_valued",
    "april_showers",
    "rock_coarse",
    "rock_three_valued",
    "rock_refined",
    "rock_time_indexed",
    "doctor",
    "double_prevention",
    "double_prevention_hillary",
    "noise_bottle",
    "loanshark",
    "loanshark_bare",
    "plant_putin",
    "track_switch_one_var",
    "track_switch_two_var",
    "merlin_coarse",
    "merlin_refined",
    "sergeant_simple",
    "sergeant_refined",
    "fielder_wall",
    "fielder_wall_fixed",
    "voting_machine",
    "prisoner",
)


@dataclass(frozen=True)
class GoldenRow:
    key: str
    query: str
    expected: bool
    note: str


@dataclass(frozen=True)
class ExampleCase:
    key: str
    text: str
    loaded: LoadedModel

    @property
    def golden(self) -> tuple[GoldenRow, ...]:
        """This example's golden rows, read from golden.tsv when asked for."""
        return expected_verdicts(self.key)


def _data(name: str) -> str:
    return (resources.files(__package__) / "data" / name).read_text("utf-8")


def example_text(key: str) -> str:
    if key not in REGISTRY:
        raise UnknownExample(f"no example registered under {key!r}")
    return _data(f"{key}.hpc")


def _golden_rows() -> list[GoldenRow]:
    rows: list[GoldenRow] = []
    lines = _data("golden.tsv").splitlines()
    for line in lines[1:]:
        if not line.strip():
            continue
        key, query, expected, note = line.split("\t")
        if expected not in ("true", "false"):
            raise UnknownExample(f"bad expected value {expected!r} for {key}")
        rows.append(GoldenRow(key, query, expected == "true", note))
    return rows


def load_example(key: str) -> ExampleCase:
    """Load and validate one example; raises UnknownExample for bad keys."""
    text = example_text(key)
    return ExampleCase(key, text, load_model(text))


def expected_verdicts(key: str) -> tuple[GoldenRow, ...]:
    if key not in REGISTRY:
        raise UnknownExample(f"no example registered under {key!r}")
    return tuple(r for r in _golden_rows() if r.key == key)


def all_golden_rows() -> tuple[GoldenRow, ...]:
    return tuple(_golden_rows())
