"""The claims table against every committed sweep row.

Each committed ``BENCH_<sweep>.json`` (the scaling trajectory has no sweep
rows) must meet the claim entry of every row's ``(strategy, path)``; a
doctored row over its bound, or a row no entry judges, must fail loudly.
"""

import copy
import glob
import os

import pytest

from repro.experiments import claims
from repro.experiments.claims import CLAIMS, audit
from repro.experiments.results import load_bench

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMITTED = sorted(
    os.path.basename(path)
    for path in glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
    if os.path.basename(path) != "BENCH_scaling.json"
)


def _payload(name):
    return load_bench(os.path.join(REPO_ROOT, name))


def test_the_claims_sweep_is_committed_with_the_others():
    assert "BENCH_claims.json" in COMMITTED
    assert len(COMMITTED) == 14


@pytest.mark.parametrize("name", COMMITTED)
def test_every_committed_row_meets_its_claim(name):
    result = audit({name: _payload(name)})
    assert not result.failures, "\n".join(v.describe() for v in result.failures)
    assert result.verdicts and all(v.status in ("passed", "untested") for v in result.verdicts)


def test_theorem_13_has_committed_rows():
    result = audit({"BENCH_claims.json": _payload("BENCH_claims.json")})
    assert {v.route for v in result.passed} == {("elementary_abelian_two", "cyclic-quotient")}
    assert len(result.passed) == 4


@pytest.mark.parametrize(
    "name, theorem",
    [
        ("BENCH_success-vs-rounds-abelian.json", "Theorem 3"),
        ("BENCH_hidden-normal-dihedral.json", "Theorem 8"),
        ("BENCH_hidden-normal-bounded-quotient.json", "Theorem 8"),
        ("BENCH_extraspecial-prime.json", "Theorem 11"),
        ("BENCH_claims.json", "Theorem 13"),
    ],
)
def test_a_doctored_row_over_its_quantum_query_cap_fails(name, theorem):
    payload = copy.deepcopy(_payload(name))
    bound = audit({name: payload}).verdicts[0].bound
    payload["rows"][0]["query_report"]["quantum_queries"] = bound + 1
    failures = audit({name: payload}).failures
    index = payload["rows"][0]["index"]
    assert [v.index for v in failures] == [index]
    message = failures[0].describe()
    for part in (name, f"row {index}", theorem, "quantum_queries", f"observed {bound + 1} > bound {bound}"):
        assert part in message


def test_the_exhaustive_baseline_must_query_exactly_the_whole_group():
    name = "BENCH_strategy-crossover.json"
    payload = copy.deepcopy(_payload(name))
    row = next(r for r in payload["rows"] if r["strategy"] == "classical")
    order = 2 * row["params"]["n"]
    assert row["query_report"]["classical_queries"] == order
    row["query_report"]["classical_queries"] = order - 1
    (failure,) = audit({name: payload}).failures
    assert f"classical_queries == |G|: observed {order - 1} != bound {order}" in failure.describe()


def test_a_row_without_a_table_entry_fails(monkeypatch):
    name = "BENCH_success-vs-rounds-abelian.json"
    monkeypatch.setattr(claims, "CLAIMS", [c for c in CLAIMS if c.theorem != "Theorem 3"])
    result = audit({name: _payload(name)})
    assert result.failures and not result.passed
    assert len(result.failures) == len(_payload(name)["rows"])
    assert "no claim entry for abelian/fourier-sampling" in result.failures[0].describe()


def test_an_errored_row_fails():
    name = "BENCH_smoke.json"
    payload = copy.deepcopy(_payload(name))
    payload["rows"][0].update(status="error", query_report={})
    (failure,) = audit({name: payload}).failures
    assert "no query report" in failure.describe()


def test_untested_entries_are_listed_and_never_counted_as_passed():
    name = "BENCH_success-vs-noise.json"
    result = audit({name: _payload(name)})
    adaptive = [v for v in result.verdicts if v.route == ("classical_adaptive", "coset-sieve")]
    assert adaptive and all(v.status == "untested" for v in adaptive)
    assert not any(v.route == ("classical_adaptive", "coset-sieve") for v in result.passed)
    rendered = result.render().splitlines()
    untested = [c for c in CLAIMS if c.predicate is None]
    assert untested
    for claim in untested:
        line = next(line for line in rendered if line.startswith(claim.label))
        assert "untested" in line and "verified" not in line
