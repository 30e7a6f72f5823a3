"""The paper's cost claims, checked against committed sweep rows.

Each entry of :data:`CLAIMS` states one claim: the theorem, the claim text,
the code path that implements it, and either a :class:`Predicate` over a
committed ``BENCH_<sweep>.json`` row or ``untested``.  :func:`audit` routes
every row to the entry of its ``(strategy, path)``.  The strategy is the
one the row records; the path is the branch that strategy's code takes on
the row's instance, rebuilt from ``family``/``params``/``seed`` through the
registry exactly as the runner built it.  A row without an entry fails, and
so does a row over its bound; rows of an ``untested`` entry are listed,
never counted as passed.

The predicates bound only ``quantum_queries`` and the exhaustive baseline's
``classical_queries``.  The other columns still mix the algorithm's
classical work with simulation stand-ins (the statevector domain scan, the
counted enumeration inside ``normal_closure``), so the claims on them stay
``untested``.

Quantum-query caps.  Every quantum query is one Fourier-sampling round of
:func:`~repro.hsp.abelian.solve_abelian_hsp`, which stops after at most
``4·(bit_length|A| + confidence)`` rounds over ``A = Z_s1 x ... x Z_sr``
(confidence 16 unless the row's ``params`` set it).  Each cap below is the
sum of that round cap over the calls the path's code makes:

* Theorem 3 (``abelian``): one call over ``A = G``.
* Theorem 8, Abelian quotient (``hidden_normal``): one call over the
  exponent map of the generators of ``G`` outside ``N``,
  ``A = Z_o1 x ... x Z_ok`` with ``k <= d`` (the number of generators of
  ``G``) and every order ``o_i <= |G|``, so ``bit_length|A| <= d·bit_length|G|``.
* Theorem 8, bounded quotient: the Schreier path never samples; the cap is 0.
* Theorem 11 (``small_commutator``): every attempt runs the Theorem 8
  Abelian-quotient path on the coset bundle at confidence 16, and a row
  makes ``1 + theorem11_retries`` attempts.
* Theorem 13 (``elementary_abelian_two``), with ``m`` promised generators
  of ``N``: one call over ``Z_2^m`` for ``H ∩ N``, then one call over
  ``Z_2^(m+1)`` per coset representative outside ``N``.  The cyclic path
  has at most ``floor(log2 |G/N|)`` of them (one per prime-power step of
  ``|G/N|``); the transversal path has ``|G/N| - 1``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.blackbox.instances import HSPInstance
from repro.experiments.registry import build_instance
from repro.experiments.specs import RESERVED_GRID_KEYS
from repro.groups.subgroup import make_membership_tester, subgroup_order
from repro.hsp.abelian import solve_abelian_hsp

__all__ = ["CLAIMS", "Audit", "Claim", "Predicate", "Verdict", "audit"]

Route = Tuple[str, str]

#: The stopping confidence of a Fourier-sampling run whose row sets none.
DEFAULT_CONFIDENCE = int(inspect.signature(solve_abelian_hsp).parameters["confidence"].default)


@dataclass(frozen=True)
class Predicate:
    """``row.query_report[column]`` against ``bound(row, instance)``.

    ``exact`` demands equality; otherwise the column must not exceed the
    bound.  ``text`` is the predicate as failure messages print it.
    """

    text: str
    column: str
    bound: Callable[[Dict[str, object], HSPInstance], int]
    exact: bool = False

    def holds(self, observed: int, bound: int) -> bool:
        return observed == bound if self.exact else observed <= bound


@dataclass(frozen=True)
class Claim:
    """One paper claim; ``predicate=None`` marks it ``untested``."""

    theorem: str
    claim: str
    code_path: str
    route: Optional[Route] = None
    predicate: Optional[Predicate] = None

    @property
    def label(self) -> str:
        where = "no sweep path" if self.route is None else "/".join(self.route)
        return f"{self.theorem} [{where}]"


def _order(instance: HSPInstance) -> int:
    return int(instance.group.order())


def _rounds(bits: int, confidence: int) -> int:
    """``solve_abelian_hsp``'s round cap for ``bit_length|A| = bits``."""
    return 4 * (bits + confidence)


def _confidence(row: Dict[str, object]) -> int:
    return int(row["params"].get("confidence", DEFAULT_CONFIDENCE))


def _exponent_map_rounds(instance: HSPInstance, confidence: int) -> int:
    """The Theorem 8 Abelian-quotient cap: ``bit_length|A| <= d·bit_length|G|``."""
    generators = len(instance.group.generators())
    return _rounds(generators * _order(instance).bit_length(), confidence)


def _theorem3_cap(row, instance) -> int:
    return _rounds(_order(instance).bit_length(), _confidence(row))


def _theorem8_cap(row, instance) -> int:
    return _exponent_map_rounds(instance, _confidence(row))


def _theorem11_cap(row, instance) -> int:
    attempts = 1 + int(row["query_report"].get("theorem11_retries", 0))
    return attempts * _exponent_map_rounds(instance, DEFAULT_CONFIDENCE)


def _theorem13_cap(probes: Callable[[int], int]):
    """The Theorem 13 cap with ``probes(|G/N|)`` coset probes."""

    def cap(row, instance) -> int:
        normal = list(instance.promises["normal_generators"])
        quotient = _order(instance) // subgroup_order(instance.group.group, normal)
        m = len(normal)
        return _rounds(m + 1, DEFAULT_CONFIDENCE) + probes(quotient) * _rounds(m + 2, DEFAULT_CONFIDENCE)

    return cap


_ROUND_CAP = "4·(bit_length|A| + confidence)"

#: The claims of Ivanyos–Magniez–Santha, and of the baselines they are
#: measured against, that this reproduction implements.
CLAIMS: List[Claim] = [
    Claim(
        "Theorem 3",
        "The HSP in a finite Abelian group is solved with a number of quantum "
        "queries polynomial in log |G|.",
        "repro.hsp.abelian.solve_abelian_hsp",
        ("abelian", "fourier-sampling"),
        Predicate(f"quantum_queries <= {_ROUND_CAP} with A = G", "quantum_queries", _theorem3_cap),
    ),
    Claim(
        "Theorem 8",
        "Generators of a hidden normal subgroup N are found in quantum time "
        "polynomial in the input size; with Abelian G/N no bound on |G/N| is needed.",
        "repro.core.hidden_normal._abelian_quotient_path",
        ("hidden_normal", "abelian-quotient"),
        Predicate(
            f"quantum_queries <= {_ROUND_CAP} with bit_length|A| <= d·bit_length|G|",
            "quantum_queries",
            _theorem8_cap,
        ),
    ),
    Claim(
        "Theorem 8",
        "With non-Abelian G/N of promised small order, N is found in time "
        "polynomial in the input size + |G/N|, by a transversal and Schreier "
        "generators, with no quantum query.",
        "repro.core.hidden_normal._bounded_quotient_path",
        ("hidden_normal", "bounded-quotient"),
        Predicate("quantum_queries <= 0", "quantum_queries", lambda row, instance: 0),
    ),
    Claim(
        "Theorem 11",
        "The HSP in a group with small commutator subgroup is solved in quantum "
        "time polynomial in the input size + |G'|; for extraspecial p-groups, "
        "input size + p (Corollary 12).",
        "repro.core.small_commutator.solve_hsp_small_commutator",
        ("small_commutator", "coset-bundle"),
        Predicate(
            f"quantum_queries <= (1 + theorem11_retries)·{_ROUND_CAP} with "
            "bit_length|A| <= d·bit_length|G|",
            "quantum_queries",
            _theorem11_cap,
        ),
    ),
    Claim(
        "Theorem 13",
        "With an elementary Abelian normal 2-subgroup N given by generators and "
        "cyclic G/N, the HSP is solved in quantum polynomial time.",
        "repro.core.elementary_abelian_two.solve_hsp_elementary_abelian_two (cyclic path)",
        ("elementary_abelian_two", "cyclic-quotient"),
        Predicate(
            f"quantum_queries <= {_ROUND_CAP} over Z_2^m + floor(log2|G/N|) x the same over Z_2^(m+1)",
            "quantum_queries",
            _theorem13_cap(lambda quotient: quotient.bit_length() - 1),
        ),
    ),
    Claim(
        "Theorem 13",
        "With an elementary Abelian normal 2-subgroup N given by generators, the "
        "HSP is solved in quantum time polynomial in the input size + |G/N|.",
        "repro.core.elementary_abelian_two.solve_hsp_elementary_abelian_two (transversal path)",
        ("elementary_abelian_two", "transversal"),
        Predicate(
            f"quantum_queries <= {_ROUND_CAP} over Z_2^m + (|G/N| - 1) x the same over Z_2^(m+1)",
            "quantum_queries",
            _theorem13_cap(lambda quotient: quotient - 1),
        ),
    ),
    Claim(
        "Section 1 (classical baseline)",
        "Exhaustive classical search queries the oracle on all |G| elements, "
        "exponentially many in log |G|.",
        "repro.hsp.baseline_classical.classical_exhaustive_hsp",
        ("classical", "exhaustive"),
        Predicate(
            "classical_queries == |G|", "classical_queries", lambda row, instance: _order(instance), exact=True
        ),
    ),
    Claim(
        "Classical adaptive baseline",
        "The adaptive coset sieve is the honest classical comparison under a "
        "noise channel; the paper states no bound for it.",
        "repro.hsp.baseline_classical.classical_adaptive_hsp",
        ("classical_adaptive", "coset-sieve"),
    ),
    Claim(
        "Theorems 8, 11 and 13 (classical cost)",
        "Classical queries and group operations are polynomial in the input size "
        "(+ |G'| or |G/N|).  Untested: these columns still count simulation "
        "stand-ins that grow like |G|.",
        "repro.core (hidden_normal, small_commutator, elementary_abelian_two)",
    ),
    Claim(
        "Theorem 1",
        "An Abelian black-box group given by generators decomposes into cyclic "
        "factors of prime-power order in quantum polynomial time (Cheung–Mosca).",
        "repro.hsp.decomposition.decompose_abelian_group",
    ),
    Claim(
        "Theorem 6",
        "Constructive membership in Abelian subgroups of a uniquely encoded "
        "black-box group runs in quantum polynomial time.",
        "repro.core.constructive_membership.constructive_membership",
    ),
    Claim(
        "Theorem 10",
        "Orders modulo a solvable normal subgroup given by generators are computed "
        "in quantum polynomial time (Watrous), on the QFT and order-finding substrate.",
        "repro.quantum.watrous.order_modulo_subgroup, repro.quantum.shor",
    ),
    Claim(
        "Theorem 13 vs Rötteler–Beth",
        "Theorem 13 generalises the Rötteler–Beth algorithm for Z_2^k wr Z_2: both "
        "find the same hidden subgroup.",
        "repro.hsp.rotteler_beth.rotteler_beth_wreath",
    ),
    Claim(
        "Section 1 (Ettinger–Høyer)",
        "The dihedral HSP needs only O(log |G|) quantum queries, but the classical "
        "post-processing takes time exponential in log |G|.",
        "repro.hsp.ettinger_hoyer.ettinger_hoyer_dihedral",
    ),
]

#: The one path of each strategy that has a single path.
_SINGLE_PATH = {
    "abelian": "fourier-sampling",
    "small_commutator": "coset-bundle",
    "classical": "exhaustive",
    "classical_adaptive": "coset-sieve",
}


def _quotient_is_abelian(instance: HSPInstance) -> bool:
    """Whether ``G/H`` is Abelian, by concrete arithmetic (never the oracle)."""
    group = instance.group.group
    member = make_membership_tester(group, instance.hidden_generators)
    generators = group.generators()
    return all(
        member(group.commutator(a, b)) for i, a in enumerate(generators) for b in generators[i + 1 :]
    )


def _route_of(strategy: str, instance: HSPInstance) -> Route:
    """The ``(strategy, path)`` the strategy's code takes on ``instance``.

    ``hidden_normal`` takes the Abelian-quotient path exactly when ``G/N``
    is Abelian; ``elementary_abelian_two`` takes the path its
    ``cyclic_quotient`` promise names (an instance without the promise
    routes to ``detected``, which no entry judges).
    """
    if strategy == "hidden_normal":
        return strategy, "abelian-quotient" if _quotient_is_abelian(instance) else "bounded-quotient"
    if strategy == "elementary_abelian_two":
        cyclic = instance.promises.get("cyclic_quotient")
        return strategy, {True: "cyclic-quotient", False: "transversal"}.get(cyclic, "detected")
    return strategy, _SINGLE_PATH.get(strategy, "unknown")


def _rebuild_instance(row: Dict[str, object]) -> HSPInstance:
    """The instance a row ran on, rebuilt as the runner built it."""
    params = {key: value for key, value in row["params"].items() if key not in RESERVED_GRID_KEYS}
    return build_instance(str(row["family"]), params, np.random.default_rng(int(row["seed"])))


@dataclass(frozen=True)
class Verdict:
    """One row's outcome: ``passed``, ``violated``, ``untested``, ``unrouted`` or ``error``."""

    source: str
    index: int
    route: Optional[Route]
    status: str
    claim: Optional[Claim] = None
    observed: Optional[int] = None
    bound: Optional[int] = None

    @property
    def failed(self) -> bool:
        return self.status in ("violated", "unrouted", "error")

    def describe(self) -> str:
        where = f"{self.source} row {self.index}"
        if self.status == "error":
            return f"{where}: the run errored, so there is no query report to check"
        if self.status == "unrouted":
            return f"{where}: no claim entry for {'/'.join(self.route)}"
        if self.status == "untested":
            return f"{where}: {self.claim.label} is untested"
        exact = self.claim.predicate.exact
        if self.status == "violated":
            relation = "!=" if exact else ">"
        else:
            relation = "==" if exact else "<="
        return (
            f"{where}: {self.claim.label} {self.claim.predicate.text}: "
            f"observed {self.observed} {relation} bound {self.bound}"
        )


def _judge(source: str, row: Dict[str, object], claims: Sequence[Claim]) -> Verdict:
    index = int(row["index"])
    if row.get("status") == "error":
        return Verdict(source, index, None, "error")
    instance = _rebuild_instance(row)
    route = _route_of(str(row["strategy"]), instance)
    claim = next((c for c in claims if c.route == route), None)
    if claim is None:
        return Verdict(source, index, route, "unrouted")
    if claim.predicate is None:
        return Verdict(source, index, route, "untested", claim)
    observed = int(row["query_report"].get(claim.predicate.column, 0))
    bound = int(claim.predicate.bound(row, instance))
    status = "passed" if claim.predicate.holds(observed, bound) else "violated"
    return Verdict(source, index, route, status, claim, observed, bound)


@dataclass
class Audit:
    """Every row's verdict, plus the table it was judged against."""

    verdicts: List[Verdict] = field(default_factory=list)
    claims: Sequence[Claim] = ()

    @property
    def failures(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.failed]

    @property
    def passed(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.status == "passed"]

    def render(self) -> str:
        """One line per claim entry (untested ones included), then every failure."""
        lines = []
        for claim in self.claims:
            rows = [v for v in self.verdicts if v.claim is claim]
            if claim.predicate is None:
                state = f"untested ({len(rows)} rows)" if rows else "untested"
            elif not rows:
                state = "no committed rows"
            else:
                violated = sum(v.status == "violated" for v in rows)
                verb = f"VIOLATED in {violated} of" if violated else "verified on"
                worst = max(rows, key=lambda v: v.observed - v.bound)
                state = f"{verb} {len(rows)} rows; closest observed/bound {worst.observed}/{worst.bound}"
            lines.append(f"{claim.label}: {state}")
        lines.extend(v.describe() for v in self.failures)
        return "\n".join(lines)


def audit(payloads: Mapping[str, Dict[str, object]]) -> Audit:
    """Judge every row of the sweep ``payloads`` (file name -> BENCH payload)."""
    result = Audit(claims=list(CLAIMS))
    for source, payload in payloads.items():
        result.verdicts.extend(_judge(source, row, result.claims) for row in payload["rows"])
    return result
