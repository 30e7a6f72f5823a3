"""Elementary and modular number theory.

These routines back the "Abelian obstacles" of the Beals--Babai machinery
(Theorem 4 of the paper): computing and factoring element orders, taking
discrete logarithms and Chinese-remainder recombination.  On a quantum
computer Shor's algorithms provide the factoring / discrete-log primitives;
here they are exact classical implementations whose *cost accounting* is
handled by :mod:`repro.quantum.shor`.

All functions operate on Python integers (arbitrary precision) so that group
orders well beyond 64 bits are handled exactly.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "egcd",
    "modinv",
    "lcm",
    "lcm_list",
    "crt_pair",
    "crt",
    "is_probable_prime",
    "next_prime",
    "factorint",
    "divisors",
    "euler_phi",
    "multiplicative_order",
    "element_order_from_exponent",
    "order_trial_exponents",
    "primitive_root",
    "discrete_log",
]


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclidean algorithm.

    Returns ``(g, x, y)`` with ``g = gcd(a, b)`` and ``a*x + b*y == g``.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Inverse of ``a`` modulo ``m``.

    Raises :class:`ValueError` if ``gcd(a, m) != 1``.
    """
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {m} (gcd = {g})")
    return x % m


def lcm(a: int, b: int) -> int:
    """Least common multiple of two integers."""
    if a == 0 or b == 0:
        return 0
    return abs(a // math.gcd(a, b) * b)


def lcm_list(values: Iterable[int]) -> int:
    """Least common multiple of an iterable of integers (1 if empty)."""
    out = 1
    for v in values:
        out = lcm(out, v)
    return out


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> Tuple[int, int]:
    """Combine two congruences ``x = r1 (mod m1)``, ``x = r2 (mod m2)``.

    Returns ``(r, m)`` with ``m = lcm(m1, m2)``.  Raises
    :class:`ValueError` if the congruences are incompatible.
    """
    g, p, _ = egcd(m1, m2)
    if (r2 - r1) % g != 0:
        raise ValueError("incompatible congruences")
    m = m1 // g * m2
    diff = (r2 - r1) // g
    r = (r1 + m1 * (diff * p % (m2 // g))) % m
    return r, m


def crt(residues: Sequence[int], moduli: Sequence[int]) -> Tuple[int, int]:
    """Chinese remainder combination of many congruences.

    Moduli need not be pairwise coprime; incompatibilities raise
    :class:`ValueError`.  Returns ``(r, m)``.
    """
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli must have equal length")
    r, m = 0, 1
    for ri, mi in zip(residues, moduli):
        r, m = crt_pair(r, m, ri % mi, mi)
    return r, m


# ---------------------------------------------------------------------------
# Primality and factorisation
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller--Rabin primality test.

    Deterministic for ``n < 3.3 * 10**24`` using the fixed witness set
    ``_SMALL_PRIMES``; for larger inputs the error probability is below
    ``4**-12``.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than ``n``."""
    candidate = max(2, n + 1)
    if candidate > 2 and candidate % 2 == 0:
        candidate += 1
    while not is_probable_prime(candidate):
        candidate += 1 if candidate == 2 else 2
    return candidate


def _pollard_rho(n: int, rng: random.Random) -> int:
    """Find a non-trivial factor of composite ``n`` (Brent's variant)."""
    if n % 2 == 0:
        return 2
    while True:
        c = rng.randrange(1, n)
        x = rng.randrange(0, n)
        y, d = x, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorint(n: int, seed: int = 0xC0FFEE) -> Dict[int, int]:
    """Full prime factorisation ``{p: multiplicity}``.

    Trial division by small primes, then Pollard rho with Miller--Rabin
    certification.  This plays the role of Shor's factoring oracle in the
    classical substrate (see ``repro.quantum.shor`` for cost accounting).
    """
    if n <= 0:
        raise ValueError("factorint expects a positive integer")
    factors: Dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n == 1:
        return factors
    rng = random.Random(seed)
    stack: List[int] = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return factors


def divisors(n: int) -> List[int]:
    """All positive divisors of ``n`` in increasing order."""
    facs = factorint(n)
    out = [1]
    for p, e in facs.items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    """Euler totient function."""
    result = n
    for p in factorint(n):
        result -= result // p
    return result


def multiplicative_order(a: int, m: int) -> int:
    """Order of ``a`` in the unit group of ``Z_m``."""
    if math.gcd(a, m) != 1:
        raise ValueError("element is not a unit")
    order = euler_phi(m)
    for p, e in factorint(order).items():
        for _ in range(e):
            if pow(a, order // p, m) == 1:
                order //= p
            else:
                break
    return order


def element_order_from_exponent(power, identity_check, exponent: int) -> int:
    """Order of a group element given a multiple of its order.

    ``power(k)`` must return the element raised to the ``k``-th power and
    ``identity_check(x)`` must decide equality with the identity.  ``exponent``
    is any multiple of the order (e.g. the group exponent).  This is the
    classical divide-out-primes routine used once a quantum order-finding
    call has produced a multiple of the order.
    """
    order = exponent
    for p, e in factorint(exponent).items():
        for _ in range(e):
            if identity_check(power(order // p)):
                order //= p
            else:
                break
    return order


def order_trial_exponents(order: int, exponent: int) -> List[int]:
    """The exponents :func:`element_order_from_exponent` raises an element to.

    For an element of known ``order`` dividing ``exponent``: its prime loop
    replayed with the identity check answered by divisibility (``g^k`` is
    the identity exactly when ``order`` divides ``k``), so no power is
    computed.
    """
    trials: List[int] = []
    current = exponent
    for p, e in factorint(exponent).items():
        for _ in range(e):
            k = current // p
            trials.append(k)
            if k % order:
                break
            current = k
    return trials


def primitive_root(p: int) -> int:
    """A generator of the cyclic group ``Z_p^*`` for prime ``p``."""
    if not is_probable_prime(p):
        raise ValueError("primitive_root requires a prime modulus")
    if p == 2:
        return 1
    phi = p - 1
    prime_factors = list(factorint(phi))
    for g in range(2, p):
        if all(pow(g, phi // q, p) != 1 for q in prime_factors):
            return g
    raise RuntimeError("no primitive root found (unreachable for prime p)")


def discrete_log(base: int, target: int, modulus: int, order: int | None = None) -> int:
    """Discrete logarithm by baby-step/giant-step.

    Finds ``x`` with ``base**x == target (mod modulus)``.  On a quantum
    computer this is Shor's discrete-log algorithm (hypothesis (b) of
    Theorem 4 in the paper); classically it is exponential, which is exactly
    why the paper treats it as an oracle.  ``order`` may be supplied to
    bound the search.

    Raises :class:`ValueError` when no logarithm exists.
    """
    base %= modulus
    target %= modulus
    if order is None:
        order = multiplicative_order(base, modulus)
    m = math.isqrt(order) + 1
    table: Dict[int, int] = {}
    e = 1
    for j in range(m):
        table.setdefault(e, j)
        e = e * base % modulus
    factor = modinv(pow(base, m, modulus), modulus)
    gamma = target
    for i in range(m):
        if gamma in table:
            return (i * m + table[gamma]) % order
        gamma = gamma * factor % modulus
    raise ValueError("discrete logarithm does not exist")
