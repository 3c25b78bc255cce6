"""Primality, prime powers and nilpotents of Z/n: exact at every size the
CLI accepts, and quick on 20-digit moduli.

_is_prime is deterministic Miller-Rabin to the bases 2..41, proven below
3,317,044,064,679,887,385,961,981 (Sorenson and Webster).  At or above
that bound it answers only when a base proves n composite.
"""

import math
import random
import time

import pytest
import sympy

from octad.cli import main
from octad.scalars import GF, DualNumbers, Zmod, _is_prime, _is_prime_power, _iroot, _MR_PROVEN


def trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_primes_and_prime_powers_against_brute_force():
    primes = {p for p in range(5001) if trial_division(p)}
    powers = {p**k for p in primes for k in range(1, 13)}
    for n in range(5001):
        assert _is_prime(n) == (n in primes), n
        assert _is_prime_power(n) == (n in powers), n


def test_integer_roots():
    for n in range(1, 3000):
        for k in range(1, 8):
            r = _iroot(n, k)
            assert r**k <= n < (r + 1) ** k
    big = 10**40 + 12345
    for k in range(2, 20):
        r = _iroot(big, k)
        assert r**k <= big < (r + 1) ** k


def test_nilpotents_of_zmod_against_brute_force():
    # a is nilpotent mod n iff every prime factor of n divides a
    rings = [*(Zmod(n) for n in range(2, 300)), *(GF(p) for p in (2, 3, 5, 7))]
    for R in rings:
        n = R.n
        radical = math.prod(p for p in range(2, n + 1) if n % p == 0 and trial_division(p))
        for a in range(-n, n):
            assert R.is_nilpotent(a) == (a % radical == 0), (R, a)
    R = Zmod(2**61 * 3**5)
    assert R.is_nilpotent(6) and R.is_nilpotent(-6) and not R.is_nilpotent(2**70) and not R.is_nilpotent(3**9)


# the least strong pseudoprimes to all prime bases up to 2, 3, 5, 7, 11, 13, 19, 31
# and 37: each passes every one of those bases and fails the next
STRONG_PSEUDOPRIMES = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
]


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_strong_pseudoprimes_are_composite(n):
    assert not sympy.isprime(n)
    assert not _is_prime(n)


def sympy_is_prime_power(n):
    power = sympy.perfect_power(n)
    return sympy.isprime(power[0] if power else n)


def test_random_twenty_digit_numbers_against_sympy():
    rng = random.Random(20)
    numbers = [rng.randrange(10**19, 10**20) for _ in range(300)]
    numbers += [sympy.nextprime(rng.randrange(10**19, 10**20 - 10**4)) for _ in range(30)]
    for n in numbers:
        assert _is_prime(n) == sympy.isprime(n), n
        assert _is_prime_power(n) == sympy_is_prime_power(n), n
    for k in (2, 3, 5, 7):
        p = sympy.nextprime(rng.randrange(10 ** (19 // k), 9 * 10 ** (19 // k)))
        assert _is_prime_power(p**k) and not _is_prime_power(p**k * 3)
        assert not _is_prime_power((p * sympy.nextprime(p)) ** k)


def test_no_answer_on_a_probable_prime_above_the_proven_bound():
    # the least strong pseudoprime to the bases 2..41 is the bound itself
    assert not sympy.isprime(_MR_PROVEN)
    with pytest.raises(ValueError, match="cannot prove"):
        _is_prime(_MR_PROVEN)
    prime = sympy.nextprime(_MR_PROVEN)
    with pytest.raises(ValueError, match="cannot prove"):
        GF(prime)
    with pytest.raises(ValueError, match="cannot prove"):
        Zmod(prime).is_connected
    # a base that proves compositeness answers at any size
    assert not _is_prime(3 * _MR_PROVEN)
    assert not _is_prime(prime * sympy.nextprime(prime))
    assert Zmod(2**100).is_connected
    assert not Zmod(2**100 * 3).is_connected
    assert Zmod(sympy.prevprime(_MR_PROVEN)).is_connected


@pytest.mark.parametrize(
    "ring",
    ["F10000000000037", "Z/10000000000037", "F10000000000000000051", "Z/10000000000000000051"],
)
def test_large_moduli_answer_quickly(capsys, ring):
    start = time.perf_counter()
    code = main(["identities", f"cay({ring};-1)", "degree2", "--json"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert '"verdict": "Holds"' in capsys.readouterr().out


def test_unproven_modulus_gives_one_error_line(capsys):
    code = main(["identities", f"cay(F{sympy.nextprime(_MR_PROVEN)};-1)", "degree2", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: cannot prove") and captured.err.count("\n") == 1


def test_unproven_modulus_is_refused_only_where_connectedness_is_asked(capsys):
    """Z/n decides is_connected on first use: a check that never asks answers,
    and the idempotent classifications, which ask, refuse with one ValueError."""
    from octad.cayley import quaternions
    from octad.cubic import split_cubic_etale

    prime = sympy.nextprime(_MR_PROVEN)
    code = main(["identities", f"cay(Z/{prime};-1)", "degree2", "--json"])
    assert code == 0
    assert '"verdict": "Holds"' in capsys.readouterr().out
    R = Zmod(prime)
    H = quaternions(R)
    J = split_cubic_etale(R)
    with pytest.raises(ValueError, match=f"cannot prove {prime} prime"):
        H.classify_idempotent(H.one())
    with pytest.raises(ValueError, match=f"cannot prove {prime} prime"):
        J.idem_class(J.one())
    assert DualNumbers(Zmod(9)).is_connected and not DualNumbers(Zmod(6)).is_connected
    with pytest.raises(ValueError, match="cannot prove"):
        DualNumbers(R).is_connected
