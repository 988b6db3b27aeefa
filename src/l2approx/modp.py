"""Arithmetic modulo a prime p: a primality test and dense polynomials over F_p.

A polynomial is a list of ints, constant coefficient first.  Every function
reduces its inputs mod p and returns coefficients in [0, p) with no trailing
zero; the zero polynomial is [0].  A divisor or modulus must have a leading
coefficient that is nonzero mod p.
"""

from __future__ import annotations

from typing import Optional


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    k = 2
    while k * k <= m:
        if m % k == 0:
            return False
        k += 1
    return True


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a or [0]


def poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over F_p (long division)."""
    r = [c % p for c in a]
    n = len(b)
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(r) - n + 1, 1)
    for k in range(len(r) - n, -1, -1):
        c = r[k + n - 1] * inv % p
        q[k] = c
        if c:
            for j, bj in enumerate(b):
                r[k + j] = (r[k + j] - c * bj) % p
    return _trim(q), _trim(r)


def poly_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return poly_divmod(out, m, p)[1]


def poly_powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    out = [1]
    base = poly_divmod(a, m, p)[1]
    while e:
        if e & 1:
            out = poly_mulmod(out, base, m, p)
        base = poly_mulmod(base, base, m, p)
        e >>= 1
    return out


def poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic greatest common divisor over F_p; [0] when both are zero."""
    a = _trim([c % p for c in a])
    b = _trim([c % p for c in b])
    while b != [0]:
        a, b = b, poly_divmod(a, b, p)[1]
    if a == [0]:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def factor_degrees(ipoly: list[int], p: int) -> Optional[list[int]]:
    """Degrees of the irreducible factors of an integer polynomial mod p
    (distinct-degree factorization), or None if this prime is unusable: it
    divides the leading coefficient, or the reduction is not squarefree."""
    if ipoly[-1] % p == 0:
        return None
    inv_lead = pow(ipoly[-1], -1, p)
    f = [c * inv_lead % p for c in ipoly]
    if poly_gcd(f, [k * c for k, c in enumerate(f)][1:], p) != [1]:
        return None
    degrees = []
    h = [0, 1]  # x^(p^k) mod f
    k = 0
    while len(f) > 1:
        k += 1
        if 2 * k > len(f) - 1:
            degrees.append(len(f) - 1)
            break
        h = poly_powmod(h, p, f, p)
        h_minus_x = h + [0]  # h may be a constant, with no x coefficient
        h_minus_x[1] -= 1
        g = poly_gcd(h_minus_x, f, p)
        if len(g) > 1:
            degrees.extend([k] * ((len(g) - 1) // k))
            f = poly_divmod(f, g, p)[0]
            h = poly_divmod(h, f, p)[1]
    return degrees
