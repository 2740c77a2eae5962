"""Characteristic functions on Z_m, exact convolution, the DFT with
root of unity w = exp(2*pi*i/m) (= exp(pi*i/n) when m = 2n), unit-orbit
decomposition, transversal predicates, and the two spectral identities
satisfied by distance-regular dicirculants.

The DFT is floating point and serves only as a diagnostic; the spectral
identities are decided exactly, by integer convolution.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import gcd

class ModulusMismatchError(ValueError):
    pass


class InvalidDivisorError(ValueError):
    pass


class PreconditionViolatedError(ValueError):
    pass


@dataclass(frozen=True)
class IntegerFunction:
    values: tuple
    modulus: int

    def __post_init__(self):
        if len(self.values) != self.modulus:
            raise ValueError("value vector length must equal the modulus")


def indicator(A, m):
    A = {a % m for a in A}
    return IntegerFunction(tuple(1 if i in A else 0 for i in range(m)), m)


def convolve(f, g):
    """(f*g)(z) = sum_i f(i) g(z-i), exact over the integers."""
    if f.modulus != g.modulus:
        raise ModulusMismatchError(f"{f.modulus} != {g.modulus}")
    m = f.modulus
    values = tuple(sum(f.values[i] * g.values[(z - i) % m] for i in range(m))
                   for z in range(m))
    return IntegerFunction(values, m)


@dataclass(frozen=True)
class FourierVector:
    values: tuple  # complex
    modulus: int


def dft(f):
    """(Ff)(z) = sum_i f(i) w^(iz) with w the primitive m-th root of
    unity exp(2*pi*i/m)."""
    m = f.modulus
    omega = cmath.exp(2j * cmath.pi / m) if m > 1 else 1.0
    powers = [omega ** e for e in range(m)]
    values = tuple(sum(f.values[i] * powers[(i * z) % m] for i in range(m))
                   for z in range(m))
    return FourierVector(values, m)


def dft_of_set(A, m):
    return dft(indicator(A, m))


@dataclass(frozen=True)
class OrbitPartition:
    """Orbits of the unit action on Z_m, keyed by the additive order r of
    their members; the orbit for r has phi(r) elements."""

    orbits: tuple  # of (r, frozenset) sorted by r
    modulus: int


def unit_orbits(m):
    by_order = {}
    for x in range(m):
        r = m // gcd(x, m) if m > 1 else 1
        by_order.setdefault(r, set()).add(x)
    orbits = tuple((r, frozenset(members))
                   for r, members in sorted(by_order.items()))
    return OrbitPartition(orbits, m)


def is_union_of_orbits(A, m):
    A = {a % m for a in A}
    for _, members in unit_orbits(m).orbits:
        overlap = A & members
        if overlap and overlap != members:
            return False
    return True


def _check_divisor(r, m):
    if r < 1 or m % r != 0:
        raise InvalidDivisorError(f"{r} does not divide {m}")


def is_transversal(A, r, m):
    """True iff A meets each of the r cosets of rZ_m exactly once."""
    _check_divisor(r, m)
    counts = [0] * r
    for a in A:
        counts[a % r] += 1
    return all(count == 1 for count in counts)


@dataclass(frozen=True)
class CosetCountProfile:
    divisor: int
    counts: tuple  # e_i = |A n (i + rZ_m)|


def coset_profile(A, r, m):
    _check_divisor(r, m)
    counts = [0] * r
    for a in A:
        counts[a % m % r] += 1
    return CosetCountProfile(r, tuple(counts))


def profile_reconstruction(profile, m):
    """sum_i e_i xi^i with xi = w^(m/r); equals (F Delta_A)(m/r)."""
    r = profile.divisor
    xi = cmath.exp(2j * cmath.pi / m * (m // r)) if m > 1 else 1.0
    return sum(e * xi ** i for i, e in enumerate(profile.counts))


def check_fourier_lemma(spec, dp, array):
    """Decide the two spectral identities of a distance-regular
    dicirculant exactly, as functions on Z_2n:

        1_R*1_R + 1_T*1_-T = k delta_0 + lam 1_R + mu 1_R2
        2 1_R*1_T = lam 1_T + mu 1_T2

    where R_2, T_2 are the distance-2 shells.  Under the DFT they become
    r^2 + |t|^2 = k + lam*r + mu*r2 and 2*r*t = lam*t + mu*t2 pointwise,
    with r, t, r2, t2 the DFTs of 1_R, 1_T, 1_R2, 1_T2; the DFT is
    injective, so the two forms agree.

    For diameter 1 the distance-2 shells are empty and mu is taken as 0;
    the identities then degenerate to the complete-graph counting.
    """
    m = 2 * spec.n
    lam = array.lam
    mu = array.mu if array.mu is not None else 0
    r2 = indicator(dp.r_sets[2] if dp.diameter >= 2 else (), m).values
    t2 = indicator(dp.t_sets[2] if dp.diameter >= 2 else (), m).values
    R, T = indicator(spec.R, m), indicator(spec.T, m)
    rr = convolve(R, R).values
    tt = convolve(T, indicator({-t for t in spec.T}, m)).values
    rt = convolve(R, T).values
    r, t = R.values, T.values
    return all(rr[z] + tt[z] == (z == 0) * array.k + lam * r[z] + mu * r2[z]
               and 2 * rt[z] == lam * t[z] + mu * t2[z] for z in range(m))


def check_orbit_transversal_lemma(A, p, m):
    """For A a union of unit orbits that is a transversal of (m/p)Z_m
    (p a prime divisor of m), confirm p = 2 or A = pZ_m.  A False return
    is a counterexample alarm against the classification machinery."""
    if p < 2 or m % p != 0 or not _is_prime(p):
        raise PreconditionViolatedError(f"{p} is not a prime divisor of {m}")
    A = {a % m for a in A}
    # (m/p)Z_m has index m/p, i.e. m/p cosets
    if not is_transversal(A, m // p, m):
        raise PreconditionViolatedError("A is not a transversal of (m/p)Z_m")
    if not is_union_of_orbits(A, m):
        raise PreconditionViolatedError("A is not a union of unit orbits")
    return p == 2 or A == {x for x in range(m) if x % p == 0}


def _is_prime(q):
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True
