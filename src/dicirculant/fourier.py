"""Characteristic functions on Z_m, the DFT with root of unity
w = exp(2*pi*i/m) (= exp(pi*i/n) when m = 2n), unit-orbit
decomposition, coset counts and transversals, and the two spectral
identities satisfied by distance-regular dicirculants.

A function f on Z_m is a tuple of length m holding f(0), ..., f(m-1).
The DFT is floating point and serves only as a diagnostic; the spectral
identities are decided exactly, by popcounts of rotated masks.
"""

from __future__ import annotations

import cmath
from math import gcd

from .cayley import rotations


class InvalidDivisorError(ValueError):
    pass


class PreconditionViolatedError(ValueError):
    pass


def indicator(A, m):
    A = {a % m for a in A}
    return tuple(1 if i in A else 0 for i in range(m))


def dft(f):
    """(Ff)(z) = sum_i f(i) w^(iz) with w the primitive m-th root of
    unity exp(2*pi*i/m)."""
    m = len(f)
    omega = cmath.exp(2j * cmath.pi / m) if m > 1 else 1.0
    powers = [omega ** e for e in range(m)]
    return tuple(sum(f[i] * powers[(i * z) % m] for i in range(m))
                 for z in range(m))


def dft_of_set(A, m):
    return dft(indicator(A, m))


def unit_orbits(m):
    """Orbits of the unit action on Z_m as (r, members) pairs sorted by
    the additive order r of their members; the orbit for r has phi(r)
    elements."""
    by_order = {}
    for x in range(m):
        r = m // gcd(x, m) if m > 1 else 1
        by_order.setdefault(r, set()).add(x)
    return tuple((r, frozenset(members))
                 for r, members in sorted(by_order.items()))


def coset_profile(A, r, m):
    """The counts e_i = |A n (i + rZ_m)| for i = 0..r-1."""
    if r < 1 or m % r != 0:
        raise InvalidDivisorError(f"{r} does not divide {m}")
    counts = [0] * r
    for a in A:
        counts[a % m % r] += 1
    return tuple(counts)


def is_transversal(A, r, m):
    """True iff A meets each of the r cosets of rZ_m exactly once."""
    return coset_profile(A, r, m) == (1,) * r


def check_fourier_lemma(spec, dp, array):
    """Decide the two spectral identities of a distance-regular
    dicirculant exactly, as functions on Z_2n:

        1_R*1_R + 1_T*1_-T = k delta_0 + lam 1_R + mu 1_R2
        2 1_R*1_T = lam 1_T + mu 1_T2

    where R_2, T_2 are the distance-2 shells.  Under the DFT they become
    r^2 + |t|^2 = k + lam*r + mu*r2 and 2*r*t = lam*t + mu*t2 pointwise,
    with r, t, r2, t2 the DFTs of 1_R, 1_T, 1_R2, 1_T2; the DFT is
    injective, so the two forms agree.

    Each convolution value is an intersection count:
    (1_A*1_B)(z) = #{i in A : z - i in B} = |A n (z - B)|, the popcount
    of rot_A[0] & rot_-B[z], with rot_X[z] the mask of z + X.  As R = -R,
    the counts are rot_R[0] & rot_R[z] for 1_R*1_R, rot_T[0] & rot_T[z]
    for 1_T*1_-T and, with the factors swapped, rot_T[0] & rot_R[z] for
    1_R*1_T = 1_T*1_R, so no rotation of -T is needed.

    For diameter 1 the distance-2 shells are empty and mu is taken as 0;
    the identities then degenerate to the complete-graph counting.
    """
    m = 2 * spec.n
    k, lam, mu = array.k, array.lam, array.mu or 0
    R2, T2 = (dp.r_sets[2], dp.t_sets[2]) if dp.diameter >= 2 else ((), ())
    rot_r, rot_t = rotations(spec.R, m), rotations(spec.T, m)
    r, t = rot_r[0], rot_t[0]
    return all(
        (r & rot_r[z]).bit_count() + (t & rot_t[z]).bit_count()
        == (z == 0) * k + lam * (z in spec.R) + mu * (z in R2)
        and 2 * (t & rot_r[z]).bit_count()
        == lam * (z in spec.T) + mu * (z in T2) for z in range(m))
