"""Reference-free oracles for the edges of parameter space.

Each routine reads only the scheme's operator word or a closed form, never a
float result of the library, so a test can check the library against it where
float rounding decides: symbolic mode matrices on sympy symbols, and 50-digit
mpmath searches for the monotone stability threshold and for the root of the
"eta" stepsize hypothesis h < (1 - exp(-gamma h))/s.
"""

import mpmath as mp
import sympy as sp

from langevin_contract.integrators import SPLITTING_WORDS, Scheme, _Mode, _step_core

#: working precision of the mp routines, in decimal digits
DPS = 50


def _word_columns(word, lam, h, g, exp, frac):
    """Columns of P, the step core at zero noise on the mode U(x) = lam x^2 / 2,
    for the splitting word keyed ``word`` in SPLITTING_WORDS: a piece of
    fraction f drifts or kicks for ``frac(f) * h``, and an O piece damps by
    exp(-gamma f h) (its noise scale multiplies a zero draw)."""
    coefs = []
    for piece, f in SPLITTING_WORDS[word]:
        tau = frac(f) * h
        coefs += (exp(-g * tau), 0) if piece == "O" else (tau,)
    return [_step_core(word, _Mode(lam), x, v, coefs, (0, 0))[:2] for x, v in ((1, 0), (0, 1))]


def symbolic_word_P(word, lam, h, g):
    """P of the word's step core on sympy symbols."""
    return sp.Matrix(_word_columns(word, lam, h, g, sp.exp, sp.Rational)).T


def _bisect(inside, lo, hi, steps=170):
    """The boundary between ``lo`` (inside) and ``hi`` (outside), halved ``steps`` times."""
    for _ in range(steps):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return lo


def mp_stability_threshold(scheme, lam, gamma):
    """Largest h whose mode matrix has both eigenvalues in the unit disk with
    positive real part, at :data:`DPS` digits.

    Those are the Jury conditions on z^2 - T z + D: 0 < D < 1, T > 0 and
    1 - T + D > 0.  A splitting's T is the trace of its word's P on mpf
    constants, and D is exactly exp(-gamma h) (``test_symbolic_splitting_words``
    proves the identity); kinetic_em has T = 2 - gamma h, D = 1 - gamma h + h^2 lam.
    The search doubles or halves from 1/sqrt(lam) to a bracket, then bisects,
    so the stable set must be bounded: oab, abo and boa are stable at every h
    once gamma > 2 sqrt(lam)/e, and have no threshold to find.
    """
    scheme = Scheme(scheme)
    with mp.workdps(DPS):
        lam, gamma = mp.mpf(lam), mp.mpf(gamma)

        def stable(h):
            if scheme is Scheme.KINETIC_EM:
                T, D = 2 - gamma * h, 1 - gamma * h + h * h * lam
            else:
                (p00, _), (_, p11) = _word_columns(scheme, lam, h, gamma, mp.exp, mp.mpf)
                T, D = p00 + p11, mp.exp(-gamma * h)
            return 0 < D < 1 and T > 0 and 1 - T + D > 0

        h = 1 / mp.sqrt(lam)
        if stable(h):
            while stable(2 * h):
                h *= 2
            return float(_bisect(stable, h, 2 * h))
        while not stable(h / 2):
            h /= 2
        return float(_bisect(stable, h / 2, h))


def mp_eta_root(gamma, s):
    """The h > 0 with h = (1 - exp(-gamma h))/s, for gamma > s, at :data:`DPS` digits.

    With u = gamma h and r = gamma/s it is the nontrivial root of
    f(u) = u + r expm1(-u).  f < 0 at u = r - 1 (r exp(1 - r) < 1 for r > 1)
    and f = r exp(-r) > 0 at u = r, so [r - 1, r] brackets it away from the
    trivial root u = 0.
    """
    with mp.workdps(DPS):
        gamma = mp.mpf(gamma)
        r = gamma / mp.mpf(s)
        u = _bisect(lambda u: u + r * mp.expm1(-u) < 0, r - 1, r)
        return float(u / gamma)
