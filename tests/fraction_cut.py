"""The exact Kelley cut in Fractions, kept as the oracle of ``hv._exact_cut``.

``cut(w, side)`` returns twice g's line just right (side = 1) or left
(side = -1) of w, and the x_j that attain each setting's distance there;
``hv._kelley(_exact_cut(targets, wave), Fraction(1))`` solves with it.  Every
comparison runs on Fraction tuples, so ties are broken by (value, +-slope)
with the first maximum or minimum winning, in sorted candidate order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _side(line, w, side):
    """A line (slope, intercept) in W as (value at w, side * slope).

    Compared as tuples, these order lines exactly just to the right
    (side = 1) or to the left (side = -1) of w.
    """
    return line[0] * w + line[1], side * line[0]


def _distance_pieces(q, k):
    """The pieces (a, b, c) of a x + b W + c in the plus and minus maxima.

    ``q`` is (q0+, q0-, q1+, q1-) and ``k`` is cos phi.
    """
    q0p, q0m, q1p, q1m = q
    s_p, s_m, d_p, d_m = q0p + q1p, q0m + q1m, q0p - q1p, q0m - q1m
    zero = k - k
    shared = [(zero, zero, zero), (zero + 1, zero, -s_p), (zero - 1, zero + 1, -s_m)]
    return (shared + [(k, zero, -d_p), (-k, zero, d_p)],
            shared + [(-k, k, -d_m), (k, -k, d_m)])


def _setting_pieces(q, wave):
    """One setting's candidate optima x = p W + r, each with its distance lines.

    Twice the setting's distance at x in [0, W] is max(plus) + max(minus)
    over pieces a x + b W + c.  Its minimum over x lies at x = 0, x = W or
    where two pieces of one max cross, each affine in W; substituting a
    candidate turns every piece into a line in W.
    """
    plus, minus = _distance_pieces(map(Fraction, q), Fraction(wave[0] - wave[1]))
    candidates = {(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))}
    for pieces in (plus, minus):
        for (a1, b1, c1), (a2, b2, c2) in itertools.combinations(pieces, 2):
            if a1 != a2:
                candidates.add(((b2 - b1) / (a1 - a2), (c2 - c1) / (a1 - a2)))
    return [((p, r), (1 - p, -r), [(a * p + b, a * r + c) for a, b, c in plus],
             [(a * p + b, a * r + c) for a, b, c in minus]) for p, r in sorted(candidates)]


def _setting_line(pieces, w, side):
    """Twice r_j's line just to one side of w, and the x_j that attains it at w."""
    options = []
    for x, rest, plus, minus in pieces:
        if min(_side(x, w, side), _side(rest, w, side)) < (0, 0):
            continue  # x leaves [0, W] on that side of w
        (a_p, b_p), (a_m, b_m) = (max(lines, key=lambda line: _side(line, w, side))
                                  for lines in (plus, minus))
        options.append(((a_p + a_m, b_p + b_m), x[0] * w + x[1]))
    return min(options, key=lambda option: _side(option[0], w, side))


def _exact_cut(flat_targets, wave_probs):
    """The ``cut`` of ``hv._kelley`` in Fractions, one setting at a time."""
    settings = [_setting_pieces(q, wave) for q, wave in zip(flat_targets, wave_probs)]

    def cut(w, side):
        lines, xs = zip(*(_setting_line(pieces, w, side) for pieces in settings))
        return max(lines, key=lambda line: _side(line, w, side)), list(xs)

    return cut
