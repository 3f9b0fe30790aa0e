"""References that any correct implementation matches, in closed form.

``born`` gives p(a, b) on the final state that ``circuit.final_state``
documents, (1/2)[|p>(|phi-> - i|psi+>) + e^{i delta}|w>(|phi-> + i|psi+>)],
with |p> and |w> the particle and wave kets of photon S.  Bob's ket
alpha|phi-> + beta|psi+> meets the two pair states as conj(alpha) -+
i conj(beta), so each amplitude is two products of one-photon overlaps.

``permanent_transform`` applies a substitution of modes to a Fock state by
permanents (Scheel, quant-ph/0406127): a pattern's amplitude goes to each
output pattern as perm(U[out, in]) / sqrt(prod n_in! prod n_out!).
"""

import itertools
import math
from collections import defaultdict

import numpy as np

from qduality.fock import Mode
from qduality.hv import HVStrategy

SQRT2 = math.sqrt(2.0)
PHI_MINUS = np.array([1, 0, 0, -1]) / SQRT2
PSI_PLUS = np.array([0, 1, 1, 0]) / SQRT2
ALICE_HV = np.array([[0.0, 1.0], [1.0, 0.0]])  # hv's order: s = 0 is |V>, s = 1 is |H>


def particle_wave(phi):
    """(|H> - e^{i phi}|V>)/sqrt2 and e^{i phi/2}(-i sin(phi/2)|H> + cos(phi/2)|V>), (..., 2) each."""
    half = np.asarray(phi, dtype=float) / 2
    particle = np.stack([np.ones_like(half), -np.exp(2j * half)], -1) / SQRT2
    wave = np.exp(1j * half)[..., None] * np.stack([-1j * np.sin(half), np.cos(half)], -1)
    return particle, wave


def final_state(phi, delta=math.pi / 4):
    """The (8,) amplitudes of the documented final state, register order (S, C, A)."""
    particle, wave = particle_wave(phi)
    return 0.5 * (np.kron(particle, PHI_MINUS - 1j * PSI_PLUS)
                  + np.exp(1j * delta) * np.kron(wave, PHI_MINUS + 1j * PSI_PLUS))


def alice_kets(theta1):
    """(..., 2, 2): cos|H> + sin|V> for "+", -sin|H> + cos|V> for "-"."""
    c, s = np.cos(theta1), np.sin(theta1)
    return np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2)


def bob_coefficients(theta2, basis="real"):
    """(alpha, beta), each (..., 2), of Bob's "+" and "-" kets on |phi-> and |psi+>.

    "real": cos t|phi-> + sin t|psi+> at t = theta2 and at theta2 + pi/2 in
    floats, where the "-" analyzer is set; "quadrature": cos|phi-> +- i sin|psi+>.
    """
    t = np.asarray(theta2, dtype=float)
    if basis == "real":
        angles = np.stack([t, t + math.pi / 2], -1)
        return np.cos(angles), np.sin(angles)
    return np.stack([np.cos(t)] * 2, -1), np.stack([1j * np.sin(t), -1j * np.sin(t)], -1)


def bob_kets(rows, basis="real"):
    """(2, R, 4) kets of Bob's outcomes, ordered as ``circuit._bob_kets`` orders them."""
    alpha, beta = bob_coefficients(rows, basis)
    return np.moveaxis(alpha[..., None] * PHI_MINUS + beta[..., None] * PSI_PLUS, -2, 0)


def born(alice, alpha, beta, phi, delta=math.pi / 4):
    """(..., 2, 2) p(a, b) for Alice's kets (..., 2, 2) and Bob's (alpha, beta)."""
    particle, wave = particle_wave(phi)
    on_p = (alice.conj() * particle[..., None, :]).sum(-1)
    on_w = (alice.conj() * wave[..., None, :]).sum(-1)
    phase = np.exp(1j * np.asarray(delta, dtype=float))[..., None, None]
    amp = 0.5 * (on_p[..., :, None] * (alpha.conj() - 1j * beta.conj())[..., None, :]
                 + phase * on_w[..., :, None] * (alpha.conj() + 1j * beta.conj())[..., None, :])
    return np.abs(amp) ** 2


def coincidences(theta1, theta2, phi, delta=math.pi / 4, visibility=1.0, background=0.0):
    """(..., 4) p++, p+-, p-+, p--: the ideal joint mixed with the uniform one."""
    ideal = born(alice_kets(theta1), *bob_coefficients(theta2), phi, delta)
    scale = np.asarray((1.0 - np.asarray(background)) * visibility)[..., None, None]
    return (scale * ideal + (1.0 - scale) * 0.25).reshape(ideal.shape[:-2] + (4,))


def correlation(*args):
    """E = p++ - p+- - p-+ + p-- of ``coincidences(*args)``."""
    return coincidences(*args) @ np.array([1.0, -1.0, -1.0, 1.0])


def config_correlation(config):
    """``correlation`` at a ``circuit.ExperimentConfig``."""
    return float(correlation(config.theta1, config.theta2, config.phi, config.delta,
                             config.noise.visibility, config.noise.background))


def quantum_joints(settings, basis="real"):
    """(n, 2, 2) q(s, b) of ``hv.quantum_joints``, at delta = pi/4."""
    theta2, phi = np.array(settings, dtype=float).T
    return born(ALICE_HV, *bob_coefficients(theta2, basis), phi)


def exact_wave_stats(cos_phi):
    """The wave tag's fringe statistics (cos^2(phi/2), sin^2(phi/2)) from cos(phi),
    exact for a Fraction."""
    return (1 + cos_phi) / 2, (1 - cos_phi) / 2


def enumerate_strategies(num_settings):
    """Every deterministic tagged strategy on ``num_settings`` settings, ordered by
    (tag, outcome string): the columns of the LP over all strategies."""
    return [HVStrategy(tag=tag, bob_outcomes="".join(outcomes))
            for tag in ("particle", "wave")
            for outcomes in itertools.product("+-", repeat=num_settings)]


def printed_correlation(theta1, theta2, phi):
    """The paper's printed E, valid at theta1 = 0 and pi/4."""
    sign = 1.0 if abs(theta1) < 1e-12 else -1.0
    return (math.cos(2 * theta2 + math.pi / 4)
            + sign * math.sin(phi) * math.cos(2 * theta2 - math.pi / 4)) / SQRT2


def permanent(matrix):
    return sum(math.prod(row[j] for row, j in zip(matrix, perm))
               for perm in itertools.permutations(range(len(matrix))))


def _factorials(pattern):
    return math.prod(math.factorial(pattern.count(mode)) for mode in set(pattern))


def permanent_transform(state, mode_map):
    """The amplitudes of ``state.transform(mode_map)`` as a dict, none dropped.

    ``mode_map(mode)`` lists a photon's images (mode, coefficient), or is
    None for a photon it leaves alone.
    """
    def images_of(mode):
        found = mode_map(mode)
        return dict([(mode, 1.0)] if found is None else found)

    out = defaultdict(complex)
    for pattern, amp in state.amps.items():
        images = [images_of(mode) for mode in pattern]
        for outputs in {tuple(sorted(combo)) for combo in itertools.product(*images)}:
            matrix = [[image.get(mode, 0.0) for mode in outputs] for image in images]
            out[outputs] += amp * permanent(matrix) / math.sqrt(
                _factorials(pattern) * _factorials(outputs))
    return dict(out)


def linear_images(modes, matrix):
    """The mode map of ``matrix`` on (port, polarization) ``modes``: the k-th goes
    to sum_r matrix[r][k] times the r-th, with its temporal label kept."""
    def images(mode):
        if mode[:2] not in modes:
            return None
        k = modes.index(mode[:2])
        return [(Mode(port, pol, mode.temporal), row[k]) for (port, pol), row in zip(modes, matrix)]

    return images


def assert_same_state(got, want, tol=1e-14):
    """ModeState ``got`` and amplitudes ``want`` agree on every pattern, within
    ``tol`` times the largest amplitude wanted (or 1, if that is smaller)."""
    scale = max(1.0, max(map(abs, want.values()), default=0.0))
    for pattern in set(got.amps) | set(want):
        assert abs(got.amps.get(pattern, 0.0) - want.get(pattern, 0.0)) <= tol * scale, pattern
