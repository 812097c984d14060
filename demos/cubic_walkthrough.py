"""End-to-end walkthrough on the plane cubic.

Start from the bundled presentation of an elliptic curve, read off the
value semigroup and its body, build the one-parameter family, then push
one random point from the curve down to the toric limit and watch the
action coordinate converge.

Run:  python3 demos/cubic_walkthrough.py
"""

import numpy as np

from okkit.catalog import load_example
from okkit.degeneration import build_family, build_projection, format_polynomial
from okkit.embedding import embed_point, enumerate_vd_basis, sample_intrinsic, toric_moment
from okkit.flow import ChartPoint, FlowConfig, flow_to, integrable_system_eval

entry = load_example("elliptic")
print("entry:", entry.name)
print("  ", entry.description)
print()

print("value semigroup generators (level, value):")
for g in entry.semigroup.generators:
    print("   (%d, %s)" % (g.level, g.value))
print("lattice complete:", entry.semigroup.group_complete)
print("body vertices:", [tuple(map(str, v)) for v in entry.body.vertices])
print("degree (n! times volume):", entry.degree)
print()

# The degeneration: one relation picks up a tau power and its initial form
# is the cuspidal cubic.  build_family checks exactly that tau = 1 gives
# back the relation and tau = 0 the initial form.
fam = build_family(entry.relations, build_projection(entry.relations))
print("weight functional p =", fam.functional.p)
print("family over the tau-line:")
for g in fam.family:
    print("  ", format_polynomial(g))
print("initial forms (the fiber at t=0):")
for g in fam.initial_forms:
    print("  ", format_polynomial(g))
print()

# Embed one sample at t = 1/2 and flow it to t = 1e-4.
basis = enumerate_vd_basis(entry.datum, fam)
rng = np.random.default_rng(5)
[x] = sample_intrinsic(entry.datum, 1, rng)
print("intrinsic sample:", tuple("%.4f%+.4fi" % (c.real, c.imag) for c in x))

cfg = FlowConfig(epsilon=0.5, delta=1e-4)
start = ChartPoint.from_projective(embed_point(x, entry.datum, fam, cfg.epsilon, basis))
result = flow_to(start, cfg.delta, cfg, fam, basis)
print("flow: %d steps, max |Im pi| = %.2e, max time drift = %.2e"
      % (result.steps, result.max_im_pi, result.max_re_lin_err))
print("moment along the way (every 10th step):")
for sample in result.samples[::10]:
    print("   s = %.4f   mu = %.6f" % (sample.s, sample.moment[0]))

outcome = integrable_system_eval(x, cfg, entry.datum, fam, basis)
print("extrapolated action value F = %.8f  (convergence %.1e)"
      % (outcome.F[0], outcome.convergence))
print("inside the body [0, 3]:", -1e-9 <= outcome.F[0] <= 3 + 1e-9)
