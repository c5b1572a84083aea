"""A trivial deformation of the group algebra of Z with constant antipodes.

The pairing L(m, n) = m^2 n + m n^2 on Z is the coboundary of
psi(k) = -k^3/3, so the deformation it generates is a conjugation of the
plain group product by the one-parameter group Phi_t = id * exp_*(t psi):

    mu_t(a (x) b) = Phi_{-t}( Phi_t(a) · Phi_t(b) ).

The deformation is far from constant (mu_t((1),(1)) = e^{2t}(2)), yet
sigma = psi + psi∘S vanishes because psi is odd, so S_t = S for every t.
"""
import math

import hopfdeform as hd

z = hd.group_algebra_zd(1)
L, psi = hd.make_z_cubic_coboundary(z)
sampler = hd.ElementSampler(z, seed=314, coord_bound=1, budget=120)
D = hd.make_deformation(z, L, sampler, witness=psi)  # checks dpsi = L on samples

one = z.basis_element((1,))
print("deformed products of (1) with itself:")
for t in (-1.0, 0.0, 0.5, 1.0):
    out = hd.deformed_mul(D, t, one, one)
    print(f"  t={t:5.2f}: {hd.format_element(out)}   (e^(2t) = {math.exp(2 * t):.6f})")
print()

print("conjugating group Phi_t on basis keys (closed form e^(t psi(k)) (k)):")
for t in (0.5, 1.0):
    phi = hd.phi_map(D, t)
    row = ", ".join(
        f"({k}) -> {hd.format_element(phi(z.basis_element((k,))))}" for k in (-2, 1, 2)
    )
    print(f"  t={t:4.1f}: {row}")
print()

print("conjugation identity and the group law, sampled:")
rep = hd.check_trivial_deformation(D, sampler.spawn(9), samples=120)
for line in rep.summary_lines():
    print(" ", line)
print("antipodes constant:", rep.extras["antipodes_constant"])
print()

sig = D.sigma()
print("sigma(k) for k = -3..3:", [hd.format_scalar(sig.value(((k,),))) for k in range(-3, 4)])
S_half = hd.deformed_antipode(D, 0.5)
print("S_0.5((2)) =", hd.format_element(S_half(z.basis_element((2,)))), "(still (-2))")
