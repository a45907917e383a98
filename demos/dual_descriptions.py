"""Two descriptions of one field theory.

Builds the compact modified-principal model, constructs the splitting of
the Drinfeld double, and shows that the graph operators computed by three
independent routes agree, and that the primal (u, s) and dual (t, v)
factorizations of the same loop give the same Hamiltonian density.

Run:  python demos/dual_descriptions.py
"""

import numpy as np

from pltdual.duality import graph_at, splitting
from pltdual.fieldsim import duality_check, random_smooth_loop
from pltdual.groups import GroupKit
from pltdual.models import make_preset

preset = make_preset("modified-principal", algebra="su2")
kit = GroupKit(preset.bialgebra)
split = splitting(preset)

print(f"model: {preset.name} on {preset.bialgebra.g.name}")
print(f"splitting denominator lam + 1 + 2 mu = {preset.split_denominator}")
plus, minus = split.basis_pair
print(f"orthogonality defect: {np.max(np.abs(plus.T @ split.pairing @ minus)):.2e}")

rng = np.random.default_rng(0)
u = kit.exp_g(rng.normal(size=3) * 0.5)
routes = ["transport", "invariant-split", "cocycle"]
(e0, _), *others = [graph_at(kit, split, u, route=r) for r in routes]
for name, (e_inv, _) in zip(routes[1:], others):
    gap = np.max(np.abs(e0 - e_inv))
    print(f"route '{routes[0]}' vs '{name}': max |dE^-1| = {gap:.2e}")

state = random_smooth_loop(kit, split, 64, boundary="periodic", seed=2, amplitude=0.1)
print(f"duality gap on a random smooth loop (N=64): {duality_check(state):.2e}")
