"""Loop-field run with conservation diagnostics.

Evolves a random smooth periodic loop for one time unit and reports the
relative energy drift, the maximal gap between the two dual Hamiltonian
descriptions, and the drift of the quadratic loop function, then writes
the diagnostic table as a deterministic CSV artifact.

Run:  python demos/field_energy.py
"""

import numpy as np

from pltdual.duality import splitting
from pltdual.fieldsim import integrate_field, random_smooth_loop
from pltdual.groups import GroupKit
from pltdual.models import make_preset
from pltdual.reporting import field_table, write_csv

preset = make_preset("modified-principal", algebra="su2")
kit = GroupKit(preset.bialgebra)
split = splitting(preset)

config = {"preset": preset.name, "algebra": "su2", "N": 64, "dt": 2.5e-3,
          "T": 1.0, "seed": 2, "amplitude": 0.1}
state = random_smooth_loop(kit, split, config["N"], boundary="periodic",
                           seed=config["seed"], amplitude=config["amplitude"])
traj = integrate_field(state, config["dt"], int(config["T"] / config["dt"]),
                       record_every=40, diagnostics=True)

h = traj.hamiltonians
print(f"energy drift (relative):   {np.max(np.abs(h - h[0])) / abs(h[0]):.2e}")
print(f"max duality gap:           {np.nanmax(traj.duality_gaps):.2e}")
print(f"loop-function f_d drift:   {np.max(np.abs(traj.f_d - traj.f_d[0])):.2e}")

columns, table = field_table(traj)
write_csv("field_energy.csv", config, columns, table)
print("wrote field_energy.csv")
