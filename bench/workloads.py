"""The three benchmark workloads: their inputs, CLI calls and boundaries.

Every workload runs n = 3, gamma = 2.  A workload's inputs are written into
the repetition's directory.  The benchmark seed is forwarded through
``--seed`` as the RNG seed of ``evolve`` and ``sweep``; ``verify`` keeps
its default check seed (see ``Workload.cli_argv``).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

N, GAMMA = 3, 2.0

# anchor: zero seed on 256 nodes at lambda = 0, energies off, default ode section
ANCHOR_NODES = 256
ANCHOR_T_END = 3e2

# sweep: 2 x 2 cells, parabolic seed, energies on, default ode and outputs
SWEEP_NODES = 32
SWEEP_T_END = 1e3
SWEEP_LAMBDAS = (0.0, 0.5)
SWEEP_EPSILONS = (5e-4, 1e-3)

# the 14 checks of `vaclab verify`, in suite order
VERIFY_CHECKS = (
    "quadrature-exactness", "hardy-ratio", "kinematic-identities",
    "piola-richardson", "jacobian-expansion", "ode-properties", "h-envelope",
    "integrating-factor", "lyapunov", "radial-oracle", "zero-run-preservation",
    "curl-envelope", "pme-residual", "mass-conservation",
)


def sweep_cell_name(lam: float, eps: float) -> str:
    """Directory name `vaclab sweep` gives a (lambda, gamma = 2, epsilon) cell."""
    return f"lam{lam:g}_gam{GAMMA:g}_eps{eps:g}"


@dataclass(frozen=True)
class Workload:
    name: str
    operations: int           # operations attempted per repetition
    boundary: str             # "module:function" whose entry ends set-up
    cell_start: str | None    # "module:function" whose entry starts a cell

    def cli_argv(self, rep_dir: Path, seed: int) -> list[str]:
        """Write the repetition's inputs and return the `vaclab` arguments."""
        if self.name == "anchor":
            config = {
                "params": {"n": N, "lambda": 0.0, "gamma": GAMMA},
                "solver": {"num_nodes": ANCHOR_NODES, "t_end": ANCHOR_T_END,
                           "collect_energies": False,
                           "seed": {"shape": "zero", "amplitude": 0.0}},
            }
            path = rep_dir / "anchor.json"
            path.write_text(json.dumps(config, indent=2) + "\n")
            return ["evolve", "--config", str(path), "--out", str(rep_dir / "run"),
                    "--seed", str(seed)]
        if self.name == "sweep":
            config = {
                "params": {"n": N, "gamma": GAMMA},
                "solver": {"num_nodes": SWEEP_NODES, "t_end": SWEEP_T_END,
                           "seed": {"shape": "parabolic", "amplitude": SWEEP_EPSILONS[-1]}},
            }
            path = rep_dir / "sweep.json"
            path.write_text(json.dumps(config, indent=2) + "\n")
            return ["sweep", "--config", str(path),
                    "--lambdas", ",".join(f"{v:g}" for v in SWEEP_LAMBDAS),
                    "--gammas", f"{GAMMA:g}",
                    "--epsilons", ",".join(f"{v:g}" for v in SWEEP_EPSILONS),
                    "--out", str(rep_dir / "sweep"), "--workers", "1",
                    "--seed", str(seed)]
        # The check seed stays at its default: radial-oracle fails on some
        # seeds (12345), and a workload must not fail on any seed.
        return ["verify", "--out", str(rep_dir / "suite.json")]

    def output_dir(self, rep_dir: Path) -> Path | None:
        """Directory the program persists its run artifacts into."""
        return {"anchor": rep_dir / "run", "sweep": rep_dir / "sweep"}.get(self.name)


WORKLOADS = {
    "anchor": Workload("anchor", 1, "vaclab.runio:evolve", None),
    "sweep": Workload("sweep", len(SWEEP_LAMBDAS) * len(SWEEP_EPSILONS),
                      "vaclab.runio:evolve", "vaclab.runio:run"),
    "verify": Workload("verify", len(VERIFY_CHECKS), "vaclab.suite:verify", None),
}
