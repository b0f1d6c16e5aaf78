"""Design-space lifetime sweep.

Runs a scheduling-policy x workload x chip grid through
:func:`repro.system.sweeps.run_lifetime_sweep`: the grid advances on
the fleet engine, one stacked fleet per chip design
(``engine="pooled"`` runs one fresh
:class:`~repro.system.simulator.SystemSimulator` per cell instead,
with identical results), and every cell comes back as one row of a
:class:`~repro.system.sweeps.SweepResult` table.

Prints the full grid -- guardband, permanent Vth, EM failures,
migration overhead, lost demand -- and the policy with the best
worst-case guardband across all workloads and chips, i.e. the Fig.
12(b) comparison generalized to a design grid.

Usage::

    python examples/lifetime_sweep.py [epochs]
"""

import sys

from repro.system.scheduler import (
    NoRecoveryPolicy,
    RoundRobinRecoveryPolicy,
)
from repro.system.sweeps import ChipConfig, run_lifetime_sweep
from repro.system.workload import ConstantWorkload, DiurnalWorkload


def run(n_epochs: int) -> None:
    policies = {
        "no recovery": NoRecoveryPolicy(),
        "rr heal x1": RoundRobinRecoveryPolicy(
            recovery_slots=1, em_alternate_every=2),
        "rr heal x2": RoundRobinRecoveryPolicy(
            recovery_slots=2, em_alternate_every=2),
    }
    workloads = {
        "flat 60%": ConstantWorkload(n_cores=16, utilization=0.6),
        "diurnal": DiurnalWorkload(n_cores=16, peak_utilization=0.8,
                                   trough_utilization=0.3,
                                   period_epochs=24),
    }
    chips = [ChipConfig(4, 4, name="4x4")]
    result = run_lifetime_sweep(policies, workloads, chips,
                                n_epochs=n_epochs, seed=0,
                                record_every=max(n_epochs // 50, 1))
    print(f"lifetime sweep: {len(result)} cells x "
          f"{n_epochs} epochs")
    print()
    print(result.table())
    print()
    print(f"best worst-case guardband: {result.best_policy()}")


def main() -> None:
    n_epochs = int(sys.argv[1]) if len(sys.argv) > 1 else 24 * 28
    run(n_epochs)


if __name__ == "__main__":
    main()
