"""Library-level coherent evolution: (|0> + e^{i phase}|1>)/sqrt(2) (x) |0 photons>.

Runs ``assemble`` and ``evolve`` from the package API on a config file and
writes populations, photon number, the qubit 0-1 coherence and the trace at
each sample time.  Unlike every CLI initial state, this one is not
diagonal, and its GHz coherences, not decay, set the integrator's steps.

    python3 coherent.py --config system.json --nq 3 --nr 5 --phase 0.3 \
        --tmax 2 --samples 101 --out coherent.csv
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import math
import sys

import numpy as np

import rabiqed as rq


def _format(value: float) -> str:
    return format(float(value), ".17g")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--nq", type=int, required=True)
    parser.add_argument("--nr", type=int, required=True)
    parser.add_argument("--phase", type=float, required=True)
    parser.add_argument("--tmax", type=float, required=True)
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    config = rq.load_config(args.config)
    config = dataclasses.replace(
        config,
        transmon=dataclasses.replace(config.transmon, num_levels=args.nq),
        resonator=dataclasses.replace(config.resonator, fock_truncation=args.nr))
    system = config.build()
    generator = rq.assemble(system)
    space = rq.ProductSpace(args.nq, args.nr)

    psi = np.zeros(space.dimension, dtype=complex)
    psi[space.index(0, 0)] = 1.0 / math.sqrt(2.0)
    psi[space.index(1, 0)] = cmath.exp(1j * args.phase) / math.sqrt(2.0)
    rho0 = np.outer(psi, psi.conj())
    times = np.linspace(0.0, args.tmax, args.samples)
    trajectory = rq.evolve(generator, rho0, args.tmax, sample_times=times)

    photons = np.kron(np.eye(args.nq), rq.number_operator(args.nr))
    i0, i1 = space.index(0, 0), space.index(1, 0)
    names = (["t_ns"] + [f"pop_q{k}" for k in range(args.nq)]
             + ["nbar", "coherence_re", "coherence_im", "trace"])
    lines = [",".join(names)]
    for t, rho in zip(trajectory.times, trajectory.states):
        diagonal = np.real(np.diag(rho)).reshape(args.nq, args.nr)
        values = [t, *diagonal.sum(axis=1), np.real(np.trace(photons @ rho)),
                  rho[i1, i0].real, rho[i1, i0].imag, np.real(np.trace(rho))]
        lines.append(",".join(_format(v) for v in values))
    with open(args.out, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
