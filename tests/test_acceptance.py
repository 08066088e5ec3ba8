"""Acceptance suite: the package's headline guarantees, one test per criterion.

Each test prints a single line

    acceptance criterion N (name): PASS|FAIL [detail]

before asserting, so a full run leaves a per-criterion record in the log.
"""

import dataclasses
import math
import time

import numpy as np

from rabiqed import (
    BARE_PLUS_INTERACTION,
    DETUNING,
    DRESSED_ANALYTIC,
    FIT_WINDOW_FACTOR,
    JC,
    QUBIT_SHIFT,
    RABI,
    RESONATOR_PULL,
    ExactRow,
    JumpDescriptor,
    ProductSpace,
    RateRow,
    ResonatorSpec,
    ShiftRow,
    SpectralFunction,
    SystemConfig,
    SystemSpec,
    TransmonSpec,
    annihilator,
    assemble,
    build_rate_table,
    chi,
    chi_tilde,
    default_detuning_grid,
    dressed_dephasing_prefactors,
    driven_effective_rates,
    embed,
    evolve,
    exact_rows,
    expand_transmon,
    fit_g0,
    format_csv,
    jump_matrix,
    number_operator,
    photon_assisted_prefactor,
    purcell_prefactor,
    qubit_projector,
    rate_rows,
    shift_report,
    shift_rows,
    silent_baths,
    steady_state,
    verify_displacement_identity,
    xi,
)

from conftest import build_system

TWO_PI = 2.0 * math.pi
RATE = TWO_PI * 1e-3  # MHz -> angular rate in 1/ns


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _sweep_config(alpha: float) -> SystemConfig:
    """The reference readout geometry: 5 GHz resonator, 100 MHz base coupling."""
    return SystemConfig(
        transmon=TransmonSpec(omega_10=6.0, anharmonicity=alpha, g0=0.1,
                              num_levels=10),
        resonator=ResonatorSpec(omega_r=5.0, fock_truncation=10),
        interaction_model=RABI,
        baths=silent_baths(),
    )


def test_criterion_1_shift_identities():
    """1000 random ladders satisfy the algebraic shift identities to 1e-12."""
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    worst = 0.0
    structure_ok = True
    for _ in range(1000):
        system = build_system(
            detuning=rng.uniform(0.4, 2.5) * rng.choice([-1.0, 1.0]),
            g0=rng.uniform(0.02, 0.25),
            alpha=rng.uniform(0.0, 0.35),
            num_levels=int(rng.integers(2, 5)),
        )
        q = system.qubit
        wr = system.omega_r
        for k in range(q.num_levels - 1):
            total = chi(k, system) + xi(k, system)
            worst = max(worst, abs(chi_tilde(k, system) - total) / abs(total))
            d_rabi, _ = dressed_dephasing_prefactors(k, system, RABI)
            d_jc, c_jc = dressed_dephasing_prefactors(k, system, JC)
            structure_ok = structure_ok and d_rabi == d_jc and c_jc == 0.0
        for k in range(q.num_levels):
            has_up = k <= q.num_levels - 2
            has_dn = k >= 1
            w_up = q.splitting(k) if has_up else 0.0
            w_dn = q.splitting(k - 1) if has_dn else 0.0
            x = q.g(k) * q.beta(k) / (wr - w_up) if has_up else 0.0
            y = q.g(k - 1) * q.beta(k - 1) / (wr - w_dn) if has_dn else 0.0
            square = 2.0 * (x - y) ** 2
            value = photon_assisted_prefactor(k, system, JC)
            if square > 0.0:
                worst = max(worst, abs(value - square) / square)
            xr = q.g(k) * q.beta(k) * w_up / (wr ** 2 - w_up ** 2) if has_up else 0.0
            yr = (q.g(k - 1) * q.beta(k - 1) * w_dn / (wr ** 2 - w_dn ** 2)
                  if has_dn else 0.0)
            square = 8.0 * (xr - yr) ** 2
            value = photon_assisted_prefactor(k, system, RABI)
            if square > 0.0:
                worst = max(worst, abs(value - square) / square)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and structure_ok and elapsed < 1.0
    _report(1, "shift identities", ok,
            f"worst rel dev {worst:.2e}, {elapsed:.2f}s for 1000 sets")


def test_criterion_2_pull_accuracy_harmonic_ladder():
    """Full-dipole pull beats the rotating wave against exact truth, alpha = 0."""
    start = time.perf_counter()
    config = _sweep_config(alpha=0.0)
    grid = default_detuning_grid(0.1)  # 161 points minus |detuning| < 0.3
    rows = shift_rows(config, DETUNING, grid)
    valid = [row for row in rows if not row.error]
    wins = sum(abs(row.err_frac_rabi) <= abs(row.err_frac_jc) for row in valid)
    fraction = wins / len(valid)
    far = [row for row in valid if abs(row.delta0_ghz) >= 2.0]
    worst_far = max(abs(row.err_frac_rabi) for row in far)
    elapsed = time.perf_counter() - start
    ok = (len(valid) == len(rows) and fraction >= 0.90
          and worst_far < 0.01 and elapsed < 30.0)
    _report(2, "resonator pull, harmonic ladder", ok,
            f"full dipole closer at {100 * fraction:.1f}% of {len(valid)} points, "
            f"max |err| {100 * worst_far:.3f}% beyond 2 GHz, {elapsed:.1f}s")


def test_criterion_3_qubit_shift_accuracy_anharmonic_ladder():
    """Same contest on the qubit transition with a transmon ladder, alpha = 0.25."""
    start = time.perf_counter()
    config = _sweep_config(alpha=0.25)
    grid = default_detuning_grid(0.1)
    rows = shift_rows(config, DETUNING, grid)
    failed = {row.delta0_ghz for row in rows if row.error}
    valid = [row for row in rows if not row.error]
    wins = 0
    worst_far = 0.0
    for row in valid:
        err_rabi = abs(row.qshift_rabi - row.exact_qshift)
        err_jc = abs(row.qshift_jc - row.exact_qshift)
        wins += err_rabi <= err_jc
        if abs(row.delta0_ghz) >= 2.0:
            worst_far = max(worst_far, err_rabi / abs(row.exact_qshift))
    fraction = wins / len(valid)
    elapsed = time.perf_counter() - start
    # The ladder itself breaks three points: the 3-4 and 6-7 transitions cross
    # the resonator at 0.75 and 1.5 GHz, and the ladder collapses at -3 GHz.
    ok = (failed == {-3.0, 0.75, 1.5} and fraction >= 0.90
          and worst_far < 0.01 and elapsed < 30.0)
    _report(3, "qubit shift, anharmonic ladder", ok,
            f"full dipole closer at {100 * fraction:.1f}% of {len(valid)} points, "
            f"max |err| {100 * worst_far:.3f}% beyond 2 GHz, {elapsed:.1f}s")


def test_criterion_4_coupling_fit_recovery():
    """Fitting exact shift data recovers the 100 MHz coupling within -9/-2 MHz."""
    start = time.perf_counter()
    config = _sweep_config(alpha=0.25)
    grid = default_detuning_grid(0.1, window=FIT_WINDOW_FACTOR * 0.1)
    rows = exact_rows(config, DETUNING, grid, model=RABI)
    datasets = {
        RESONATOR_PULL: [(row.delta0_ghz, row.exact_pull)
                         for row in rows if not row.error],
        QUBIT_SHIFT: [(row.delta0_ghz, row.exact_qshift)
                      for row in rows if not row.error],
    }
    kwargs = dict(omega_r=5.0, anharmonicity=0.25, num_levels=10)
    results = {}
    for observable, data in datasets.items():
        for model in (RABI, JC):
            results[(model, observable)] = fit_g0(data, model, observable, **kwargs)
    elapsed = time.perf_counter() - start
    in_band = all(0.091 <= result.g0_hat <= 0.098 for result in results.values())
    tighter = all(
        results[(RABI, observable)].residual_sum
        <= results[(JC, observable)].residual_sum
        for observable in datasets
    )
    ok = in_band and tighter and elapsed < 120.0
    estimates = ", ".join(
        f"{model}/{observable.split('_')[-1]} {1e3 * result.g0_hat:.1f} MHz"
        for (model, observable), result in results.items()
    )
    _report(4, "coupling fit recovery", ok, f"{estimates}, {elapsed:.1f}s")


def test_criterion_5_two_level_reduction():
    """The general ladder reproduces the dedicated two-level formulas exactly."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        omega_r = rng.uniform(3.0, 8.0)
        omega_10 = omega_r + rng.uniform(0.4, 3.0) * rng.choice([-1.0, 1.0])
        if omega_10 <= 0.1:
            continue
        g0 = rng.uniform(0.02, 0.2)
        transmon = TransmonSpec(omega_10=omega_10, anharmonicity=0.0, g0=g0,
                                num_levels=2)
        system = SystemSpec(
            qubit=dataclasses.replace(expand_transmon(transmon),
                                      transverse_bath_couplings=(1.0,),
                                      dephasing_sensitivities=(1.0, -1.0)),
            resonator=ResonatorSpec(omega_r=omega_r, fock_truncation=3),
            interaction_model=RABI,
            baths=silent_baths(),
        )

        def rel(value, reference):
            return abs(value - reference) / abs(reference)

        worst = max(worst, rel(
            purcell_prefactor(0, system, RABI),
            8.0 * g0 ** 2 * omega_r ** 2 / (omega_r ** 2 - omega_10 ** 2) ** 2))
        worst = max(worst, rel(
            purcell_prefactor(0, system, JC),
            2.0 * g0 ** 2 / (omega_r - omega_10) ** 2))
        d, c = dressed_dephasing_prefactors(0, system, RABI)
        worst = max(worst, rel(d, 8.0 * g0 ** 2 / (omega_10 - omega_r) ** 2))
        worst = max(worst, rel(c, 8.0 * g0 ** 2 / (omega_10 + omega_r) ** 2))
        a_expected = 8.0 * g0 ** 2 * omega_10 ** 2 / (omega_r ** 2 - omega_10 ** 2) ** 2
        for k in (0, 1):
            worst = max(worst, rel(
                photon_assisted_prefactor(k, system, RABI), a_expected))
            worst = max(worst, rel(
                photon_assisted_prefactor(k, system, JC),
                2.0 * g0 ** 2 / (omega_r - omega_10) ** 2))

    # The per-level photon-assisted dissipators reproduce the two-level
    # sigma_z convention on every state without qubit coherence.
    space = ProductSpace(2, 3)
    sigma_z = qubit_projector(0, 2) - qubit_projector(1, 2)

    def dissipator(op, rho):
        op_dag = op.conj().T
        norm_op = op_dag @ op
        return op @ rho @ op_dag - 0.5 * (norm_op @ rho + rho @ norm_op)

    rng_states = np.random.default_rng(78)
    agreement = 0.0
    for photon in ("annihilate", "create"):
        z_jump = embed(sigma_z, None, space) @ jump_matrix(
            JumpDescriptor(photon=photon), space)
        level_jumps = [
            jump_matrix(JumpDescriptor(qubit=("diag", k), photon=photon), space)
            for k in (0, 1)
        ]
        for _ in range(20):
            blocks = []
            for _k in (0, 1):
                mat = (rng_states.normal(size=(3, 3))
                       + 1j * rng_states.normal(size=(3, 3)))
                blocks.append(mat @ mat.conj().T)
            rho = np.zeros((6, 6), dtype=complex)
            rho[:3, :3] = blocks[0]
            rho[3:, 3:] = blocks[1]
            rho /= np.trace(rho)
            combined = dissipator(z_jump, rho)
            split = sum(dissipator(jump, rho) for jump in level_jumps)
            agreement = max(agreement, float(np.max(np.abs(combined - split))))
    # The anticommutator halves agree as operators, coherences included.
    for photon in ("annihilate", "create"):
        z_jump = embed(sigma_z, None, space) @ jump_matrix(
            JumpDescriptor(photon=photon), space)
        level_jumps = [
            jump_matrix(JumpDescriptor(qubit=("diag", k), photon=photon), space)
            for k in (0, 1)
        ]
        z_norm = z_jump.conj().T @ z_jump
        split_norm = sum(j.conj().T @ j for j in level_jumps)
        agreement = max(agreement, float(np.max(np.abs(z_norm - split_norm))))
    ok = worst < 1e-12 and agreement < 1e-12
    _report(5, "two-level reduction", ok,
            f"worst rate rel dev {worst:.2e}, "
            f"dissipator mismatch {agreement:.2e} on block-diagonal states")


def test_criterion_6_master_equation_integrity():
    """Trace conservation, exact decay laws, thermal balance, dressed frequency."""
    start = time.perf_counter()
    space = ProductSpace(3, 5)

    # (a) trace drift over ten photon lifetimes with all channels active.
    system = build_system(
        detuning=1.0, g0=0.1, alpha=0.25,
        baths={
            "X": SpectralFunction.flat(0.002, temperature_ghz=0.1),
            "R": SpectralFunction.flat(0.1, temperature_ghz=0.1),
        },
    )
    gen = assemble(system, mode=DRESSED_ANALYTIC)
    psi = np.zeros(15, dtype=complex)
    psi[space.index(0, 0)] = 1.0 / math.sqrt(2.0)
    psi[space.index(1, 1)] = 1.0 / math.sqrt(2.0)
    rho0 = np.outer(psi, psi.conj())
    kappa = RATE * 100.0  # flat level 0.1 GHz -> 100 MHz photon decay
    t_final = 10.0 / kappa
    traj = evolve(gen, rho0, t_final, sample_times=np.linspace(0.0, t_final, 21))
    drift = max(abs(float(np.trace(rho).real) - 1.0) for rho in traj.states)

    # (b) closed-form decay laws.
    cavity = build_system(g0=0.0, baths={"R": SpectralFunction.flat(0.05)})
    gen_c = assemble(cavity, mode=DRESSED_ANALYTIC)
    rho0_c = np.zeros((15, 15), dtype=complex)
    rho0_c[space.index(0, 2), space.index(0, 2)] = 1.0
    kappa_c = RATE * 50.0
    ts = np.array([0.5, 1.0, 2.0]) / kappa_c
    traj_c = evolve(gen_c, rho0_c, ts[-1], sample_times=ts)
    n_op = embed(None, number_operator(5), space)
    closed_form = max(
        abs(n_num - 2.0 * math.exp(-kappa_c * t)) / (2.0 * math.exp(-kappa_c * t))
        for t, n_num in zip(traj_c.times, traj_c.expectation(n_op).real)
    )
    qubit = build_system(baths={"X": SpectralFunction.flat(0.002)})
    gen_q = assemble(qubit, mode=DRESSED_ANALYTIC)
    rho0_q = np.zeros((15, 15), dtype=complex)
    rho0_q[space.index(1, 0), space.index(1, 0)] = 1.0
    gamma = RATE * 2.0
    ts_q = np.array([0.5, 1.0]) / gamma
    traj_q = evolve(gen_q, rho0_q, ts_q[-1], sample_times=ts_q)
    p1 = embed(qubit_projector(1, 3), None, space)
    closed_form = max(closed_form, max(
        abs(pop - math.exp(-gamma * t)) / math.exp(-gamma * t)
        for t, pop in zip(traj_q.times, traj_q.expectation(p1).real)
    ))

    # (c) thermal steady state against the detailed-balance ratio.
    warm = build_system(
        g0=0.0,
        baths={
            "X": SpectralFunction.flat(0.002, temperature_ghz=0.1),
            "R": SpectralFunction.flat(0.05, temperature_ghz=0.5),
        },
    )
    rho_ss = steady_state(assemble(warm, mode=DRESSED_ANALYTIC))
    nbar = float(np.real(np.trace(n_op @ rho_ss)))
    cr = warm.bath("R")
    nbar_ref = cr.evaluate(-5.0) / (cr.evaluate(5.0) - cr.evaluate(-5.0))
    thermal_err = abs(nbar - nbar_ref)

    # (d) the dressed cavity frequency read off a bare-model evolution.
    a_op = embed(None, annihilator(5), space)
    freq_err = 0.0
    for detuning in (-1.5, -1.0, 1.0, 1.5):
        bare = build_system(detuning=detuning, g0=0.1, alpha=0.25)
        gen_b = assemble(bare, mode=BARE_PLUS_INTERACTION)
        psi_b = np.zeros(15, dtype=complex)
        psi_b[space.index(0, 0)] = 1.0 / math.sqrt(2.0)
        psi_b[space.index(0, 1)] = 1.0 / math.sqrt(2.0)
        rho0_b = np.outer(psi_b, psi_b.conj())
        times = np.arange(0.0, 32.0001, 0.05)
        traj_b = evolve(gen_b, rho0_b, 32.0, sample_times=times)
        phase = np.unwrap(np.angle(traj_b.expectation(a_op)))
        slope = np.polyfit(traj_b.times, phase, 1)[0]
        pull_measured = -slope / TWO_PI - 5.0
        pull_expected = shift_report(bare).resonator_pull_rabi
        freq_err = max(freq_err, abs(pull_measured - pull_expected)
                       / abs(pull_expected))

    elapsed = time.perf_counter() - start
    ok = (drift <= 1e-9 and closed_form < 1e-6 and thermal_err < 1e-8
          and freq_err < 0.02 and elapsed < 120.0)
    _report(6, "master-equation integrity", ok,
            f"trace drift {drift:.1e}, decay laws {closed_form:.1e}, "
            f"thermal nbar err {thermal_err:.1e}, "
            f"dressed freq err {100 * freq_err:.2f}%, {elapsed:.1f}s")


def test_criterion_7_displaced_drive_reduction():
    """One drive photon adds exactly one unit of the bare qubit dissipator."""
    residual = verify_displacement_identity(1.0, 0, (2, 16))
    system = build_system(
        detuning=1.0, num_levels=3,
        baths={
            "X": SpectralFunction.flat(0.002, temperature_ghz=0.1),
            "Z": SpectralFunction.flat(0.01, temperature_ghz=0.1),
            "R": SpectralFunction.flat(0.001, temperature_ghz=0.1),
        },
    )
    table = build_rate_table(system)
    one = driven_effective_rates(table, 1.0, RABI)
    four = driven_effective_rates(table, 4.0, RABI)
    scaling = max(
        abs(strong.rate_mhz - 4.0 * weak.rate_mhz) / (4.0 * weak.rate_mhz)
        for weak, strong in zip(one, four)
    )
    ok = residual <= 1e-6 and scaling < 1e-12
    _report(7, "displaced drive reduction", ok,
            f"identity residual {residual:.1e} at one photon, "
            f"4x scaling dev {scaling:.1e}")


def test_criterion_8_bath_thermodynamics():
    """Noise power obeys detailed balance; the Ohmic dc limit is eta T."""
    rng = np.random.default_rng(8)
    worst_balance = 0.0
    for _ in range(200):
        temperature = rng.uniform(0.02, 1.5)
        w = rng.uniform(0.05, 10.0)
        family = rng.integers(3)
        if family == 0:
            bath = SpectralFunction.ohmic(rng.uniform(0.1, 3.0), cutoff_ghz=40.0,
                                          temperature_ghz=temperature)
        elif family == 1:
            bath = SpectralFunction.flat(rng.uniform(0.01, 1.0),
                                         temperature_ghz=temperature)
        else:
            bath = SpectralFunction.one_over_f(rng.uniform(1e-7, 1e-5),
                                               ir_floor_ghz=0.01,
                                               temperature_ghz=temperature)
        ratio = bath.evaluate(w) / bath.evaluate(-w)
        worst_balance = max(worst_balance,
                            abs(ratio - math.exp(w / temperature))
                            / math.exp(w / temperature))
    worst_dc = 0.0
    for eta, temperature in ((2.0, 0.25), (0.5, 0.1), (1.3, 0.8)):
        bath = SpectralFunction.ohmic(eta, cutoff_ghz=50.0,
                                      temperature_ghz=temperature)
        reference = eta * temperature
        worst_dc = max(worst_dc, abs(bath.dc_limit() - reference) / reference)
        for w in (1e-9 * temperature, -1e-9 * temperature):
            worst_dc = max(worst_dc, abs(bath.evaluate(w) - reference) / reference)
    ok = worst_balance < 1e-12 and worst_dc < 1e-9
    _report(8, "bath thermodynamics", ok,
            f"balance dev {worst_balance:.1e}, dc-limit dev {worst_dc:.1e}")


def test_criterion_9_deterministic_tables():
    """Recomputing any sweep writes byte-identical CSV."""
    config = SystemConfig(
        transmon=TransmonSpec(omega_10=6.0, anharmonicity=0.25, g0=0.1,
                              num_levels=4),
        resonator=ResonatorSpec(omega_r=5.0, fock_truncation=6),
        interaction_model=RABI,
        baths={
            "X": SpectralFunction.ohmic(0.002, cutoff_ghz=50.0,
                                        temperature_ghz=0.1),
            "Z": SpectralFunction.one_over_f(1e-6, ir_floor_ghz=0.01,
                                             temperature_ghz=0.1),
            "R": SpectralFunction.flat(0.001, temperature_ghz=0.1),
        },
    )
    grid = np.linspace(-3.0, 3.0, 41)  # includes the resonant error row
    outputs = []
    for _ in range(2):
        shifts_csv = format_csv(shift_rows(config, DETUNING, grid), ShiftRow)
        rates_csv = format_csv(rate_rows(config, DETUNING, grid), RateRow)
        exact_csv = format_csv(exact_rows(config, DETUNING, grid), ExactRow)
        outputs.append((shifts_csv, rates_csv, exact_csv))
    identical = outputs[0] == outputs[1]
    rows = outputs[0][0].count("\n") - 1
    ok = identical and rows == 41
    _report(9, "deterministic tables", ok,
            f"three tables x two runs identical over {rows} grid points")
