"""Built-in oracle-versus-analytic equivalence suite.

A fixed family of small chains is pushed through both code paths: the
analytic sensitivity formulas and the brute-force state-vector oracle.
Each check reports its worst relative deviation against a pinned tolerance.
Everything is deterministic, so the suite doubles as a CI gate via the CLI
``validate`` subcommand (exit status 0 iff all checks pass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import DeviationPattern, Isotope, IsotopeChain, build_chain, project_deviation
from .oracle import (
    QUBIT_CAP,
    StateVector,
    build_common_generator,
    build_generator,
    build_state,
    cfi_parity,
    common_noise_check,
    parity_fringe,
    qfi,
    ramsey_evolve,
)
from .protocols import ProtocolConfig, combine_classical_fit, protocol_table

__all__ = ["CheckResult", "KNOWN_CHECKS", "DEFAULT_TOLERANCES", "run_oracle_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_rel_dev: float
    tolerance: float
    qubits: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "max_rel_dev": self.max_rel_dev,
            "tolerance": self.tolerance,
            "qubits": self.qubits,
        }


DEFAULT_TOLERANCES = {
    "single_qubit_ramsey": 1e-12,
    "eigenstate_qfi_zero": 1e-12,
    "product_qfi_independence": 1e-12,
    "cross_cat_qfi": 1e-10,
    "sql_oracle_equiv": 1e-9,
    "same_isotope_cat_oracle_equiv": 1e-9,
    "cross_cat_oracle_equiv": 1e-9,
    "dfs_oracle_equiv": 1e-9,
    "cfi_saturation": 1e-6,
    "cfi_bound": 1e-6,
    "dfs_common_noise": 1e-12,
    "dfs_apv_separation": 1e-12,
}

KNOWN_CHECKS = tuple(DEFAULT_TOLERANCES)

# All equivalence checks run with ideal contrast; the oracle does not model
# decoherence, only state structure.  Under this config every noisy contrast
# is exactly 1, so the noisy protocols' rows are the ideal ones.
_IDEAL_CFG = ProtocolConfig(
    omega=0.85,
    tau=1.25,
    c0=1.0,
    f1=1.0,
    f2=1.0,
    p_surv=1.0,
    t2=math.inf,
    squeezing_db=0.0,
    rep_rate=2.0,
    t_avg=5.0,
    c_sql=1.0,
)

_S2W = 0.2325


def _chain(zdefs, counts, ref=0):
    isotopes = tuple(Isotope(A=a, Z=z, n_atoms=n) for (a, z), n in zip(zdefs, counts))
    return build_chain(isotopes, ref_index=ref, sin2_theta_w=_S2W)


_YB = ((170, 70), (172, 70), (174, 70), (176, 70))
_SR = ((86, 38), (88, 38))
_CA = ((40, 20), (44, 20), (48, 20))


def _plain_instances(budget):
    """(chain, pattern) pairs whose register fits in ``budget`` qubits."""
    candidates = [
        (_chain(_SR, (1, 1), ref=1), (1.0, -0.5)),
        (_chain(_YB, (1, 1, 1, 1), ref=2), (-1.0, -1.0, 1.0, 1.0)),
        (_chain(_CA, (1, 2, 3)), (0.3, -1.0, 0.7)),
        (_chain(_YB, (2, 2, 2, 2), ref=2), (-1.0, -1.0, 1.0, 1.0)),
        (_chain(_YB, (1, 2, 3, 4), ref=2), (0.4, -1.1, 0.2, 0.9)),
        (_chain(_YB, (3, 3, 3, 3), ref=2), (-1.0, -0.7, 0.8, 1.0)),
    ]
    return [(c, h) for c, h in candidates if c.total_atoms <= budget]


def _dfs_instances(budget):
    candidates = [
        (_chain(_SR, (1, 1), ref=1), (1.0, -0.5)),
        (_chain(_YB, (1, 1, 1, 1), ref=2), (-1.0, -1.0, 1.0, 1.0)),
        (_chain(_CA, (1, 2, 2)), (0.3, -1.0, 0.7)),
        (_chain(_YB, (2, 2, 1, 1), ref=2), (0.4, -1.1, 0.2, 0.9)),
    ]
    return [(c, h) for c, h in candidates if 2 * c.total_atoms <= budget]


def _rel(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _analytic(chain, h, protocol):
    return protocol_table(chain, h, _IDEAL_CFG, (protocol,))[0]


def _oracle_delta_theta(state, gen, cfg):
    return 1.0 / math.sqrt(qfi(state, gen) * cfg.reps)


# ---------------------------------------------------------------------------
# individual checks: each returns (max_rel_dev, qubits_used)
# ---------------------------------------------------------------------------


def _check_single_qubit_ramsey(budget):
    cfg = _IDEAL_CFG
    chain = _chain(_SR, (1, 0), ref=1)
    gen = build_common_generator(chain, cfg.tau, cfg.omega)
    state = build_state("product_x", chain)
    g = gen.per_qubit_coeff[0]
    dev = 0.0
    for theta in (0.0, 0.2, 0.9, 2.7):
        # fringe against the closed form, and branch phase against 2 g theta
        dev = max(dev, abs(parity_fringe(state, gen, theta) - (1.0 + math.cos(2.0 * g * theta)) / 2.0))
        evolved = ramsey_evolve(state, gen, theta)
        rel_phase = np.angle(evolved.amplitudes[1] / evolved.amplitudes[0])
        expected = math.remainder(2.0 * g * theta, 2.0 * math.pi)
        dev = max(dev, abs(math.remainder(rel_phase - expected, 2.0 * math.pi)))
    return dev, 1


def _signal_generators(budget):
    """(chain, generator) pairs; falls back to a one-qubit register when the
    budget admits nothing larger."""
    cfg = _IDEAL_CFG
    out = []
    for chain, h in _plain_instances(budget):
        proj = project_deviation(chain, h)
        out.append((chain, build_generator(chain, proj, cfg.tau, cfg.omega)))
    if not out:
        chain = _chain(_SR, (1, 0), ref=1)
        out.append((chain, build_common_generator(chain, cfg.tau, cfg.omega)))
    return out


def _check_eigenstate_qfi_zero(budget):
    _, gen = _signal_generators(budget)[-1]
    m = len(gen.labels)
    scale = float(np.max(gen.diag) - np.min(gen.diag)) ** 2
    dev = 0.0
    for b in {0, (1 << m) - 1, 1 % (1 << m)}:
        amp = np.zeros(1 << m, dtype=np.complex128)
        amp[b] = 1.0
        basis = StateVector(amplitudes=amp, labels=gen.labels)
        dev = max(dev, abs(qfi(basis, gen)) / scale)
    return dev, m


def _check_product_qfi_independence(budget):
    dev, used = 0.0, 0
    for chain, gen in _signal_generators(budget):
        state = build_state("product_x", chain)
        expected = 4.0 * math.fsum(g * g for g in gen.per_qubit_coeff)
        dev = max(dev, _rel(qfi(state, gen), expected))
        used = max(used, len(gen.labels))
    return dev, used


def _check_cross_cat_qfi(budget):
    cfg = _IDEAL_CFG
    dev, used = 0.0, 0
    for chain, h in _plain_instances(budget):
        proj = project_deviation(chain, h)
        gen = build_generator(chain, proj, cfg.tau, cfg.omega)
        state = build_state("cross_cat", chain, proj)
        sep = _analytic(chain, h, "cross_cat_ideal").eigsep
        dev = max(dev, _rel(qfi(state, gen), sep**2))
        used = max(used, len(gen.labels))
    return dev, used


def _check_sql_oracle_equiv(budget):
    cfg = _IDEAL_CFG
    dev, used = 0.0, 0
    for chain, h in _plain_instances(budget):
        proj = project_deviation(chain, h)
        gen = build_generator(chain, proj, cfg.tau, cfg.omega)
        state = build_state("product_x", chain)
        analytic = _analytic(chain, h, "sql").delta_theta
        dev = max(dev, _rel(_oracle_delta_theta(state, gen, cfg), analytic))
        used = max(used, len(gen.labels))
    return dev, used


def _single_isotope_view(chain, index):
    counts = [iso.n_atoms if i == index else 0 for i, iso in enumerate(chain.isotopes)]
    from .chain import reallocate

    return reallocate(chain, counts)


def _check_same_isotope_cat_oracle_equiv(budget):
    cfg = _IDEAL_CFG
    dev, used = 0.0, 0
    for chain, h in _plain_instances(budget):
        # per-isotope frequency sensitivity from each subarray's own cat,
        # pushed through the same classical fit as the analytic path
        dws = []
        for i, iso in enumerate(chain.isotopes):
            if iso.n_atoms == 0:
                dws.append(math.inf)
                continue
            sub = _single_isotope_view(chain, i)
            st = build_state("ghz_per_isotope", sub)
            freq_gen = build_common_generator(sub, cfg.tau, 1.0)
            dws.append(1.0 / math.sqrt(qfi(st, freq_gen) * cfg.reps))
        oracle = combine_classical_fit(chain, h, tuple(dws), cfg)
        analytic = _analytic(chain, h, "same_isotope_cat").delta_theta
        dev = max(dev, _rel(oracle, analytic))
        used = max(used, chain.total_atoms)
        counts = {iso.n_atoms for iso in chain.isotopes}
        if len(counts) == 1:
            # equal allocation: the joint product-of-cats state agrees directly
            proj = project_deviation(chain, h)
            gen = build_generator(chain, proj, cfg.tau, cfg.omega)
            joint = build_state("ghz_per_isotope", chain)
            dev = max(dev, _rel(_oracle_delta_theta(joint, gen, cfg), analytic))
    return dev, used


def _check_cross_cat_oracle_equiv(budget):
    cfg = _IDEAL_CFG
    dev, used = 0.0, 0
    for chain, h in _plain_instances(budget):
        proj = project_deviation(chain, h)
        gen = build_generator(chain, proj, cfg.tau, cfg.omega)
        state = build_state("cross_cat", chain, proj)
        analytic = _analytic(chain, h, "cross_cat_ideal").delta_theta
        dev = max(dev, _rel(_oracle_delta_theta(state, gen, cfg), analytic))
        used = max(used, len(gen.labels))
    return dev, used


def _check_dfs_oracle_equiv(budget):
    cfg = _IDEAL_CFG  # per_channel accounting matches the paired register
    dev, used = 0.0, 0
    for chain, h in _dfs_instances(budget):
        proj = project_deviation(chain, h)
        gen = build_generator(chain, proj, cfg.tau, cfg.omega, dfs=True)
        state = build_state("dfs_cat", chain, proj)
        analytic = _analytic(chain, h, "dfs_cat").delta_theta
        dev = max(dev, _rel(_oracle_delta_theta(state, gen, cfg), analytic))
        used = max(used, len(gen.labels))
    return dev, used


def _largest_cross_cat(budget):
    cfg = _IDEAL_CFG
    chain, h = _plain_instances(budget)[-1]
    proj = project_deviation(chain, h)
    gen = build_generator(chain, proj, cfg.tau, cfg.omega)
    state = build_state("cross_cat", chain, proj)
    sep = float(np.max(gen.diag) - np.min(gen.diag))
    return state, gen, sep


def _check_cfi_saturation(budget):
    state, gen, sep = _largest_cross_cat(budget)
    theta_mid = math.pi / (2.0 * sep)
    dev = _rel(cfi_parity(state, gen, theta_mid), qfi(state, gen))
    return dev, len(gen.labels)


def _check_cfi_bound(budget):
    state, gen, sep = _largest_cross_cat(budget)
    f_q = qfi(state, gen)
    period = 2.0 * math.pi / sep
    dev = 0.0
    for k in range(100):
        theta = (k + 0.5) / 100.0 * period
        dev = max(dev, abs(cfi_parity(state, gen, theta) / f_q - 1.0))
    return dev, len(gen.labels)


def _check_dfs_common_noise(budget):
    cfg = _IDEAL_CFG
    dev, used = 0.0, 0
    for chain, h in _dfs_instances(budget):
        proj = project_deviation(chain, h)
        state = build_state("dfs_cat", chain, proj, phase=0.4)
        common = build_common_generator(chain, cfg.tau, cfg.omega, dfs=True)
        for phase in (0.0, 0.37, 1.234, math.pi / 2, 2.9, 17.0):
            dev = max(dev, abs(common_noise_check(state, common, phase) - 1.0))
        used = max(used, len(common.labels))
    return dev, used


def _check_dfs_apv_separation(budget):
    cfg = _IDEAL_CFG
    dev, used = 0.0, 0
    for chain, h in _dfs_instances(budget):
        proj = project_deviation(chain, h)
        gen = build_generator(chain, proj, cfg.tau, cfg.omega, dfs=True)
        sep_dfs = float(np.max(gen.diag) - np.min(gen.diag))
        sep_plain = _analytic(chain, h, "cross_cat_ideal").eigsep
        dev = max(dev, _rel(sep_dfs, 2.0 * sep_plain))
        used = max(used, len(gen.labels))
    return dev, used


_CHECKS = (
    ("single_qubit_ramsey", 1, _check_single_qubit_ramsey),
    ("eigenstate_qfi_zero", 1, _check_eigenstate_qfi_zero),
    ("product_qfi_independence", 1, _check_product_qfi_independence),
    ("cross_cat_qfi", 2, _check_cross_cat_qfi),
    ("sql_oracle_equiv", 2, _check_sql_oracle_equiv),
    ("same_isotope_cat_oracle_equiv", 2, _check_same_isotope_cat_oracle_equiv),
    ("cross_cat_oracle_equiv", 2, _check_cross_cat_oracle_equiv),
    ("dfs_oracle_equiv", 4, _check_dfs_oracle_equiv),
    ("cfi_saturation", 2, _check_cfi_saturation),
    ("cfi_bound", 2, _check_cfi_bound),
    ("dfs_common_noise", 4, _check_dfs_common_noise),
    ("dfs_apv_separation", 4, _check_dfs_apv_separation),
)


def run_oracle_checks(
    budget: int = 10,
    cap: int = QUBIT_CAP,
    tolerances: dict[str, float] | None = None,
    only: tuple[str, ...] | None = None,
) -> list[CheckResult]:
    """Run every check whose smallest instance fits within ``budget`` qubits.

    ``tolerances`` overrides the pinned per-check tolerances (all relative
    deviations except the single-qubit and overlap checks, which are
    absolute on quantities of order one).  ``only`` restricts the suite to
    the named checks.
    """
    if budget < 1:
        raise ValueError(f"qubit budget must be >= 1, got {budget}")
    if budget > cap:
        raise ValueError(f"qubit budget {budget} exceeds the register cap of {cap}")
    overrides = tolerances or {}
    unknown = set(overrides) - set(KNOWN_CHECKS)
    if unknown:
        raise ValueError(f"unknown check names in tolerance overrides: {sorted(unknown)}")
    if only is not None:
        unknown = set(only) - set(KNOWN_CHECKS)
        if unknown:
            raise ValueError(f"unknown check names requested: {sorted(unknown)}")
    results = []
    for name, min_qubits, fn in _CHECKS:
        if min_qubits > budget:
            continue
        if only is not None and name not in only:
            continue
        tol = overrides.get(name, DEFAULT_TOLERANCES[name])
        dev, used = fn(budget)
        results.append(
            CheckResult(name=name, passed=dev <= tol, max_rel_dev=dev, tolerance=tol, qubits=used)
        )
    return results
