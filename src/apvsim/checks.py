"""Built-in oracle-versus-analytic equivalence suite.

A fixed family of small chains is pushed through both code paths: the
analytic sensitivity formulas and the brute-force state-vector oracle.
Each check reports its worst relative deviation against a pinned tolerance.
Everything is deterministic, so the suite doubles as a CI gate via the CLI
``validate`` subcommand (exit status 0 iff all checks pass).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import Isotope, IsotopeChain, ProjectedPattern, build_chain, project_deviation
from .oracle import (
    QUBIT_CAP,
    DiagonalGenerator,
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
from .protocols import ProtocolConfig, SensitivityResult, combine_classical_fit, protocol_table
from .rules import FieldError, check_fields, read

__all__ = ["CheckResult", "OracleSpec", "KNOWN_CHECKS", "run_oracle_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_rel_dev: float
    tolerance: float
    qubits: int


# All equivalence checks run with ideal contrast; the oracle does not model
# decoherence, only state structure.  Under this config every noisy contrast
# is exactly 1, so the noisy protocols' rows are the ideal ones.
_IDEAL_CFG = ProtocolConfig(omega=0.85, tau=1.25, c0=1.0, f1=1.0, f2=1.0, p_surv=1.0, t2=math.inf,
                            squeezing_db=0.0, rep_rate=2.0, t_avg=5.0, c_sql=1.0)


@functools.cache  # chains are immutable; the suite asks for the same few over and over
def _chain(zdefs, counts, ref=0):
    isotopes = tuple(Isotope(A=a, Z=z, n_atoms=n) for (a, z), n in zip(zdefs, counts))
    return build_chain(isotopes, ref_index=ref, sin2_theta_w=0.2325)


_YB = ((170, 70), (172, 70), (174, 70), (176, 70))
_SR = ((86, 38), (88, 38))
_CA = ((40, 20), (44, 20), (48, 20))

# (zdefs, counts, ref, h) of each instance, smallest register first; a plain
# register holds one qubit per atom, a paired one two
_PLAIN = (
    (_SR, (1, 1), 1, (1.0, -0.5)),
    (_YB, (1, 1, 1, 1), 2, (-1.0, -1.0, 1.0, 1.0)),
    (_CA, (1, 2, 3), 0, (0.3, -1.0, 0.7)),
    (_YB, (2, 2, 2, 2), 2, (-1.0, -1.0, 1.0, 1.0)),
    (_YB, (1, 2, 3, 4), 2, (0.4, -1.1, 0.2, 0.9)),
    (_YB, (3, 3, 3, 3), 2, (-1.0, -0.7, 0.8, 1.0)),
    (_YB, (2, 3, 4, 5), 2, (0.4, -1.1, 0.2, 0.9)),
)
_PAIRED = (
    (_SR, (1, 1), 1, (1.0, -0.5)),
    (_YB, (1, 1, 1, 1), 2, (-1.0, -1.0, 1.0, 1.0)),
    (_CA, (1, 2, 2), 0, (0.3, -1.0, 0.7)),
    (_YB, (2, 2, 1, 1), 2, (0.4, -1.1, 0.2, 0.9)),
    (_YB, (2, 2, 2, 1), 2, (0.4, -1.1, 0.2, 0.9)),
)


# the closed-form protocols the checks compare on a plain and on a paired register
_PROTOCOLS = {False: ("sql", "same_isotope_cat", "cross_cat_ideal"), True: ("cross_cat_ideal", "dfs_cat")}


@dataclass
class _Pattern:
    """One (chain, deviation pattern) with what its plain and paired registers
    share, built on first use."""

    chain: IsotopeChain
    h: tuple[float, ...] | None
    protocols: tuple[str, ...] = ()

    @functools.cached_property
    def proj(self) -> ProjectedPattern:
        return project_deviation(self.chain, self.h)

    @functools.cached_property
    def rows(self) -> dict[str, SensitivityResult]:
        """The :func:`protocol_table` row at the ideal config of each protocol
        its registers compare on."""
        return {row.protocol: row for row in protocol_table(self.chain, self.h, _IDEAL_CFG, self.protocols)}


@dataclass
class _Instance:
    """A pattern on a plain or paired register, with everything the checks
    read of it built on first use and then kept."""

    pattern: _Pattern
    paired: bool = False

    chain = property(lambda self: self.pattern.chain)
    h = property(lambda self: self.pattern.h)
    proj = property(lambda self: self.pattern.proj)
    rows = property(lambda self: self.pattern.rows)

    @property
    def qubits(self) -> int:
        return (1 + self.paired) * self.chain.total_atoms

    @functools.cached_property
    def gen(self) -> DiagonalGenerator:
        """The signal generator."""
        return build_generator(self.chain, self.proj, _IDEAL_CFG.tau, _IDEAL_CFG.omega, dfs=self.paired)

    @functools.cached_property
    def product(self) -> StateVector:
        return build_state("product_x", self.chain)

    @functools.cached_property
    def cat(self) -> StateVector:
        return build_state("dfs_cat" if self.paired else "cross_cat", self.chain, self.proj)

    @functools.cached_property
    def product_qfi(self) -> float:
        return qfi(self.product, self.gen)

    @functools.cached_property
    def cat_qfi(self) -> float:
        return qfi(self.cat, self.gen)


class _Lone(_Instance):
    """One atom under the common generator: the one-qubit register."""

    @functools.cached_property
    def gen(self) -> DiagonalGenerator:
        return build_common_generator(self.chain, _IDEAL_CFG.tau, _IDEAL_CFG.omega)


@dataclass
class _Suite:
    """The instances of one run whose register fits in ``budget`` qubits."""

    budget: int

    @functools.cached_property
    def _fitting(self) -> list[_Instance]:
        """Plain instances, then paired ones; the two of one (zdefs, counts,
        ref, h) share its pattern."""
        fits = [(row, paired) for paired, table in ((False, _PLAIN), (True, _PAIRED))
                for row in table if (1 + paired) * sum(row[1]) <= self.budget]
        protocols = {}
        for row, paired in fits:
            protocols[row] = tuple(dict.fromkeys(protocols.get(row, ()) + _PROTOCOLS[paired]))
        patterns = {row: _Pattern(_chain(*row[:3]), row[3], protocols[row]) for row in protocols}
        return [_Instance(patterns[row], paired) for row, paired in fits]

    plain = functools.cached_property(lambda self: [i for i in self._fitting if not i.paired])
    paired = functools.cached_property(lambda self: [i for i in self._fitting if i.paired])

    @functools.cached_property
    def lone(self) -> _Lone:
        return _Lone(_Pattern(_chain(_SR, (1, 0), ref=1), None))

    @property
    def signal(self) -> list[_Instance]:
        """The plain instances, or the lone atom when the budget admits
        nothing larger."""
        return self.plain or [self.lone]

    @functools.cached_property
    def isotope_dw(self) -> dict[int, float]:
        """:func:`_cat_dw` of each atom number of the plain instances."""
        return {n: _cat_dw(n) for n in sorted({n for i in self.plain for n in i.chain.n_atoms} - {0})}


def _worst(pairs) -> tuple[float, int]:
    """The largest deviation and the largest register of (deviation, qubits)
    pairs.  A NaN deviation counts as the worst of all, so its check fails."""
    devs, sizes = zip(*pairs)
    return max(devs, key=lambda dev: (math.isnan(dev), dev)), max(sizes)


def _rel(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _spread(gen) -> float:
    """Distance between the generator's largest and smallest eigenvalue."""
    return float(np.max(gen.diag) - np.min(gen.diag))


def _oracle_delta_theta(f_q):
    """The sensitivity that the quantum Fisher information ``f_q`` gives."""
    return 1.0 / math.sqrt(f_q * _IDEAL_CFG.reps)


def _cat_dw(n):
    """The frequency sensitivity of an isotope of ``n`` atoms from its own
    cat: an n-qubit GHZ state under the common generator pi tau, which
    depends on n alone, so it is built on an n-atom register."""
    register = _chain(_SR, (n, 0), ref=1)
    return _oracle_delta_theta(qfi(build_state("ghz_per_isotope", register),
                                   build_common_generator(register, _IDEAL_CFG.tau, 1.0)))


# ---------------------------------------------------------------------------
# individual checks: each returns (max_rel_dev, qubits_used)
# ---------------------------------------------------------------------------


def _check_single_qubit_ramsey(suite):
    lone = suite.lone
    g = lone.gen.per_qubit_coeff[0]
    thetas = (0.0, 0.2, 0.9, 2.7)
    fringe = parity_fringe(lone.product, lone.gen, np.array(thetas))

    def devs(theta, p):
        # fringe against the closed form, and branch phase against 2 g theta
        yield abs(p - (1.0 + math.cos(2.0 * g * theta)) / 2.0)
        evolved = ramsey_evolve(lone.product, lone.gen, theta)
        rel_phase = np.angle(evolved.amplitudes[1] / evolved.amplitudes[0])
        expected = math.remainder(2.0 * g * theta, 2.0 * math.pi)
        yield abs(math.remainder(rel_phase - expected, 2.0 * math.pi))

    return _worst((dev, 1) for theta, p in zip(thetas, fringe.tolist()) for dev in devs(theta, p))


def _check_eigenstate_qfi_zero(suite):
    gen = suite.signal[-1].gen
    m = len(gen.labels)

    def basis(b):
        amp = np.zeros(1 << m, dtype=np.complex128)
        amp[b] = 1.0
        return StateVector(amplitudes=amp, labels=gen.labels)

    return _worst((abs(qfi(basis(b), gen)) / _spread(gen) ** 2, m) for b in {0, 1, (1 << m) - 1})


def _check_product_qfi_independence(suite):
    return _worst((_rel(i.product_qfi, 4.0 * math.fsum(g * g for g in i.gen.per_qubit_coeff)),
                   i.qubits) for i in suite.signal)


def _check_cross_cat_qfi(suite):
    return _worst((_rel(i.cat_qfi, i.rows["cross_cat_ideal"].eigsep ** 2), i.qubits)
                  for i in suite.plain)


def _check_sql_oracle_equiv(suite):
    return _worst((_rel(_oracle_delta_theta(i.product_qfi), i.rows["sql"].delta_theta), i.qubits)
                  for i in suite.plain)


def _check_same_isotope_cat_oracle_equiv(suite):
    def devs(inst):
        # per-isotope frequency sensitivity from each subarray's own cat
        # (inf: an isotope without atoms is unmeasured), pushed through the
        # same classical fit as the analytic path
        dws = tuple(suite.isotope_dw.get(n, math.inf) for n in inst.chain.n_atoms)
        analytic = inst.rows["same_isotope_cat"].delta_theta
        # the fit would take a NaN sensitivity for an unmeasured isotope
        nan = any(map(math.isnan, dws))
        yield math.nan if nan else _rel(combine_classical_fit(inst.chain, inst.h, dws, _IDEAL_CFG), analytic)
        if len(set(inst.chain.n_atoms)) == 1:
            # equal allocation: the joint product-of-cats state agrees directly
            joint = build_state("ghz_per_isotope", inst.chain)
            yield _rel(_oracle_delta_theta(qfi(joint, inst.gen)), analytic)

    return _worst((dev, i.qubits) for i in suite.plain for dev in devs(i))


def _cat_equiv(instances, protocol):
    return _worst((_rel(_oracle_delta_theta(i.cat_qfi), i.rows[protocol].delta_theta), i.qubits)
                  for i in instances)


def _check_cfi_saturation(suite):
    largest = suite.plain[-1]
    theta_mid = math.pi / (2.0 * _spread(largest.gen))
    return _worst([(_rel(cfi_parity(largest.cat, largest.gen, theta_mid), largest.cat_qfi),
                    largest.qubits)])


def _check_cfi_bound(suite):
    largest = suite.plain[-1]
    f_q, qubits = largest.cat_qfi, largest.qubits
    period = 2.0 * math.pi / _spread(largest.gen)
    cfi = cfi_parity(largest.cat, largest.gen, (np.arange(100) + 0.5) / 100.0 * period)
    return _worst((abs(f / f_q - 1.0), qubits) for f in cfi.tolist())


def _check_dfs_common_noise(suite):
    phases = np.array([0.0, 0.37, 1.234, math.pi / 2, 2.9, 17.0])

    def devs(inst):
        state = build_state("dfs_cat", inst.chain, inst.proj, phase=0.4)
        common = build_common_generator(inst.chain, _IDEAL_CFG.tau, _IDEAL_CFG.omega, dfs=True)
        return (abs(overlap - 1.0) for overlap in common_noise_check(state, common, phases).tolist())

    return _worst((dev, i.qubits) for i in suite.paired for dev in devs(i))


def _check_dfs_apv_separation(suite):
    return _worst((_rel(_spread(i.gen), 2.0 * i.rows["cross_cat_ideal"].eigsep), i.qubits)
                  for i in suite.paired)


# (name, tolerance, smallest register, function) of each check in run order;
# a tolerance is relative, or absolute on an order-one quantity (single qubit, overlap)
_CHECKS = (
    ("single_qubit_ramsey", 1e-12, 1, _check_single_qubit_ramsey),
    ("eigenstate_qfi_zero", 1e-12, 1, _check_eigenstate_qfi_zero),
    ("product_qfi_independence", 1e-12, 1, _check_product_qfi_independence),
    ("cross_cat_qfi", 1e-10, 2, _check_cross_cat_qfi),
    ("sql_oracle_equiv", 1e-9, 2, _check_sql_oracle_equiv),
    ("same_isotope_cat_oracle_equiv", 1e-9, 2, _check_same_isotope_cat_oracle_equiv),
    ("cross_cat_oracle_equiv", 1e-9, 2, lambda suite: _cat_equiv(suite.plain, "cross_cat_ideal")),
    # per_channel accounting matches the paired register
    ("dfs_oracle_equiv", 1e-9, 4, lambda suite: _cat_equiv(suite.paired, "dfs_cat")),
    ("cfi_saturation", 1e-6, 2, _check_cfi_saturation),
    ("cfi_bound", 1e-6, 2, _check_cfi_bound),
    ("dfs_common_noise", 1e-12, 4, _check_dfs_common_noise),
    ("dfs_apv_separation", 1e-12, 4, _check_dfs_apv_separation),
)

KNOWN_CHECKS = tuple(name for name, *_ in _CHECKS)


@dataclass(frozen=True)
class OracleSpec:
    """The ``oracle`` block: the qubit budget of :func:`run_oracle_checks`.
    The field metadata is the rule for its key (see :mod:`apvsim.rules`)."""

    budget: int = field(metadata={"integer": True, "required": True, "minimum": 1,
                                  "maximum": QUBIT_CAP, "max_inclusive": True})

    __post_init__ = check_fields


def run_oracle_checks(budget: int = 10, only: tuple[str, ...] | None = None) -> list[CheckResult]:
    """Run, at its pinned tolerance, every check whose smallest instance fits
    within ``budget`` qubits; ``only`` restricts the suite to the named checks.
    A budget that :class:`OracleSpec` rejects, or an unknown or repeated name,
    raises ValueError.
    """
    # anything but a number is OracleSpec's to reject, at ``budget``
    if isinstance(budget, (int, float)) and budget > QUBIT_CAP:
        raise ValueError(f"qubit budget {budget} exceeds the register cap of {QUBIT_CAP}")
    OracleSpec(budget)
    if only is not None and (reasons := read(only, {"items": KNOWN_CHECKS}, "checks")[1]):
        raise FieldError([("only" + below, reason) for below, reason in reasons])
    suite, results = _Suite(budget), []
    for name, tol, min_qubits, fn in _CHECKS:
        if min_qubits > budget or (only is not None and name not in only):
            continue
        dev, used = fn(suite)
        results.append(CheckResult(name=name, passed=dev <= tol, max_rel_dev=dev, tolerance=tol, qubits=used))
    return results
