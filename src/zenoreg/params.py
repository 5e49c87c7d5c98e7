"""Physical inputs and derived model parameters.

Everything downstream of this module works in dimensionless units: energies
are quoted in units of the on-site interaction U and times in units of 1/U.
This module owns the conversion from experimentally quoted numbers
(wavelength, lattice depths, trap frequency, laser parameters) to that
dimensionless set.

Conventions
-----------
* Quoted frequencies (linewidth Gamma/2pi, on-site U in Hz, recoil E_R in
  Hz) are ordinary frequencies.  All quantities entering the model are
  ratios, which are invariant under multiplying every ordinary frequency
  by 2pi, so the angular/ordinary choice never leaks into the dynamics.
* The lattice geometry is two tight transverse axes at depth ``V_perp``
  and one tunneling axis at ``V_par``, both in units of the recoil energy.
* The trap offset per site is ``eps(j) = delta * j**2`` with sites labeled
  symmetrically around the trap center.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields


PLANCK_H = 6.62607015e-34  # J s
MASS_RB87 = 1.4431608951127549e-25  # kg

# Natural log of the smallest hole-leak probability reported as nonzero.
_LOG_UNDERFLOW = -300.0 * math.log(10.0)


class ParameterError(ValueError):
    """Raised when a physical input is outside its allowed domain."""


@dataclass(frozen=True)
class PhysicalConfig:
    """Experimentally quoted inputs.

    Units: lengths in meters, masses in kg, ``trap_frequency_hz`` and
    ``linewidth_hz`` are ordinary frequencies (omega/2pi), lattice depths in
    units of the recoil energy, Rabi frequency and detuning in units of the
    atomic linewidth Gamma (detuning signed).
    """

    wavelength_m: float = 785e-9
    mass_kg: float = MASS_RB87
    scattering_length_m: float = 5.6e-9
    depth_parallel_er: float = 22.0
    depth_transverse_er: float = 38.5
    trap_frequency_hz: float = 8.0
    atomic_rabi_gamma: float = 25.0
    linewidth_hz: float = 6.065e6
    detuning_gamma: float = -6.85e4
    franck_condon: float = 5e-7
    atoms: int = 551
    register_sites: int = 501
    light_shift_doubled: bool = True
    hole_probability_threshold: float = 1e-6

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ParameterError(f"{f.name} must be finite, got {value}")
        positive = [
            "wavelength_m", "mass_kg", "scattering_length_m",
            "depth_parallel_er", "depth_transverse_er", "linewidth_hz",
        ]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.trap_frequency_hz < 0:
            raise ParameterError(f"trap_frequency_hz must be >= 0, got {self.trap_frequency_hz}")
        if not 0.0 < self.franck_condon < 1.0:
            raise ParameterError(f"franck_condon must lie in (0, 1), got {self.franck_condon}")
        sizes = f"atoms = {self.atoms}, register_sites = {self.register_sites}"
        if self.atoms < 1 or self.register_sites < 1:
            raise ParameterError(f"atoms and register_sites must be positive ({sizes})")
        if self.register_sites > self.atoms:
            raise ParameterError(f"register_sites must not exceed atoms ({sizes})")
        if self.register_sites % 2 == 0:
            raise ParameterError(f"register_sites must be odd, got {self.register_sites}")


@dataclass(frozen=True)
class DerivedParams:
    """Dimensionless model parameters, energies in units of U."""

    u_hz: float
    e_r_hz: float
    j_over_u: float
    delta_over_u: float
    kappa_over_u: float
    omega_m_over_u: float
    gamma_m_over_u: float
    vc_over_u: float
    s_a: float

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class RegimeReport:
    """Measurement-regime diagnostics and their pass flags.

    ``strength`` is kappa/(2 sqrt(n) J); ``omega_ratio`` is Omega_M/gamma_M;
    ``edge_ratio`` is the trap energy of the outermost occupied well over U;
    ``barrier`` is J/(n delta) (reported, not gated).
    """

    omega_ratio: float
    strength: float
    edge_ratio: float
    barrier: float
    p_h: float
    p_h_underflow: bool
    omega_ok: bool
    strength_ok: bool
    edge_ok: bool
    holes_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.omega_ok and self.strength_ok and self.edge_ok and self.holes_ok

    def as_dict(self) -> dict:
        return asdict(self) | {"all_ok": self.all_ok}


def recoil_energy_hz(wavelength_m: float, mass_kg: float) -> float:
    """Photon recoil energy E_R/h = h/(2 m lambda^2) in Hz."""
    if wavelength_m <= 0 or mass_kg <= 0:
        raise ParameterError("wavelength and mass must be > 0")
    return PLANCK_H / (2.0 * mass_kg * wavelength_m**2)


def tunneling_rate_hz(depth_er: float, e_r_hz: float) -> float:
    """Tight-binding tunneling rate for a sinusoidal lattice of depth V.

    J = (4/sqrt(pi)) E_R (V/E_R)^(3/4) exp(-2 sqrt(V/E_R)), returned in the
    same frequency convention as ``e_r_hz``.
    """
    if depth_er <= 0:
        raise ParameterError("depth_er must be > 0")
    return (4.0 / math.sqrt(math.pi)) * e_r_hz * depth_er**0.75 * math.exp(-2.0 * math.sqrt(depth_er))


def onsite_interaction_hz(cfg: PhysicalConfig) -> float:
    """s-wave on-site interaction in the Gaussian ground-state approximation.

    For two tight transverse axes at depth ``V_perp`` and one tunneling axis
    at ``V_par``::

        U/h = sqrt(8/pi) k a_s E_R (V_perp^2 V_par / E_R^3)^(1/4)

    with k = 2 pi / lambda and per-axis oscillator frequencies
    hbar omega_i = 2 sqrt(V_i E_R).
    """
    e_r = recoil_energy_hz(cfg.wavelength_m, cfg.mass_kg)
    k = 2.0 * math.pi / cfg.wavelength_m
    depth_factor = (cfg.depth_transverse_er**2 * cfg.depth_parallel_er) ** 0.25
    return math.sqrt(8.0 / math.pi) * k * cfg.scattering_length_m * e_r * depth_factor


def trap_energy_scale_hz(trap_frequency_hz: float, wavelength_m: float, mass_kg: float) -> float:
    """Quadratic trap scale delta/h with eps(j) = delta j^2.

    delta = (m/2) (lambda/2)^2 omega_T^2 where omega_T is the angular trap
    frequency and lambda/2 the lattice spacing.
    """
    if trap_frequency_hz < 0:
        raise ParameterError("trap_frequency_hz must be >= 0")
    omega_t = 2.0 * math.pi * trap_frequency_hz
    return 0.5 * mass_kg * (wavelength_m / 2.0) ** 2 * omega_t**2 / PLANCK_H


def derive_params(cfg: PhysicalConfig) -> DerivedParams:
    """Evaluate the full parameter chain for one configuration.

    The molecular Rabi frequency is Omega_M = sqrt(F_nu) Omega_A, the
    molecular linewidth gamma_M = 2 Gamma, the atomic saturation
    s_A = Omega_A^2 / (2 Delta^2), and the pair-state damping rate

        kappa = Omega_M^2 gamma_M / (8 (U^2 + (gamma_M/2)^2)).

    The catalysis light shift defaults to twice the single-atom shift,
    |V_c| = 2 |Delta| s_A = Omega_A^2/|Delta|; with
    ``light_shift_doubled=False`` the single-atom value |Delta| s_A is used
    instead.
    """
    if cfg.detuning_gamma == 0.0:
        raise ParameterError("detuning_gamma must be nonzero (resonant catalysis not modeled)")
    e_r = recoil_energy_hz(cfg.wavelength_m, cfg.mass_kg)
    u_hz = onsite_interaction_hz(cfg)
    j_hz = tunneling_rate_hz(cfg.depth_parallel_er, e_r)
    delta_hz = trap_energy_scale_hz(cfg.trap_frequency_hz, cfg.wavelength_m, cfg.mass_kg)

    gamma_over_u = cfg.linewidth_hz / u_hz  # Gamma/U, convention-invariant ratio
    gamma_m = 2.0 * gamma_over_u
    omega_m = math.sqrt(cfg.franck_condon) * cfg.atomic_rabi_gamma * gamma_over_u
    s_a = cfg.atomic_rabi_gamma**2 / (2.0 * cfg.detuning_gamma**2)
    shift_factor = 2.0 if cfg.light_shift_doubled else 1.0
    vc = shift_factor * abs(cfg.detuning_gamma) * s_a * gamma_over_u
    kappa = omega_m**2 * gamma_m / (8.0 * (1.0 + (gamma_m / 2.0) ** 2))

    return DerivedParams(
        u_hz=u_hz,
        e_r_hz=e_r,
        j_over_u=j_hz / u_hz,
        delta_over_u=delta_hz / u_hz,
        kappa_over_u=kappa,
        omega_m_over_u=omega_m,
        gamma_m_over_u=gamma_m,
        vc_over_u=vc,
        s_a=s_a,
    )


def hole_leak_log(j: float, delta: float, n: int, big_n: int, form: str = "closed") -> float:
    """Natural log of the edge-hole leak probability.

    Closed form: p_h = (J/2delta)^(N-n+2) (Gamma[n/2]/Gamma[N/2+1])^2,
    evaluated via log-gamma.  The ``product`` form multiplies
    (J/(delta (2j+1)))^2 over the barrier bonds j = (n-1)/2 .. (N-1)/2 and
    is kept as an independent cross-check of the closed form.
    """
    if delta <= 0:
        raise ParameterError("delta must be > 0 for the hole-leak estimate")
    if big_n <= n:
        raise ParameterError("hole-leak estimate requires N > n")
    if j < 0:
        raise ParameterError("j must be >= 0")
    if j == 0:
        return float("-inf")
    if form == "closed":
        return (big_n - n + 2) * math.log(j / (2.0 * delta)) + 2.0 * (
            math.lgamma(n / 2.0) - math.lgamma(big_n / 2.0 + 1.0)
        )
    if form == "product":
        total = 0.0
        for site in range((n - 1) // 2, (big_n - 1) // 2 + 1):
            total += 2.0 * math.log(j / (delta * (2 * site + 1)))
        return total
    raise ValueError(f"unknown form {form!r}")


def hole_leak_probability(j: float, delta: float, n: int, big_n: int, form: str = "closed") -> float:
    """Edge-hole leak probability; values below 1e-300 clamp to 0.

    When the barrier is ineffective the perturbative estimate exceeds one;
    being a probability, the return value saturates at 1.
    """
    log_p = hole_leak_log(j, delta, n, big_n, form)
    if log_p < _LOG_UNDERFLOW:
        return 0.0
    if log_p >= 0.0:
        return 1.0
    return math.exp(log_p)


def regime_check(
    p: DerivedParams,
    n: int,
    big_n: int,
    p_h_threshold: float = 1e-6,
) -> RegimeReport:
    """Evaluate the good-measurement regime for a register of n sites.

    Pass conditions: Omega_M/gamma_M < 0.1 (weak molecular saturation),
    kappa/(2 sqrt(n) J) > 1 (measurement faster than tunneling),
    eps((N-1)/2) < U (no multiple occupancy at the cloud edge), and
    p_h below ``p_h_threshold``.
    """
    if n > big_n:
        raise ParameterError("register size n must not exceed atom number N")
    if n % 2 == 0:
        raise ParameterError("register size n must be odd")
    omega_ratio = p.omega_m_over_u / p.gamma_m_over_u if p.gamma_m_over_u > 0 else float("inf")
    if p.j_over_u > 0:
        strength = p.kappa_over_u / (2.0 * math.sqrt(n) * p.j_over_u)
    else:
        strength = float("inf")  # no tunneling: measurement trivially dominates
    edge_ratio = p.delta_over_u * ((big_n - 1) / 2.0) ** 2
    barrier = p.j_over_u / (n * p.delta_over_u) if p.delta_over_u > 0 else float("inf")

    underflow = False
    if big_n > n and p.delta_over_u > 0:
        log_p = hole_leak_log(p.j_over_u, p.delta_over_u, n, big_n)
        underflow = log_p != float("-inf") and log_p < _LOG_UNDERFLOW
        p_h = hole_leak_probability(p.j_over_u, p.delta_over_u, n, big_n)
    else:
        p_h = 0.0 if p.j_over_u == 0 else float("nan")

    return RegimeReport(
        omega_ratio=omega_ratio,
        strength=strength,
        edge_ratio=edge_ratio,
        barrier=barrier,
        p_h=p_h,
        p_h_underflow=underflow,
        omega_ok=omega_ratio < 0.1,
        strength_ok=strength > 1.0,
        edge_ok=edge_ratio < 1.0,
        holes_ok=(p_h == p_h) and p_h < p_h_threshold,
    )


def reference_config() -> PhysicalConfig:
    """Reference configuration: 87Rb, 785 nm lattice, 551-atom cloud."""
    return PhysicalConfig()


_BOOL_KEYS = {"light_shift_doubled"}
_INT_KEYS = {"atoms", "register_sites"}


def parse_config_text(text: str) -> PhysicalConfig:
    """Parse a flat key=value config (one key per line, '#' comments)."""
    values: dict = {}
    valid = {f.name for f in fields(PhysicalConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in valid:
            raise ParameterError(f"unknown config key {key!r}")
        if key in _BOOL_KEYS:
            if value.lower() not in ("true", "false", "1", "0"):
                raise ParameterError(f"config key {key!r}: expected boolean, got {value!r}")
            values[key] = value.lower() in ("true", "1")
        else:
            kind = int if key in _INT_KEYS else float
            try:
                values[key] = kind(value)
            except ValueError:
                message = f"line {lineno}: config key {key!r}: expected {kind.__name__}, got {value!r}"
                raise ParameterError(message) from None
    return PhysicalConfig(**values)


def read_config(path: str) -> PhysicalConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
