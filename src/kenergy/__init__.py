"""Energy functionals of polarized projective varieties on Bergman metrics,
computed algebraically through Chow forms and hyperdiscriminants and
cross-checked by quadrature of the defining integral on rational curves."""

__version__ = "0.1.0"
