"""Experiment configuration: a key=value config file plus CLI overrides.

Precedence: CLI flag > config file value > built-in default.  Seeds are
always explicit integers (fixed defaults, never wall-clock), so a config
fully determines the outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .montecarlo import SCHEMES


class ConfigError(ValueError):
    """Invalid configuration file or option combination."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment run."""

    schemes: tuple = SCHEMES
    var_h: float = 1.0
    var_g: float = 0.75
    var_g_alt: float = 0.25      # second eavesdropper variance (first figure)
    snr_db: tuple = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
    samples: int = 20000
    dual_samples: int = 20000    # frozen-batch size for the dual search
    inner_samples: int = 200     # inner expectation size, two-slot scaled policy
    seed: int = 12345
    out: str | None = None

    def __post_init__(self):
        if not self.schemes:
            raise ConfigError("scheme set must be nonempty")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r} (choose from {SCHEMES})")
        if not self.snr_db:
            raise ConfigError("SNR grid must be nonempty")
        for v in ("var_h", "var_g", "var_g_alt"):
            if not getattr(self, v) > 0:
                raise ConfigError(f"{v} must be positive")
        if self.samples < 2 or self.dual_samples < 2 or self.inner_samples < 1:
            raise ConfigError("sample counts too small")


_FLOAT_KEYS = {"var_h", "var_g", "var_g_alt"}
_INT_KEYS = {"samples", "dual_samples", "inner_samples", "seed"}
_LIST_KEYS = {"snr_db", "schemes"}
_STR_KEYS = {"out"}


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines (# comments); errors carry line numbers."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        try:
            if key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key in _INT_KEYS:
                values[key] = int(val)
            elif key == "snr_db":
                values[key] = tuple(float(v) for v in val.split(",") if v.strip())
            elif key == "schemes":
                values[key] = tuple(v.strip() for v in val.split(",") if v.strip())
            elif key in _STR_KEYS:
                values[key] = val
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return values


def load_config(path: str | None, **overrides) -> ExperimentConfig:
    """Build a config from an optional file plus non-None flag overrides."""
    values: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read()))
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
