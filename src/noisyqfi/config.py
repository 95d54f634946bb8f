"""Plain-text configuration files for channels and batch runs.

Flat ``key = value`` lines under ``[section]`` headers; ``#`` starts a
comment.  Recognized sections: ``[channel]`` (name, lambda_domain),
``[params]`` (channel parameters; numbers, or expressions in the parameter
for custom_diag entries), and ``[run]`` (command plus any run option of the
CLI by its long flag name, with dashes or underscores; not ``channel``).
Command-line flags override file values.
"""

from __future__ import annotations

import re

from .bloch import BUILTIN_NAMES, ChannelFamily, builtin

__all__ = ["ConfigError", "parse_config_text", "family_from_config"]

_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z_0-9.]*)\]$")


class ConfigError(ValueError):
    """Malformed configuration text or values."""


def parse_config_text(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            current = sections.setdefault(m.group(1).lower(), {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key/value outside any [section]")
        key, value = line.split("=", 1)
        current[key.strip().lower()] = value.strip()
    return sections


def _parse_domain(text: str) -> tuple[float, float]:
    parts = [p for p in re.split(r"[,\s]+", text.strip().strip("[]")) if p]
    if len(parts) != 2:
        raise ConfigError(f"lambda_domain must be two numbers, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not lo < hi:
        raise ConfigError(f"lambda_domain must satisfy lo < hi, got {text!r}")
    return lo, hi


def family_from_config(channel: dict[str, str],
                       params: dict[str, str] | None = None) -> ChannelFamily:
    """Build a channel family from [channel] and [params] sections."""
    params = dict(params or {})
    name = channel.get("name")
    if not name:
        raise ConfigError("[channel] section needs a 'name' entry")
    if name not in BUILTIN_NAMES:
        raise ConfigError(f"unknown channel {name!r}; choose from {BUILTIN_NAMES}")
    kwargs: dict = {}
    if name == "custom_diag":
        for key in ("mx", "my", "mz"):
            if key not in params:
                raise ConfigError(f"custom_diag needs an {key!r} expression in [params]")
            kwargs[key] = params.pop(key)
        if "lambda_domain" in channel:
            kwargs["domain"] = _parse_domain(channel["lambda_domain"])
        if "fd_step" in params:
            kwargs["fd_step"] = float(params.pop("fd_step"))
    for key, value in params.items():
        if name == "pauli" and key == "lam_on":
            kwargs[key] = value
            continue
        try:
            kwargs[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"parameter {key!r} must be a number, got {value!r}") from exc
    try:
        return builtin(name, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"cannot build channel {name!r}: {exc}") from exc
