# The configuration of the seven CLI studies: per subcommand, every key's
# default (or REQUIRED) and its check, in one table that the CLI validates
# against and the study functions take their defaults from.

import copy
import math

import numpy as np

from .foldylax import IncidentWave
from .geometry import boundary_grid_counts, derive_scales, unit_ball, \
    unit_box

REQUIRED = "required"


class ConfigError(ValueError):
    """Configuration schema violation, naming the offending key."""


def _finite(x):
    """A finite JSON number; true and false are refused."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def _number(where="", test=lambda x: True):
    def check(key, value):
        if not (_finite(value) and test(value)):
            raise ValueError("%s must be a finite number%s, not %r"
                             % (key, where, value))
    return check


def _integer(least, optional=False):
    """A JSON integer >= least, or null if optional; 2.0 is refused, and so
    are true and false, which Python reads as 1 and 0."""
    def check(key, value):
        if not (optional and value is None
                or type(value) is int and value >= least):
            raise ValueError("%s must be an integer >= %d, not %r"
                             % (key, least, value))
    return check


def _one_of(*choices):
    def check(key, value):
        if isinstance(value, bool) or value not in choices:
            raise ValueError("%s must be one of %s, not %r"
                             % (key, ", ".join(map(repr, choices)), value))
    return check


_real = _number()
_positive = _number(" > 0", lambda x: x > 0)
_nonnegative = _number(" >= 0", lambda x: x >= 0)
_pitch = _number(" in (0, 1]", lambda x: 0 < x <= 1)
_sign = _one_of("+", "-", 1, -1)


def _vector(key, value, positive=False):
    """A list of three finite JSON numbers, each > 0 if positive."""
    if not (isinstance(value, list) and len(value) == 3 and all(
            _finite(x) and (x > 0 or not positive) for x in value)):
        raise ValueError("%s must be a list of three finite %snumbers, not %r"
                         % (key, "positive " if positive else "", value))


def _list(entry, *rules):
    """A nonempty list whose entries pass entry, then every rule."""
    def check(key, value):
        if not isinstance(value, list) or not value:
            raise ValueError("%s must be a nonempty list, not %r"
                             % (key, value))
        for x in value:
            entry("an entry of " + key, x)
        for rule in rules:
            rule(key, value)
    return check


def _two_distinct(of=lambda x: x):
    """A log-log slope fit through one abscissa is meaningless."""
    def rule(key, value):
        if len({of(x) for x in value}) < 2:
            raise ValueError("%s: the slope fit needs at least two distinct "
                             "values, got %r" % (key, value))
    return rule


def _decreasing(key, value):
    if any(x <= y for x, y in zip(value, value[1:])):
        raise ValueError("%s must be strictly decreasing" % key)


def _two_particles(key, value):
    """A pitch fitting one particle in the unit box gives a zero counting
    sum, whose log the fit would take."""
    for d in value:
        if np.floor(1.0 / d + 1e-12) < 2:
            raise ValueError("%s: pitch %r fits one particle in the unit box, "
                             "whose counting sum is zero" % (key, d))


def _domain(key, doc):
    """DomainShape.from_dict's input: {"kind": "box", "extents": three
    positive numbers} or {"kind": "ball", "radius": a positive number},
    each with an optional "center" of three numbers."""
    if not isinstance(doc, dict):
        raise ValueError("%s must be an object, not %r" % (key, doc))
    kind = doc.get("kind")
    size = {"box": "extents", "ball": "radius"}.get(kind) \
        if isinstance(kind, str) else None
    if size is None:
        raise ValueError("%s.kind must be \"box\" or \"ball\", not %r"
                         % (key, kind))
    for name in doc:
        if name not in ("kind", size, "center"):
            raise ValueError("unknown key %r in a %s %s" % (name, kind, key))
    if size not in doc:
        raise ValueError("a %s %s needs %s.%s" % (kind, key, key, size))
    if size == "extents":
        _vector(key + ".extents", doc[size], positive=True)
    else:
        _positive(key + ".radius", doc[size])
    if "center" in doc:
        _vector(key + ".center", doc["center"])


def _grid(least=2):
    return {"grid_n": (20, _integer(least))}


_WAVE = {"theta": ([0.0, 0.0, 1.0], _vector),
         "p": ([1.0, 0.0, 0.0], _vector)}
_SCALES = {"h": (REQUIRED, _real), "eta0": (REQUIRED, _positive),
           "c0": (REQUIRED, _positive), "sign": (REQUIRED, _sign),
           "c_r": (REQUIRED, _positive), "lambda_b": (REQUIRED, _positive)}
_BOX = {"a": (REQUIRED, _real), **_SCALES, "theta": (REQUIRED, _vector),
        "p": (REQUIRED, _vector), "domain": (unit_box().to_dict(), _domain)}

# subcommand -> key -> (default or REQUIRED, check(key, value)); a check
# raises ValueError naming the key
SCHEMA = {
    "foldylax": _BOX,
    "lse": {**_BOX, **_grid()},
    "effective": {
        "xi_values": (REQUIRED, _list(_nonnegative)),
        "signs": (["+", "-"], _list(_sign)),
        "k": (0.0, _nonnegative), "delta": (1, _real),
        "diam_omega": (2.0, _positive),
        "vol_omega": (4.0 * math.pi / 3.0, _positive)},
    "converge": {"a_list": (REQUIRED, _list(_real, _decreasing)),
                 **_SCALES, **_WAVE, **_grid()},
    "resonance": {
        "eta0": _SCALES["eta0"], "lambda_b": _SCALES["lambda_b"],
        # at beta = 0, the exact dispersion root, the k=0 LSE operator that
        # preconditions the scan is singular
        "betas": (REQUIRED, _list(_number(" other than 0", lambda x: x != 0),
                                  _two_distinct(abs))),
        **_WAVE, "grid_n": (14, _integer(2)), "xi_off": (2.0, _real)},
    # exactly tiling pitches for the interior sums, ones leaving a
    # half-pitch layer for the boundary statistic
    "counting": {
        "pitches": ([1.0 / j for j in range(4, 13)],
                    _list(_pitch, _two_distinct(), _two_particles)),
        "boundary_pitches": ([1.0 / (j + 0.5) for j in range(6, 15)],
                             _list(_pitch, _two_distinct())),
        "refine": (4, _integer(1))},
    # the diagnostics need n >= 12; a count below 1 would slice eigenvalues
    # off the end of the list
    "spectrum": {
        **_grid(12), "mode": ("gradient", _one_of("gradient", "full")),
        "lmax": (10, _integer(1)),
        "count": (None, _integer(1, optional=True)),
        "domain": (unit_ball().to_dict(), _domain)},
}


def scales(config, a=None):
    """The ScaleSet of the config's scale keys, at a or config["a"]."""
    return derive_scales(config["a"] if a is None else a, config["h"],
                         config["eta0"], config["c0"], config["sign"],
                         config["c_r"], config["lambda_b"])


def _wave(config):
    IncidentWave(1.0, config["theta"], config["p"])


def _complement(config):
    for d in config["boundary_pitches"]:
        _, n, c = boundary_grid_counts(unit_box(), d, config["refine"])
        if np.array_equal(n, c):
            raise ValueError(
                "boundary_pitches: pitch %r leaves no quadrature point of "
                "refine=%d outside the particle cubes of the unit box (1/d "
                "is an integer or too close to one)" % (d, config["refine"]))


# checks of several keys, run once every key has passed its own
_CROSS = {"foldylax": (scales, _wave), "lse": (scales, _wave),
          "converge": (lambda c: [scales(c, a) for a in c["a_list"]], _wave),
          "resonance": (_wave,), "counting": (_complement,)}


def with_defaults(subcommand, config):
    """A copy of config with every absent key at its default."""
    filled = {key: copy.deepcopy(default)
              for key, (default, _) in SCHEMA[subcommand].items()
              if default is not REQUIRED}
    filled.update(config)
    return filled


def validate_config(config, subcommand):
    """The config with its defaults filled in, once every key is known,
    every required key present and every check passed; else ConfigError."""
    schema = SCHEMA[subcommand]
    for key in config:
        if key not in schema:
            raise ConfigError("unknown key %r for subcommand %r"
                              % (key, subcommand))
    for key, (default, _) in schema.items():
        if default is REQUIRED and key not in config:
            raise ConfigError("missing required key %r" % key)
    config = with_defaults(subcommand, config)
    try:
        for key, (_, check) in schema.items():
            check(key, config[key])
        for check in _CROSS.get(subcommand, ()):
            check(config)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(str(exc)) from exc
    return config
