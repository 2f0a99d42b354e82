"""Mobility models.

The paper's mobile simulations (Section 4) use two models:

* the **random waypoint** model of Johnson & Maltz, parameterised by
  ``pstationary``, ``vmin``, ``vmax`` and ``tpause`` — intentional motion;
* a **drunkard** model, parameterised by ``pstationary``, ``ppause`` and the
  step radius ``m`` — non-intentional (random-walk) motion.

Both include the paper's extra ``pstationary`` parameter: a fraction of
nodes that never move (sensors stuck in a bush, or a mixed deployment of
static and mobile devices).

A third, :class:`~repro.mobility.stationary.StationaryModel`, never moves
any node; the stationary critical range binds its placements to it.
All models share the :class:`~repro.mobility.base.MobilityModel` interface:
``initialize(positions, rng)`` followed by repeated ``step(rng)`` calls,
each returning the new ``(n, d)`` position array, or one ``trajectory``
call returning a whole block of frames.
"""

from repro.mobility.base import MobilityModel, MobilityState
from repro.mobility.drunkard import DrunkardModel
from repro.mobility.stationary import StationaryModel
from repro.mobility.waypoint import RandomWaypointModel

__all__ = [
    "DrunkardModel",
    "MobilityModel",
    "MobilityState",
    "RandomWaypointModel",
    "StationaryModel",
]


def model_by_name(name: str, **parameters):
    """Instantiate a mobility model from its short name.

    Recognised names: ``stationary``, ``waypoint`` and ``drunkard``.
    Keyword arguments are passed through to the model constructor.
    """
    from repro.exceptions import ConfigurationError

    models = {
        "stationary": StationaryModel,
        "waypoint": RandomWaypointModel,
        "drunkard": DrunkardModel,
    }
    try:
        factory = models[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown mobility model {name!r}; expected one of {sorted(models)}"
        ) from None
    return factory(**parameters)
