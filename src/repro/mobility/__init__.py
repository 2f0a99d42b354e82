"""Mobility models.

The paper's mobile simulations (Section 4) use two models:

* the **random waypoint** model of Johnson & Maltz, parameterised by
  ``pstationary``, ``vmin``, ``vmax`` and ``tpause`` — intentional motion;
* a **drunkard** model, parameterised by ``pstationary``, ``ppause`` and the
  step radius ``m`` — non-intentional (random-walk) motion.

Both include the paper's extra ``pstationary`` parameter: a fraction of
nodes that never move (sensors stuck in a bush, or a mixed deployment of
static and mobile devices).

Two further models, random direction and Gauss–Markov, are provided as
extensions used by the "does the mobility model matter?" ablation.
All models share the :class:`~repro.mobility.base.MobilityModel` interface:
``initialize(positions, rng)`` followed by repeated ``step(rng)`` calls,
each returning the new ``(n, d)`` position array.
"""

from repro.mobility.base import MobilityModel, MobilityState
from repro.mobility.boundary import BoundaryPolicy
from repro.mobility.drunkard import DrunkardModel
from repro.mobility.gauss_markov import GaussMarkovModel
from repro.mobility.group import ReferencePointGroupModel
from repro.mobility.random_direction import RandomDirectionModel
from repro.mobility.stationary import StationaryModel
from repro.mobility.trace import MobilityTrace, record_trace
from repro.mobility.waypoint import RandomWaypointModel

__all__ = [
    "BoundaryPolicy",
    "DrunkardModel",
    "GaussMarkovModel",
    "MobilityModel",
    "MobilityState",
    "MobilityTrace",
    "RandomDirectionModel",
    "RandomWaypointModel",
    "ReferencePointGroupModel",
    "StationaryModel",
    "record_trace",
]


def model_by_name(name: str, **parameters):
    """Instantiate a mobility model from its short name.

    Recognised names: ``stationary``, ``waypoint``, ``drunkard``,
    ``random-direction``, ``gauss-markov``, ``rpgm``.  Keyword arguments are
    passed through to the model constructor.
    """
    from repro.exceptions import ConfigurationError

    models = {
        "stationary": StationaryModel,
        "waypoint": RandomWaypointModel,
        "drunkard": DrunkardModel,
        "random-direction": RandomDirectionModel,
        "gauss-markov": GaussMarkovModel,
        "rpgm": ReferencePointGroupModel,
    }
    try:
        factory = models[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown mobility model {name!r}; expected one of {sorted(models)}"
        ) from None
    return factory(**parameters)
