"""Every experiment's rows, pinned by digest.

``GOLDEN_KEYS`` (``tests/store/test_keys.py``) pins the cache keys a
campaign writes under; this pins what it writes.  Each digest is the
sha256 of ``json.dumps(rows, sort_keys=True)`` for ``Experiment.run`` at
the ``smoke`` scale, on both lanes of the MST kernel and growth-curve
sweep.  ``fig2`` and ``fig3`` are pinned again at 2000 steps: over both
smoke sides and iterations, 25 steps see 6 waypoint arrivals and 19
drunkard wall reflections, 2000 steps see 95 arrivals (each followed by
a pause and a new leg) and 764 reflections.

A change that keeps the science (a refactor, a faster kernel, a deleted
code path no experiment runs) leaves every digest alone; a change that
moves one changes a figure, and must say so.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.registry import SCALES, get_experiment, list_experiments

SMOKE = SCALES["smoke"]

#: ``(experiment, steps)`` → sha256 of the rows.  Figures 4 and 6 reuse
#: Figure 2's sweep and Figure 5 reuses Figure 3's, so their rows match.
GOLDEN_ROWS = {
    ("energy-tradeoff", 25): "a23dd66c59b421c2b5ff8ef4fcbd7242aede22253694d2fee0cd8812bee2997b",
    ("fig2", 25): "e9f91a1fbf19ec19b06527f2a07540a374d743b301652c505080141dfb50d505",
    ("fig3", 25): "51feea078d83bc81f3c600aa51fe6fe73b65ed23b34214e8de4f5caf2a885be3",
    ("fig4", 25): "e9f91a1fbf19ec19b06527f2a07540a374d743b301652c505080141dfb50d505",
    ("fig5", 25): "51feea078d83bc81f3c600aa51fe6fe73b65ed23b34214e8de4f5caf2a885be3",
    ("fig6", 25): "e9f91a1fbf19ec19b06527f2a07540a374d743b301652c505080141dfb50d505",
    ("fig7", 25): "6a4e88b31530794aa44eea998ae948ae480612f29f248507531e1f97560c68ae",
    ("fig8", 25): "0acfa3617ff240caea4da2e5913a7e3fe2a89725dd2c6b9baebf8b5252c3e3eb",
    ("fig9", 25): "88c553ea8b40eb1dd1bd0afec46d77cf8a3d491ce9873c9fa519556e2fc2995f",
    ("occupancy-domains", 25): "5f1dcaabb12bf370cc6adcfaf340e9b2973745dc088b4805bf08c66ebba462cb",
    ("stationary-critical-range", 25): "5373302c221cb723166d3431088efd7400c54fc4765857aaba55d9cd511bb3f3",
    ("theorem5-1d", 25): "79a44166acbbcc3effa436998f64115fe8eba44b80d1b361af873819bdd3769f",
    ("fig2", 2000): "924cdd5a54bfc08f882f5d3e56f6bb63b728a1d2dc95be60b2b82d5357ed8b2f",
    ("fig3", 2000): "4803395dda3b18614db5708091cbe4a0ae1e107d0e01c431134e8534264ab0f8",
}


def rows_digest(rows):
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def test_every_experiment_is_pinned_at_smoke():
    assert SMOKE.steps == 25
    pinned = {identifier for identifier, steps in GOLDEN_ROWS if steps == SMOKE.steps}
    assert pinned == {experiment.identifier for experiment in list_experiments()}


@pytest.mark.parametrize(
    "identifier, steps",
    sorted(GOLDEN_ROWS),
    ids=[f"{identifier}@{steps}" for identifier, steps in sorted(GOLDEN_ROWS)],
)
def test_rows_match_their_digest(identifier, steps, kernel_lane):
    scale = dataclasses.replace(SMOKE, steps=steps)
    rows = get_experiment(identifier).run(scale).rows
    assert rows_digest(rows) == GOLDEN_ROWS[identifier, steps]
