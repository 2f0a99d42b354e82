"""Property tests: query → grid-key normalization never diverges from the runner.

The query service's one hard invariant is key identity: for any campaign
grid and any in-grid query, the store keys the resolver emits are
bitwise-equal to the keys the campaign runner writes.  Out-of-grid
queries are flagged, never silently clamped onto a grid key.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns import CampaignRunner, CampaignSpec
from repro.experiments.registry import get_experiment
from repro.query import GridIndex, Query, resolve
from repro.store import ResultStore

#: Grid sides drawn from the paper's ballpark; unique and positive.
SIDES = st.lists(
    st.sampled_from([64.0, 256.0, 576.0, 1024.0, 2048.0, 4096.0, 16384.0]),
    min_size=1,
    max_size=5,
    unique=True,
).map(sorted)

EXPERIMENTS = st.sampled_from(["fig2", "fig3"])  # waypoint and drunkard

PROBABILITIES = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def spec_with_sides(experiment, sides):
    return CampaignSpec(
        name="prop-grid",
        experiments=(experiment,),
        scale="smoke",
        overrides=(("sides", tuple(sides)),),
    )


@given(experiment=EXPERIMENTS, sides=SIDES, probability=PROBABILITIES)
@settings(max_examples=60, deadline=None)
def test_in_grid_keys_equal_the_runners_keys_bitwise(
    tmp_path_factory, experiment, sides, probability
):
    spec = spec_with_sides(experiment, sides)
    grid = GridIndex(spec)
    scenario = next(iter(spec.scenarios()))
    runner = CampaignRunner(
        spec, store=ResultStore(tmp_path_factory.mktemp("store"))
    )
    checkpoint = runner._checkpoint_for(
        get_experiment(scenario.experiment_id), scenario
    )
    query_model = "drunkard" if experiment == "fig3" else "waypoint"
    for side in sides:
        resolved = resolve(grid, Query(
            model=query_model, side=side, probability=probability
        ))
        assert resolved.exact == side
        assert not resolved.out_of_grid
        assert resolved.row_keys == (checkpoint.key_for(side),)


@given(
    sides=SIDES,
    probability=PROBABILITIES,
    offset=st.floats(min_value=1.0, max_value=100000.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_out_of_grid_is_flagged_never_clamped(sides, probability, offset):
    spec = spec_with_sides("fig2", sides)
    grid = GridIndex(spec)
    for side in (min(sides) / (1.0 + offset), max(sides) + offset):
        if side <= 0 or side in sides:
            continue
        resolved = resolve(grid, Query(side=side, probability=probability))
        assert resolved.out_of_grid
        assert resolved.exact is None  # never promoted to a grid hit
        assert resolved.side == side  # the queried side is preserved
        # The edge cell is named for extrapolation, but as itself.
        assert resolved.bracket in ((min(sides),), (max(sides),))


@given(sides=SIDES, probability=PROBABILITIES)
@settings(max_examples=60, deadline=None)
def test_between_grid_points_brackets_the_true_neighbors(sides, probability):
    spec = spec_with_sides("fig2", sides)
    grid = GridIndex(spec)
    for low, high in zip(sides, sides[1:]):
        middle = (low + high) / 2.0
        if middle in (low, high):
            continue
        resolved = resolve(grid, Query(side=middle, probability=probability))
        assert not resolved.out_of_grid
        assert resolved.bracket == (low, high)
        assert len(resolved.row_keys) == 2
