"""Tests for repro.store.keys: canonical, versioned cache keys."""

import hashlib
import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.registry import ExperimentScale
from repro.store.codecs import SCHEMA_VERSION
from repro.store.keys import (
    cache_key,
    canonical_json,
    normalize,
    scale_payload,
)


def make_scale(**overrides):
    base = dict(
        name="smoke",
        sides=(256.0, 1024.0),
        steps=25,
        iterations=2,
        stationary_iterations=30,
        parameter_points=3,
        seed=7,
    )
    base.update(overrides)
    return ExperimentScale(**base)


class TestNormalize:
    def test_dict_key_order_is_canonical(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_sequences_and_numpy_scalars(self):
        assert normalize((1, 2.5, np.float64(3.5), np.int64(4))) == [1, 2.5, 3.5, 4]
        assert normalize(np.array([1.0, 2.0])) == [1.0, 2.0]

    def test_rejects_unrepresentable_values(self):
        with pytest.raises(ConfigurationError):
            normalize({1: "non-string key"})
        with pytest.raises(ConfigurationError):
            normalize(object())
        with pytest.raises(ConfigurationError):
            normalize(float("nan"))


class TestCacheKey:
    def test_stable_and_sensitive(self):
        key = cache_key("sweep", {"x": 1, "y": [1, 2]})
        assert key == cache_key("sweep", {"y": [1, 2], "x": 1})
        assert key != cache_key("sweep", {"x": 2, "y": [1, 2]})
        assert key != cache_key("sweep-row", {"x": 1, "y": [1, 2]})

    def test_schema_version_in_key(self):
        payload = {"x": 1}
        assert cache_key("sweep", payload) == cache_key(
            "sweep", payload, schema_version=SCHEMA_VERSION
        )
        assert cache_key("sweep", payload) != cache_key(
            "sweep", payload, schema_version=SCHEMA_VERSION + 1
        )


class TestScalePayload:
    def test_drops_name_and_execution_fields(self):
        a = make_scale(name="smoke", sweep_workers=1)
        b = make_scale(name="custom", sweep_workers=4)
        assert scale_payload(a) == scale_payload(b)
        assert "sweep_workers" not in scale_payload(a)
        assert "name" not in scale_payload(a)

    def test_sensitive_to_logical_fields(self):
        assert scale_payload(make_scale(seed=7)) != scale_payload(make_scale(seed=8))
        assert scale_payload(make_scale(steps=25)) != scale_payload(
            make_scale(steps=26)
        )

    def test_backend_is_pinned_to_numpy(self):
        assert scale_payload(make_scale())["backend"] == "numpy"


# --------------------------------------------------------------------------- #
# Property tests (hypothesis)
# --------------------------------------------------------------------------- #
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.keys import ITERATION_KIND, KEY_KINDS, ROW_KIND, SWEEP_KIND

#: Scalars that may appear in a cache-key payload.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=12),
)

#: Nested payloads: scalars, lists of payloads, string-keyed mappings.
payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


def shuffled_copy(mapping, seed):
    """The same mapping built in a different insertion order."""
    keys = list(mapping)
    random.Random(seed).shuffle(keys)
    return {key: mapping[key] for key in keys}


class TestKeyProperties:
    @given(
        st.dictionaries(st.text(min_size=1, max_size=8), payloads, max_size=6),
        st.integers(),
    )
    @settings(max_examples=80, deadline=None)
    def test_mapping_insertion_order_never_changes_a_key(self, mapping, seed):
        reordered = shuffled_copy(mapping, seed)
        assert canonical_json(mapping) == canonical_json(reordered)
        assert cache_key("sweep", mapping) == cache_key("sweep", reordered)

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
        st.text(min_size=1, max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_execution_knobs_never_change_a_key(self, sweep_a, sweep_b, name):
        """However a scale is named or parallelised, its payload — and
        therefore every key derived from it — is unchanged."""
        a = make_scale(name="smoke", sweep_workers=sweep_a)
        b = make_scale(name=name, sweep_workers=sweep_b)
        assert scale_payload(a) == scale_payload(b)
        assert cache_key("sweep", scale_payload(a)) == cache_key(
            "sweep", scale_payload(b)
        )

    @given(payloads, st.integers(min_value=0, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_schema_version_changes_every_key(self, payload, version):
        assert cache_key("sweep", payload, schema_version=version) != cache_key(
            "sweep", payload, schema_version=version + 1
        )

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8), scalars, min_size=1, max_size=4
        ),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=80, deadline=None)
    def test_iteration_sub_keys_disjoint_from_value_and_sweep_keys(
        self, sweep_payload, value, index
    ):
        """The three granularities of one sweep can never collide, even
        though each payload embeds the one above it."""
        sweep_key = cache_key(SWEEP_KIND, sweep_payload)
        row_key = cache_key(
            ROW_KIND, {"sweep": sweep_payload, "value": float(value)}
        )
        iteration_key = cache_key(
            ITERATION_KIND,
            {"sweep": sweep_payload, "value": float(value), "iteration": index},
        )
        assert len({sweep_key, row_key, iteration_key}) == 3

    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=80, deadline=None)
    def test_iteration_keys_distinct_across_values_and_indices(
        self, value_a, value_b, index_a, index_b
    ):
        payload = {"computation": "prop-test"}

        def key(value, index):
            return cache_key(
                ITERATION_KIND,
                {"sweep": payload, "value": value, "iteration": index},
            )

        # Compare by canonical rendering: 0.0 and -0.0 are == as floats
        # but are (correctly) distinct payloads and distinct keys.
        same = (
            canonical_json(value_a) == canonical_json(value_b)
            and index_a == index_b
        )
        if same:
            assert key(value_a, index_a) == key(value_b, index_b)
        else:
            assert key(value_a, index_a) != key(value_b, index_b)

    def test_key_kinds_are_distinct_strings(self):
        assert KEY_KINDS == {SWEEP_KIND, ROW_KIND, ITERATION_KIND}
        assert len(KEY_KINDS) == 3


# --------------------------------------------------------------------------- #
# Golden keys: the store's addresses must not move across versions
# --------------------------------------------------------------------------- #
import repro.experiments  # noqa: E402,F401  (registers fig2 and fig3)
from repro.campaigns import CampaignSpec  # noqa: E402
from repro.campaigns.runner import scenario_payload, scenario_sweep_key  # noqa: E402
from repro.experiments.registry import get_experiment, scale_by_name  # noqa: E402
from repro.store import ResultStore, StoreSweepCheckpoint  # noqa: E402

#: ``(scale, experiment) -> (sweep key, {side: (row key, first iteration
#: key)})``.  "grid" is the perfbench grid-cold scale (``perfbench/
#: workloads.py:grid_spec(1, FULL)``); "default" and "paper" are presets.
GOLDEN_KEYS = {
    ("grid", "fig2"): (
        "2812108e1a740b9b0e08811830cdcc701bcc7974cf23fc6c67236b5bf8f8db6c",
        {
            256.0: (
                "4c0114b2675c3b05f5ea67ed7ed90270705dff42f45e12a01e336a070e26a92f",
                "7c2931cface150a40dd5162cec8dcd5738ade428d6392d0e64150519b64667af",
            ),
            1024.0: (
                "3ba7d232e68b4390953b8b96a7661f0684273f6aad71eac7428e89780c9dabe0",
                "4df7d542d55fedc9501b1f2a7bea95f2ae7576452bafe4666a8ba5c8df547edf",
            ),
            4096.0: (
                "e93ae5816f208bdd200b4258c9431bd796bd9087aad62e14c3a58b1e234f81fd",
                "173d6d13b2752d363e3aa9d350241be00ca4707b0353cc011523077ece93d3ec",
            ),
            16384.0: (
                "7fc8ea4898a07a9453f90a3a37d710872c207a750ee2ccacbc47bc7fd0a4848f",
                "dab1e9a0af069b99f6d0de711f4594f7db0e9fd475c665519eca3d24607390a1",
            ),
        },
    ),
    ("grid", "fig3"): (
        "62d50d9e51bd848ca80c06db4f4df7fae9986c68cc9b1b40893a3143d25d2df3",
        {
            256.0: (
                "de4e1071a9376f7cd0e498084343d3a55a0744d4ebd8b1e774bf0613adf94678",
                "3227e84e91e6ad0eab93cc8e97145be7539b4cd852dddefbe6fb1aada17b2560",
            ),
            1024.0: (
                "5ff0e9c2b8feb00c57fb4129f501b1a665bc424c526112d850a865a7d47692bf",
                "b5af60c39b35bb829e78fca065709efc63ede4e0d4b4d11d8f43bddca444616f",
            ),
            4096.0: (
                "8a08bccdc1b26e096c6f1b4b8eec51c90a10f6102fe7728c84650879d3ebd39c",
                "06857dcb6739e7bfe01056bd4e440d246c435660251512fab6e80de0bc8968d3",
            ),
            16384.0: (
                "62dbab1a70b12370535595e8def584fea3adf58db61f32d7d0a80a56e99ac1bd",
                "da0f84346da285a0d91dd5ac54e2155295feb326b4db0c3375f879f85a6bf86c",
            ),
        },
    ),
    ("default", "fig2"): (
        "49d8e212abf45a0a5eaffc64d154838371a21f41aa5774f4a84ef0cb3d76d560",
        {
            256.0: (
                "c3f78f70e1aea2b7067a73abcea95a56a3362230d19ccd0a84ed2932073aa9aa",
                "dc4cfdb3fea50049a827e07b4500e3d99708300173877de89bf304b5a01d1078",
            ),
            1024.0: (
                "f902a3965a1a67c718a704e279297bbe6d835497b1bb7a7c5b570f48f8f29b33",
                "5ad1510f49996bbd6b7320ea6a384d8d8568d88eb61ae42d7bd84838cf17f06c",
            ),
            4096.0: (
                "f6b389be8c608f7b4d36ae5f675c19d61fff087938c8991700d39846e599716c",
                "c714a66e24d800831d31ebf7a226860c092c7f74bee1c21e8a4632ec4d80cad4",
            ),
            16384.0: (
                "dfeae48d262db375876d690d643a31a41b4fb1bacf1af349cd391cdf28975e12",
                "2a7af9dcb3000d8549eb626a395682bd3a2201d946b22e1e38cb2a580b7934f1",
            ),
        },
    ),
    ("default", "fig3"): (
        "16c401cc65e8cddfcb70e227cd3a41eb2c13c643cab5f2d1b90d6b6736fdfb82",
        {
            256.0: (
                "201578e2bad0c551ea4c72ca2daf880f9a59123686b82b1e0a5f144f83c656c5",
                "9c5c238ffab1fa7c1d8cbe1b8fedda058315db36fdf3233abd0b396ed2c1afa8",
            ),
            1024.0: (
                "5ee8378dcf2630239b4a82d0f98deb453a1e0d32208cbf13289c757e60dacb80",
                "4dd77001a40185b7f92dbfc6c6ac8c94f06be5a11b3ff95abb3d5cea2605656b",
            ),
            4096.0: (
                "cfb96515d416cf9d5a1e6233dd81310fcdb108a98e2f988c6ede830e7b05f20b",
                "e169515a61efa098b303697539bc61259e39910a377f4309eaaba94f95d1d271",
            ),
            16384.0: (
                "b2f10a88738a558eb89ca93aee67631d3e020189b0d7d0b5129f3adb0d4e9058",
                "62c4ad8c1eb591d4aeb49467d9fa0ba86274fb0ee1da37e9b7e839aed1c974a0",
            ),
        },
    ),
    ("paper", "fig2"): (
        "3d085fb24bd14a7f7f905c8f027d8b709053fe4013d2e16b940d96b25552abe2",
        {
            256.0: (
                "e0ff2ad71d49d9585ef4b04bcff952c5c461bc47fa1b29779161832aa0115782",
                "578362fc03e035dd6fa3e4c41971a79a4fa52425b19da8c86164c23333a21ff6",
            ),
            1024.0: (
                "26a09b441720236c92249ebd2ff7ff5638851df10e2e42d18bb36bb33eec8d6f",
                "6131a1cf2f3d2f0b47202aec0770557f980bfb649b47de4b05740319b1cbc44d",
            ),
            4096.0: (
                "eef374002bb3e15cf3a519cc32cf81cc12b5f4f223b9c15f9df520f84a4b2924",
                "ffb5cba6b92acacb79f300328393860cb87e378e4825e41c3a2cd4c09dfa23fb",
            ),
            16384.0: (
                "89cecbd8a9ddf80ad08c2f7e6a1b9d092026a40fa07175d4a6d9c4349c44bdd5",
                "c9dcd47db331f8ae41b620c4f3583ecd657eb786a4162b96aebde11993e3ee50",
            ),
        },
    ),
    ("paper", "fig3"): (
        "40825a2a95f47b9df62d5b1e3c7bdf463999133503ae5e63ba272f66ea196277",
        {
            256.0: (
                "0097f91fefca2b17665f3bf00d575e0f612f21d80a46e90419f75f7c9a1c18cc",
                "8b575c8254487a9148f2d9f834ded572855875d112a44dee40dc42c04ca0c043",
            ),
            1024.0: (
                "467e694721a33b2ed84c9c19c2cff3784b5e879ff2cadeab9a18f4e73977cd8c",
                "c299e7bc6a6064af82c7a5aacd8bfa59a1033ef69a8c2da4284db8cd3387b4f3",
            ),
            4096.0: (
                "608a3965854973916ea994f7da964d79ff89ad117a7d9ff6fb60482eb614dd76",
                "8ec4b2b3ea1094ee195cafe58a604c8e1b00a8e7283631676be26b9c6540fb24",
            ),
            16384.0: (
                "e507842572d2f7641b6d244d3deefc15cd3e970108bdd37adfca0c1696c29dca",
                "8ceb64db21cc47250d77256e482df16958e4143cec7cbcb29e385ad8f23daaa8",
            ),
        },
    ),
}


def golden_scales():
    grid = CampaignSpec(
        name="perfbench-grid",
        experiments=("fig2", "fig3"),
        scale="default",
        overrides=(
            ("steps", 1000),
            ("iterations", 4),
            ("stationary_iterations", 8),
            ("seed", 1),
        ),
    )
    scales = {("grid", s.experiment_id): s.scale for s in grid.scenarios()}
    for preset in ("default", "paper"):
        for experiment_id in ("fig2", "fig3"):
            scales[(preset, experiment_id)] = scale_by_name(preset)
    return scales


class TestGoldenKeys:
    """Sweep, row and iteration keys equal the ones earlier versions wrote,
    so execution fields removed from the scale never reached a key and
    stores written before stay warm."""

    @pytest.mark.parametrize("cell", sorted(GOLDEN_KEYS))
    def test_keys_match_the_pinned_values(self, cell, tmp_path):
        experiment = get_experiment(cell[1])
        scale = golden_scales()[cell]
        sweep_key, rows = GOLDEN_KEYS[cell]
        assert scenario_sweep_key(experiment, scale) == sweep_key
        checkpoint = StoreSweepCheckpoint(
            ResultStore(tmp_path / "store"),
            scenario_payload(experiment, scale),
            iterations=experiment.checkpoint_iterations(scale),
        )
        assert tuple(experiment.sweep_values(scale)) == tuple(rows)
        for value, (row_key, iteration_key) in rows.items():
            assert checkpoint.key_for(value) == row_key
            assert checkpoint.iteration_checkpoint(value).key_for(0) == iteration_key


#: ``(preset, experiment) -> (sweep key, rows digest)`` for every registered
#: experiment at every preset not pinned key by key above.  The digest is
#: the SHA-256 of the JSON list ``[[value, row key, first iteration key or
#: null], ...]`` in sweep order, so one line pins every row address.
GOLDEN_PRESET_DIGESTS = {
    ("smoke", "energy-tradeoff"): (
        "dfde00026de28d0fe64cf43fa9914eaa1d3c334e9b8f53f0c6ed2c0dffbce0eb",
        "5e616b4230b9f8e9d00592d8885dece95c0bd9943f49cceb04414f63c2abca31",
    ),
    ("smoke", "fig2"): (
        "86e5bbfb27340003e2068b36ba67ae85f94dd0cd7d1082fb7cd7f4aae628de98",
        "c5f227088854e0cfa94871cc1605ac165addb24249fd221726ee54e725237e0d",
    ),
    ("smoke", "fig3"): (
        "02d8eba2727bbf7860ac3e5611e8f6ccd197dcf96ed747a572e76fdbe1b79737",
        "70fb3e3b9964ab0bfc1c0ba9e04e20c373260b47853dca9adb11f1665cc87147",
    ),
    ("smoke", "fig4"): (
        "86e5bbfb27340003e2068b36ba67ae85f94dd0cd7d1082fb7cd7f4aae628de98",
        "c5f227088854e0cfa94871cc1605ac165addb24249fd221726ee54e725237e0d",
    ),
    ("smoke", "fig5"): (
        "02d8eba2727bbf7860ac3e5611e8f6ccd197dcf96ed747a572e76fdbe1b79737",
        "70fb3e3b9964ab0bfc1c0ba9e04e20c373260b47853dca9adb11f1665cc87147",
    ),
    ("smoke", "fig6"): (
        "86e5bbfb27340003e2068b36ba67ae85f94dd0cd7d1082fb7cd7f4aae628de98",
        "c5f227088854e0cfa94871cc1605ac165addb24249fd221726ee54e725237e0d",
    ),
    ("smoke", "fig7"): (
        "62abf8cad786c505dffc876a259a1b6850792c15a646b4ab8cac431c919d4e71",
        "0112be27196a2aed0c349dba25913dd221e2f655e9e4ac4351d83ab79142f06f",
    ),
    ("smoke", "fig8"): (
        "2095cf982181a5c01bfe1286bec341ea6d5c66d8811181e96b5c7acfa3e6bc1b",
        "6bf1e3dc6ca074a2bff0ceef980185259a5f70962c543f62702267f5126b26bd",
    ),
    ("smoke", "fig9"): (
        "3c4348f92166d4eb4fd90753732d6337cfe71f6e8bbbbc1a6c3cea331f280e13",
        "0cd553132ccc5999c66032a657dd266d317a358b131cd2ac2314b976bbf20603",
    ),
    ("smoke", "occupancy-domains"): (
        "f2ce482ea3869d8d1ba298f13193359e22ffc98d4682fa9baf9a044b1eecc3ef",
        "a1b9161b8f1cdc453332429eeb6a3215c203883231f568118ec02dd476766a29",
    ),
    ("smoke", "stationary-critical-range"): (
        "de37edbb5c866592ceebdf622c86bc06bcb3f744fa62e2cdd192501309d84583",
        "146feed0396cd7ad54259d6fdfb328475b71255b525b13fa9797a048943c830f",
    ),
    ("smoke", "theorem5-1d"): (
        "b7df97e0d51785f8c5c4e57e12a8063e573e1b89990106e954d338eac85e260f",
        "714c5ae615d7e09cc5e65766e96f771409a709ed5361e70671ba405e93db6f8e",
    ),
    ("default", "energy-tradeoff"): (
        "cd91f78315c8907b228226597e217abefd8cbfff01f2334d9ce44750c4de9a27",
        "6e53c44ebf06ec71d2fd573a71b87e1f8c5a03b67151c76c7aec669264c6bf29",
    ),
    ("default", "fig4"): (
        "49d8e212abf45a0a5eaffc64d154838371a21f41aa5774f4a84ef0cb3d76d560",
        "7f888f7ed8a473f6e96cd6f9d27f7808505cde8f2c4c21aa969d80cef1307d78",
    ),
    ("default", "fig5"): (
        "16c401cc65e8cddfcb70e227cd3a41eb2c13c643cab5f2d1b90d6b6736fdfb82",
        "36f346c35c51c3cbaffc51efd98a75d5c656b08f64ccc2e074dc8c4d246b9957",
    ),
    ("default", "fig6"): (
        "49d8e212abf45a0a5eaffc64d154838371a21f41aa5774f4a84ef0cb3d76d560",
        "7f888f7ed8a473f6e96cd6f9d27f7808505cde8f2c4c21aa969d80cef1307d78",
    ),
    ("default", "fig7"): (
        "1cfec5935f01ce58b892ca6eb4acff1c30850c56d591bea60ebb59905b0731a5",
        "71f275f64868423ba4e790e6992903ca321a08b32ebe281c289b7e7ca7db7758",
    ),
    ("default", "fig8"): (
        "8d7ce0b66ec61848ac3fd7f7e760d99f816cf767feef0e5d2aceae20461390b1",
        "c6d5874ebb7969abff3bb6fdef0558f7f5cde8ea3b58cdcafa1e0f3de957f9d7",
    ),
    ("default", "fig9"): (
        "0ae5b9bf822518ce9c4d2440ab5db6e900c734a1c25f3cbe45600b5e30c9f68b",
        "26f320a81d151a2a42c5a67c9f2de3e69a09889e5872e71c00568f1c0c9fa6ae",
    ),
    ("default", "occupancy-domains"): (
        "d20ab4ebb156e3ec60f1819806055327a67e93440b2c9bb7884699274c96eac0",
        "a3ab9b73e3263064acf0e722ac5a4c1ff1a081254dfb50f363d0782bd5d8167e",
    ),
    ("default", "stationary-critical-range"): (
        "e02045d13b4ca39a9390879fd63cd25e53cae05f187ccb6377806fb9b517581c",
        "263ab6a5b05afaa704196bdbfcab126f5650b7ac72b99c6040edbb1fd85ac00e",
    ),
    ("default", "theorem5-1d"): (
        "b6e28a6561055764f47b4c9faaa3cca18cd96d823592c65722e93443f85b113e",
        "a1ef91d43b43a665b03d686668cd7aae71fc1a8aa555b2cfe9560c36108f7e79",
    ),
    ("paper", "energy-tradeoff"): (
        "265206a7e5f154c969de44160e9093e58bb25655149120d2cb9bd4c97cad208b",
        "b13d59e5ad1d7c0322ac62fb620a63a8ffda577488ec73933a6af4ea4f7a8f43",
    ),
    ("paper", "fig4"): (
        "3d085fb24bd14a7f7f905c8f027d8b709053fe4013d2e16b940d96b25552abe2",
        "54bb1759a2bee5b82331e1849bbbaa5636a609aed858772a6cfa8a80605a1722",
    ),
    ("paper", "fig5"): (
        "40825a2a95f47b9df62d5b1e3c7bdf463999133503ae5e63ba272f66ea196277",
        "21b5c1e763e2ab0fe33ff0fc0ff98db3347075a5a45b0538c9964b06f91bf7d9",
    ),
    ("paper", "fig6"): (
        "3d085fb24bd14a7f7f905c8f027d8b709053fe4013d2e16b940d96b25552abe2",
        "54bb1759a2bee5b82331e1849bbbaa5636a609aed858772a6cfa8a80605a1722",
    ),
    ("paper", "fig7"): (
        "af1528b4ae489cca390385f8a4f4df37979d7109aea4fab916ea9311093e6129",
        "54c0d442910ebdd22e147d523622a6627122a81f36faf9c1b922114ddb5d75ec",
    ),
    ("paper", "fig8"): (
        "ccd89b7d08a4b167e8de98ea4fbe6e0ac031fa11150f78aca269f25667a4aeab",
        "5a957dd69999decca12efa2857bd7fb4b5444eafd4e80107dd6282d1b258285c",
    ),
    ("paper", "fig9"): (
        "17c021ec46bb0de86e22fb142eab65b2910da17ee5f0f85ac84eb17f11406f98",
        "f711cfba85050de41bc742b26586c89cb8d6a4681535a80264e44fab66fb8923",
    ),
    ("paper", "occupancy-domains"): (
        "6304c45bf1000a467a3650e6dede852110eb76c1be6afc5e6c110668b4185970",
        "a814a8b949dbd652241ff48954aaa2d321d3b95df63e34cb0c72f90fc2e9bd92",
    ),
    ("paper", "stationary-critical-range"): (
        "6bf2597857476b2af07a548b5620742a35c7b84c987bc582a3cd2309a6479fb7",
        "fa94db8129b9120bd0d5791848e83f5e983d4c2d93d652c544b6cdcf6514b8e8",
    ),
    ("paper", "theorem5-1d"): (
        "3f58c91691e08b2567725627c63feabd49538b27f194272ec59a5e6eb61c38e2",
        "fed6703c6fe3ea1c1373faa504882d550961db1d6e3d098b1a07f533497e59e6",
    ),
}


def rows_digest(experiment, scale, checkpoint):
    rows = []
    for value in experiment.sweep_values(scale):
        iteration = checkpoint.iteration_checkpoint(value)
        rows.append([
            float(value),
            checkpoint.key_for(value),
            None if iteration is None else iteration.key_for(0),
        ])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class TestGoldenKeysEveryExperiment:
    """Every registered experiment keeps its store addresses at every
    preset, so no execution field ever reached any experiment's key."""

    def test_every_registered_experiment_is_pinned(self):
        from repro.experiments.registry import SCALES, list_experiments

        pinned = set(GOLDEN_PRESET_DIGESTS) | {
            cell for cell in GOLDEN_KEYS if cell[0] != "grid"
        }
        # Experiments other test modules register on the fly are not the
        # package's own and carry no stored results worth pinning.  A
        # measure factory may be a ``functools.partial``: look through it
        # to the function that defines it.
        built_in = [
            experiment
            for experiment in list_experiments()
            if getattr(
                experiment.sweep_measure, "func", experiment.sweep_measure
            ).__module__.startswith("repro.")
        ]
        assert pinned == {
            (preset, experiment.identifier)
            for preset in SCALES
            for experiment in built_in
        }

    @pytest.mark.parametrize(
        "cell", sorted(GOLDEN_PRESET_DIGESTS), ids="{0[0]}-{0[1]}".format
    )
    def test_keys_match_the_pinned_digest(self, cell, tmp_path):
        experiment = get_experiment(cell[1])
        scale = scale_by_name(cell[0])
        sweep_key, digest = GOLDEN_PRESET_DIGESTS[cell]
        assert scenario_sweep_key(experiment, scale) == sweep_key
        checkpoint = StoreSweepCheckpoint(
            ResultStore(tmp_path / "store"),
            scenario_payload(experiment, scale),
            iterations=experiment.checkpoint_iterations(scale),
        )
        assert rows_digest(experiment, scale, checkpoint) == digest
