"""Zero-behaviour-change net for the experiment harnesses.

Every sweep entry point runs once per supported result knob at tiny
sizes on a recording runner, and four observations are pinned as
literals: how many ``SweepRunner.run`` batches it issued, the cache key
of the first task it submitted (one per task function and knob), a
digest of every submitted key and label in submission order (task
order, seed rule, parameter sets, what a results database shows), and a
digest of ``repr(result)``.

The literals were recorded at the last commit before the harnesses
moved onto ``sweep_cells``; a refactor must leave them alone —
re-recording them hides the change they exist to catch.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import (
    certify,
    chaos,
    fig3_1,
    fig4_4,
    fig4_5,
    fig4_6,
    fig4_8,
    fig4_9,
    fig4_10,
    fig4_11,
    fig5_3,
    grid_spread,
    islands,
    link_crashes,
    policy_compare,
    protocol_frontier,
)
from repro.experiments.common import ExperimentOptions
from repro.noc.topology import Mesh2D
from repro.policies import PolicySpec
from repro.runners import SweepRunner

MP3 = dict(n_frames=2, repetitions=2, seed=3, max_rounds=600)

#: name -> (harness call taking ``options``, result knobs it supports)
CASES = {
    "fig3_1.run": (
        lambda o: fig3_1.run(n=64, repetitions=2, seed=3, options=o), ()
    ),
    "fig3_1.run_scaling": (
        lambda o: fig3_1.run_scaling(
            sizes=(32, 64), repetitions=2, seed=3, options=o
        ),
        (),
    ),
    "fig4_4.run[master_slave]": (
        lambda o: fig4_4.run(
            "master_slave", dead_tile_counts=(0, 1), probabilities=(1.0, 0.5),
            repetitions=2, seed=3, max_rounds=200, options=o,
        ),
        ("collect_metrics",),
    ),
    "fig4_4.run[fft2d]": (
        lambda o: fig4_4.run(
            "fft2d", dead_tile_counts=(0, 1), probabilities=(1.0, 0.5),
            repetitions=2, seed=3, max_rounds=200, options=o,
        ),
        ("collect_metrics",),
    ),
    "fig4_5.run": (
        lambda o: fig4_5.run(
            dead_tile_counts=(0, 1), upset_levels=(0.0, 0.3),
            repetitions=2, seed=3, max_rounds=600, options=o,
        ),
        (),
    ),
    "fig4_6.run": (
        lambda o: fig4_6.run(n_runs=2, n_terms=60, seed=3, options=o), ()
    ),
    "fig4_8.run": (
        lambda o: fig4_8.run(
            probabilities=(1.0, 0.5), upset_levels=(0.0, 0.3), options=o,
            **MP3,
        ),
        (),
    ),
    "fig4_9.run": (
        lambda o: fig4_9.run(probabilities=(0.5, 1.0), options=o, **MP3), ()
    ),
    "fig4_10.run_overflow": (
        lambda o: fig4_10.run_overflow(levels=(0.0, 0.5), options=o, **MP3),
        (),
    ),
    "fig4_10.run_synchronization": (
        lambda o: fig4_10.run_synchronization(
            levels=(0.0, 0.5), options=o, **MP3
        ),
        (),
    ),
    "fig4_11.run_overflow": (
        lambda o: fig4_11.run_overflow(levels=(0.0, 0.5), options=o, **MP3),
        (),
    ),
    "fig4_11.run_synchronization": (
        lambda o: fig4_11.run_synchronization(
            levels=(0.0, 0.5), options=o, **MP3
        ),
        (),
    ),
    "fig5_3.run": (
        lambda o: fig5_3.run(
            cluster_side=2, n_sensors=4, n_frames=1, repetitions=2, seed=3,
            max_rounds=2500, options=o,
        ),
        (),
    ),
    "grid_spread.measure_spread": (
        lambda o: grid_spread.measure_spread(
            Mesh2D(3, 3), repetitions=2, seed=3, options=o
        ),
        ("collect_metrics", "backend"),
    ),
    "grid_spread.run": (
        lambda o: grid_spread.run(side=3, repetitions=2, seed=3, options=o),
        ("collect_metrics", "backend"),
    ),
    "islands.run": (
        lambda o: islands.run(repetitions=2, n_terms=60, seed=3, options=o),
        (),
    ),
    "islands.run_voltage_sweep": (
        lambda o: islands.run_voltage_sweep(
            voltages=(1.0, 0.6), repetitions=1, seed=3, options=o
        ),
        (),
    ),
    "link_crashes.run": (
        lambda o: link_crashes.run(
            dead_link_counts=(0, 4), repetitions=2, n_terms=60, seed=3,
            options=o,
        ),
        (),
    ),
    "chaos.run": (
        lambda o: chaos.run(
            kinds=("burst_upsets", "link_flap"), levels=(0.0, 0.5), side=3,
            repetitions=2, seed=3, max_rounds=24, options=o,
        ),
        ("collect_metrics", "backend"),
    ),
    "policy_compare.run": (
        lambda o: policy_compare.run(
            side=3, upset_rates=(0.0, 0.2), overflow_rates=(0.2,),
            link_crash_counts=(2,), repetitions=2, seed=3, max_rounds=24,
            options=o,
        ),
        ("backend",),
    ),
    "protocol_frontier.run": (
        lambda o: protocol_frontier.run(
            side=3, upset_rates=(0.0, 0.4), link_crash_counts=(2,),
            repetitions=2, seed=3, max_rounds=32, deadline_rounds=8,
            options=o,
        ),
        ("backend",),
    ),
    "protocol_frontier.certify_frontier": (
        lambda o: protocol_frontier.certify_frontier(
            protocols=(PolicySpec.of("push_pull"),), levels=(0.0,), side=3,
            seed=3, max_rounds=48, max_replicates=8, options=o,
        ),
        ("backend",),
    ),
    "certify.certify_chaos_envelope": (
        lambda o: certify.certify_chaos_envelope(
            kinds=("burst_upsets",), levels=(0.0,), side=3, seed=3,
            max_rounds=48, max_replicates=8, options=o,
        ),
        ("backend",),
    ),
}

VARIANTS = {
    "default": {},
    "collect_metrics": {"collect_metrics": True},
    "backend": {"backend": "fast"},
}


class RecordingRunner(SweepRunner):
    """A serial runner that keeps every batch it is handed."""

    def __init__(self) -> None:
        super().__init__()
        self.batches: list[list] = []

    def run(self, tasks, **kwargs):
        """Record the batch, then execute it unchanged."""
        batch = list(tasks)
        self.batches.append(batch)
        return super().run(batch, **kwargs)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def observe(case: str, variant: str) -> tuple[int, str, str, str]:
    """``(batches, first key, sha of keys + labels, sha of repr(result))``."""
    harness, _ = CASES[case]
    runner = RecordingRunner()
    result = harness(ExperimentOptions(runner=runner, **VARIANTS[variant]))
    tasks = [task for batch in runner.batches for task in batch]
    submitted = "\n".join(f"{task.cache_key()} {task.label}" for task in tasks)
    return (
        len(runner.batches),
        tasks[0].cache_key(),
        _sha(submitted),
        _sha(repr(result)),
    )


#: (case, variant) -> what `observe` returned at the parent commit.
PINS: dict[tuple[str, str], tuple[int, str, str, str]] = {
    ('fig3_1.run', 'default'): (
        1,
        '516d00cd9256ac26505f4b88585c3fecd95b6efe95d57ec6e1cb2d4b6127407f',
        'b62aa4ce6ce70066f1c71cb08ca6d38b35a62ca70703eb35da0e5c6b550d32aa',
        'cd5cc4cbbf8795eaee82e235eb6acdae4c6233244f91d8f3c723c4e059da72da',
    ),
    ('fig3_1.run_scaling', 'default'): (
        2,
        'de7d7661654064408987632a6fbfa66d7b05250c0e6de943e1ae92ecb14540a0',
        '2b9e3281783345dcaccb7a98f1ba941ef5240eee9c933d7eb2f6b178c2338cd4',
        '71c9ea1c02b864e4805ae560b3fda19c0be0decd2c529dc344050bcec1c32ad8',
    ),
    ('fig4_4.run[master_slave]', 'default'): (
        1,
        '1e3d1abec843eff9a0e27220b6192e760f3e921fc62128822e2964b392015bdf',
        '2f5fdcabf674243f896cff44dc8a20183eea31337d926020d4b8b740a2865347',
        'ecee28215f2bc69c31c3d98cc14649fba4e4a97510d090e1bd377bc22a955b69',
    ),
    ('fig4_4.run[master_slave]', 'collect_metrics'): (
        1,
        'b9eb996787b4c42e4be8823a37ede93360dbc7d2cf45063e106d351f3b677394',
        'c2864384faae53868f80ea77c4e3bfa95a0df760fb15b4499323134977e16ddc',
        '810ba81c7defac711cb11fe490d3814c1ad646a2b0ff42c8924b2782fa532c72',
    ),
    ('fig4_4.run[fft2d]', 'default'): (
        1,
        'f52a4570e116bd2da0e1f1eef7d97242152ff2b8c5ce2bffd3adc92a3d38311d',
        'c69bacbafa78cc6d3dee85b841015c51c398e8fd0dd8b66b4d7ab42ed3b714b3',
        '872ba9d8865e923d455e0d0158db2018faec14aabed138dbb006f8db714fc0fd',
    ),
    ('fig4_4.run[fft2d]', 'collect_metrics'): (
        1,
        '041e44d909586cb3ee620a028c15536651f7b7f021ebb3b2cd6d425846302334',
        'cee15c891cd3c843f090639df0664eb6df5eb23ed2ecc9b900a6ceac39a9be84',
        '7c5215d71e73cc8b51faf8a1b64aeaf712d0265faaf8a053e5b31549d6b0450d',
    ),
    ('fig4_5.run', 'default'): (
        1,
        '99469634a1d01769a1e5c23e875ef590c4d15c0b25746c7ad8da1d5c8ef89685',
        'b52d0ac1358b92be91ab21d240066144824da48f187a5bf45d5e452ed1083457',
        'b557b5a180513655b0347791e4bbbb5afe2a2f7717f14eb5cc8dea32c6784cab',
    ),
    ('fig4_6.run', 'default'): (
        1,
        '8332ee0e1375ffd893c10ce0202e945b06782ff2ddc309f9e1ff3252980b0ba9',
        '6abecc37d5f86d5794bc6fabeb3dae7605bc88b6bfb51946be05666b8812d889',
        '46ac9b5d1faae65b48d363f3a9ad6eb9b1d6a6d66354ef75843a230da8bea024',
    ),
    ('fig4_8.run', 'default'): (
        1,
        'bec78bd63c7ea82a6cf89f67b8cbf23c09aa712664b0d5fdfa314816b3e59d13',
        '15d69569d287598301788184bc0abb1ffd29ce7f04c1b8551964e09d58f49320',
        '135c0c69be89ad5ccfe69c0860db19a063018db8ce67a416e9da1532024d1e9e',
    ),
    ('fig4_9.run', 'default'): (
        1,
        '25edbeb2b508c6f4f1952c1ba2c3f111fa557ba202dd3488ae9d92bac6d7da77',
        '5c36b1dccaddd43752fcf3db902370b398d44255742f17450dd626817ec80baf',
        'cc448f3b314eb46ee3ed92ec46acbee62de103d53390851888ee5387f3b184c4',
    ),
    ('fig4_10.run_overflow', 'default'): (
        1,
        '76426211bb87d5d8b172c79a136703ec977a9eab9cfba58ec7a016a050198b82',
        'bddb99c62f1f5f24da0a50f74a887c753e56a3f79c1e8134ecf55ce8477f47d3',
        'dff68d61c50fe6876ce536f213b83a68db42ba32324af6bf6b1f63c602661e08',
    ),
    ('fig4_10.run_synchronization', 'default'): (
        1,
        '76426211bb87d5d8b172c79a136703ec977a9eab9cfba58ec7a016a050198b82',
        '9719f4b83cb4a88518ac645ffad3f467c1871057615233e06524f0cb03e83731',
        '43633b202adb4445eb392a4c642aa256a074ac4ece12ce129053892e7f730afb',
    ),
    ('fig4_11.run_overflow', 'default'): (
        1,
        '8beb1a90eea707cac38bbdc90894aa8a9e67ec6df43a4f11b16b578cd883e593',
        '3f314d10f6acf92f8669130675a52200069ab08ca2f3d97580545f6eebc87366',
        '6f4064d625df7d36e04280d10be566f119d85b9f632a61bd9bef483f10b9ca3e',
    ),
    ('fig4_11.run_synchronization', 'default'): (
        1,
        '8beb1a90eea707cac38bbdc90894aa8a9e67ec6df43a4f11b16b578cd883e593',
        '51ac9b0c620db5aa1747dbbf2a821b1c1e716a932dc2dcb5e2119da0f23cd826',
        '16bc2215c53fa7357167a503a6af5cca7fca8279388f5c9d7d30f90fa448d1ac',
    ),
    ('fig5_3.run', 'default'): (
        1,
        '6e6861557db1fb9466cbbdeae9ea496cf53bc2b2a6133467347eb7b83c9e7bf5',
        '0ca74dec38686bfe2922db2686e0e64a08d427fa29d53cba3787e6fd6af797b2',
        '16a3655a971aa1d1b75711bccfc059b035859bdb9df1f8c7e13448f025171d36',
    ),
    ('grid_spread.measure_spread', 'default'): (
        1,
        'cb5d88548569a5e4e209cccdf1bea35c4770bbc720381f2293378f8119f2bd8d',
        'f57189fd0c4e14b44d4fadcfd87328bc44f36b7529e80fc21b7b4caa2daf0ea2',
        'ffb2460bf0088a3bc920f6841ca552b46b346b479abaccff3ac8c30101cc4052',
    ),
    ('grid_spread.measure_spread', 'collect_metrics'): (
        1,
        'f42e2cda35331bf814e4cf5e7b62c72bf8eefdbd665b08f394b122af7decddad',
        'cecb237994ca3f46786271cbd0ae61142dbe09d48d26a3cd7328622b6dd30814',
        'cc5b0230937cd9c194f8fe76c4d74419936e2d804347eebfcc7ea47142b2c82a',
    ),
    ('grid_spread.measure_spread', 'backend'): (
        1,
        '111f2b1bf1b648b1a53b868a895a428bf151c821856f8679f5d2087f84cd020f',
        '1155e88062a0777b213b50e1ddfe8da8ff6d7c1f8c14c5514e4e86138e5b6a0e',
        'ffb2460bf0088a3bc920f6841ca552b46b346b479abaccff3ac8c30101cc4052',
    ),
    ('grid_spread.run', 'default'): (
        3,
        '99e61d85ac7a813a34d4bdfabe3d2904ef5da5bac201758c3481197a4706843f',
        'c14cbf55270f76c86ee670294d849d45b7b115f5c4571efdf57c9fc438597190',
        'f9807f25a7a8dd989fc071e12a2b87862f48c8f4d74455ab2a89b0dd31914546',
    ),
    ('grid_spread.run', 'collect_metrics'): (
        3,
        '465a65d62f24a0cbbfd54f551188c21f56b4669062dbd626696453b443a67486',
        '407929f73d539b5405fc1c0f6c1f5e19022b2441169f1a929f3b3ff93f92b3ca',
        '23eabcc0a718935af09f2f6c5f83dfb118096fa831b3ca7e52688c97782f2ca8',
    ),
    ('grid_spread.run', 'backend'): (
        3,
        '44f3a506533a197f7e3fd6b74cf3149ea6bb00779f35bedcdadcfabf765365f9',
        '5d3c585a224ea6ec57101ce4d2ca722f476a733ad423ffd39be98783781dcb6c',
        'f9807f25a7a8dd989fc071e12a2b87862f48c8f4d74455ab2a89b0dd31914546',
    ),
    ('islands.run', 'default'): (
        1,
        '2cf746822c12708c25e7d595a1346fca7322fe3b758ecd6fa28a1fa02558dae4',
        '471fca80ed27026c43819a28609c464c83cbf59e37555f8018c4dbdbbcf70cc1',
        '1ed3cf576b30b544bbe83bdc3bcc459836dc315794878d837ebd03b476955498',
    ),
    ('islands.run_voltage_sweep', 'default'): (
        2,
        'ace25fe2cf63aec993129184bd347dfc257fa1546ddabdf969f51cb913b12d5c',
        'f7a54f20f0d7fb752251f54ca061405c8dbae5afac6fa23c3151275f66809b8a',
        'e77128d325b4248092ba949dbf2ec9eb51fb3bf7a353059f59ebe23ffcd5dfba',
    ),
    ('link_crashes.run', 'default'): (
        1,
        '68f78c3135080a371600b5cd3dc9556a3495e75f6bc5a9df498387ea711c4a47',
        '6bfa99b5aaba53b3c21cc57b69574ceef7ebb479f321725a1e6a0787147a1735',
        'bb17b76f804d29ac4fd395ce81a0af2570611a3b80035315c4f6f6f90feac2f4',
    ),
    ('chaos.run', 'default'): (
        1,
        'fa95b427f0d0809da70b54840e2da9706df61339ea575afd1dfd619cc3cef7d1',
        '63be0b1197db3ac9ba46849052f6c1177a4d20d1f80503a77d14176d14689ff2',
        '289983ed31f426e8cc721eb9b57e53bf1f6b0f30fe80832d806e00c96a906053',
    ),
    ('chaos.run', 'collect_metrics'): (
        1,
        'd725ba76851022b14736070e69a0487a5eb6e8f818cd3fe5dcbfe6d729de47f6',
        'e66376a1c29838393240235905318cf71a6436cdda775ad3f2962c339d0f10a6',
        '7008f264546f5a9ab8880ae64640cd0bb3af11a3058ba0c3bed24ca37e7112a7',
    ),
    ('chaos.run', 'backend'): (
        1,
        'c9e7c2ed4be720f201c2865e12d6f46f0f930e6f75775afdbb995141a8e14a16',
        '69391c1eb34c15ccc13cd27887fa1d6cd9a084e756bea5c606fcfb24bbdd9d7b',
        '289983ed31f426e8cc721eb9b57e53bf1f6b0f30fe80832d806e00c96a906053',
    ),
    ('policy_compare.run', 'default'): (
        1,
        '01efa4918b4771b8503e5d47fb9d77efaea8d6e43281fee3259f0ef20ea406bb',
        'ab95a2dafbc968478c3bc7ae8c8d1b2c0ca38bdfbe19b8a37b14519e2396d179',
        '67f552e7b46de8a73241b9b36a26ff5ac024e8dffaf82c7fd0c80189bc0f1a96',
    ),
    ('policy_compare.run', 'backend'): (
        1,
        '41de61109d6d741fcaa2163730ea444e2996a76bfcc6862f8a1dddf106d82b50',
        '26302f7f7c495f2168b9567d392491e675f1c61035469ca0dc42626b4be0eb7a',
        '67f552e7b46de8a73241b9b36a26ff5ac024e8dffaf82c7fd0c80189bc0f1a96',
    ),
    ('protocol_frontier.run', 'default'): (
        1,
        'beae28e504d12fcd7f2751f2630998e67c5e367f43465038bba78e79da1b8b53',
        '2c47f1341df6ad9944ddc7242f4ca3ab04fb31b3f3df281cc0886cfd03d9ce5c',
        '1c1e73d56d0ab47c3ed0ef7e0ebec411ade5f31d55c77425919070ce4bcc431a',
    ),
    ('protocol_frontier.run', 'backend'): (
        1,
        'f1cb9d7d8db6d845664baf2bc3ac53ead8266d1be84565527498383498d47c27',
        '63a4b77d93c58202e9eb2f47c177b88b03073ad26b3756af321d7dfe6f04c74f',
        '1c1e73d56d0ab47c3ed0ef7e0ebec411ade5f31d55c77425919070ce4bcc431a',
    ),
    ('protocol_frontier.certify_frontier', 'default'): (
        1,
        'd6471f340a30869969c7bf6a1f95d7d15a0b49bbdca464a82a03f19773ee20a0',
        '48ea97fe11d05d918ab54bb776d6d2f3211ec3ebe90e5f3ea10de6e9c334eab6',
        '7fb145b901a6ea40402232bf27d851af508bef534600d1e47dec8cf7606fc70d',
    ),
    ('protocol_frontier.certify_frontier', 'backend'): (
        1,
        'e54f33c477b819c697f79f1cbaa92b309f2960f8c6a75e061e409c022869b724',
        '051465bda45b5004430fbb1719350f255f39eb2efea1660d00496fef77b5ebc2',
        '7fb145b901a6ea40402232bf27d851af508bef534600d1e47dec8cf7606fc70d',
    ),
    ('certify.certify_chaos_envelope', 'default'): (
        1,
        '7d3521bcba09717d213623605a30fa35178671d2fedbdfa23c53e874138ad4a1',
        '5e9250d7a5e8d96de79387125def190a1ada57789a880171f4aad35ff1e5713a',
        '311da36033cc6eb7256987d2e4fbc9f898cf93616a066818be20ee8c06ab7183',
    ),
    ('certify.certify_chaos_envelope', 'backend'): (
        1,
        'd5c141f7aefb17ee0545767a401ae5230dad89273602496e181ee206b052dab6',
        '9a640047d1d8c9140426c84a07f3c7b6d39c55e13208f139260e766c9add37ad',
        '311da36033cc6eb7256987d2e4fbc9f898cf93616a066818be20ee8c06ab7183',
    ),
}


def test_every_case_and_supported_knob_is_pinned():
    assert set(PINS) == {
        (case, variant)
        for case, (_, supports) in CASES.items()
        for variant in ("default", *supports)
    }


@pytest.mark.parametrize("case,variant", sorted(PINS))
def test_harness_matches_its_pins(case, variant):
    assert observe(case, variant) == PINS[(case, variant)]


@pytest.mark.parametrize(
    "case", [case for case, (_, supports) in CASES.items() if "backend" in supports]
)
def test_fast_backend_pins_the_same_result(case):
    assert PINS[(case, "backend")][3] == PINS[(case, "default")][3]
