"""The sha256 of every artifact of six small d = 1 constant-speed commands.

In d = 1 at a constant speed the march uses only +, -, * and / (r^0 = 1,
and no np.tan), so its bits do not follow numpy's CPU dispatch: the
digests below were the same with every dispatch target of numpy 2.4
disabled (NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
under which np.tan takes its baseline kernel) as with none, for
``python -m varwave.cli`` run in a subprocess on an AVX-512 host, and the
CI runs this file under that setting too.  simulate and eps-sweep run with
one CPU and with two, so both ways of writing the snapshot table are
pinned; eps-sweep's artifacts sit in one subdirectory per eps.  A
digest that moves is a changed artifact byte: a refactor that keeps every
bit keeps them all, and a declared change of the arithmetic records the
new ones here.
"""

import hashlib
import json

import pytest

from varwave import cli

TRANSPORT = {
    "setup": {
        "d": 1, "r0": 1.0, "eps": 0.1, "u0": 0.5,
        "speed": {"kind": "constant", "c": 1.0},
        "profile": {"kind": "polynomial", "amplitude": 1.0},
    },
    "grid": {"n": 256},
}
CONVERGENCE = dict(
    TRANSPORT, experiment={"kind": "convergence", "n_list": [64, 128, 256], "t_compare": 0.3}
)
TRIANGLE = {"kind": "triangle", "r1": 0.9, "r2": 1.1}
# run name: (command, config), each run with --svg
RUNS = {
    "simulate": ("simulate", TRANSPORT),
    "convergence_upwind1": ("convergence", CONVERGENCE),
    "convergence_muscl2": ("convergence", dict(CONVERGENCE, scheme={"scheme": "muscl2"})),
    "eps_sweep": (
        "eps-sweep", dict(TRANSPORT, experiment={"kind": "eps_sweep", "eps_list": [0.1, 0.05]})
    ),
    "triangle": ("triangle", dict(TRANSPORT, experiment=TRIANGLE)),
    "triangle_muscl2": (
        "triangle", dict(TRANSPORT, scheme={"scheme": "muscl2"}, experiment=TRIANGLE)
    ),
}
# the runs that write a snapshot table, run once more with two CPUs
TABLE_RUNS = ("simulate", "eps_sweep")
DIGESTS = {
    "simulate/diagnostics.json": "84bde8578a49baf070353b901e634dced204dfa7754b84239d4ff2b27ed769d4",
    "simulate/energy.csv": "c09d8e84a336c600587c4721bba5457994bdc608548b4bdaa51568cd06f2f6d5",
    "simulate/energy.svg": "38e6a2c47edd5c7343ee72bef74378f5a0584ee7b79f336c74eb5387ceeaa221",
    "simulate/hat_path.csv": "122ef9087a452fa0b82c558af95c0e367e1c503ed66f87b11cac55dd2286de07",
    "simulate/inv_s.svg": "9fce9e211a1ed90b99cb039d72130a1f8892c41c83975bf5b89966a0123f4339",
    "simulate/snapshots.csv": "9e789bdc138587c6783912f5d30e87faebe6414f85876b5b8aa5d52e599c2a9c",
    "simulate/u_snapshots.svg": "03f79cfbef92d1a61aeffe9dc7fe68e44f80e3587c15ad07b2224fbadb6c300b",
    "convergence_upwind1/convergence.csv":
        "0b73e45e8df8f8f4efcc5aee6ea997532d553380f507eb66cc0e45f471cb03bd",
    "convergence_upwind1/convergence.json":
        "198c3614abad773e0783e836e208728743a13c22c4e18a0cdb447a16aff1fa19",
    "convergence_muscl2/convergence.csv":
        "196f97a16cdfeddfadaf98f449282993173334a75bb87f98cd9f930c6a75cefd",
    "convergence_muscl2/convergence.json":
        "be581ca7bbbd30d6edfccdcee2dbf8f311e0c0f16174eb70988e3ea2a2c9d140",
    "eps_sweep/eps_0.05/diagnostics.json":
        "1095076faa2ee653dbcf45621c80926e0b79d7dddf970bf4bf94140a68d60165",
    "eps_sweep/eps_0.05/energy.csv":
        "34f7f726d61f487fefbcda9626c33d0ea7d794f537ace0c1ae2292b0d93e896a",
    "eps_sweep/eps_0.05/energy.svg":
        "b15a44b715cd926d9f6dba679f423f8a34c8b6f6bf725dbdc7d1b85f708ba187",
    "eps_sweep/eps_0.05/hat_path.csv":
        "ce3d32ba68c0466df1b469285b3904b5a47ac5df38ed57119c9a1fa18135b93e",
    "eps_sweep/eps_0.05/inv_s.svg":
        "606b5197d62aebfc3ce9e45823c4ed1ddfc4ed3ef777408800deb2bb23517779",
    "eps_sweep/eps_0.05/snapshots.csv":
        "1d031c643cd5f6c2f3c0cc375191ca1134fd24a325d92f33c2d6275c38e39ddc",
    "eps_sweep/eps_0.05/u_snapshots.svg":
        "b24191e77b4296f44dcfe46a310498160ddf31767af820db66af9c21229951b1",
    "eps_sweep/eps_0.1/diagnostics.json":
        "b79b9ccc21f429a7734951fd410d8c8ded3892abcba4879e48ed25ce7165e70e",
    "eps_sweep/eps_0.1/energy.csv":
        "2a80524c5a9628a10f68b1fe6636c47a95079de7aa9aa2a3cdecdc959921b854",
    "eps_sweep/eps_0.1/energy.svg":
        "c06dc7cca22f9462230656b408daa78c97a395881804267af96bbe749dfb1507",
    "eps_sweep/eps_0.1/hat_path.csv":
        "19f1968e0f16b4eb0ebc4da02af9c3a6001c9b16dea6712d56475842d203d004",
    "eps_sweep/eps_0.1/inv_s.svg":
        "26bbdd43fdab9f4ecd3b7e629ffd6c35ccbd0c1a67ac4d0915551e9fa2f2395f",
    "eps_sweep/eps_0.1/snapshots.csv":
        "c7e4fc4c5505882c7dd1322e64b045e78c74b8c6e8648819bdfe86f5b276425a",
    "eps_sweep/eps_0.1/u_snapshots.svg":
        "50db57b1f4dff976a7a453f2b077c93a1b738a94d8cc2e131473677fd18786cc",
    "eps_sweep/sweep.csv": "ce99f8e58afaacb5fc905a3f3a64d340055dbfe6e7202db7fff4e2080b79ddef",
    "eps_sweep/sweep.json": "41d66c5bab71e45580dc9cb0b99e13ffcede9f223c434e7ee9d1ba439251462d",
    "triangle/minus_path.csv": "6af6233e149967ad24459fe74e5850cc0a9b37c2a778fb6e33d3ee3c79919820",
    "triangle/plus_path.csv": "bc70ac41399da049062a924dd10781d22fc056e5c8e0b1928acf23d276d3f441",
    "triangle/triangle.json": "06298f541ac8a497f2f4cc44ae1e562e66dbddc28d90dda21ce1c3006c157030",
    "triangle/triangle_paths.svg":
        "929caf86c94c4819c6f259ffef2b94a512b85cf64a405bb4d1c56a73b6d39fcc",
    "triangle_muscl2/minus_path.csv":
        "69862935c8106e7d029e13a59142c104859cf5224ee1c0f46c9608c91bd357d3",
    "triangle_muscl2/plus_path.csv":
        "d88d87ca09fd0977cba32770cfb9e461f360e45af01dcfebb200923b264ee1bf",
    "triangle_muscl2/triangle.json":
        "3770424a9824378f972b23cebaedbfa073ed2977c8ca081dd0df7e9cbe1d3786",
    "triangle_muscl2/triangle_paths.svg":
        "5fb969aca109ba1f74ea1413d99b7cf2d90a58803b9b7f813f5aff745c66e03a",
}


@pytest.mark.parametrize(
    "name, cpus", [(name, 1) for name in RUNS] + [(name, 2) for name in TABLE_RUNS], ids=str
)
def test_every_artifact_keeps_its_digest(tmp_path, monkeypatch, name, cpus):
    monkeypatch.setattr(cli, "_cpus", lambda: cpus)
    command, config = RUNS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / name
    assert cli.main([command, "--svg", "--config", str(path), "--out-dir", str(out)]) == 0
    got = {
        f"{name}/{f.relative_to(out).as_posix()}": hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.rglob("*"))
        if f.is_file()
    }
    assert got == {key: d for key, d in DIGESTS.items() if key.startswith(f"{name}/")}
