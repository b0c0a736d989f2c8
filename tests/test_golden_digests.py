"""The sha256 of every artifact of three small d = 1 constant-speed runs.

In d = 1 at a constant speed the march uses only +, -, * and / (r^0 = 1,
and no np.tan), so its bits do not follow numpy's CPU dispatch: the
digests below were the same with every dispatch target of numpy 2.4
disabled (NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
under which np.tan takes its baseline kernel) as with none, for
``python -m varwave.cli`` run in a subprocess on an AVX-512 host.  A
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
# run name: (command, config), each run with --svg
RUNS = {
    "simulate": ("simulate", TRANSPORT),
    "convergence_upwind1": ("convergence", CONVERGENCE),
    "convergence_muscl2": ("convergence", dict(CONVERGENCE, scheme={"scheme": "muscl2"})),
}
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
}


@pytest.mark.parametrize("name", list(RUNS))
def test_every_artifact_keeps_its_digest(tmp_path, monkeypatch, name):
    # one CPU: the snapshot table is written in-process, with the worker's bytes
    monkeypatch.setattr(cli, "_cpus", lambda: 1)
    command, config = RUNS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / name
    assert cli.main([command, "--svg", "--config", str(path), "--out-dir", str(out)]) == 0
    got = {
        f"{name}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir())
    }
    assert got == {key: d for key, d in DIGESTS.items() if key.startswith(f"{name}/")}
