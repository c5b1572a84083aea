"""Set-up probe: a fresh interpreter imports hopfdeform, parses and builds one
config, then prints ``ready``.  The benchmark times spawn-to-``ready``.

The interpreter samples the host's speed while it imports and builds (see
``hostspeed.py``), and prints after ``ready`` the mean speed factor and the
time that part took, without the sampling.

Usage: python3 setup_probe.py SRC_DIR CONFIG_JSON
"""
import json
import sys

from hostspeed import HostSpeed

sys.path.insert(0, sys.argv[1])

with HostSpeed() as speed:
    t0 = speed.clock()
    from hopfdeform.cli import RunConfig, build_cocycle, build_instance, build_witness

    cfg = RunConfig.from_dict(json.loads(sys.argv[2]))
    instance = build_instance(cfg.instance, cfg.tolerances)
    cocycle = build_cocycle(cfg.cocycle, instance)
    if cfg.witness:
        build_witness(cfg.witness, instance, cocycle)
    sampled_s = speed.clock() - t0
print("ready", speed.factor(0), sampled_s, flush=True)
