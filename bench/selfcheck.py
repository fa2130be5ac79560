"""Self-check of the benchmark's output checker.

    python3 bench/selfcheck.py

Feeds the checker the recorded outputs (reference.json), which must pass,
and then perturbed copies of them: a shifted distance, a distance below the
Hausdorff lower bound, a flipped verdict, a probe log with a true verdict
below a false one, a semi stream that stops decreasing, and a weak curve
distance above the strong one.  Each perturbation is judged against the
reference and, where a check that needs no reference should catch it, also
without one; each must make failed_frac greater than 0.  Exits 1 if the
checker misses one.
"""

import copy
import json
import sys

import run


def flip_probe(out):
    out["probes"] += [[0.5 * out["distance"], True], [2.0 * out["distance"], False]]


def recorded_outputs(ops, reference):
    """The recorded outputs, with an empty probe log where one is checked
    (probe logs are not recorded)."""
    outs = [copy.deepcopy(reference[op.key]) for op in ops]
    for out in outs:
        if "distance" in out:
            out["probes"] = []
    return outs


def perturbations():
    """(workload, op key, name, mutate(out), caught without reference)"""
    return [
        ("sandwich-bisect", "pair0", "distance + 1e-3",
         lambda o: o.update(distance=o["distance"] + 1e-3), False),
        ("sandwich-bisect", "pair1", "distance below Hausdorff lower bound",
         lambda o: o.update(distance=o["lower"] - 1e-3), True),
        ("sandwich-bisect", "pair2", "true probe below a false one", flip_probe, True),
        ("sandwich-exact", "pair0", "distance * 0.99",
         lambda o: o.update(distance=o["distance"] * 0.99), False),
        ("sandwich-exact", "pair1", "distance 0, below Hausdorff lower bound",
         lambda o: o.update(distance=0.0), True),
        ("sandwich-exact", "pair3", "true probe below a false one", flip_probe, True),
        ("grid", "compute", "distance + 1e-6",
         lambda o: o.update(distance=o["distance"] + 1e-6), False),
        ("grid", "decide_below", "flipped verdict",
         lambda o: o.update(verdict=not o["verdict"]), True),
        ("grid", "decide_above", "flipped verdict",
         lambda o: o.update(verdict=not o["verdict"]), True),
        ("semi-curve", "semi_flat", "stream stops decreasing",
         lambda o: o["stream"].append(o["stream"][-1]), True),
        ("semi-curve", "semi_pair", "stream rises",
         lambda o: o["stream"].__setitem__(1, o["stream"][0] + 0.1), True),
        ("semi-curve", "semi_flat", "stream value shifted",
         lambda o: o["stream"].__setitem__(0, o["stream"][0] + 1e-3), False),
        ("semi-curve", "curves0", "weak above strong",
         lambda o: o.update(weak=o["frechet"] * 1.1 + 0.1), True),
    ]


def main():
    if not run.use_checkout_source():
        return 2
    import workloads

    def failed_frac(ops, outs, reference):
        return sum(bool(workloads.judge(op, out, reference))
                   for op, out in zip(ops, outs)) / len(ops)

    recorded = json.loads(run.REFERENCE.read_text())
    ok = True
    for name, (build, _, _) in workloads.WORKLOADS.items():
        ops = build(run.DEFAULT_SEED)
        reference = recorded[name]
        frac = failed_frac(ops, recorded_outputs(ops, reference), reference)
        print(f"{name:16s} recorded outputs            failed_frac {frac:.3f}")
        ok &= frac == 0.0
    for name, suffix, what, mutate, standalone in perturbations():
        build = workloads.WORKLOADS[name][0]
        ops = build(run.DEFAULT_SEED)
        reference = recorded[name]
        outs = recorded_outputs(ops, reference)
        i = next(i for i, op in enumerate(ops) if op.key == suffix)
        mutate(outs[i])
        cases = [("reference", reference)] + ([("no reference", {})] if standalone else [])
        for label, ref in cases:
            frac = failed_frac(ops, outs, ref)
            print(f"{name:16s} {suffix:13s} {what:40s} {label:12s} "
                  f"failed_frac {frac:.3f}")
            ok &= frac > 0.0
    print("checker self-check:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
