"""Seeded input generator: the same seed writes the same files.

Every workload gets a directory of generated inputs plus the argument
lists the benchmark hands to the program; nothing else reaches it.
`inputs_hash` fingerprints those files and arguments, so two results
can be shown to have used identical inputs.
"""
import hashlib
import os
import random
import subprocess

# Workload sizes. Changing any of them changes what the benchmark
# measures; keep them fixed across the commits being compared.
VALIDATE_SAMPLES = 20000
SWEEP_N = (4, 6, 8, 12, 16, 24, 32, 48, 64, 128)
SWEEP_SAMPLES = 32
SWEEP_CHUNK = 4
FAULT_SAMPLES = 8
FAULT_GENS = 40
FAULT_PLANS = 16
# The open-loop ladder in requests/s: about 25%, 50% and 90% of the
# burst throughput (`req_per_s`) of fepiad with 2 workers and 2 pool
# threads on a 4-vCPU x86-64 VM, where it measured about 1000 req/s.
SERVE_RATES = (250, 500, 900)
# Seconds per rung. The lowest rung carries the gated latencies, so it
# lasts longest: a pass samples more of the host's time there. Its 400
# requests per pass put the per-pass tail at p97, which has ten samples
# beyond it and falls inside the `validate` share.
SERVE_RUNG_SECONDS = (1.6, 0.8, 0.8)
SERVE_BURST = 500
SERVE_PASS_SECONDS = 4.3  # one ladder pass, its burst and the gaps
# Untimed open-loop traffic at the lowest rate before the first pass:
# the first second or so of a schedule can run several-fold slow while
# fepiad's threads and the generator settle.
SERVE_WARMUP_SECONDS = 2.2
SERVE_HOT_PROBLEMS = 16
SERVE_VALIDATE_SAMPLES = 64


def rng(seed, label):
    # String seeds go through SHA-512, so streams do not depend on
    # PYTHONHASHSEED or the interpreter version.
    return random.Random("fepia-perfbench:%d:%s" % (seed, label))


def inputs_hash(directory, argv_lists):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            h.update(name.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    for argv in argv_lists:
        h.update("\0".join(argv).encode() + b"\1")
    return h.hexdigest()


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def reference_system(layers, directory):
    path = os.path.join(directory, "system.hiperd")
    subprocess.run([layers, "write-system", path], check=True)
    return "system.hiperd"


def validate_hiperd(seed, directory, layers):
    system = reference_system(layers, directory)
    est_seed = rng(seed, "validate").getrandbits(32)
    return {"system": system, "seed": est_seed, "samples": VALIDATE_SAMPLES}


def _distinct(r, lo, hi, count):
    """`count` distinct values in [lo, hi), rounded so they survive the
    spec file's text form exactly."""
    out = set()
    while len(out) < count:
        out.add(round(r.uniform(lo, hi), 4))
    return sorted(out)


def sweep_grid(seed, directory):
    r = rng(seed, "sweep")
    betas = _distinct(r, 1.1, 3.0, 3)
    kscales = _distinct(r, 0.5, 20.0, 3)
    origscales = _distinct(r, 0.05, 2.0, 2)
    spec_seed = r.getrandbits(32)
    # n is the fastest axis, so every shard mixes small and large
    # points: the cost of a shard does not depend on where it falls.
    lines = [
        "sweep perfbench-grid",
        "workload linear",
        "axis scheme normalized",
        "axis beta " + " ".join(repr(b) for b in betas),
        "axis kscale " + " ".join(repr(k) for k in kscales),
        "axis origscale " + " ".join(repr(o) for o in origscales),
        "axis n " + " ".join(str(n) for n in SWEEP_N),
        "seed %d" % spec_seed,
        "empirical on",
        "samples %d" % SWEEP_SAMPLES,
        "chunk %d" % SWEEP_CHUNK,
    ]
    write(os.path.join(directory, "grid.sweep"), "\n".join(lines) + "\n")
    points = len(SWEEP_N) * len(betas) * len(kscales) * len(origscales)
    return {"spec": "grid.sweep", "points": points}


def _draw_plan(r):
    """One explicit fault plan on the 4-machine, 3-link reference system,
    shaped like fault::samplePlan: a crash with a backup in the middle
    half of the simulated horizon, a machine or link slowdown window, a
    loss rate. The horizon is FAULT_GENS data sets at the reference
    QoS rate of 10 per second."""
    horizon = FAULT_GENS / 10.0
    machine = r.randrange(4)
    backup = r.choice([m for m in range(4) if m != machine])
    crash = "%d:%s:%d" % (machine, repr(round(horizon * r.uniform(0.25, 0.75), 3)),
                          backup)
    target = r.choice(["machine", "link"])
    index = r.randrange(4 if target == "machine" else 3)
    start = round(horizon * 0.75 * r.random(), 3)
    slow = "%s:%d:%s:%s:%s" % (target, index, repr(start),
                               repr(round(start + horizon * r.uniform(0.05, 0.25), 3)),
                               repr(round(r.uniform(1.1, 2.0), 3)))
    loss = "%d:%s" % (r.randrange(3), repr(round(r.uniform(0.01, 0.1), 4)))
    return ["--crash", crash, "--slow", slow, "--loss", loss]


def fault_sim(seed, directory, layers):
    """FAULT_PLANS explicit plans drawn from the seed; the measured
    invocations cycle through them. A drawn plan whose nominal run breaks
    QoS is redrawn: it makes fault-sim exit 2 with no directions, which
    measures nothing."""
    system = reference_system(layers, directory)
    r = rng(seed, "fault")
    plans = []
    for _ in range(200 * FAULT_PLANS):
        plan = _draw_plan(r)
        ok = subprocess.run(
            [layers, "nominal", "--system", os.path.join(directory, system),
             "--gens", str(FAULT_GENS)] + plan).returncode
        if ok == 0:
            plans.append(plan)
            if len(plans) == FAULT_PLANS:
                break
        elif ok != 3:
            raise RuntimeError("nominal check failed for plan %s" % plan)
    else:
        raise RuntimeError("too few QoS-feasible fault plans drawn")
    write(os.path.join(directory, "plans.txt"),
          "".join(" ".join(p) + "\n" for p in plans))
    return {"system": system, "plans": plans, "seed": r.getrandbits(32),
            "samples": FAULT_SAMPLES, "gens": FAULT_GENS}


def _problem_text(r):
    """A small mixed-unit problem: two kinds (three execution times, two
    message sizes), three linear features with nonnegative coefficients
    and upper bounds above the operating point, so the point satisfies
    QoS and every radius is finite. The shape is fixed so that every
    seed asks the server for the same amount of work."""
    exec_orig = [round(r.uniform(0.5, 5.0), 4) for _ in range(3)]
    msg_orig = [round(r.uniform(1e4, 2e6), 1) for _ in range(2)]
    lines = ["kind exec s " + " ".join(repr(v) for v in exec_orig),
             "kind msg B " + " ".join(repr(v) for v in msg_orig)]
    for f in range(3):
        ce = [round(r.uniform(0.0, 2.0), 4) for _ in exec_orig]
        cm = [round(r.uniform(0.0, 5e-6), 10) for _ in msg_orig]
        ce[f % len(ce)] += 0.5  # every feature depends on some exec time
        value = sum(c * v for c, v in zip(ce, exec_orig)) + \
            sum(c * v for c, v in zip(cm, msg_orig))
        bound = round(value * r.uniform(1.2, 3.0), 6)
        lines.append('feature "f%d" upper %s coeff %s' % (
            f, repr(bound), " ".join(repr(c) for c in ce + cm)))
    return "\n".join(lines) + "\n"


def serve_mix(seed, directory, passes):
    """Problem files, request kinds and the open-loop schedule.

    Mix: 85% `radius` (a fifth of them on a file never seen before, the
    rest on a small hot set), 10% small `validate`, 5% a small repeated
    `sweep`, in exactly these proportions in every rung. The schedule is
    a warm-up at the lowest rate (pass -1, not timed), then `passes`
    repetitions of: the rate ladder with evenly spaced arrivals, then a
    burst of SERVE_BURST requests all due at once (saturation). Entries
    are (due seconds, pass, rung); the burst is rung len(SERVE_RATES)."""
    r = rng(seed, "serve")
    requests = []  # {"kind", "args"}; index = request id in the schedule
    hot = []
    for i in range(SERVE_HOT_PROBLEMS):
        name = "hot%02d.fepia" % i
        write(os.path.join(directory, name), _problem_text(r))
        hot.append(name)
    write(os.path.join(directory, "small.sweep"), "\n".join([
        "sweep perfbench-small", "workload linear",
        "axis scheme normalized sensitivity", "axis n 2 4 8 16",
        "axis beta %s %s" % tuple(repr(b) for b in _distinct(r, 1.2, 3.0, 2)),
        "seed %d" % r.getrandbits(32)]) + "\n")
    validate_seeds = [r.getrandbits(32) for _ in range(4)]
    misses = 0

    def batch(count):
        """`count` requests in the fixed proportions, in seeded order."""
        nonlocal misses
        n_validate = round(count * 0.10)
        n_sweep = round(count * 0.05)
        n_radius = count - n_validate - n_sweep
        n_miss = round(n_radius * 0.2)
        kinds = (["miss"] * n_miss + ["hit"] * (n_radius - n_miss) +
                 ["validate"] * n_validate + ["sweep"] * n_sweep)
        r.shuffle(kinds)
        out = []
        for kind in kinds:
            if kind in ("miss", "hit"):
                if kind == "miss":
                    name = "new%05d.fepia" % misses
                    misses += 1
                    write(os.path.join(directory, name), _problem_text(r))
                else:
                    name = r.choice(hot)
                out.append({"kind": "radius", "args": [name, "--scheme", "both"]})
            elif kind == "validate":
                out.append({"kind": "validate",
                            "args": [r.choice(hot[:4]), "--samples",
                                     str(SERVE_VALIDATE_SAMPLES), "--seed",
                                     str(r.choice(validate_seeds))]})
            else:
                out.append({"kind": "sweep", "args": ["small.sweep"]})
        return out

    schedule = []
    count = int(SERVE_RATES[0] * (SERVE_WARMUP_SECONDS - 0.2))
    schedule += [(round(k / SERVE_RATES[0], 6), -1, 0) for k in range(count)]
    requests += batch(count)
    t = SERVE_WARMUP_SECONDS
    for p in range(passes):
        for rung, (rate, seconds) in enumerate(zip(SERVE_RATES, SERVE_RUNG_SECONDS)):
            count = int(rate * seconds)
            schedule += [(round(t + k / rate, 6), p, rung) for k in range(count)]
            requests += batch(count)
            t += seconds
        t += 0.3  # let the ladder drain before the burst
        schedule += [(round(t, 6), p, len(SERVE_RATES))] * SERVE_BURST
        requests += batch(SERVE_BURST)
        t += 0.8  # the burst drains in about 0.5 s
    lines = ["%s\t%d\t%d\t%s\t%s" % (due, p, rung, q["kind"], "\t".join(q["args"]))
             for (due, p, rung), q in zip(schedule, requests)]
    write(os.path.join(directory, "schedule.tsv"), "\n".join(lines) + "\n")
    return {"schedule": schedule, "requests": requests,
            "rates": list(SERVE_RATES), "passes": passes}
