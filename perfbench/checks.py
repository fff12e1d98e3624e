"""Output checks built from invariants that hold on every correct build.

A check returns a list of failure strings (empty = pass). None of them
pins a classification count, a CI lower end, a manifest field
(wall_seconds, args, hostname, git_sha) or fepiad's cache counters, so a
correct performance change can never fail them. What they do pin:

- the sample minimum is a hard upper bound, so every empirical radius
  equals its CI upper end, bit for bit, and is at least the analytic
  radius (up to 1e-9 relative);
- the empirical radius stays within a stated relative error (REL_BOUND)
  above the analytic one;
- a sweep surface is complete, each analytic rho matches its closed
  form, and the JSON surface holds exactly the bits its checkpoint
  journal committed;
- every fepiad response is `ok` with the expected exit code and the
  one-shot CLI's bytes for the same arguments.

`selftest` feeds each check corrupted copies of a real output and
asserts that it rejects every one.
"""
import copy
import json
import math

# Relative error the empirical radius may show above the analytic one.
# The empirical radius is a polished directional minimum, an upper bound
# whose excess is statistical: over 40 validate-hiperd seeds every row
# stayed below 1e-10 except one at 6.9e-3, where the polish stopped in a
# local minimum; sweep-grid points stay below 1e-5. The bound is seven
# times that worst case and still rejects a radius that is plainly off.
REL_BOUND = 5e-2
FLOOR = 1.0 - 1e-9


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_validate(exit_code, doc):
    """`fepia_cli validate --hiperd ... --json` report."""
    errs = []
    if exit_code != 0:
        errs.append("validate exit %s, expected 0" % exit_code)
    if not isinstance(doc, dict) or not doc.get("rows"):
        return errs + ["validate: no report rows"]
    for row in doc["rows"]:
        label = row.get("label")
        emp, ana, ci = row.get("empirical"), row.get("analytic"), row.get("ci")
        if row.get("within_ci") is not True:
            errs.append("%s: analytic radius outside the empirical CI" % label)
        if not isinstance(emp, float) or not isinstance(ana, float) \
                or not math.isfinite(emp):
            errs.append("%s: non-finite radius" % label)
            continue
        if not isinstance(ci, list) or len(ci) != 2 or ci[1] != emp:
            errs.append("%s: empirical %r != CI upper end %r" % (label, emp, ci))
        if emp < ana * FLOOR:
            errs.append("%s: empirical %r below analytic %r" % (label, emp, ana))
        if _rel(emp, ana) > REL_BOUND:
            errs.append("%s: relative error %g above %g"
                        % (label, _rel(emp, ana), REL_BOUND))
    return errs


def read_journal(text):
    """point id -> (analytic, closed form, empirical) floats, from the
    hexfloat checkpoint journal (src/sweep/journal.hpp)."""
    points = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 5 and parts[0] == "point":
            points[int(parts[1])] = tuple(float.fromhex(p) for p in parts[2:5])
    return points


def check_sweep(exit_code, doc, journal_text, points):
    """`fepia_cli sweep ... --json` surface plus its --journal."""
    errs = []
    if exit_code != 0:
        errs.append("sweep exit %s, expected 0" % exit_code)
    if not isinstance(doc, dict) or "results" not in doc:
        return errs + ["sweep: no surface"]
    if doc.get("complete") is not True:
        errs.append("sweep: surface not complete")
    results = doc["results"]
    if len(results) != points:
        errs.append("sweep: %d results, expected %d" % (len(results), points))
    journal = read_journal(journal_text)
    for r in results:
        pid, ana = r.get("id"), r.get("analytic_rho")
        cf, emp = r.get("closed_form_radius"), r.get("empirical_radius")
        if not all(isinstance(x, float) and math.isfinite(x) for x in (ana, cf, emp)):
            errs.append("point %s: missing or non-finite radius" % pid)
            continue
        if _rel(ana, cf) > 1e-9:
            errs.append("point %s: analytic %r vs closed form %r" % (pid, ana, cf))
        if emp < ana * FLOOR:
            errs.append("point %s: empirical %r below analytic %r" % (pid, emp, ana))
        if _rel(emp, ana) > REL_BOUND:
            errs.append("point %s: relative error %g above %g"
                        % (pid, _rel(emp, ana), REL_BOUND))
        if journal.get(pid) != (ana, cf, emp):
            errs.append("point %s: surface bits differ from the journal" % pid)
    return errs


def check_fault(exit_code, doc):
    """`fepia_cli fault-sim ... --json` report."""
    errs = []
    if exit_code != 0:
        errs.append("fault-sim exit %s, expected 0" % exit_code)
    if not isinstance(doc, dict) or "degraded" not in doc:
        return errs + ["fault-sim: no report"]
    if doc.get("nominal", {}).get("satisfies") is not True:
        errs.append("fault-sim: nominal run violates QoS")
    d = doc["degraded"]
    radius = d.get("radius")
    if not isinstance(radius, float) or not math.isfinite(radius) or radius <= 0:
        errs.append("fault-sim: degraded radius %r not finite and positive" % radius)
    elif d.get("ci_hi") != radius:
        errs.append("fault-sim: radius %r != CI upper end %r" % (radius, d.get("ci_hi")))
    return errs


def normalize_sweep_stdout(text):
    """Sweep stdout carries cache-hit and resume counters that a warm
    server legitimately reports differently."""
    keep = [ln for ln in text.split("\n")
            if not ln.startswith(("resumed ", "cache: ", "wrote "))]
    return "\n".join(keep)


def check_reply(reply, expected_exit, cli_stdout):
    """One fepiad response against the one-shot CLI's stdout for the
    same arguments (None = not compared for this response)."""
    if not isinstance(reply, dict) or reply.get("ok") is not True:
        err = reply.get("error") if isinstance(reply, dict) else reply
        return ["fepiad error response: %r" % (err,)]
    errs = []
    if reply.get("exit") != expected_exit:
        errs.append("fepiad exit %r, expected %r" % (reply.get("exit"), expected_exit))
    if cli_stdout is not None:
        got, want = reply.get("output", ""), cli_stdout
        if normalize_sweep_stdout(got) != normalize_sweep_stdout(want):
            errs.append("fepiad output differs from the one-shot CLI")
    return errs


# ---------------------------------------------------------------------
# Self-test: every check must reject every corruption of a real output.

def _flip_bit(x):
    """`x` with the lowest mantissa bit flipped."""
    return float.fromhex(_hex_flip(x.hex()))


def _hex_flip(h):
    mant, exp = h.split("p")
    last = int(mant[-1], 16) ^ 1
    return "%s%xp%s" % (mant[:-1], last, exp)


def _flip_text_digit(text, needle):
    """Changes the last digit of the first number after `needle`."""
    i = text.index(needle) + len(needle)
    while not text[i].isdigit():
        i += 1
    j = i
    while j < len(text) and (text[j].isdigit() or text[j] == "."):
        j += 1
    d = text[j - 1]
    return text[:j - 1] + ("1" if d != "1" else "2") + text[j:]


def selftest(kind, real):
    """`real` holds the arguments the workload's check took on a passing
    output. Returns failure strings: one per corruption the check let
    through."""
    cases = []
    if kind == "validate-hiperd":
        code, doc = real
        flipped = copy.deepcopy(doc)
        flipped["rows"][0]["empirical"] = _flip_bit(flipped["rows"][0]["empirical"])
        outside = copy.deepcopy(doc)
        outside["rows"][-1]["within_ci"] = False
        cases = [("radius bit flipped", lambda: check_validate(code, flipped)),
                 ("row within_ci false", lambda: check_validate(code, outside)),
                 ("typed error", lambda: check_validate(1, None))]
    elif kind == "sweep-grid":
        code, doc, journal, points = real
        flipped = copy.deepcopy(doc)
        r0 = flipped["results"][len(flipped["results"]) // 2]
        r0["empirical_radius"] = _flip_bit(r0["empirical_radius"])
        partial = copy.deepcopy(doc)
        partial["complete"] = False
        cases = [("radius bit flipped",
                  lambda: check_sweep(code, flipped, journal, points)),
                 ("surface marked incomplete",
                  lambda: check_sweep(code, partial, journal, points)),
                 ("typed error", lambda: check_sweep(1, None, "", points))]
    elif kind == "fault-sim":
        code, doc = real
        flipped = copy.deepcopy(doc)
        flipped["degraded"]["radius"] = _flip_bit(flipped["degraded"]["radius"])
        violated = copy.deepcopy(doc)
        violated["nominal"]["satisfies"] = False
        cases = [("radius bit flipped", lambda: check_fault(code, flipped)),
                 ("nominal QoS violated", lambda: check_fault(2, violated)),
                 ("typed error", lambda: check_fault(1, None))]
    elif kind == "serve-mix":
        radius_reply, radius_cli, validate_reply, validate_cli = real
        flipped = copy.deepcopy(radius_reply)
        flipped["output"] = _flip_text_digit(flipped["output"], "rho = ")
        outside = copy.deepcopy(validate_reply)
        outside["output"] = outside["output"].replace("  yes  ", "  NO   ", 1)
        typed = {"id": radius_reply.get("id"), "ok": False,
                 "error": "overloaded", "message": "request queue full"}
        cases = [("radius digit changed",
                  lambda: check_reply(flipped, 0, radius_cli)),
                 ("row outside CI",
                  lambda: check_reply(outside, 0, validate_cli)),
                 ("typed error", lambda: check_reply(typed, 0, radius_cli))]
    fails = []
    for name, run in cases:
        if not run():
            fails.append("%s: check accepted the corrupted %s" % (kind, name))
    if not cases:
        fails.append("%s: no self-test cases" % kind)
    return fails


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None
