"""The four benchmark workloads.

Each workload function takes the freshly imported package (`mc`, with
attributes `census`, `oracle`, `words` and `fp`), a seeded `random.Random` and
the checkout root, and returns the pass's job list.  Everything it computes --
presentations, references, samples, cache warm-up -- is set-up and is timed
as `setup_s`.  Each job's reference comes from a different pathway than the
call being timed: a closed form, a census count, or a value frozen from an
earlier independent check (labelled as such).  Why each workload exists is
in README.md.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

from harness import Job

CLI_TIMEOUT_S = 60


def _warm_oracle_tables(mc, keys):
    # The oracle memoizes its surjectivity table per (n, p, rank); fill it
    # before timing, as a long-running caller would have.  A later oracle
    # may drop the table, so its absence is not an error.
    table = getattr(mc.oracle, "_surjective_table", None)
    if table is None:
        return
    for key in keys:
        table(*key)


# --- oracle-sweep -------------------------------------------------------------


def _epi_job(mc, label, pres, n, p, expect, reference):
    assignments = p ** (n * (n - 1) // 2 * pres.rank)

    def call():
        epi = mc.oracle.count_epi_bruteforce(pres, n, p)
        return epi, {"oracle.count_epi_bruteforce.assignments": assignments,
                     "oracle.count_epi_bruteforce.epi": epi}

    return Job(label, call, expect, reference)


def oracle_sweep(mc, rng, root):
    census, words, G = mc.census, mc.words, mc.census.GroupModel

    def formula(model, p, target=4):
        return census.epi_count(model, p, target).epi

    d2 = formula(G.demushkin(3, 2), 2)
    r, p = 3, 2
    ram01 = (p ** r - 1) * (p ** r - p) * (p ** r - p ** 2) * p ** (3 * r)
    specs = [
        # the large space: 5^9 assignments, several oracle chunks
        ("free(3) -> U_3(F_5)", words.free_presentation(3), 3, 5,
         census.cp_count(G.free(3), 5) * 5 ** 3, "closed cp_count * p^rank"),
        ("D2 d=3 f=2 -> U_4(F_2)",
         words.demushkin_presentation(3, 2, 2, "D2", f=2), 4, 2, d2,
         "census formula"),
        ("D2 d=3 f=inf -> U_4(F_2)",
         words.demushkin_presentation(3, 2, 2, "D2", f="inf"), 4, 2, d2,
         "census formula"),
        ("borromean -> U_4(F_2)", words.preset("borromean"), 4, 2,
         formula(census.preset_model("borromean"), 2),
         "census formula (s3 scan)"),
        ("ram01 -> U_4(F_2)", words.preset("ram01"), 4, 2, ram01,
         "(p^r-1)(p^r-p)(p^r-p^2)p^(3r)"),
        ("D1 d=4 q=3 -> U_3(F_3)", words.demushkin_presentation(4, 3, 3, "D1"),
         3, 3, census.cp_count(G.demushkin(4, 3), 3) * 3 ** 4,
         "closed cp_count * p^rank"),
        ("free(3) -> U_3(F_3)", words.free_presentation(3), 3, 3,
         census.cp_count(G.free(3), 3) * 3 ** 3, "closed cp_count * p^rank"),
        ("free(2) -> U_4(F_3)", words.free_presentation(2), 4, 3,
         formula(G.free(2), 3), "census formula"),
    ]
    _warm_oracle_tables(mc, {(n, p, pres.rank)
                             for _l, pres, n, p, _e, _r in specs})
    jobs = [_epi_job(mc, *spec) for spec in specs]
    rng.shuffle(jobs)
    return jobs


# --- scan-grid ----------------------------------------------------------------


def _pair_count(census, model, p):
    try:
        return census.cp_count(model, p)
    except ValueError:  # no closed pair count for this family
        return census.cp_count(model, p, method="enumerate")


def _tmp_job(mc, label, model, p, expect, reference):
    census = mc.census
    relators = model.data.r if model.kind == "s3" else 1
    # computed, not measured: admissible pairs times the P z-candidates each
    z_candidates = _pair_count(census, model, p) * p ** model.rank * relators

    def call():
        triples = census.tmp_enumerate(model, p)[0]
        return triples, {"census.tmp_enumerate.triples": triples,
                         "census.tmp_enumerate.z_candidates": z_candidates}

    return Job(label, call, expect, reference)


def _tmp_sum_job(mc, label, model, p, known=None):
    census = mc.census

    def call():
        return census.epi_count(model, p, method="tmp_sum").epi, {}

    return Job(label, call, census.epi_count(model, p).epi, "census formula",
               known=known)


def scan_grid(mc, rng, root):
    census, G = mc.census, mc.census.GroupModel
    jobs = [
        _tmp_job(mc, f"tmp_enumerate {m.describe()} p={p}", m, p,
                 census.tmp_closed(m, p), "tmp_closed")
        for m, p in ((G.demushkin(6, 2, case="D3"), 2),
                     (G.dd(2, 5, 2, 5), 5),
                     (G.df(4, 3, 1), 3),
                     (G.dd(2, 3, 2, 3), 3))
    ]
    jobs.append(_tmp_sum_job(mc, "tmp_sum demushkin(4,3) p=3",
                             G.demushkin(4, 3), 3))
    # Known disagreement (README.md): the scan gives 5585302978560 and the
    # dd formula 5920511754240, inside the formula's rank >= 3 hypothesis.
    # The job stays in the pass and counts as failed.
    jobs.append(_tmp_sum_job(mc, "tmp_sum dd(4,4,4,4) p=2",
                             G.dd(4, 4, 4, 4), 2, known=5585302978560))
    jobs.append(_tmp_job(mc, "tmp_enumerate counterexample1 p=3",
                         census.preset_model("counterexample1"), 3, 195264,
                         "frozen at the benchmark's first commit"))
    d3 = G.demushkin(8, 2, case="D3")
    jobs.append(Job(
        "cp_count enumerate demushkin(8,2,D3) p=2",
        lambda: (census.cp_count(d3, 2, method="enumerate"), {}),
        census.cp_count(d3, 2), "closed cp_count"))
    rng.shuffle(jobs)
    return jobs


# --- lift-fanout --------------------------------------------------------------

# seeded sample sizes, per pass: p = 2 per model, then the two p = 3 models
LIFT_SAMPLE_P2 = 160
LIFT_SAMPLE_D1_P3 = 6
LIFT_SAMPLE_FREE_P3 = 192


def _lift_jobs(mc, label, model, p, triples, image_class):
    pres = mc.census.model_presentation(model, p)
    expect = mc.census.z1_closed(model, p, image_class)
    counters = {"oracle.count_lifts_bruteforce.assignments":
                p ** (3 * pres.rank)}
    jobs = []
    for i, t in enumerate(triples):
        def call(t=t):
            return mc.oracle.count_lifts_bruteforce(pres, p, t), counters
        jobs.append(Job(f"lifts {label} #{i}", call, expect, "z1_closed"))
    return jobs


def lift_fanout(mc, rng, root):
    census, words, G = mc.census, mc.words, mc.census.GroupModel
    jobs = []
    for case, q in (("D1", 4), ("D3", 2), ("D4", 2)):
        model = G.demushkin(4, q, case=case)
        triples = census.tmp_enumerate(model, 2, want_list=True)[1]
        jobs += _lift_jobs(mc, f"{case} d=4 p=2", model, 2,
                           rng.sample(triples, LIFT_SAMPLE_P2), "noncentral")
    # seeded odd-p samples: the only oracle check of z1_closed at p != 2
    model = G.demushkin(4, 3)
    triples = census.tmp_enumerate(model, 3, want_list=True)[1]
    jobs += _lift_jobs(mc, "D1 d=4 q=3 p=3", model, 3,
                       rng.sample(triples, LIFT_SAMPLE_D1_P3), "noncentral")
    model = G.free(3)
    triples = census.tmp_enumerate(model, 3, want_list=True)[1]
    jobs += _lift_jobs(mc, "free(3) p=3", model, 3,
                       rng.sample(triples, LIFT_SAMPLE_FREE_P3), "any")

    borromean = words.preset("borromean")
    k = 3

    def cup():
        result = mc.oracle.cup_defining_check(borromean, 2, k)
        return ((result["checked"], len(result["failures"])),
                {"oracle.cup_defining_check.tuples": result["checked"]})

    # the borromean pairing vanishes, so every k-tuple qualifies; vanishing
    # cups guarantee a defining system for a triple product
    jobs.append(Job("cup_defining_check borromean k=3", cup,
                    (2 ** (borromean.rank * k), 0),
                    "p^(rank*k) tuples, 0 failures"))

    ce1 = words.preset("counterexample1")
    chars = [mc.fp.FpVector(tuple(int(i == j) for j in range(4)), 2)
             for i in range(4)]
    jobs.append(Job(
        "massey_system_exists counterexample1 e1..e4",
        lambda: (mc.oracle.massey_system_exists(ce1, chars, 2, budget=2 ** 20),
                 {}),
        False, "frozen: the preset is the paper's counterexample"))
    rng.shuffle(jobs)
    return jobs


# --- cli-mix ------------------------------------------------------------------


def _run_cli(root, argv):
    """Run one CLI command in its own process group; (code, out, err, wall)."""
    env = dict(os.environ, MASSEY_CENSUS_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "massey_census.cli", *argv], cwd=root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the desk suite's pool too
        proc.communicate()
        raise
    return proc.returncode, out, err, time.perf_counter() - t0


def _cli_job(root, label, argv, expect, reference, parse):
    """`parse(code, out, err)` gives (value, work_s): the checked value and
    the seconds of work the command reports about itself."""

    def call():
        code, out, err, wall = _run_cli(root, argv)
        value, work_s = parse(code, out, err)
        counters = {"cli.calls": 1, "cli.overhead_s": wall - work_s}
        if argv[0] == "verify":
            counters["verify.rows_s"] = work_s
        return value, counters

    return Job(label, call, expect, reference)


def _json_fields(*keys):
    def parse(code, out, err):
        if code:
            return (code, err.strip()), 0.0
        payload = json.loads(out)
        return ((code, *(payload[k] for k in keys)),
                payload.get("ms", 0) / 1000)
    return parse


def _parse_desk(code, out, err):
    rows = json.loads(out)["rows"] if out else []
    ok = bool(rows) and all(r["ok"] for r in rows if not r["exploratory"])
    return (code, ok), sum(r["ms"] for r in rows) / 1000


def _parse_refusal(code, out, err):
    return (code, "odd rank d = 5" in err), 0.0


# (degree, p, q, target): fields with the p-th roots of unity; q != 2 needs
# an even rank degree + 2.  Every entry is closed-form work of equal cost.
EXTENSION_GRID = [
    (d, 2, q, t) for d in (1, 2, 3, 4, 5) for q in ("2",) for t in (3, 4)
] + [
    (d, p, q, t)
    for p, qs in ((2, ("4", "8", "inf")), (3, ("3", "9", "inf")),
                  (5, ("5", "25", "inf")))
    for q in qs for d in (2, 4) for t in (3, 4)
]
EXTENSION_SAMPLE = 4


def cli_mix(mc, rng, root):
    census, G = mc.census, mc.census.GroupModel
    jobs = [_cli_job(root, "verify --suite desk", ["verify", "--suite", "desk",
                                                   "--json"],
                     (0, True), "desk rows' own checks", _parse_desk)]
    for d, p, q, t in rng.sample(EXTENSION_GRID, EXTENSION_SAMPLE):
        nu = census.nu_local_closed(d, p, q, t)
        jobs.append(_cli_job(
            root, f"count-extensions degree={d} p={p} q={q} U_{t}",
            ["count-extensions", "--local-degree", str(d), "--p", str(p),
             "--q", q, "--target", str(t)],
            (0, str(nu)), "nu_local_closed", _json_fields("nu")))
    for label, flags, model, p in (
        ("demushkin", ["--model", "demushkin", "--d", "4", "--q", "4"],
         G.demushkin(4, 4), 2),
        ("free", ["--model", "free", "--d", "3"], G.free(3), 5),
        ("df", ["--model", "df", "--d", "4", "--q", "3", "--e", "1"],
         G.df(4, 3, 1), 3),
        ("dd", ["--model", "dd", "--d", "4", "--q", "4", "--d2", "4",
                "--q2", "4"], G.dd(4, 4, 4, 4), 2),
        ("s3", ["--model", "preset", "--name", "borromean"],
         census.preset_model("borromean"), 2),
    ):
        report = census.nu_extensions(model, p)
        jobs.append(_cli_job(
            root, f"count-epi formula {label} p={p}",
            ["count-epi", *flags, "--p", str(p)],
            (0, str(report.epi), str(report.nu)), "in-process census",
            _json_fields("epi", "nu")))
    borromean = census.preset_model("borromean")
    triples = census.tmp_enumerate(borromean, 2)[0]
    jobs.append(_cli_job(
        root, "tmp --list borromean",
        ["tmp", "--model", "preset", "--name", "borromean", "--p", "2",
         "--list"],
        (0, str(triples)), "in-process scan", _json_fields("tmp")))
    jobs.append(_cli_job(
        root, "z1 demushkin(4,4) noncentral",
        ["z1", "--model", "demushkin", "--d", "4", "--q", "4", "--p", "2",
         "--class", "noncentral"],
        (0, str(census.z1_closed(G.demushkin(4, 4), 2, "noncentral"))),
        "in-process z1_closed", _json_fields("z1")))
    jobs.append(_cli_job(
        root, "massey counterexample1 e1..e4",
        ["massey", "--model", "preset", "--name", "counterexample1", "--p",
         "2", "--chars", "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"],
        (0, False), "frozen: the preset is the paper's counterexample",
        _json_fields("exists")))
    jobs.append(_cli_job(
        root, "count-extensions degree=3 p=2 q=4 (refused)",
        ["count-extensions", "--local-degree", "3", "--p", "2", "--q", "4"],
        (1, True), "exit 1 with its message", _parse_refusal))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "oracle-sweep": oracle_sweep,
    "scan-grid": scan_grid,
    "lift-fanout": lift_fanout,
    "cli-mix": cli_mix,
}
