"""Which momentcert functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules. Each span target bills its self time
to a group; hot helpers get count-only wrappers. Counters that need the
call arguments (dimension, bit height, rank-one updates) are computed in
before/after hooks, outside the measured spans.
"""

from __future__ import annotations

from tracer import Target, Tracer


def _bump_max(tr: Tracer, key: str, value: int) -> None:
    tr.counters[key] = max(tr.counters[key], value)


def _transform_entries(tr: Tracer, args: tuple, kwargs: dict) -> None:
    tr.counters["lattice.transform.entries"] += 1 << args[0].n


def _form_terms(tr: Tracer, args: tuple, kwargs: dict, form) -> None:
    tr.counters["adf.terms"] += len(form.terms)


def _assemble_updates(tr: Tracer, args: tuple, kwargs: dict) -> None:
    tr.counters["adf.assemble.updates"] += sum(
        sum(1 for v in term.g_vec if v) ** 2 for term in args[0].terms
    )


def _oracle_input(tr: Tracer, args: tuple, kwargs: dict) -> None:
    rows = args[0]
    _bump_max(tr, "certify.oracle.dim_max", len(rows))
    bits = max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for row in rows for x in row),
        default=0,
    )
    _bump_max(tr, "certify.oracle.max_bits", bits)
    seen = tr.job_state.setdefault("oracle", set())
    key = hash(tuple(tuple(row) for row in rows))
    if key not in seen:
        seen.add(key)
        tr.counters["certify.oracle.distinct"] += 1


def _oracle_verdict(tr: Tracer, args: tuple, kwargs: dict, cert) -> None:
    tr.counters["certify.oracle.psd" if cert.verdict == "PSD" else "certify.oracle.notpsd"] += 1


def _recipe_outcome(tr: Tracer, args: tuple, kwargs: dict, cert) -> None:
    tr.counters["certify.recipe.conclusive"] += bool(cert.recipe_conclusive)


L, A, C, G = "momentcert.lattice", "momentcert.adf", "momentcert.certify", "momentcert.gaps"

TARGETS = [
    Target(L, "to_pseudo_probabilities", "lattice.transform", before=_transform_entries),
    Target(L, "from_pseudo_probabilities", "lattice.transform", before=_transform_entries),
    Target(L, "enumerate_subsets", "lattice.enumerate.calls", count_only=True),
    Target(L, "max_ground_size", "lattice.env_reads", count_only=True),
    Target("momentcert.moments", "constraint_diagonal", "moments.constraint_diagonal"),
    Target(A, "from_pseudo", "adf.from_pseudo", after=_form_terms),
    Target(A, "g_vector", "adf.g_vector.calls", count_only=True),
    Target(A, "assemble", "adf.assemble", before=_assemble_updates),
    Target(A, "AlmostDiagonalForm.to_json_dict", "adf.json"),
    Target(A, "AlmostDiagonalForm.from_json_dict", "adf.json"),
    Target(C, "is_psd_exact", "certify.oracle", before=_oracle_input, after=_oracle_verdict),
    Target(C, "certify_recipe", "certify.recipe", after=_recipe_outcome),
    Target(C, "pivot_reduce", "certify.pivot"),
    Target(C, "gershgorin", "certify.gershgorin"),
    Target(G, "verify_knapsack_level", "gaps"),
    Target(G, "verify_mkp", "gaps"),
    Target(G, "verify_schedule", "gaps"),
    Target(G, "find_min_feasible_P", "gaps"),
    Target("momentcert.replay", "replay_demand_reduction", "replay"),
    Target("momentcert.cli", "main", "cli"),
]

# Wrappers each workload is meant to exercise; a traced run in which one
# of them never fired does not stress the layer it claims to.
_COMMON = {"momentcert.cli.main", f"{C}.certify_recipe", f"{C}.gershgorin", f"{C}.is_psd_exact",
           f"{A}.from_pseudo", f"{L}.enumerate_subsets", f"{L}.max_ground_size"}
EXERCISED = {
    "knapsack": _COMMON | {f"{G}.verify_knapsack_level", f"{C}.pivot_reduce", f"{A}.assemble",
                           f"{A}.g_vector", f"{L}.to_pseudo_probabilities",
                           f"{L}.from_pseudo_probabilities", "momentcert.moments.constraint_diagonal"},
    "schedule": _COMMON | {f"{G}.verify_schedule", f"{G}.find_min_feasible_P",
                           f"{L}.to_pseudo_probabilities", f"{L}.from_pseudo_probabilities",
                           "momentcert.moments.constraint_diagonal"},
    "adf": _COMMON | {f"{A}.AlmostDiagonalForm.to_json_dict", f"{A}.AlmostDiagonalForm.from_json_dict",
                      f"{A}.assemble", f"{A}.g_vector", f"{L}.to_pseudo_probabilities"},
    "mkp": _COMMON | {f"{G}.verify_mkp", "momentcert.replay.replay_demand_reduction",
                      f"{C}.pivot_reduce", f"{A}.assemble", f"{A}.g_vector",
                      "momentcert.moments.constraint_diagonal"},
}

SELF_GROUPS = [
    "lattice.transform", "moments.constraint_diagonal", "adf.from_pseudo", "adf.assemble",
    "adf.json", "certify.oracle", "certify.recipe", "certify.pivot", "certify.gershgorin",
    "gaps", "replay", "cli",
]
# Additive counters, reported per traced job.
PER_JOB_COUNTS = [
    "lattice.transform.entries", "lattice.enumerate.calls", "lattice.env_reads",
    "moments.constraint_diagonal.calls", "adf.g_vector.calls", "adf.terms",
    "adf.assemble.calls", "adf.assemble.updates", "certify.oracle.calls",
    "certify.oracle.psd", "certify.oracle.notpsd", "certify.recipe.calls",
    "certify.pivot.calls", "certify.gershgorin.calls",
]
MAXIMA = {"certify.oracle.dim_max": "count", "certify.oracle.max_bits": "bits"}


def per_layer_metrics(tr: Tracer, jobs: int, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}; times and counts are per traced job."""
    per = 1 / jobs if jobs else 0.0
    c = tr.counters
    out = {}
    selfs = tr.self_times()
    for group in SELF_GROUPS:
        out[f"{group}.self_s"] = (selfs[group] * per, "s/job")
    for name in PER_JOB_COUNTS:
        out[name] = (c[name] * per, "count/job")
    out["cli.artifact_bytes"] = (c["cli.artifact_bytes"] * per, "B/job")
    for name, unit in MAXIMA.items():
        out[name] = (c[name], unit)
    calls, recipes = c["certify.oracle.calls"], c["certify.recipe.calls"]
    out["certify.oracle.unique_frac"] = (c["certify.oracle.distinct"] / calls if calls else 0.0, "frac")
    out["certify.recipe.conclusive_frac"] = (
        c["certify.recipe.conclusive"] / recipes if recipes else 0.0, "frac")
    out["trace.jobs"] = (jobs, "count")
    out["trace.job_s"] = (traced_s * per, "s/job")
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1 if untraced_s else 0.0, "frac")
    return out

