(** Test-only mutation switches.

    The conformance / exploration suite is validated by reintroducing
    historical bugs (see CHANGES.md) behind these flags and checking that
    the suite detects each one.  A mutant is named by a short slug; flags
    are read from the [MDST_MUTANT] environment variable (comma-separated
    slugs) or forced programmatically by the mutation-check harness.

    Production code paths consult {!enabled} at the mutation site; with no
    variable set and no forced list, every check is a cheap
    compare-against-empty, so the hooks cost nothing in normal runs. *)

val names : string list
(** The known mutant slugs:
    - ["grant-drop"]: the protocol discards Grant messages on receipt, so
      a validated swap never commits at [s] (the PR-1 lossy-variant bug).
    - ["stop-check-race"]: the convergence harness ignores
      [Pengine.faults_pending], re-opening the stop-check vs scheduled-fault
      race fixed in PR 1.
    - ["corrupt-shared-stream"]: [Sim.corrupt ~channels:true] draws its
      injected payloads and latencies from the engine's own stream instead
      of the per-victim split streams (the PR-2 schedule-coupling bug).
    - ["suppression-no-refresh"]: dirty-bit Info suppression never forces
      the periodic refresh, so a stale cache can silence a node forever
      (the failure mode the PR-3 refresh bounds). *)

val enabled : string -> bool
(** Is this mutant active?  Unknown slugs are simply never active. *)

val any : unit -> bool

val force : string list option -> unit
(** [force (Some slugs)] overrides the environment for the current process
    (the in-process mutation-check harness toggles mutants this way);
    [force None] reverts to the environment variable. *)

(** {1 Coverage probes}

    The coverage-guided schedule fuzzer ({!Mdst_check.Fuzz}) needs a
    per-execution branch signal from the protocol handlers.  Rather than a
    second instrumentation layer, the probes ride the same plumbing as the
    mutant flags: a [probe] call at a handler branch costs one
    load-and-branch while no harness is collecting, and a counter bump
    while one is — the default build pays nothing measurable.

    Collection is process-global and non-reentrant, like {!force}. *)

val probe : string -> unit
(** Record one hit of the named branch, if a collection is active. *)

val probe_n : string -> int -> unit
(** Record [k] hits at once ([k <= 0] is a no-op). *)

val with_coverage : (unit -> 'a) -> 'a * (string * int) list
(** Run the thunk with collection on; return its result and the sorted
    [(probe, hits)] census of every probe that fired.
    @raise Invalid_argument on nested use. *)
