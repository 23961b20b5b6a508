(** Coverage-guided schedule fuzzing: the adversarial daemon as a search.

    The bounded explorer ({!Explore}) enumerates every interleaving of
    tiny instances and the PBT layer samples uniform random schedules;
    neither seeks out the rare interleavings where self-stabilization
    proofs actually bite.  The fuzzer closes that gap greybox-style: it
    feeds {e delivery schedules} to the {!Lockstep} driver as preference
    lists and keeps a corpus of schedules ranked by novelty — new
    projection fingerprints ({!Mdst_core.Projection.fingerprint_states}
    plus the labeling-insensitive
    {!Mdst_core.Projection.fingerprint_coarse}) and new handler-branch hit
    buckets (the [proto:*] probes riding the {!Mdst_util.Mutation}
    plumbing).  Interesting executions are mutated (swap / delay /
    duplicate-position / chunk-drop / crossover / tail extension) and fed
    back.

    {2 Swarm configurations}

    Every corpus entry carries its own configuration: protocol variant
    (Default / Suppressed), initial distribution (clean / legitimate /
    random), an optional {!Mdst_sim.Fault.plan} (adversity mode: the
    {!Convergence} harness with the fuzzed schedule as its prefix), and a
    stream-decoupling toggle (twin engines replaying
    {!Mdst_sim.Pengine.Make.corrupt} pulses that must agree regardless of
    the [channels] flag).  It also names the engine's shard count (1, 2
    or 4; more than one only for plans without scheduled events) and the
    daemon: asynchronous (the fuzzed schedule) or synchronous
    ({!Mdst_sim.Pengine.Make.step_sync}, where the schedule is only
    recorded).

    {2 Oracles and trophies}

    A failing execution is a {b trophy}: lockstep divergence, closure
    violation (both from {!Lockstep}, with {!Explore.premise} as the
    closure premise), adversity failure ({!Convergence.verdict}), stream
    decoupling, or an exception.  Trophies are greedily shrunk
    ({!shrink_trophy}) and printed as one-line reproducers
    ({!entry_to_string}) that {!replay} re-executes {e strictly} — a
    replayed schedule step that is no longer eligible (tick not armed,
    channel empty or purged) fails closed with a clear error instead of
    silently falling back to default order. *)

type variant = [ `Default | `Suppressed ]

type init = [ `Clean | `Legitimate | `Random ]

type daemon = [ `Async | `Sync ]

(** One swarm configuration.  [plan] empty and [double_corrupt] off is
    lockstep mode; a non-empty [plan] selects adversity mode;
    [double_corrupt] selects the twin-engine decoupling oracle (then
    [plan] and the schedule are ignored). *)
type config = {
  variant : variant;
  init : init;
  graph : Mdst_graph.Graph.t;
  engine_seed : int;
  plan : Mdst_sim.Fault.plan;
  double_corrupt : bool;
  domains : int;  (** engine shards *)
  daemon : daemon;
}

(** A corpus entry: a configuration plus a delivery schedule in
    {!Mdst_model.Model.event_to_string} vocabulary (["t3"] / ["0>2"]).
    [steps] is the adaptive execution horizon; entries produced by the
    fuzzer always have [steps = List.length sched] (every executed event
    was recorded), so they replay strictly. *)
type entry = { config : config; sched : string list; steps : int }

val entry_to_string : entry -> string
(** One line:
    [variant=default;init=clean;n=5;ids=...;edges=0-1,...;seed=7;plan=...;
    dc=1;steps=12;sched=t0,0>1,...] — [plan] / [dc] / [steps] / [sched]
    omitted when empty, off, equal to the schedule length, or empty. *)

val entry_of_string : string -> entry
(** @raise Invalid_argument on malformed input. *)

type trophy_kind = Divergence | Closure | Crash | Adversity | Decoupling

val kind_to_string : trophy_kind -> string

type trophy = { t_kind : trophy_kind; t_entry : entry; t_detail : string }

val replay : entry -> (unit, trophy_kind * string) result
(** Strict replay: re-execute the entry's schedule exactly, with every
    oracle armed.  [Ok ()] for a clean run, [Error (kind, detail)] when
    the failure reproduces.
    @raise Failure when the schedule cannot be replayed as recorded: it
    is empty, it runs out before [steps] events (the adaptive fallback is
    disabled in replay), or a step is not eligible — e.g. it references
    a channel that is empty or was purged. *)

val shrink_trophy : ?max_attempts:int -> trophy -> trophy
(** Greedy minimization: drop schedule chunks, then fault-plan events,
    re-running each candidate and keeping it only when the {e same}
    trophy kind still fires.  The result replays strictly.  Idempotent on
    already-minimal trophies (candidate sequences never include the
    input itself).  Default [max_attempts = 300] executions. *)

type mode = [ `Fuzz | `Random_walk ]
(** [`Fuzz] is the coverage-guided campaign (swarm sweep seeds, corpus,
    novelty feedback, mutation).  [`Random_walk] is the uniform baseline:
    a fresh random configuration and pure random scheduling every
    execution, no corpus, no feedback — the control arm the acceptance
    criterion compares against. *)

type stats = {
  s_mode : mode;
  s_execs : int;  (** executions performed *)
  s_corpus : int;  (** corpus entries retained (0 in [`Random_walk]) *)
  s_fine : int;  (** distinct projection fingerprints observed *)
  s_coarse : int;  (** distinct labeling-insensitive fingerprints *)
  s_buckets : int;  (** distinct (probe, hit-bucket) coverage points *)
  s_trophies : trophy list;  (** shrunk, most recent first *)
  s_elapsed : float;  (** CPU seconds *)
  s_timeline : (int * int) list;
      (** [(execs, distinct fine fingerprints)] samples, oldest first —
          the novelty-over-time curve BENCH_fuzz.json plots fuzz vs
          random *)
}

val campaign :
  ?mode:mode ->
  ?quick:bool ->
  ?budget_s:float ->
  ?max_execs:int ->
  ?max_n:int ->
  ?stop_on_trophy:bool ->
  ?shrink_trophies:bool ->
  ?corpus_dir:string ->
  seed:int ->
  unit ->
  stats
(** Run one campaign.  Defaults: [mode = `Fuzz], [quick = false],
    [budget_s = 60.], [max_execs = max_int], [stop_on_trophy = false],
    [shrink_trophies = true] ({!detect} turns it off — detection measures
    executions to the {e first} trophy, not minimization cost).
    [quick] caps graph sizes (CI smoke); [max_n] overrides the size cap.
    [corpus_dir], when given, is loaded before the swarm sweep and every
    retained entry / shrunk trophy is persisted into it ([NNNNNN.case],
    [trophy-N.case] + [trophy-N.info]).  Deterministic for a fixed seed
    and caps (budget permitting). *)

type detection = {
  d_mutant : string;
  d_fuzz : int option array;  (** per seed: execs to first trophy *)
  d_random : int option array;
}

val detect :
  ?seeds:int -> ?max_execs:int -> ?budget_s:float -> string -> detection
(** Force one {!Mdst_util.Mutation} mutant on and measure, over [seeds]
    independent campaign seeds (default 5), how many executions the
    coverage-guided campaign and the uniform random walker need to
    produce their first trophy.  [max_execs] (default 2000) and
    [budget_s] (default 120 s) cap each arm.  Restores the flag state.
    @raise Invalid_argument on an unknown mutant slug. *)

val median_execs : int option array -> max_execs:int -> int
(** Median with [None] censored at [max_execs + 1]. *)

val bench_json :
  ?quick:bool ->
  ?seeds:int ->
  ?max_execs:int ->
  ?budget_s:float ->
  seed:int ->
  unit ->
  string * bool
(** The BENCH_fuzz.json payload (schema [mdst-bench-fuzz/1]): campaign
    throughput and novelty timelines for both modes plus the per-mutant
    detection table.  The boolean is the acceptance verdict: every mutant
    detected in all fuzz seeds with a fuzz median strictly below the
    random median. *)
