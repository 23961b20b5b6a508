(** E19 — engine macro-benchmarks: events/sec and live memory of the async
    engine at n up to 2048, on ER (avg deg 4) and grid topologies, plus a
    sharded parallel-engine sweep (schema v2) with a speedup column.  The
    points feed BENCH_engine.json (via [mdst_sim bench] / [make bench-json])
    — the repository's tracked perf trajectory. *)

type point = {
  topology : string;  (** "er" or "grid" *)
  n : int;
  m : int;
  domains : int;  (** shards: 1 = sequential stepping, >1 = parallel windows *)
  events : int;  (** engine events processed during the timed window *)
  elapsed_s : float;
  events_per_sec : float;
  speedup : float;
      (** events/sec relative to the domains=1 point of the same
          (topology, n); 1.0 for sequential points, 0.0 when no baseline
          point exists. *)
  engine_bytes : int;
      (** live-heap delta attributable to the engine and its run — with the
          sparse FIFO-floor representation this is O(n + m + in-flight). *)
}

val cores : unit -> int
(** [Domain.recommended_domain_count ()] — recorded in the JSON header. *)

val points : ?quick:bool -> unit -> point list
(** Quick mode: sequential n in 64, 256 plus one 2-domain point at n=256,
    with a 20k-event budget (CI smoke); full mode adds sequential 1024 and
    2048 and a parallel sweep at n in 1024, 2048 with 2, 4 and 8 domains,
    200k events per point.  Runs an untimed warm-up first so the initial
    measured point does not absorb cold-start costs. *)

val table : point list -> Table.t

val run : ?quick:bool -> unit -> Table.t list
(** Registry entry point (experiment E19). *)

val to_json : ?quick:bool -> point list -> string
(** Schema "mdst-bench-engine/2": header records the machine's core count
    (a speedup measured with more domains than cores is an oversubscription
    datum, not a scaling claim). *)

val write_json : path:string -> ?quick:bool -> point list -> unit

val load_json : string -> point list
(** Read back a BENCH_engine.json written by {!write_json} (line-oriented;
    unparseable lines are skipped, so schema drift yields an empty list
    rather than an exception). *)

val regressions : ?tolerance:float -> baseline:point list -> point list -> string list
(** [regressions ~baseline fresh] — one human-readable line per benchmark
    point (matched on topology, n and domains) whose events/sec fell more
    than [tolerance] (default 0.3) below the baseline.  Empty means the
    guard passes. *)
