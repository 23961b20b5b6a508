(** The discrete-event execution engine: one shard core that runs the
    sequential, the sharded and the synchronous daemon.

    The engine implements the paper's system model: an asynchronous
    message-passing network with reliable FIFO channels.  Every node runs
    one automaton instance; message transmissions receive a latency from the
    {!Latency} model, and per-channel FIFO order is enforced even when a
    later message samples a smaller latency.  A periodic local timer drives
    the paper's "Do forever: send InfoMsg" loop.

    The graph is partitioned into [domains] node-shards, each with its own
    event heap, metrics and FIFO floors.  With [domains = 1] (the default)
    everything runs on the caller's domain and nothing is spawned.  With
    more, {!run_window} runs each shard on its own domain (conservative
    PDES with lookahead [Latency.min_delay]; see the implementation
    header).  Every other operation runs on the caller between windows,
    over all shard heaps.

    {2 Trace identity across shard counts}

    Events are totally ordered by [(time, key)], the key naming the
    event's creating shard and that shard's creation counter.  Latencies
    come from per-node streams split off the root after [create]'s draws,
    and channel fault windows are compared against the sending event's
    causal round, so the timestamped event set does not depend on
    [domains]: runs with different shard counts execute the same events at
    the same times, with the same observer timeline, and could only differ
    on cross-shard ties at exactly equal float times (measure-zero under
    the stochastic latency models).  A fixed [(seed, domains, partition)]
    replays bit-identically.

    {2 Round accounting}

    [rounds t] reports the {e causal depth} of the execution: every event
    carries a tag one larger than the tag of the event that caused it, and
    the round counter is the maximum tag processed.  This is the standard
    asynchronous-round measure the paper's time-complexity claims use, and
    it is independent of the latency model's absolute numbers.

    {2 Memory model}

    O(n + m + in-flight messages): per-node state/context arrays, one event
    heap per shard, and per-channel FIFO floors stored as one float per
    adjacent ordered pair, so simulations scale to thousands of nodes (see
    EXPERIMENTS.md E19).  Installed fault plans index their channel events
    by ordered channel, so a send on an untampered channel does no
    fault-list scanning and builds no label string. *)

(** What an attached observer sees (message payloads are reduced to their
    family label so observers remain protocol-generic).  [Obs_fault] records
    every action of an installed {!Fault.plan} — a trace always explains
    what the adversary did. *)
type observation =
  | Obs_tick of { node : int; round : int; time : float }
  | Obs_deliver of { src : int; dst : int; label : string; round : int; time : float }
  | Obs_fault of { kind : string; detail : string; round : int; time : float }

module Make (A : Node.AUTOMATON) : sig
  type t

  type init =
    [ `Clean  (** every node boots via [A.init] *)
    | `Random  (** adversarial start: [A.random_state] + corrupted channels *)
    | `Custom of A.msg Node.ctx -> Mdst_util.Prng.t -> A.state ]

  val create :
    ?latency:Latency.t ->
    ?tick_period:float ->
    ?seed:int ->
    ?init:init ->
    ?partition:int array ->
    ?domains:int ->
    Mdst_graph.Graph.t ->
    t
  (** Defaults: uniform latency, [tick_period = 1.0], [seed = 42],
      [init = `Clean], one shard.  [partition] overrides the
      {!Mdst_graph.Partition.blocks} layout.
      @raise Invalid_argument on an empty or disconnected graph,
        [domains <= 0] or beyond {!Shard.max_shards}, an invalid
        partition, or a latency model without a positive lookahead. *)

  (** {1 Execution} *)

  val step : t -> bool
  (** Process the next event in [(time, key)] order, on the caller;
      [false] when no event is pending (cannot happen while ticks are
      armed). *)

  val run_window : t -> until:float -> unit
  (** Advance the whole simulation to virtual time [until]: spawns
      [domains - 1] worker domains, runs shard 0 on the caller, joins.
      While scheduled fault events wait to fire (one shard only), events
      run one at a time as under {!step}, so each fires at its round.
      No-op when [until <= now t].  A worker exception aborts the window,
      poisons the engine and re-raises on the caller. *)

  type outcome = {
    converged : bool;
    rounds : int;
    time : float;
    deliveries : int;
  }

  val run :
    t ->
    ?max_rounds:int ->
    ?check_every:int ->
    ?window:float ->
    stop:(t -> bool) ->
    unit ->
    outcome
  (** Run until [stop] holds or [max_rounds] (default 200_000) is exceeded.
      With one shard and [check_every], events run one at a time on the
      caller and [stop] is checked each time the round counter has
      advanced by [check_every].  Otherwise the run advances [window]
      (default 8.0) units of virtual time per {!run_window} and checks
      [stop] at each barrier. *)

  (** {1 Observation} *)

  val graph : t -> Mdst_graph.Graph.t

  val state : t -> int -> A.state

  val states : t -> A.state array
  (** The live array — do not mutate; use {!set_state}. *)

  val now : t -> float
  (** The horizon: virtual time the run is complete up to. *)

  val rounds : t -> int

  val deliveries : t -> int

  val events : t -> int
  (** Total executed events (ticks + deliveries) across shards. *)

  val metrics : t -> Metrics.t
  (** The live record with one shard, a merged copy with more. *)

  val pending_events : t -> int

  val in_flight : t -> (int * int * A.msg) list
  (** Every queued message as [(src, dst, msg)], sorted by arrival time.
      Per-channel arrival times are strictly increasing (the FIFO floor),
      so restricted to one ordered channel the list is in delivery order —
      what a conformance model needs to seed its queues.  O(events log
      events); an observation hook, not for hot paths. *)

  val observe : t -> (observation -> unit) -> unit
  (** Install an observer, called before each event is executed — or,
      for events run inside a parallel window, at the window's barrier
      with every shard's observations merged in [(time, key)] order.
      Replaces any previous observer. *)

  val unobserve : t -> unit

  (** {1 Schedule control}

      The schedule explorer, the fuzzer and the synchronous daemon pick
      events themselves from the {e eligible set}: every armed tick in node
      order, then the FIFO head of every non-empty ordered channel in
      [(src * n) + dst] order.  The set and its order are the same at
      every shard count. *)

  type choice =
    | Choose_tick of { node : int }
    | Choose_deliver of { src : int; dst : int; label : string }

  val step_with : t -> choose:(choice array -> int) -> bool
  (** Like {!step}, but [choose] picks which eligible event runs (it
      returns an index into the array).  Per-channel FIFO is preserved by
      construction; everything else — tick fairness, latency realism,
      cross-channel order — is surrendered to the caller.  Virtual time
      still only moves forward (executing an event whose arrival time
      already passed does not rewind [now]).
      @raise Invalid_argument if [choose] returns an out-of-range index. *)

  val step_sync : t -> bool
  (** One event of the synchronous daemon, a policy over the eligible
      set.  A round first delivers everything sent before its barrier
      (the messages of the least causal round queued) — each node's in
      send order, nodes in index order — then lets every node tick once,
      in index order.  From a fresh engine, every event of round [r] has
      causal round [r], and {!rounds} counts completed rounds at each
      barrier. *)

  val sync_round : t -> unit
  (** One whole round of {!step_sync}, in one sort of the heap (for long
      synchronous runs).  At a round barrier with one shard and no
      installed plan, every queued event belongs to the round and the
      eligible set offers them in a fixed order, so sorting once runs
      exactly the events {!step_sync} would, in the same order.
      @raise Invalid_argument with more than one shard, an installed
        plan, or queued events of different causal rounds. *)

  (** {1 Fault injection}

      Ad-hoc primitives first; {!install_faults} interprets a declarative,
      replayable {!Fault.plan} on top of them.  Plan-driven faults draw all
      randomness from per-event streams ({!Fault.rng_for}), never from the
      engine's own, so installing a plan leaves the fault-free part of the
      execution byte-identical. *)

  val set_state : t -> int -> A.state -> unit

  val corrupt : t -> ?fraction:float -> ?channels:bool -> unit -> int
  (** Replace the state of a random [fraction] (default 1.0) of nodes by
      [A.random_state], optionally also injecting random channel contents.
      Returns the number of nodes hit.  The victim set is drawn from the
      root stream; each victim then gets its own split stream feeding its
      state corruption and (with [channels]) its injected payloads and
      their latency draws, so the root stream advances identically with
      and without [channels]. *)

  val inject : t -> src:int -> dst:int -> A.msg -> unit
  (** Force a message onto a channel (the endpoints must be adjacent); its
      latency comes from [src]'s stream. *)

  val reset_node : t -> ?rng:Mdst_util.Prng.t -> [ `Init | `Random ] -> int -> unit
  (** Crash-restart one node: reinstall its state via [A.init] or
      [A.random_state].  [rng] (default: the root stream) feeds [`Random]
      re-initialization.  In-flight messages are untouched; use
      {!purge_channel} to model losing them. *)

  val purge_channel : t -> src:int -> dst:int -> int
  (** Drop every queued message on the ordered channel [src -> dst];
      returns how many were lost.  The channel's FIFO floor is {e kept}:
      messages sent after the purge are still delivered strictly after the
      arrival times of the purged ones, as on a real FIFO link that lost
      content without being re-established (see also {!Fault.event}
      [Crash], which purges all of a node's channels). *)

  val reshape :
    t ->
    ?remap:(old_graph:Mdst_graph.Graph.t -> new_graph:Mdst_graph.Graph.t -> A.state array -> A.state array) ->
    Mdst_graph.Graph.t ->
    unit
  (** Replace the topology mid-run (same node count, must stay connected;
      one shard only).  Messages in flight on vanished edges are
      lost; surviving channels keep their FIFO floors while new (or
      re-added) channels start fresh; node contexts are rebuilt (each node
      keeps its PRNG stream); [remap] re-homes the state array onto the new
      topology (default: states carried over untouched — protocol-specific
      carriers like [Mdst_core.Transplant.states] plug in here).
      @raise Invalid_argument on node-count mismatch, a disconnected
      replacement, or more than one shard. *)

  val install_faults :
    t ->
    ?remap:(old_graph:Mdst_graph.Graph.t -> new_graph:Mdst_graph.Graph.t -> A.state array -> A.state array) ->
    Fault.plan ->
    unit
  (** Interpret a {!Fault.plan} during subsequent execution: channel events
      tamper with sends while the sending event's causal round is inside
      their window, decided on the sending shard; scheduled events (crash /
      cut / link) fire when a step first runs at or past their round.
      [remap] is used by topology events (see {!reshape}).  Replaces any
      previously installed plan.
      @raise Invalid_argument on scheduled events with more than one
      shard. *)

  val fault_stats : t -> Fault.stats
  (** What the installed plan actually did so far (all-zero when no plan
      is installed). *)

  val faults_pending : t -> bool
  (** Is adversarial work from the installed plan still outstanding?  True
      while scheduled events wait to fire; while a queued event's causal
      round is still inside some channel event's window (it may yet send a
      tampered message); and while any message a channel event tampered
      with (corrupted payload, duplicate copy, reordered delivery) is in
      flight — such a message is adversarial state even after its window
      closes, and delivering it can knock a quiescent configuration out of
      legitimacy.  Convergence checks must not declare victory while this
      holds. *)
end
