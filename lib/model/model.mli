(** Executable reference model of the four-module MDST composition.

    A pure small-step function over an idealized {e global} configuration:
    every node's state plus the exact content of every FIFO channel.  The
    step semantics follow docs/PROTOCOL.md rule by rule — spanning-tree
    rules R1/R2, the dmax PIF and colour wave, the Search DFS, and the
    three-pass Remove/Grant/Reverse degree reduction — written in plain
    specification style (lists, structural recursion, no sharing or
    fast-path tricks), independently of [Mdst_core.Proto]'s optimized
    handler code.

    The conformance driver ({!Mdst_check.Conformance}) runs the real
    automaton and this model on the same engine-produced event sequence and
    diffs the state after every event; the bounded schedule explorer
    ({!Mdst_check.Explore}) does the same over {e all} delivery
    interleavings of small instances.  Per-node state deliberately reuses
    [Mdst_core.State.t] so a divergence can be reported field by field, but
    nothing of the real implementation's step logic is shared.

    The model is deterministic and total: [step] never draws randomness
    (the protocol's handlers are deterministic; only adversarial
    initialization is random, and that is an input here). *)

module Graph = Mdst_graph.Graph
module State = Mdst_core.State
module Msg = Mdst_core.Msg

(** Mirror of [Mdst_core.Proto.CONFIG], as a value. *)
type params = {
  busy_ttl : int;
  deblock_ttl : int;
  eager_prune : bool;
  enable_deblock : bool;
  enable_reduction : bool;
  graceful_reattach : bool;
  search_on_info : bool;
  info_suppression : bool;
  info_refresh_every : int;
  search_refresh_every : int;
}

val default : params
(** [Proto.Default_config] as a value. *)

val suppressed : params
(** [Proto.Suppressed_config]: [default] with [info_suppression = true]. *)

(** The idealized global configuration.  Channels are per ordered adjacent
    pair, FIFO, head = oldest; the simulator's latency and arrival-time
    machinery is abstracted away entirely — only delivery {e order} exists
    here, supplied by the [event] sequence. *)
type config = {
  graph : Graph.t;
  params : params;
  nodes : State.t array;  (** indexed by dense node index *)
  channels : Msg.t list array;  (** index [(src * n) + dst] *)
}

type event =
  | Tick of int  (** local timer of one node fires *)
  | Deliver of { src : int; dst : int }
      (** head of the FIFO channel [src -> dst] is delivered *)

val make :
  params:params ->
  states:State.t array ->
  in_flight:(int * int * Msg.t) list ->
  Graph.t ->
  config
(** [make ~params ~states ~in_flight graph] seeds a configuration.
    [states] is copied; [in_flight] lists queued messages as
    [(src, dst, msg)] oldest-first {e per channel} (cross-channel order is
    irrelevant). *)

val step : config -> event -> config
(** One atomic step: the handler runs, and every message it sends is
    appended (in send order) to its channel.  The input configuration is
    not mutated.
    @raise Invalid_argument on [Deliver] over an empty channel, a
    non-adjacent pair, or an out-of-range node. *)

val peek : config -> src:int -> dst:int -> Msg.t option
(** Oldest undelivered message on the channel, if any. *)

val channel : config -> src:int -> dst:int -> Msg.t list

val nonempty_channels : config -> (int * int) list
(** All [(src, dst)] with a queued message, in channel-index order — the
    explorer's deterministic enumeration of enabled deliveries. *)

val event_to_string : event -> string
(** ["t3"] for [Tick 3], ["0>2"] for [Deliver {src = 0; dst = 2}] — the
    vocabulary of explorer reproducer strings. *)

val event_of_string : string -> event
(** @raise Failure on malformed input. *)

val equal : config -> config -> bool
(** Structural equality of states and channels (graph and params assumed
    shared). *)
