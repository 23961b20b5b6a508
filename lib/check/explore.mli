(** Bounded schedule exploration: every delivery interleaving of a small
    instance, checked for model conformance and closure.

    The engine's scheduler realizes {e one} interleaving per seed; the
    explorer enumerates {e all} of them up to caps.  From an initial
    configuration it runs a DFS over enabled events (every non-empty
    channel's FIFO head, every node's tick), keeping a visited set keyed by
    {!Mdst_core.Projection.fingerprint_states} (with full structural
    comparison inside each hash bucket, so collisions never hide a state).
    On every transition it checks

    - {b conformance}: the real handlers ({!Mdst_core.Proto}) and the
      reference model ({!Mdst_model.Model}), stepped from the same
      configuration by the same event, produce identical configurations;
    - {b closure}: from any configuration satisfying the legitimacy-closure
      premise (legitimate tree, no pending swap, fresh and accurate
      neighbour mirrors, in-flight messages that cannot carry stale data,
      and no Fürer–Raghavachari improvement available — the protocol keeps
      committing swaps while one exists, which legitimately changes the
      tree), every successor is again legitimate.

    A violation reports the full event path from the initial configuration
    — a one-line reproducer over {!Mdst_model.Model.event_to_string}
    vocabulary.

    For graphs beyond exhaustive reach, {!S.walk} runs the {!Lockstep}
    driver under a seeded uniform chooser — random deep walks where the
    DFS does bounded-depth exhaustion. *)

module Graph = Mdst_graph.Graph

type init =
  [ `Clean  (** every node boots via the automaton's [init] *)
  | `Random of int  (** adversarial states + 0–2 junk messages per channel *)
  | `Legitimate
    (** a legitimate configuration built from the Fürer–Raghavachari tree:
        accurate fresh mirrors, empty channels — the closure premise's
        natural starting point *) ]

type stats = {
  configs : int;  (** distinct configurations expanded *)
  transitions : int;  (** event applications (including duplicates' edges) *)
  max_depth_reached : int;
  truncated : bool;  (** a depth or config cap was hit somewhere *)
}

type kind = Conformance_divergence | Closure_violation

type violation = {
  kind : kind;
  path : string;  (** comma-joined events from the init, e.g. ["t0,0>2,t1"] *)
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

val legitimate_states : Graph.t -> Mdst_core.State.t array
(** A legitimate configuration over the Fürer–Raghavachari tree of the
    graph: accurate fresh mirrors, no pending swap or deblock service —
    the [`Legitimate] init, exposed so other harnesses (the schedule
    fuzzer) can seed executions from the closure premise's natural
    starting point. *)

val premise : Graph.t -> Mdst_core.State.t array -> Mdst_core.Msg.t list array -> bool
(** Does the legitimacy-closure premise hold for this configuration?
    (Legitimate tree, no pending swap, accurate fresh mirrors, premise-
    compatible in-flight messages, no Fürer–Raghavachari improvement
    available.)  [channels] is indexed [(src * n) + dst], FIFO order. *)

module type S = sig
  val dfs :
    ?max_depth:int ->
    ?max_configs:int ->
    init:init ->
    Graph.t ->
    stats * violation option
  (** Defaults: [max_depth = 10], [max_configs = 20_000].  Exhaustive for
      the given caps: no violation means {e no} reachable configuration
      within them diverges or breaks closure. *)

  val walk :
    ?steps:int ->
    seed:int ->
    init:[ `Clean | `Random ] ->
    Graph.t ->
    (int, string) result
  (** Random-schedule {!Lockstep} walk: [Ok steps] or [Error detail] on
      the first divergence.  Default [steps = 500]. *)
end

module Default : S

module Suppressed : S
