(** A distributed, {e non-self-stabilizing}, token-serialized MDST algorithm
    in the style of Blin–Butelle [3] — the comparator the paper contrasts
    itself with (§1, "Our results").

    Faithful to [3] in the properties the paper argues about, simplified in
    the bookkeeping:

    - improvements are {e serialized}: the root runs one phase at a time —
      gather (recompute the tree degree k and refresh subtree-membership
      tables), query (collect candidate improving edges), probe (discover
      one fundamental cycle), swap, repeat.  No two improvements ever run
      concurrently, which is exactly the behaviour the paper's
      fundamental-cycle design improves on (experiment E14, cf. E6);
    - every node stores the identifier set of its subtree per child (the
      membership information of [3]): Θ(n log n) bits on path-ish trees —
      metered and compared against the paper's O(δ log n) state;
    - recursive unblocking is not implemented: the algorithm stops when no
      direct improvement applies (degree within one of the FR fixpoint on
      workloads without blocking chains).

    Being non-self-stabilizing, it must start from a proper configuration:
    use {!state_of_tree} (e.g. over a BFS tree).  Corrupted starts are
    outside its contract — that is the paper's whole point. *)

type state

type msg

module Automaton : Mdst_sim.Node.AUTOMATON with type state = state and type msg = msg

val state_of_tree :
  Mdst_graph.Tree.t -> msg Mdst_sim.Node.ctx -> Mdst_util.Prng.t -> state
(** Proper initial configuration over a given spanning tree. *)

val finished : state -> bool
(** Root only: no candidate improving edge remains. *)

val phases : state -> int
(** Root only: improvement phases executed (successful swaps). *)

(** Convergence harness mirroring {!Mdst_core.Run.converge}. *)
type result = {
  converged : bool;
  rounds : int;
  degree : int option;
  total_messages : int;
  max_state_bits : int;
  phases_run : int;
}

val converge :
  ?latency:Mdst_sim.Latency.t ->
  ?seed:int ->
  ?max_rounds:int ->
  ?tree:Mdst_graph.Tree.t ->
  Mdst_graph.Graph.t ->
  result
(** Run the algorithm from [tree] (default: a BFS tree rooted at the
    minimum identifier) until the root declares no further improvement;
    extract the final tree degree. *)

(** Lower-level access for bespoke experiments (e.g. E14 drives the engine
    manually to time the first degree drop). *)
module Sim : module type of Mdst_sim.Pengine.Make (Automaton)

val extract_degree : Mdst_graph.Graph.t -> state array -> int option

val debug_dump : state -> string
(** One-line rendering of the bookkeeping fields (tests and debugging). *)
