(* One-call harness: build an engine for the protocol, run it to legitimacy
   plus quiescence, return what the experiments need.

   Convergence is declared when the configuration is legitimate (see
   {!Checker}), the protocol fingerprint has been stable for [quiet_rounds]
   asynchronous rounds, and the caller's [fixpoint] oracle accepts the
   extracted tree.  Searches keep circulating forever — self-stabilizing
   algorithms never halt — but once no improvement applies they no longer
   modify any fingerprinted variable.

   [Runner] is a functor so the ablation variants of {!Proto} (no-deblock,
   no-prune) reuse the same machinery; [Run] itself exposes the default
   protocol instance. *)

module Graph = Mdst_graph.Graph
module Tree = Mdst_graph.Tree
module Latency = Mdst_sim.Latency

type init = [ `Clean | `Random | `Tree of Tree.t ]

type result = {
  converged : bool;
  rounds : int;
  time : float;
  deliveries : int;
  tree : Tree.t option;
  degree : int option;  (** deg(T) of the final tree, when legitimate *)
  messages : (string * int) list;
  total_messages : int;
  total_bits : int;
  max_state_bits : int;
  max_msg_bits : int;
}

type recovery = { first : result; corrupted : int; recovery_rounds : int option }

let default_max_rounds = 60_000

(* Start from a prescribed spanning tree: every node already agrees on the
   tree but dmax bookkeeping boots cold.  This isolates the reduction
   modules from tree construction (used by E6/E7 and many tests). *)
let state_of_tree tree ctx _rng =
  let graph = Tree.graph tree in
  let v = Graph.index_of_id graph ctx.Mdst_sim.Node.id in
  let st = State.clean ctx in
  let root_id = Graph.id graph (Tree.root tree) in
  let parent_id =
    if Tree.parent tree v = v then ctx.Mdst_sim.Node.id else Graph.id graph (Tree.parent tree v)
  in
  { st with State.root = root_id; parent = parent_id; dist = Tree.depth tree v }

module Runner (A : Mdst_sim.Node.AUTOMATON with type state = State.t and type msg = Msg.t) =
struct
  module Sim = Mdst_sim.Pengine.Make (A)
  module Engine = Sim
  module Pengine = Sim

  let make_engine ?(latency = Latency.uniform ()) ?(seed = 42) ?(init = `Clean) ?partition
      ?domains graph =
    let engine_init =
      match (init : init) with
      | `Clean -> `Clean
      | `Random -> `Random
      | `Tree t -> `Custom (state_of_tree t)
    in
    Sim.create ~latency ~seed ~init:engine_init ?partition ?domains graph

  let make_pengine = make_engine

  (* See the module comment for the role of [fixpoint]. *)
  let make_stop ?(quiet_rounds = 60) ?(fixpoint = fun _ -> true) () =
    let last_fp = ref 0 in
    let stable_since = ref (-1) in
    fun t ->
      let states = Sim.states t in
      let fp = Checker.fingerprint states in
      if fp <> !last_fp then begin
        last_fp := fp;
        stable_since := Sim.rounds t
      end;
      !stable_since >= 0
      && Sim.rounds t - !stable_since >= quiet_rounds
      && Checker.legitimate (Sim.graph t) states
      &&
      match Checker.tree_of_states (Sim.graph t) states with
      | Some tree -> fixpoint tree
      | None -> false

  let make_pstop = make_stop

  let snapshot engine ~converged =
    let graph = Sim.graph engine in
    let states = Sim.states engine in
    let tree = Checker.tree_of_states graph states in
    let metrics = Sim.metrics engine in
    {
      converged;
      rounds = Sim.rounds engine;
      time = Sim.now engine;
      deliveries = Mdst_sim.Metrics.deliveries metrics;
      tree;
      degree = Option.map Tree.max_degree tree;
      messages = Mdst_sim.Metrics.messages_by_label metrics;
      total_messages = Mdst_sim.Metrics.total_messages metrics;
      total_bits = Mdst_sim.Metrics.total_bits metrics;
      max_state_bits = Mdst_sim.Metrics.max_state_bits metrics;
      max_msg_bits = Mdst_sim.Metrics.max_msg_bits metrics;
    }

  let converge ?latency ?seed ?init ?(max_rounds = default_max_rounds) ?quiet_rounds ?fixpoint
      ?domains graph =
    let engine = make_engine ?latency ?seed ?init ?domains graph in
    let stop = make_stop ?quiet_rounds ?fixpoint () in
    let outcome = Sim.run engine ~max_rounds ~check_every:2 ~stop () in
    snapshot engine ~converged:outcome.converged

  (* Convergence-then-corruption: steady state, corrupt a fraction of the
     nodes (and their channels), measure re-convergence (experiment E4). *)
  let converge_corrupt_recover ?latency ?(seed = 42) ?init ?(max_rounds = default_max_rounds)
      ?quiet_rounds ?fixpoint ~fraction graph =
    let engine = make_engine ?latency ~seed ?init graph in
    let stop = make_stop ?quiet_rounds ?fixpoint () in
    let outcome1 = Sim.run engine ~max_rounds ~check_every:2 ~stop () in
    let first = snapshot engine ~converged:outcome1.converged in
    if not outcome1.converged then { first; corrupted = 0; recovery_rounds = None }
    else begin
      let corrupted = Sim.corrupt engine ~fraction ~channels:true () in
      let start = Sim.rounds engine in
      let stop = make_stop ?quiet_rounds ?fixpoint () in
      let outcome2 = Sim.run engine ~max_rounds ~check_every:2 ~stop () in
      {
        first;
        corrupted;
        recovery_rounds = (if outcome2.converged then Some (outcome2.rounds - start) else None);
      }
    end
end

module Default_runner = Runner (Proto.Default)
include Default_runner
