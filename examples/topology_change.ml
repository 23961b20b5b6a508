(* Topology changes under a live overlay — the paper's concluding open
   problem (dynamic networks), explored with the machinery of experiment
   E13.

   We converge the overlay on a random graph, then hit it with the worst
   structural event: one of its own tree edges disappears (a link failure),
   splitting the spanning tree.  State is carried over as-is — dangling
   parent pointers included — and the protocol must notice and re-attach
   the orphaned subtree.  Then we do the friendly event: a brand-new link
   appears, and if it is an improving edge the protocol exploits it.

   `dune exec examples/topology_change.exe` *)

module Graph = Mdst_graph.Graph
module Tree = Mdst_graph.Tree
module Run = Mdst_core.Run
module Sim = Run.Sim
module Transplant = Mdst_core.Transplant

let fixpoint t = not (Mdst_baseline.Fr.improvable t)

let converge_on ?(states = None) graph =
  let engine =
    match states with
    | None -> Run.make_engine ~seed:9 graph
    | Some arr ->
        Sim.create ~seed:10 ~init:(`Custom (fun ctx _ -> arr.(ctx.Mdst_sim.Node.node))) graph
  in
  let stop = Run.make_stop ~fixpoint () in
  let o = Sim.run engine ~max_rounds:40_000 ~check_every:2 ~stop () in
  (engine, o)

let () =
  let rng = Mdst_util.Prng.create 2718 in
  let graph = Mdst_graph.Gen.erdos_renyi_connected rng ~n:20 ~p:0.22 in
  Printf.printf "overlay: %d nodes, %d links\n" (Graph.n graph) (Graph.m graph);

  let engine, o1 = converge_on graph in
  let tree =
    match Mdst_core.Checker.tree_of_states graph (Sim.states engine) with
    | Some t -> t
    | None -> failwith "did not converge; raise max_rounds"
  in
  Printf.printf "converged in %d rounds at tree degree %d\n\n" o1.rounds (Tree.max_degree tree);

  (* Event 1: a tree link fails. *)
  (match Transplant.remove_tree_edge rng graph tree with
  | None -> print_endline "every tree edge is a bridge here; no removable link"
  | Some (graph', (u, v)) ->
      Printf.printf "link failure: tree edge %d--%d vanishes (subtree orphaned)\n" u v;
      let moved =
        Transplant.states ~old_graph:graph ~new_graph:graph' (Sim.states engine)
      in
      let engine', o2 = converge_on ~states:(Some moved) graph' in
      let deg =
        match Mdst_core.Checker.tree_degree_now graph' (Sim.states engine') with
        | Some d -> string_of_int d
        | None -> "?"
      in
      Printf.printf "  re-stabilized: %b after %d rounds, tree degree %s\n\n" o2.converged
        o2.rounds deg);

  (* Event 2: a new link appears. *)
  match Transplant.add_random_edge rng graph with
  | None -> print_endline "graph already complete"
  | Some (graph', (u, v)) ->
      Printf.printf "new link: %d--%d appears\n" u v;
      let moved = Transplant.states ~old_graph:graph ~new_graph:graph' (Sim.states engine) in
      let engine', o3 = converge_on ~states:(Some moved) graph' in
      let deg =
        match Mdst_core.Checker.tree_degree_now graph' (Sim.states engine') with
        | Some d -> string_of_int d
        | None -> "?"
      in
      Printf.printf "  absorbed: %b after %d rounds, tree degree %s\n" o3.converged o3.rounds deg;
      print_endline
        "\nThe protocol handles both events by self-stabilization alone; a\n\
         super-stabilizing variant (the paper's open problem) would additionally\n\
         bound the disruption during the repair."
