(* E13 — topology changes (the paper's concluding open problem: dynamic
   networks / churn).  The protocol was designed for static topologies; we
   measure how it copes when the topology changes under a converged
   overlay:

   - a tree edge is removed (the hard case: the spanning tree is broken
     and the orphaned subtree must re-attach);
   - an edge is added (the easy case: at worst a new improvement chance).

   State is carried across the change by {!Mdst_core.Transplant}: mirrors
   are re-matched by identifier, dangling parents are left for the
   protocol to repair.  This quantifies how far the existing algorithm is
   from the super-stabilization the paper calls for. *)

open Exp_common
module Transplant = Mdst_core.Transplant
module Sim = Run.Sim
module Prng = Mdst_util.Prng

type change = Remove_tree_edge | Add_edge

let change_name = function Remove_tree_edge -> "remove tree edge" | Add_edge -> "add edge"

let run_change ~seed ~change graph =
  let engine = Run.make_engine ~seed graph in
  let stop = Run.make_stop ~fixpoint () in
  let o1 = Sim.run engine ~max_rounds:Run.default_max_rounds ~check_every:2 ~stop () in
  if not o1.converged then None
  else begin
    let states = Array.copy (Sim.states engine) in
    let rng = Prng.create (seed * 97) in
    let mutation =
      match change with
      | Remove_tree_edge -> (
          match Mdst_core.Checker.tree_of_states graph states with
          | Some tree -> Transplant.remove_tree_edge rng graph tree
          | None -> None)
      | Add_edge -> Transplant.add_random_edge rng graph
    in
    match mutation with
    | None -> None
    | Some (new_graph, edge) ->
        let moved = Transplant.states ~old_graph:graph ~new_graph states in
        let engine2 =
          Sim.create ~seed:(seed + 1)
            ~init:(`Custom (fun ctx _ -> moved.(ctx.Mdst_sim.Node.node)))
            new_graph
        in
        let stop2 = Run.make_stop ~fixpoint () in
        let o2 =
          Sim.run engine2 ~max_rounds:Run.default_max_rounds ~check_every:2 ~stop:stop2 ()
        in
        ignore edge;
        let degree =
          Mdst_core.Checker.tree_degree_now new_graph (Sim.states engine2)
        in
        Some (o1.rounds, (if o2.converged then Some o2.rounds else None), degree)
  end

let run ?(quick = false) () =
  let table =
    Table.make ~title:"E13: re-stabilization after a topology change (converged overlay)"
      ~columns:
        [ "graph"; "change"; "initial rounds"; "re-stabilize rounds (median)"; "deg after" ]
  in
  let graphs =
    if quick then [ ("er-16", Workloads.er_with ~n:16 ~avg_deg:4.0 41) ]
    else
      [
        ("er-16", Workloads.er_with ~n:16 ~avg_deg:4.0 41);
        ("er-24", Workloads.er_with ~n:24 ~avg_deg:4.0 42);
        ("grid-4x4", Mdst_graph.Gen.grid ~rows:4 ~cols:4);
      ]
  in
  List.iter
    (fun (name, graph) ->
      List.iter
        (fun change ->
          let outcomes = List.filter_map (fun seed -> run_change ~seed ~change graph) (seeds 3) in
          let initial = List.map (fun (r, _, _) -> r) outcomes in
          let recov = List.filter_map (fun (_, r, _) -> r) outcomes in
          let degs = List.filter_map (fun (_, _, d) -> d) outcomes in
          Table.add_row table
            [
              name;
              change_name change;
              (match initial with [] -> "-" | _ -> Table.cell_int (median_int initial));
              (match recov with [] -> "-" | _ -> Table.cell_int (median_int recov));
              (match degs with [] -> "-" | _ -> Table.cell_int (median_int degs));
            ])
        [ Remove_tree_edge; Add_edge ])
    graphs;
  Table.add_note table
    "removal breaks the spanning tree (orphaned subtree re-attaches); addition at worst opens a new improvement";
  [ table ]
