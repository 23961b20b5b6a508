(* E17 — a prototype answer to the paper's open problem.

   The conclusion asks for a super-stabilizing MDST: topology changes
   should be absorbed with bounded disruption, not by letting the generic
   self-stabilization machinery churn.  Our [Graceful] variant adds one
   rule: a node whose parent edge vanished re-attaches to a fresh
   same-root neighbour with a strictly smaller distance (provably not its
   own descendant while the pre-fault distances are legitimate) instead of
   resetting to its own root and cascading R2 through the subtree.

   The experiment breaks a converged overlay's tree edge and replays the
   repair under both variants from the identical transplanted state,
   reporting re-stabilization time and availability during the repair. *)

open Exp_common
module Transplant = Mdst_core.Transplant
module Sim = Run.Sim
module Graceful_runner = Run.Runner (Mdst_core.Proto.Graceful)
module Watch_default = Mdst_core.Invariants.Watch (Mdst_core.Proto.Default)
module Watch_graceful = Mdst_core.Invariants.Watch (Mdst_core.Proto.Graceful)
module Prng = Mdst_util.Prng

type arm_result = { rounds : int option; availability : float; outage : int }

let repair_measurement ~seed graph =
  (* Converge once under the default protocol. *)
  let engine = Run.make_engine ~seed graph in
  let stop = Run.make_stop ~fixpoint () in
  let o1 = Sim.run engine ~max_rounds:Run.default_max_rounds ~check_every:2 ~stop () in
  if not o1.converged then None
  else begin
    let states = Array.copy (Sim.states engine) in
    (* Adversarial failure: orphan the largest subtree. *)
    match
      Option.bind
        (Mdst_core.Checker.tree_of_states graph states)
        (Transplant.remove_heaviest_tree_edge graph)
    with
    | None -> None
    | Some (graph', _) ->
        let moved = Transplant.states ~old_graph:graph ~new_graph:graph' states in
        let init = `Custom (fun ctx _ -> moved.(ctx.Mdst_sim.Node.node)) in
        let default_arm =
          let e = Watch_default.Sim.create ~seed:(seed + 1) ~init graph' in
          let stop = Run.make_stop ~fixpoint () in
          let r =
            Watch_default.watch ~engine:e ~max_rounds:Run.default_max_rounds ~stop ()
          in
          {
            rounds = (if r.final_spanning then Some (Watch_default.Sim.rounds e) else None);
            availability = r.availability;
            outage = r.longest_outage;
          }
        in
        let graceful_arm =
          let e = Watch_graceful.Sim.create ~seed:(seed + 1) ~init graph' in
          let stop = Graceful_runner.make_stop ~fixpoint () in
          let r =
            Watch_graceful.watch ~engine:e ~max_rounds:Run.default_max_rounds ~stop ()
          in
          {
            rounds = (if r.final_spanning then Some (Watch_graceful.Sim.rounds e) else None);
            availability = r.availability;
            outage = r.longest_outage;
          }
        in
        Some (default_arm, graceful_arm)
  end

let run ?(quick = false) () =
  let table =
    Table.make
      ~title:"E17: tree-edge failure repair — paper protocol vs graceful-reattach variant"
      ~columns:
        [
          "graph"; "seed"; "repair rounds (paper)"; "repair rounds (graceful)";
          "avail (paper)"; "avail (graceful)";
        ]
  in
  let graphs =
    if quick then [ ("er-16", Workloads.er_with ~n:16 ~avg_deg:4.0 81) ]
    else
      [
        ("er-16", Workloads.er_with ~n:16 ~avg_deg:4.0 81);
        ("er-24", Workloads.er_with ~n:24 ~avg_deg:4.0 82);
        ("geometric-20", Mdst_graph.Gen.by_name "geometric" (Prng.create 83) ~n:20);
      ]
  in
  List.iter
    (fun (name, graph) ->
      List.iter
        (fun seed ->
          match repair_measurement ~seed graph with
          | None -> ()
          | Some (d, g) ->
              Table.add_row table
                [
                  name;
                  Table.cell_int seed;
                  Table.cell_opt Table.cell_int d.rounds;
                  Table.cell_opt Table.cell_int g.rounds;
                  Table.cell_float ~decimals:3 d.availability;
                  Table.cell_float ~decimals:3 g.availability;
                ])
        (if quick then [ 101 ] else seeds 2))
    graphs;
  Table.add_note table
    "both arms replay the identical post-failure state; the graceful rule re-attaches the orphan directly";
  Table.add_note table
    "honest result: on random overlays the rule rarely applies (the orphan usually has no same-or-shallower \
     neighbour), so most rows coincide — the crafted-case test shows the mechanism works when it applies; \
     bounding disruption in general is exactly why the paper leaves super-stabilization open";
  [ table ]
