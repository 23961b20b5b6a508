(* E16 — overlay availability during convergence and repair.

   Self-stabilization says nothing about the journey, only the
   destination; super-stabilization (the paper's closing open problem)
   would bound the disruption along the way.  This experiment quantifies
   the journey for the existing algorithm: while converging from a clean
   tree, from full corruption, and while repairing after a mid-run fault,
   what fraction of sampled configurations had a spanning tree at all, how
   long was the longest outage, and how bad did the tree degree transiently
   get?  These are the baselines a super-stabilizing variant would have to
   beat. *)

open Exp_common
module Invariants = Mdst_core.Invariants
module Sim = Run.Sim

let watch_run ~seed ~init graph =
  let engine = Run.make_engine ~seed ~init graph in
  let stop = Run.make_stop ~fixpoint () in
  Invariants.watch ~engine ~max_rounds:Run.default_max_rounds ~stop ()

let watch_repair ~seed graph =
  let engine = Run.make_engine ~seed graph in
  let stop = Run.make_stop ~fixpoint () in
  ignore (Sim.run engine ~max_rounds:Run.default_max_rounds ~check_every:2 ~stop ());
  ignore (Sim.corrupt engine ~fraction:0.3 ~channels:true ());
  let stop = Run.make_stop ~fixpoint () in
  Invariants.watch ~engine ~max_rounds:Run.default_max_rounds ~stop ()

let row name (r : Invariants.report) =
  [
    name;
    Table.cell_float ~decimals:3 r.availability;
    Table.cell_int r.longest_outage;
    Table.cell_int r.distinct_trees;
    Table.cell_int r.max_degree_seen;
    Table.cell_bool r.final_spanning;
  ]

let run ?(quick = false) () =
  let table =
    Table.make ~title:"E16: overlay availability during convergence and repair (ER n=20)"
      ~columns:
        [
          "scenario"; "availability"; "longest outage (samples)"; "distinct trees";
          "worst deg seen"; "ends spanning";
        ]
  in
  let graph = Workloads.er_with ~n:20 ~avg_deg:4.0 71 in
  let scenarios =
    if quick then [ ("from clean tree", `S (watch_run ~seed:4 ~init:`Clean)) ]
    else
      [
        ("from clean tree", `S (watch_run ~seed:4 ~init:`Clean));
        ("from full corruption", `S (watch_run ~seed:4 ~init:`Random));
        ("repair after 30% fault", `R (watch_repair ~seed:4));
      ]
  in
  List.iter
    (fun (name, s) ->
      let report = match s with `S f -> f graph | `R f -> f graph in
      Table.add_row table (row name report))
    scenarios;
  Table.add_note table
    "availability = fraction of sampled configurations whose parent pointers formed a spanning tree";
  Table.add_note table
    "a super-stabilizing variant (paper's open problem) would push availability towards 1.0 during repair";
  [ table ]
